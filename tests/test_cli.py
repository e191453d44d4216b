import json

import pytest

from sring.cli import parse_group, run
from sring.groups import GroupDescriptor


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseGroup:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Z", (0, 1)),
            ("Z3", (1, 3)),
            ("Z6", (1, 6)),
            ("ZxZ3", (0, 3)),
            ("Z2xZ3", (2, 3)),
            ("Z4xZ3", (4, 3)),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_group(text) == GroupDescriptor(*expected)

    def test_rejected(self):
        with pytest.raises(ValueError):
            parse_group("D4")


class TestConstructVerifyClassify:
    def test_orbit_pipeline(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "construct", "--kind", "orbit", "--params", '{"gens":["psi"]}'
        )
        assert code == 0
        path = tmp_path / "psi.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "--json", "classify", str(path))
        assert code == 0
        descriptor = json.loads(out)
        assert descriptor["variant"] == "orbit" and descriptor["generators"] == ["psi"]

    def test_resynthesize_is_byte_identical(self, capsys, tmp_path):
        code, constructed, _ = invoke(
            capsys,
            "construct",
            "--kind",
            "wedge",
            "--params",
            '{"step":2,"inner":"discrete","outer":"discrete"}',
        )
        assert code == 0
        path = tmp_path / "w.json"
        path.write_text(constructed)
        code, rebuilt, _ = invoke(capsys, "classify", "--resynthesize", str(path))
        assert code == 0
        assert rebuilt == constructed

    def test_verify_valid_exit_zero(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "--kind", "discrete", "--window", "4")
        path = tmp_path / "d.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 0 and "valid-up-to-window" in out

    def test_verify_invalid_exit_one(self, capsys, tmp_path):
        data = {
            "group": {"free": 1, "torsion": 4},
            "window": 0,
            "classes": [[[0, 0]], [[0, 1], [0, 2]], [[0, 3]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 1 and "star-closure" in out

    def test_verify_malformed_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"group": oops')
        code, _, _ = invoke(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "classify", "check-lemmas"])
    def test_missing_file_exit_two(self, capsys, tmp_path, command):
        missing = str(tmp_path / "missing.json")
        code, out, _ = invoke(capsys, "--json", command, missing)
        assert code == 2
        assert "missing.json" in json.loads(out)["error"]
        code, out, _ = invoke(capsys, command, missing)
        assert code == 2 and out.startswith("malformed:")

    def test_outside_window_exit_two(self, capsys, tmp_path):
        classes = [[[0, i]] for i in range(3)] + [[[k, i]] for k in (1, -1) for i in range(3)]
        data = {"group": {"free": "Z", "torsion": 3}, "window": 1,
                "classes": classes + [[[5, 0]], [[-5, 0]]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        for command in ("verify", "check-lemmas"):
            code, out, _ = invoke(capsys, "--json", command, str(path))
            assert code == 2 and "outside window" in json.loads(out)["error"]

    def test_classify_window_too_small_exit_three(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "--kind", "discrete", "--window", "2")
        path = tmp_path / "small.json"
        path.write_text(out)
        code, _, _ = invoke(capsys, "classify", str(path))
        assert code == 3

    def test_construct_json_is_canonical(self, capsys):
        _, first, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z5"}')
        _, second, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z5"}')
        assert first == second
        data = json.loads(first)
        assert data["classes"][0] == [[0, 0]]

    def test_construct_tensor(self, capsys):
        _, sym, _ = invoke(
            capsys, "construct", "--kind", "orbit",
            "--params", '{"group":"Z","gens":[{"z":[0,-1],"a":0}]}', "--window", "4",
        )
        _, tors, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z3"}')
        params = json.dumps({"left": json.loads(sym), "right": json.loads(tors)})
        code, out, _ = invoke(capsys, "construct", "--kind", "tensor", "--params", params)
        assert code == 0
        data = json.loads(out)
        assert data["group"] == {"free": "Z", "torsion": 3}
        assert [[1, 1], [1, 2]] not in data["classes"]  # torsion pairs stay joined across signs

    def test_construct_infinite_trivial_fails_cleanly(self, capsys):
        code, _, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"ZxZ3"}')
        assert code == 2


class TestEnumerate:
    def test_group_z3(self, capsys):
        code, out, err = invoke(capsys, "enumerate", "--group", "Z3")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 2
        assert "2 presentations" in err

    def test_json_mode_is_jsonl(self, capsys):
        code, out, _ = invoke(capsys, "--json", "enumerate", "--group", "Z4")
        assert code == 0
        lines = out.splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["count"] == 3
        assert parsed[-1]["traditionality"] == {"orbit": 2, "trivial": 1}

    def test_windowed(self, capsys):
        code, out, _ = invoke(capsys, "--json", "enumerate", "--windowed", "3", "--projection", "discrete")
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])
        assert summary["count"] == len(lines) - 1 > 0


class TestCheckLemmas:
    def test_all_pass_on_orbit_ring(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "--kind", "orbit", "--params", '{"gens":["rho"]}')
        path = tmp_path / "rho.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "check-lemmas", str(path))
        assert code == 0
        assert "FAIL" not in out
        for needle in ("frobenius-closure k=7", "torsion-s-subgroup", "multiplier-sets p=3", "class-shape"):
            assert needle in out

    def test_json_mode(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "--kind", "orbit", "--params", '{"gens":["sigma"]}')
        path = tmp_path / "sigma.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "--json", "check-lemmas", str(path))
        assert code == 0
        data = json.loads(out)
        assert all(check["ok"] for check in data["checks"])

    def test_failure_exit_code(self, capsys, tmp_path):
        data = {
            "group": {"free": 1, "torsion": 4},
            "window": 0,
            "classes": [[[0, 0]], [[0, 1], [0, 2]], [[0, 3]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = invoke(capsys, "check-lemmas", str(path))
        assert code == 1 and "FAIL" in out


class TestConfigPrecedence:
    def test_flag_beats_env_beats_file_beats_default(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "sring.cfg"
        config.write_text("window = 4\n")

        # file beats default
        _, out, _ = invoke(
            capsys, "--config", str(config), "construct", "--kind", "discrete"
        )
        assert json.loads(out)["window"] == 4

        # env beats file
        monkeypatch.setenv("SRING_WINDOW", "5")
        _, out, _ = invoke(
            capsys, "--config", str(config), "construct", "--kind", "discrete"
        )
        assert json.loads(out)["window"] == 5

        # flag beats env
        _, out, _ = invoke(
            capsys,
            "--config",
            str(config),
            "construct",
            "--kind",
            "discrete",
            "--window",
            "6",
        )
        assert json.loads(out)["window"] == 6

    def test_default_window(self, capsys):
        _, out, _ = invoke(capsys, "construct", "--kind", "discrete")
        assert json.loads(out)["window"] == 12

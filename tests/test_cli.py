import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sring import cli, enumerate_finite, enumerate_windowed
from sring.cli import parse_group, run
from sring.groups import GroupDescriptor

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one call, argparse's own exits included."""
    try:
        code = run(argv)
    except SystemExit as ex:
        code = ex.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _discrete_w1(torsion):
    return [[[z, a]] for z in (-1, 0, 1) for a in range(torsion)]


# Input files of the regression table; "@name" in an argv names the file.
# "@deep" nests deeper than the JSON parser can follow.  The Z x Z_1 file is
# a valid window-1 ring, so that a bool, float or string window or torsion is
# the only fault in it, and with a window of 10^12 its gap must be found
# without listing the window.
ZZ1 = {"group": {"free": "Z", "torsion": 1}, "window": 1, "classes": _discrete_w1(1)}
FLOAT_EXPONENT = {
    "group": {"free": "Z", "torsion": 3},
    "window": 1,
    "classes": [[[1.9, 0]] if c == [[1, 0]] else c for c in _discrete_w1(3)],
}
OUT_OF_WINDOW = {
    "group": {"free": "Z", "torsion": 3},
    "window": 3,
    "classes": [[[z, a]] for z in range(-3, 4) for a in range(3)] + [[[5, 0]], [[-5, 0]]],
}
# Z5 with the two inverse pairs as classes: a ring, but a finite group has no window
FINITE_WINDOW = {
    "group": {"free": 1, "torsion": 5},
    "window": -3,
    "classes": [[[0, 0]], [[0, 1], [0, 4]], [[0, 2], [0, 3]]],
}
# {1}, {a, a^2}, {z^-1, z a^2}, {z^-1 a, z}, {z^-1 a^2, z a}: no Schur ring extends it
WINDOW_1_NOT_A_RING = {
    "group": {"free": "Z", "torsion": 3},
    "window": 1,
    "classes": [[[0, 0]], [[0, 1], [0, 2]], [[-1, 0], [1, 2]], [[-1, 1], [1, 0]], [[-1, 2], [1, 1]]],
}
# discrete at window 3 with {z^-3} and {z^-1} merged: {z^-1 a}^[3] = {z^-3} is half a class
MERGED_INVERSES = {
    "group": {"free": "Z", "torsion": 3},
    "window": 3,
    "classes": [[[-3, 0], [-1, 0]]] + [[[z, a]] for z in range(-3, 4) for a in range(3)
                                       if (z, a) not in ((-3, 0), (-1, 0))],
}
# Exponents off their range, and an element named twice in one class: each
# would reduce or merge into a valid ring, so the input is refused instead.
# name -> (presentation, the error that names the element)
LEVEL_1 = [[[z, a]] for z in (-1, 1) for a in range(3)]
UNREDUCED = {
    "torsion_negative": ({"group": {"free": "Z", "torsion": 3}, "window": 1,
                          "classes": [[[0, 0]], [[0, 1], [0, 2], [0, -1]], *LEVEL_1]},
                         "element [0, -1]: torsion exponent outside [0, 3)"),
    "torsion_too_large": ({"group": {"free": "Z", "torsion": 3}, "window": 1,
                           "classes": [[[0, 0]], [[0, 1], [0, 5]], *LEVEL_1]},
                          "element [0, 5]: torsion exponent outside [0, 3)"),
    "free_negative": ({"group": {"free": 3, "torsion": 1}, "window": 0,
                       "classes": [[[0, 0]], [[1, 0], [-1, 0]]]},
                      "element [-1, 0]: free exponent outside [0, 3)"),
    "free_too_large": ({"group": {"free": 3, "torsion": 1}, "window": 0,
                        "classes": [[[3, 0]], [[1, 0], [2, 0]]]},
                       "element [3, 0]: free exponent outside [0, 3)"),
    "repeated": ({"group": {"free": 2, "torsion": 1}, "window": 0,
                  "classes": [[[0, 0]], [[1, 0], [1, 0]]]},
                 "element [1, 0] appears twice in one class"),
}
INPUTS = {
    **{name: data for name, (data, _) in UNREDUCED.items()},
    "array": [],
    "group5": {"group": 5, "window": 1, "classes": []},
    "classes5": {"group": {"free": "Z", "torsion": 3}, "window": 1, "classes": 5},
    "float_exponent": FLOAT_EXPONENT,
    "out_of_window": OUT_OF_WINDOW,
    "finite_window": FINITE_WINDOW,
    # Z x Z_3 is written "Z", as to_json writes it; free order 0 is refused as in parse_group
    "free_zero": {"group": {"free": 0, "torsion": 3}, "window": 1, "classes": _discrete_w1(3)},
    "huge_window": {**ZZ1, "window": 10**12},
    **{f"window_{name}": {**ZZ1, "window": value}
       for name, value in (("bool", True), ("float", 1.0), ("string", "1"))},
    **{f"torsion_{name}": {**ZZ1, "group": {"free": "Z", "torsion": value}}
       for name, value in (("bool", True), ("float", 1.0), ("string", "1"))},
}

CONSTRUCT = ["construct", "--kind", "discrete"]
MALFORMED = [
    pytest.param(CONSTRUCT + ["--params", "{bad"], id="params-not-json"),
    pytest.param(CONSTRUCT + ["--params", "[]"], id="params-array"),
    pytest.param(CONSTRUCT + ["--params", '{"group":"Z0"}'], id="params-group-Z0"),
    pytest.param(CONSTRUCT + ["--window", "1", "--params", '{"group":"Z0xZ3"}'],
                 id="params-group-Z0xZ3"),
    pytest.param(CONSTRUCT + ["--params", '{"group":"Z99999999999999999999"}'],
                 id="params-group-too-large"),
    pytest.param(CONSTRUCT + ["--window", "10000000"], id="window-too-large"),
    pytest.param(CONSTRUCT + ["--params", '{"group":5}'], id="params-group-int"),
    pytest.param(["construct", "--kind", "wedge", "--params", '{"step":2.5}'],
                 id="params-step-float"),
    pytest.param(["construct", "--kind", "wedge", "--params", '{"step":-1}'],
                 id="params-step-negative"),
    pytest.param(CONSTRUCT + ["--params", "[" * 100_000], id="params-nested-too-deep"),
    pytest.param(["construct", "--kind", "orbit", "--params", '{"gens":[5]}'],
                 id="params-gens-int"),
    pytest.param(["construct", "--kind", "orbit", "--params", '{"gens":[{"z":[1,true],"a":1}]}'],
                 id="params-gens-bool-exponent"),
    pytest.param(["enumerate", "--group", "Z3", "--projection", "symmetric"],
                 id="projection-without-windowed"),
    pytest.param(["enumerate", "--windowed", "3", "--finite-bound", "16"],
                 id="finite-bound-with-windowed"),
    pytest.param(["enumerate", "--windowed", "13"], id="windowed-above-cap"),
    *[pytest.param(["enumerate", "--group", text], id=f"enumerate-group-{text}")
      for text in ("Z0", "ZxZ0", "Z3xZ0")],
    *[pytest.param([*command.split(), f"@{name}"], id=f"{command}-{name}")
      for command in ("verify", "classify", "check-lemmas")
      for name in ("array", "group5", "classes5", "float_exponent", "deep", "huge_window",
                   "finite_window", "free_zero")],
    *[pytest.param(["verify", f"@{field}_{kind}"], id=f"verify-{field}-{kind}")
      for field in ("window", "torsion") for kind in ("bool", "float", "string")],
    *[pytest.param([*command.split(), "@out_of_window"], id=f"{command}-out-of-window")
      for command in ("classify", "classify --resynthesize")],
    *[pytest.param([*command.split(), f"@{name}"], id=f"{command}-{name}")
      for command in ("verify", "check-lemmas", "classify --resynthesize")
      for name in UNREDUCED],
]


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

    @pytest.mark.parametrize("group,text", [
        ((0, 1), "Z"), ((0, 3), "ZxZ3"), ((1, 12), "Z12"), ((2, 6), "Z2xZ6"), ((1, 1), "Z1"),
        ((12, 1), "Z12xZ1"),
    ])
    def test_descriptor_text_is_what_parse_group_reads(self, group, text):
        assert str(GroupDescriptor(*group)) == text
        assert parse_group(text) == GroupDescriptor(*group)

    def test_every_descriptor_round_trips_through_its_text(self):
        for n in range(7):
            for m in range(1, 7):
                group = GroupDescriptor(n, m)
                assert parse_group(str(group)) == group

    @pytest.mark.parametrize("text", ["Z0xZ3", "Z00xZ2"])
    def test_written_free_order_zero_rejected(self, text):
        with pytest.raises(ValueError, match="free order"):
            parse_group(text)

    @pytest.mark.parametrize("text", ["Z0", "ZxZ0", "Z3xZ0", "Z00"])
    def test_cyclic_order_zero_rejected_with_the_input(self, text):
        with pytest.raises(ValueError, match=f"^cyclic order must be positive in '{text}'$"):
            parse_group(text)


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

    def test_verify_checks_a_pair_that_reaches_past_the_window(self, capsys, tmp_path):
        # {z^-1, z a^2}^2 is 2a^2 on window 1, not constant on {a, a^2}
        path = tmp_path / "w1.json"
        path.write_text(json.dumps(WINDOW_1_NOT_A_RING))
        code, out, _ = invoke(capsys, "--json", "verify", str(path))
        report = json.loads(out)
        assert code == 1 and report["verdict"] == "invalid"
        assert report["witness"]["kind"] == "product-closure"
        assert report["witness"]["left"] == report["witness"]["right"] == [[-1, 0], [1, 2]]

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

    @pytest.mark.parametrize("window", [1, 2])
    def test_classify_every_ring_below_window_3(self, capsys, monkeypatch, window):
        # re-synthesis certifies the answer, so a small window needs no floor
        for P in enumerate_windowed(window):
            text = json.dumps(P.to_json(), sort_keys=True) + "\n"
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert invoke(capsys, "--json", "classify", "-")[0] == 0, P.describe()
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert invoke(capsys, "--json", "classify", "--resynthesize", "-")[:2] == (0, text)

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

    def test_windowed_ignores_a_bound_from_the_environment(self, capsys, monkeypatch):
        # only the --finite-bound flag is rejected with --windowed
        monkeypatch.setenv("SRING_FINITE_BOUND", "16")
        code, out, _ = invoke(capsys, "--json", "enumerate", "--windowed", "1")
        assert code == 0 and json.loads(out.splitlines()[-1])["count"] == 15


def lemma_rows(capsys, monkeypatch, presentation):
    """Exit code and {row name: ok} of ``--json check-lemmas -`` on a presentation."""
    text = presentation if isinstance(presentation, str) else json.dumps(presentation)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = invoke(capsys, "--json", "check-lemmas", "-")
    return code, {check["name"]: check["ok"] for check in json.loads(out)["checks"]}


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


    def test_both_routes_reject_a_pair_that_reaches_past_the_window(self, capsys, tmp_path):
        path = tmp_path / "w1.json"
        path.write_text(json.dumps(WINDOW_1_NOT_A_RING))
        code, out, _ = invoke(capsys, "--json", "check-lemmas", str(path))
        checks = {check["name"]: check for check in json.loads(out)["checks"]}
        assert code == 1
        assert not checks["axioms"]["ok"] and checks["axioms"]["detail"] == "verdict invalid"
        assert checks["wielandt-agreement"]["ok"]

    def test_a_multiplier_set_past_the_window_is_a_lemma_failure(self, capsys, monkeypatch):
        code, rows = lemma_rows(capsys, monkeypatch, MERGED_INVERSES)
        assert code == 1 and rows["multiplier-sets p=3"] is False

    def test_the_rows_on_z_x_z3_are_unchanged(self, capsys, monkeypatch):
        _, out, _ = invoke(capsys, "construct", "--kind", "discrete", "--window", "3")
        code, rows = lemma_rows(capsys, monkeypatch, out)
        assert code == 0 and list(rows) == [
            "axioms", "wielandt-agreement", "frobenius-closure k=2", "frobenius-closure k=4",
            "frobenius-closure k=5", "frobenius-closure k=7", "torsion-s-subgroup",
            "multiplier-sets p=3", "class-shape", "small-class-powers",
        ]

    @pytest.mark.parametrize("group,powers", [
        ("ZxZ5", []), ("ZxZ1", []), ("Z6", [5, 7]), ("Z2xZ5", [7]), ("Z35", [2, 4]),
    ])
    def test_other_groups_get_only_the_rows_that_are_theorems(self, capsys, monkeypatch, group,
                                                             powers):
        params = json.dumps({"group": group})
        _, out, _ = invoke(capsys, "construct", "--kind", "discrete", "--params", params,
                           "--window", "6")
        code, rows = lemma_rows(capsys, monkeypatch, out)
        assert code == 0 and list(rows) == [
            "axioms", "wielandt-agreement", *(f"frobenius-closure k={k}" for k in powers)]


FINITE_UP_TO_12 = [GroupDescriptor(n, m) for n in range(1, 13) for m in range(1, 12 // n + 1)]


class TestCheckLemmasOnEveryCensusRing:
    @pytest.mark.parametrize("group", FINITE_UP_TO_12, ids=str)
    def test_finite(self, capsys, monkeypatch, group):
        codes = [lemma_rows(capsys, monkeypatch, P.to_json())[0] for P in enumerate_finite(group)]
        assert codes == [0] * len(codes)

    @pytest.mark.parametrize("window", range(3, 7))
    def test_windowed(self, capsys, monkeypatch, window):
        outcomes = [lemma_rows(capsys, monkeypatch, P.to_json())
                    for P in enumerate_windowed(window)]
        assert [code for code, _ in outcomes] == [0] * (11 * window + 4)
        assert all(rows["small-class-powers"] for _, rows in outcomes)

    @pytest.mark.parametrize("window", [1, 2])
    def test_windowed_below_window_3_has_no_small_class_powers_row(self, capsys, monkeypatch,
                                                                   window):
        # find_H cannot see a free S-subgroup below window 3, so the row is left out
        outcomes = [lemma_rows(capsys, monkeypatch, P.to_json())
                    for P in enumerate_windowed(window)]
        assert [code for code, _ in outcomes] == [0] * (11 * window + 4)
        assert all(list(rows)[-1] == "class-shape" for _, rows in outcomes)


class TestConfigPrecedence:
    @pytest.mark.parametrize("config", [["--config", "x"], ["--config=x"]], ids=["space", "equals"])
    def test_config_option_is_gone(self, capsys, config):
        # settings come from their flags alone: argparse refuses the option
        code, out, err = outcome(capsys, [*config, "construct", "--kind", "discrete"])
        assert code == 2 and out == "" and err.startswith("usage: sring") and "error:" in err

    @pytest.mark.parametrize("argv", [CONSTRUCT, ["enumerate", "--group", "Z3"]],
                             ids=["construct", "enumerate"])
    def test_environment_is_not_read(self, capsys, monkeypatch, argv):
        expected = invoke(capsys, *argv)[:2]
        monkeypatch.setenv("SRING_WINDOW", "abc")
        monkeypatch.setenv("SRING_FINITE_BOUND", "abc")
        assert invoke(capsys, *argv)[:2] == expected

    def test_default_window(self, capsys):
        _, out, _ = invoke(capsys, "construct", "--kind", "discrete")
        assert json.loads(out)["window"] == 12

    @pytest.mark.parametrize(
        "argv,variable",
        [
            (["enumerate", "--windowed", "1"], "SRING_WINDOW"),
            (["construct", "--kind", "discrete", "--window", "1"], "SRING_FINITE_BOUND"),
            (["enumerate", "--group", "Z3"], "SRING_ORBIT_BOUND"),
        ],
        ids=["window-with-windowed", "finite-bound-with-construct", "orbit-bound-with-enumerate"],
    )
    def test_a_setting_the_command_does_not_read_is_not_parsed(
        self, capsys, monkeypatch, argv, variable
    ):
        monkeypatch.setenv(variable, "abc")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out


class TestInputBoundary:
    """Malformed input exits 2 with one error line, never with a traceback."""

    @pytest.fixture
    def paths(self, tmp_path):
        for name, data in INPUTS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        (tmp_path / "deep.json").write_text("[" * 100_000)
        return lambda argv: [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a
                             for a in argv]

    @pytest.mark.parametrize("argv", MALFORMED)
    def test_malformed_exits_two(self, capsys, paths, argv):
        code, out, err = outcome(capsys, paths(argv))
        assert (code, err) == (2, "") and out.startswith("malformed: ")
        code, out, err = outcome(capsys, paths(["--json", *argv]))
        assert (code, err) == (2, "") and set(json.loads(out)) == {"error"}

    @pytest.mark.parametrize("name", UNREDUCED)
    def test_unreduced_or_repeated_element_is_named(self, capsys, paths, name):
        code, out, _ = outcome(capsys, paths(["--json", "verify", f"@{name}"]))
        assert (code, json.loads(out)) == (2, {"error": UNREDUCED[name][1]})

    def test_float_exponent_is_not_truncated(self, capsys, paths):
        code, out, _ = outcome(capsys, paths(["verify", "@float_exponent"]))
        assert code == 2 and "[1.9, 0]" in out

    def test_verify_window_flag_is_gone(self, capsys, paths):
        code, out, err = outcome(capsys, paths(["verify", "--window", "4", "@float_exponent"]))
        assert code == 2 and out == "" and "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_orbit_bound_flag_is_gone(self, capsys):
        code, out, err = outcome(capsys, ["construct", "--orbit-bound", "5", "--kind", "orbit"])
        assert code == 2 and out == "" and "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_classify_checks_the_partition(self, capsys, paths):
        code, out, _ = outcome(capsys, paths(["--json", "classify", "@out_of_window"]))
        assert code == 2 and "outside window" in json.loads(out)["error"]

    def test_classify_other_group_is_unclassifiable(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z5"}')
        path = tmp_path / "z5.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "classify", str(path))
        assert code == 1 and out.startswith("unclassifiable: ")

    @pytest.mark.parametrize("text", ["Z0", "ZxZ0", "Z3xZ0"])
    def test_enumerate_zero_order_names_the_input(self, capsys, text):
        code, out, _ = invoke(capsys, "--json", "enumerate", "--group", text)
        assert (code, json.loads(out)) == (
            2, {"error": f"cyclic order must be positive in '{text}'"}
        )

    def test_classify_other_group_prints_the_descriptor(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z4"}')
        path = tmp_path / "z4.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "classify", str(path))
        assert (code, out) == (1, "unclassifiable: classification is defined over Z x Z_3, "
                                  "got Z4\n")

    def test_construct_tensor_of_two_torsion_groups_prints_both_descriptors(self, capsys):
        _, left, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z2"}')
        _, right, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z3"}')
        params = json.dumps({"left": json.loads(left), "right": json.loads(right)})
        code, out, _ = invoke(capsys, "--json", "construct", "--kind", "tensor", "--params", params)
        assert (code, json.loads(out)) == (2, {"error": (
            "cannot realize Z2 x Z3 as a free x torsion group"
        )})

    def test_construct_tensor_of_two_rings_over_z_names_both_groups(self, capsys):
        _, ring, _ = invoke(capsys, "--json", "construct", "--kind", "discrete",
                            "--window", "2", "--params", '{"group": "Z"}')
        params = json.dumps({"left": json.loads(ring), "right": json.loads(ring)})
        code, out, _ = invoke(capsys, "construct", "--kind", "tensor", "--params", params)
        assert (code, out) == (2, "malformed: cannot realize Z x Z as a free x torsion group\n")

    def test_construct_window_too_small_exits_three(self, capsys):
        code, out, _ = invoke(capsys, "--json", "construct", "--kind", "discrete", "--window", "0")
        assert code == 3 and "window" in json.loads(out)["error"]

    def test_construct_wedge_step_above_the_window_exits_three(self, capsys):
        code, out, _ = invoke(
            capsys, "construct", "--kind", "wedge", "--params", '{"step":13}', "--window", "12"
        )
        assert (code, out) == (3, "window too small: step 13 needs a window of at least 13, got 12\n")

    def test_construct_long_orbits(self, capsys, tmp_path):
        # z -> az over Z x Z_100: the orbit of z has 100 elements, and no bound applies
        params = '{"group":"ZxZ100","gens":[{"z":[1,1],"a":1}]}'
        code, out, _ = invoke(capsys, "construct", "--kind", "orbit", "--params", params, "--window", "1")
        assert code == 0 and json.loads(out)["window"] == 1
        path = tmp_path / "long.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 0 and "valid-up-to-window" in out

    @pytest.mark.parametrize("kind", ["discrete", "orbit", "wedge"])
    def test_construct_size_cap_on_the_window(self, capsys, monkeypatch, kind):
        # a window-w construction over Z x Z_3 emits (2w + 1) * 3 elements
        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ELEMENTS", 21)
        code, _, _ = invoke(capsys, "construct", "--kind", kind, "--window", "3")
        assert code == 0
        code, out, _ = invoke(capsys, "--json", "construct", "--kind", kind, "--window", "4")
        assert code == 2 and "27 elements" in json.loads(out)["error"]

    def test_construct_size_cap_on_a_finite_group(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ELEMENTS", 12)
        code, _, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z4xZ3"}')
        assert code == 0
        code, out, _ = invoke(capsys, "construct", "--kind", "trivial", "--params", '{"group":"Z13"}')
        assert code == 2 and out.startswith("malformed: ") and "13 elements" in out

    def test_construct_size_cap_on_a_tensor(self, capsys, monkeypatch):
        # a tensor emits one element per pair of input elements: 3 * 3 here
        left = {"group": {"free": "Z", "torsion": 1}, "window": 1, "classes": _discrete_w1(1)}
        right = {"group": {"free": 1, "torsion": 3}, "window": 0,
                 "classes": [[[0, 0]], [[0, 1], [0, 2]]]}
        argv = ["construct", "--kind", "tensor", "--params", json.dumps({"left": left, "right": right})]
        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ELEMENTS", 9)
        assert invoke(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ELEMENTS", 8)
        code, out, _ = invoke(capsys, *argv)
        assert code == 2 and "9 elements" in out

    @pytest.mark.parametrize("classes,window,reason", [
        ([[[0, 0]], [[1, 0]]], 1, "group not covered, e.g. z^-1"),
        (_discrete_w1(1) + [[[1, 0]]], 1, "classes overlap"),
        (_discrete_w1(1) + [[[5, 0]]], 1, "z^5 lies outside window 1"),
        ([[[0, 0]]], 0, "windowed presentation needs window >= 1"),
    ], ids=["gap", "overlap", "outside-the-window", "window-0"])
    def test_construct_tensor_rejects_a_malformed_factor(self, capsys, classes, window, reason):
        left = {"group": {"free": "Z", "torsion": 1}, "window": window, "classes": classes}
        right = {"group": {"free": 1, "torsion": 3}, "window": 0,
                 "classes": [[[0, 0]], [[0, 1], [0, 2]]]}
        for first, second in [(left, right), (right, left)]:
            params = json.dumps({"left": first, "right": second})
            argv = ["--json", "construct", "--kind", "tensor", "--params", params]
            code, out, _ = invoke(capsys, *argv)
            assert (code, json.loads(out)) == (2, {"error": reason})

    # over Z5, {a, a^4} * {a^2} = a^3 + a^6 = a + a^3 is not constant on {a, a^4}
    Z5_SPLIT = ({"group": {"free": 1, "torsion": 5}, "window": 0,
                 "classes": [[[0, 0]], [[0, 1], [0, 4]], [[0, 2]], [[0, 3]]]},
                "product is not constant on class {a, a^4}")
    Z3_IDENTITY = ({"group": {"free": 1, "torsion": 3}, "window": 0,
                    "classes": [[[0, 0], [0, 1]], [[0, 2]]]},
                   "the identity must form a singleton class")

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("factor,detail", [Z5_SPLIT, Z3_IDENTITY], ids=["product", "identity"])
    def test_construct_tensor_rejects_a_factor_that_is_no_ring(self, capsys, side, factor, detail):
        ring = {"group": {"free": "Z", "torsion": 1}, "window": 1, "classes": _discrete_w1(1)}
        params = {"left": ring, "right": ring} | {side: factor}
        code, out, _ = invoke(capsys, "--json", "construct", "--kind", "tensor",
                              "--params", json.dumps(params))
        error = f"the {side} factor is not a Schur ring: {detail}"
        assert (code, out) == (1, json.dumps({"error": error}) + "\n")
        code, out, _ = invoke(capsys, "construct", "--kind", "tensor", "--params", json.dumps(params))
        assert (code, out) == (1, f"invalid: {error}\n")


class TestEntryPoint:
    """``python -m sring.cli`` as a subprocess: main() and sys.exit included."""

    @pytest.mark.parametrize(
        "argv,stdin",
        [
            (["construct", "--kind", "discrete", "--params", "{bad"], ""),
            (["--json", "verify", "-"], "[]"),
            (["--json", "verify", "-"], json.dumps(FINITE_WINDOW)),
        ],
    )
    def test_malformed_exits_two(self, argv, stdin):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-m", "sring.cli", *argv], input=stdin,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stdout.strip()

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
    def test_closed_stdout_exits_two_without_traceback(self, mode):
        # like `sring construct ... | head -c 10`: the reader leaves after 10 bytes
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-m", "sring.cli", *mode,
                "construct", "--kind", "discrete", "--window", "3000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
            assert proc.stderr.read() == b""

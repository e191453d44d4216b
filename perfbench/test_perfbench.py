"""Tests of the benchmark itself: its oracle, its inputs and its tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from run import CallResult, Runner  # noqa: E402
from workloads import Op, check  # noqa: E402


@pytest.fixture(scope="module")
def sring():
    return layers.sring_modules(str(ROOT / "src"))


def cli(sring, argv, stdin=""):
    return layers.call_cli(sring["cli"].run, argv, stdin)


# -- the oracle marks each kind of wrong result as a failed op ----------------


def test_wrong_verdict_fails():
    op = Op("verify", ["--json", "verify", "-"], {"rc": 0, "verdict": "valid-up-to-window"})
    good = json.dumps({"verdict": "valid-up-to-window", "checked_pairs": 9, "witness": None})
    bad = json.dumps({"verdict": "invalid", "checked_pairs": 9,
                      "witness": {"kind": "product-closure"}})
    assert check(op, 0, good + "\n", []) is None
    assert "verdict" in check(op, 0, bad + "\n", [])
    assert "exit code" in check(op, 1, good + "\n", [])


def test_wrong_witness_fails():
    op = Op("verify", ["--json", "verify", "-"],
            {"rc": 1, "verdict": "invalid", "witness": "product-closure"})
    star = json.dumps({"verdict": "invalid", "checked_pairs": 0,
                       "witness": {"kind": "star-closure"}})
    assert "witness" in check(op, 1, star + "\n", [])


def test_wrong_census_count_fails():
    op = Op("census", ["--json", "enumerate", "--group", "Z15"],
            {"rc": 0, "count": workloads.expected_count("--group", "Z15")})
    lines = ["{}"] * 20 + [json.dumps({"count": 20, "group": "Z15"})]
    assert "count 20" in check(op, 0, "\n".join(lines) + "\n", [])
    truncated = ["{}"] * 20 + [json.dumps({"count": 21, "group": "Z15"})]
    assert "presentation lines" in check(op, 0, "\n".join(truncated) + "\n", [])


def test_prime_census_uses_the_closed_form():
    assert workloads.expected_count("--group", "Z13") == 6  # d(12)
    assert workloads.expected_count("--group", "Z11") == 4  # d(10)
    with pytest.raises(ValueError):
        workloads.expected_count("--group", "Z9")


def test_every_census_target_has_an_expected_count():
    for flag, value in workloads.CENSUS_TARGETS:
        assert workloads.expected_count(flag, value) > 0


def test_non_identical_round_trip_fails():
    op = Op("resynthesize", ["--json", "classify", "--resynthesize", "-"],
            {"rc": 0, "identical_to": 0})
    constructed = '{"classes": [[[0, 0]]], "group": {"free": "Z", "torsion": 3}, "window": 12}\n'
    assert check(op, 0, constructed, [constructed]) is None
    assert "differs" in check(op, 0, constructed.replace(", ", ","), [constructed])


def test_missed_deadline_fails():
    runner = Runner(ROOT)
    op = Op("enumerate --group Z4xZ4", ["--json", "enumerate", "--group", "Z4xZ4"],
            {"rc": 0}, deadline_s=0.5)
    result = runner.call(op)
    assert result.rc is None and result.wall < 5
    assert not runner.record(op, result.rc, result.out, [])
    assert (runner.failed, runner.problems) == (1, [f"{op.label}: missed its deadline"])


def test_lemmas_need_wielandt_agreement():
    op = Op("lemmas", ["--json", "check-lemmas", "-"], {"lemmas": True})
    rows = [{"name": "axioms", "ok": True}, {"name": "wielandt-agreement", "ok": False}]
    assert "wielandt" in check(op, 1, json.dumps({"checks": rows}) + "\n", [])


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(name):
    first, second = workloads.WORKLOADS[name](7), workloads.WORKLOADS[name](7)
    assert [op.argv for op in first.setup] == [op.argv for op in second.setup]
    fake = [f"input {i}" for i in range(len(first.setup))]
    if name != "verify_wide":  # its ops perturb real presentations
        assert [o.argv for o in first.ops(fake)] == [o.argv for o in second.ops(fake)]


@pytest.mark.parametrize("seed", range(6))
def test_perturbed_inputs_are_invalid_by_product_closure(sring, seed):
    """Every perturbed verify_wide input of these seeds fails the way the
    oracle expects, at a smaller window so the test stays fast."""
    plan = workloads.VerifyWide(seed)
    for setup_op, (command, level, merge_seed) in zip(plan.setup, plan.slots):
        if level is None:
            continue
        argv = setup_op.argv[:-1] + ["24"]
        rc, text = cli(sring, argv)
        assert rc == 0
        bad = workloads.perturb(text, level // 4, random.Random(merge_seed))
        rc, out = cli(sring, ["--json", "verify", "-"], bad)
        op = Op("verify", [], {"rc": 1, "verdict": "invalid", "witness": "product-closure"})
        assert check(op, rc, out, []) is None, (setup_op.label, out)


def test_perturb_keeps_a_star_closed_partition():
    classes = [[[z, a]] for z in range(-6, 7) for a in range(3)]
    text = json.dumps({"classes": classes, "group": {"free": "Z", "torsion": 3}, "window": 6})
    data = json.loads(workloads.perturb(text, 3, random.Random(0)))
    elements = sorted(tuple(g) for c in data["classes"] for g in c)
    assert elements == sorted(tuple(g) for c in classes for g in c)
    merged = [c for c in data["classes"] if len(c) == 2]
    assert len(merged) == 2
    assert {tuple(sorted((-z, -a % 3) for z, a in merged[0]))} == {tuple(map(tuple, merged[1]))}


# -- tracer -------------------------------------------------------------------


def test_traced_counts_repeat_and_tracer_uninstalls(sring):
    plan = workloads.Interactive(3)
    ops = plan.ops([])[:8]
    runner = Runner(ROOT)
    original = sring["groups"].GroupDescriptor.element
    snapshots = []
    for _ in range(2):
        tracer = layers.Tracer()
        tracer.install(sring)
        try:
            record = layers.replay(sring, ops, runner, tracer)
        finally:
            tracer.uninstall()
        snapshots.append(tracer.snapshot_counts())
        verify = next(i for i, op in enumerate(ops) if op.argv[1] == "verify")
        assert record["checked"][verify] == json.loads(record["outputs"][verify])["checked_pairs"]
    assert runner.problems == []
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["cli.run.calls"] == len(ops)
    assert sring["groups"].GroupDescriptor.element is original
    assert sring["cli"].verify_axioms is sring["schur"].verify_axioms


def test_self_times_add_up(sring):
    """Self times of all keys, the benchmark's own included, cover the pass."""
    tracer = layers.Tracer()
    tracer.install(sring)
    try:
        start = layers.time.perf_counter()
        cli(sring, ["--json", "construct", "--kind", "orbit", "--params", '{"gens": ["psi"]}'])
        tracer.self_s[layers.BENCH] += layers.time.perf_counter() - tracer._last[0]
        total = layers.time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=0.05, abs=0.005)
    assert tracer.self_s["constructions"] > 0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- timing -------------------------------------------------------------------


class _FakeRunner(Runner):
    """A runner whose calls take no time and always pass."""

    def call(self, op, stdin=""):
        self.calls += 1
        return CallResult(rc=0, out=op.label, wall=0.1 * self.calls, cpu=0.05, rss_mb=20.0)

    def record(self, op, rc, out, outputs):
        self.attempted += 1
        return True


def test_timed_run_keeps_every_sample_and_runs_the_first_pass_whole():
    runner = _FakeRunner(ROOT)
    runner.calls = 0
    ops = [Op(f"op {i}", ["--json", "verify", "-"], {}) for i in range(3)]
    timed = runner.run_timed(ops, 0.0)
    assert [len(w) for w in timed["walls"]] == [1, 1, 1]
    assert timed["outputs"] == ["op 0", "op 1", "op 2"]
    assert [min(w) for w in timed["walls"]] == pytest.approx([0.1, 0.2, 0.3])

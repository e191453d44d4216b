"""Traced in-process replay: per-layer counts and self times.

The tracer wraps public functions of the `sring` modules from outside, at
every place a caller looks them up (`cli`, `enumeration` and `classify`
import names directly, so each module's binding is replaced).  It records no
span per call: each wrapped call adds to its key's call count and, on every
entry and exit, charges the time since the last boundary to the key that was
running.  That yields exact self times with two clock reads per call, which
matters for leaves such as `GroupDescriptor.element` that run about a million
times per verify pass.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

from workloads import WARMUP

BENCH = "bench"  # time spent outside any wrapped function

# metric key -> (module, attribute) of the functions charged to it; a dotted
# attribute names a method ("Class.method").
TRACED = {
    "cli.run": [("cli", "run")],
    "groups.element": [("groups", "GroupDescriptor.element")],
    "groups.mul": [("groups", "GroupDescriptor.mul")],
    "groups.orbit": [("groups", "orbit")],
    "groups.close_automorphisms": [("groups", "close_automorphisms")],
    "groups.all_subgroups": [("groups", "all_subgroups")],
    "group_ring.convolve": [("group_ring", "RingElement.convolve")],
    "group_ring.ctor": [("group_ring", "RingElement.__init__")],
    "group_ring.frobenius": [("group_ring", "RingElement.frobenius")],
    "schur.verify_axioms": [("schur", "verify_axioms")],
    "schur.verify_wielandt": [("schur", "verify_wielandt")],
    "schur.lemmas": [("schur", name) for name in (
        "frobenius_closure_holds", "torsion_subgroup_holds", "multiplier_sets_hold",
        "class_shape_holds", "power_in_subgroup_holds")],
    "schur.presentation": [("schur", "SchurPresentation.__init__"),
                           ("schur", "SchurPresentation.from_json"),
                           ("schur", "check_partition")],
    "schur.restrict_quotient": [("schur", "restrict"), ("schur", "quotient")],
    "constructions": [("constructions", name) for name in (
        "discrete", "trivial", "orbit_ring", "symmetric", "tensor", "wedge", "standard_wedge")],
    "classify.classify": [("classify", "classify")],
    "classify.resynthesize": [("classify", "resynthesize")],
    "enumeration.enumerate_finite": [("enumeration", "enumerate_finite")],
    "enumeration.enumerate_windowed": [("enumeration", "enumerate_windowed")],
    "enumeration.is_traditional": [("enumeration", "is_traditional")],
}
ENUMERATORS = ("enumeration.enumerate_finite", "enumeration.enumerate_windowed")


class Tracer:
    """Counts and self times per key, plus the few counts a hook derives."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        # convolve terms (|c|*|d|), checked and total class pairs of verify_axioms,
        # leaves verified and rings emitted by the enumerators, convolve calls
        # made inside an enumerator
        self.counts: Counter = Counter()
        self._stack = [BENCH]
        self._last = [time.perf_counter()]
        self._enum_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        clock = time.perf_counter
        stack, last, selfs, incl, calls = self._stack, self._last, self.self_s, self.incl_s, self.calls
        hook = getattr(self, "_hook_" + key.replace(".", "_"), None)
        enumerator = key in ENUMERATORS

        def traced(*args, **kwargs):
            start = clock()
            selfs[stack[-1]] += start - last[0]
            stack.append(key)
            calls[key] += 1
            last[0] = start
            if enumerator:
                self._enum_depth += 1
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                if enumerator:
                    self._enum_depth -= 1
                end = clock()
                selfs[key] += end - last[0]
                incl[key] += end - start
                stack.pop()
                last[0] = end

        traced.__wrapped__ = fn
        return traced

    def _hook_group_ring_convolve(self, args, result):
        self.counts["convolve.terms"] += len(args[0]) * len(args[1])
        if self._enum_depth:
            self.counts["enumeration.convolve_calls"] += 1

    def _hook_schur_verify_axioms(self, args, report):
        n = len(args[0].classes)
        self.counts["verify.checked_pairs"] += report.checked_pairs
        self.counts["verify.all_pairs"] += n * (n + 1) // 2
        if self._enum_depth:
            self.counts["enumeration.leaves"] += 1

    def _hook_enumeration_enumerate_finite(self, args, result):
        self.counts["enumeration.rings"] += len(result)

    _hook_enumeration_enumerate_windowed = _hook_enumeration_enumerate_finite

    def install(self, modules: dict) -> None:
        """Wrap every TRACED function in ``modules`` (short name -> module)."""
        for key, targets in TRACED.items():
            for module_name, attr in targets:
                home = modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(key, raw.__func__))
                    else:
                        wrapped = self._wrap(key, raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                fn = getattr(home, attr)
                wrapped = self._wrap(key, fn)
                for module in modules.values():
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, name, fn))
                            setattr(module, name, wrapped)
        self._last[0] = time.perf_counter()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def snapshot_counts(self) -> dict:
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))


def sring_modules(src_dir: str) -> dict:
    """Import the working tree's `sring` from ``src_dir``."""
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    names = ("cli", "groups", "group_ring", "schur", "constructions", "classify", "enumeration")
    modules = {name: importlib.import_module(f"sring.{name}") for name in names}
    modules["sring"] = importlib.import_module("sring")
    return modules


def call_cli(run, argv: list[str], stdin: str) -> tuple[int, str]:
    """Run ``sring.cli.run(argv)`` with the given stdin; return (exit code, stdout)."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = run(argv)
            except SystemExit as ex:
                rc = ex.code if isinstance(ex.code, int) else 1
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue()


STARTUP_REPEATS = 5
MIN_TRACED_PASSES = 2

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.startup_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("groups.element.calls", "count", "lower"),
    ("groups.mul.calls", "count", "lower"),
    ("groups.self_s", "s", "lower"),
    ("groups.orbit.calls", "count", "lower"),
    ("groups.orbit.self_s", "s", "lower"),
    ("groups.close_automorphisms.calls", "count", "lower"),
    ("groups.close_automorphisms.self_s", "s", "lower"),
    ("groups.all_subgroups.self_s", "s", "lower"),
    ("group_ring.convolve.calls", "count", "lower"),
    ("group_ring.convolve.terms", "count", "lower"),
    ("group_ring.convolve.self_s", "s", "lower"),
    ("group_ring.convolve.terms_per_s", "1/s", "higher"),
    ("group_ring.ctor.calls", "count", "lower"),
    ("group_ring.ctor.self_s", "s", "lower"),
    ("group_ring.frobenius.calls", "count", "lower"),
    ("group_ring.frobenius.self_s", "s", "lower"),
    ("schur.verify_axioms.calls", "count", "lower"),
    ("schur.verify_axioms.self_s", "s", "lower"),
    ("schur.verify_axioms.pairs_per_s", "1/s", "higher"),
    ("schur.verify_wielandt.self_s", "s", "lower"),
    ("schur.lemmas.self_s", "s", "lower"),
    ("schur.pair_coverage", "ratio", "higher"),
    ("schur.presentation.calls", "count", "lower"),
    ("schur.presentation.self_s", "s", "lower"),
    ("schur.restrict_quotient.calls", "count", "lower"),
    ("schur.restrict_quotient.self_s", "s", "lower"),
    ("constructions.calls", "count", "lower"),
    ("constructions.self_s", "s", "lower"),
    ("classify.classify.self_s", "s", "lower"),
    ("classify.resynthesize.self_s", "s", "lower"),
    ("enumeration.enumerate_finite.self_s", "s", "lower"),
    ("enumeration.enumerate_windowed.self_s", "s", "lower"),
    ("enumeration.is_traditional.calls", "count", "lower"),
    ("enumeration.is_traditional.self_s", "s", "lower"),
    ("enumeration.leaf_verifications", "count", "lower"),
    ("enumeration.leaf_accept_ratio", "ratio", "higher"),
    ("enumeration.convolve_calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass (without startup and overhead)."""
    calls, selfs, incl, n = tracer.calls, tracer.self_s, tracer.incl_s, tracer.counts
    values = {f"{key}.calls": calls[key] for key in TRACED}
    values.update({f"{key}.self_s": selfs[key] for key in TRACED})
    values.update({
        "groups.self_s": sum(v for k, v in selfs.items() if k.startswith("groups.")),
        "group_ring.convolve.terms": n["convolve.terms"],
        "group_ring.convolve.terms_per_s": _ratio(n["convolve.terms"], incl["group_ring.convolve"]),
        "schur.verify_axioms.pairs_per_s": _ratio(n["verify.checked_pairs"], incl["schur.verify_axioms"]),
        "schur.pair_coverage": _ratio(n["verify.checked_pairs"], n["verify.all_pairs"]),
        "enumeration.leaf_verifications": n["enumeration.leaves"],
        "enumeration.leaf_accept_ratio": _ratio(n["enumeration.rings"], n["enumeration.leaves"]),
        "enumeration.convolve_calls": n["enumeration.convolve_calls"],
    })
    return values


def startup_s(runner) -> float:
    """Median time of a fresh interpreter that imports sring.cli."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sring.cli"], cwd=runner.root,
                       env=runner.env, capture_output=True, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def replay(modules: dict, ops: list, runner, tracer: Tracer | None = None) -> dict:
    """Run the op list in-process once; every output goes through the oracle."""
    outputs, checked, wall = [], [], 0.0
    for op in ops:
        stdin = outputs[op.stdin_from] if op.stdin_from is not None else op.stdin
        before = tracer.counts["verify.checked_pairs"] if tracer else 0
        start = time.perf_counter()
        rc, out = call_cli(modules["cli"].run, op.argv, stdin)
        wall += time.perf_counter() - start
        runner.record(op, rc, out, outputs)
        outputs.append(out)
        checked.append(tracer.counts["verify.checked_pairs"] - before if tracer else None)
    return {"wall": wall, "outputs": outputs, "checked": checked}


def _reported_pairs(stdout: str) -> int | None:
    try:
        return json.loads(stdout.splitlines()[-1])["checked_pairs"]
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        return None


class BudgetExceeded(Exception):
    pass


@contextlib.contextmanager
def budget_alarm(seconds: float):
    """Raise BudgetExceeded in this thread once ``seconds`` have gone by."""

    def expire(signum, frame):
        raise BudgetExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def per_layer(runner, plan, args) -> tuple[dict, dict]:
    """One untraced and at least two traced in-process replays of the plan."""
    _, setup_outputs = runner.setup(plan)
    ops = plan.ops(setup_outputs)
    startup = startup_s(runner)
    modules = sring_modules(str(runner.root / "src"))
    rc, out = call_cli(modules["cli"].run, WARMUP.argv, "")
    runner.record(WARMUP, rc, out, [])

    start = time.perf_counter()
    passes = []
    try:
        with budget_alarm(runner.budget_end - start):
            untraced = replay(modules, ops, runner)
            while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - start < args.seconds:
                tracer = Tracer()
                tracer.install(modules)
                try:
                    record = replay(modules, ops, runner, tracer)
                finally:
                    tracer.uninstall()
                passes.append((tracer, record))
    except BudgetExceeded:
        runner.problems.append("the in-process replay ran out of the run's time budget")
        return {name: (0.0, unit) for name, unit, _ in PER_LAYER}, {"traced_passes": len(passes)}

    counts = [tracer.snapshot_counts() for tracer, _ in passes]
    if any(c != counts[0] for c in counts[1:]):
        runner.problems.append("trace: counts differ between traced passes of one seed")
    for i, op in enumerate(ops):
        if op.argv[1] != "verify":
            continue
        reported = _reported_pairs(untraced["outputs"][i])
        if any(record["checked"][i] != reported for _, record in passes):
            runner.problems.append(f"{op.label}: traced checked pairs differ from the CLI's {reported}")

    per_pass = [layer_values(tracer) for tracer, _ in passes]
    traced_wall = statistics.median(record["wall"] for _, record in passes)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "cli.startup_s":
            value = startup
        elif name == "trace.overhead_ratio":
            value = traced_wall / untraced["wall"]
        elif unit == "count":
            value = per_pass[0][name]  # the same in every pass, checked above
        else:
            value = statistics.median(values[name] for values in per_pass)
        metrics[name] = (value, unit)
    details = {
        "traced_passes": len(passes),
        "ops_per_pass": len(ops),
        "untraced_replay_s": untraced["wall"],
        "traced_replay_s": traced_wall,
        "counts": counts[0],
    }
    return metrics, details

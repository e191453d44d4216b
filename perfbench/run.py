"""Benchmark of the `sring` CLI on three workloads.

Run from the root of a source tree (one that has `src/sring`):

    python3 perfbench/run.py --workload verify_wide --seed 1 --seconds 35 --trace 0

With `--trace 0` the working tree's `python -m sring.cli` runs as a
subprocess per operation, one closed-loop client (the next call starts when
the last one has ended), and the end-to-end metrics are printed.  With
`--trace 1` the same operations are replayed in-process through
`sring.cli.run(argv)`, once untraced and at least twice traced, and the
per-layer metrics are printed.  End-to-end times are medians over each
call's repetitions in the run (see `end_to_end`).  Every output is checked by
the oracle in `workloads.py`.  The last stdout line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
gives the details (context, failed checks, tail latency, the deadline probe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from layers import per_layer  # noqa: E402
from workloads import WARMUP, WORKLOADS, Op, check, work_done  # noqa: E402

SETUP_REPEATS = 5
WARMUP_S = 1.0
# A run must end within 180 s.  Calls still running when the budget is spent
# are killed and count as missed deadlines, so a much slower program fails
# its run instead of overrunning it.
RUN_BUDGET_S = 150.0
THROUGHPUT_NAMES = {"verify_wide": "pairs_per_s", "census": "rings_per_s",
                    "interactive": "roundtrips_per_s"}


class CallResult(NamedTuple):
    rc: int | None  # None when the call missed its deadline
    out: str
    wall: float  # s
    cpu: float  # user+sys CPU s of the child
    rss_mb: float  # peak RSS of the child


def _feed(pipe, text: str) -> None:
    with pipe:
        try:
            pipe.write(text)
        except BrokenPipeError:  # the child exited (or was killed) without reading
            pass


class Runner:
    """Runs ops as `python -m sring.cli` subprocesses and checks each one."""

    def __init__(self, root: Path):
        self.root = root
        self.budget_end = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed ops, then any other failed check

    def call(self, op: Op, stdin: str = "") -> CallResult:
        """Run one op; its CPU time and peak RSS come from wait4 on the child."""
        start = time.perf_counter()
        timeout = min(op.deadline_s, max(self.budget_end - start, 0.01))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sring.cli", *op.argv], cwd=self.root, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        deadline = threading.Timer(timeout, proc.kill)
        writer = threading.Thread(target=_feed, args=(proc.stdin, stdin))
        deadline.start()
        writer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        writer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        deadline.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        missed = proc.returncode == -signal.SIGKILL and wall >= timeout
        return CallResult(
            rc=None if missed else proc.returncode,
            out="" if missed else out,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
        )

    def record(self, op: Op, rc: int | None, out: str, outputs: list[str]) -> bool:
        """Count the op as attempted and check it; True when it passed."""
        self.attempted += 1
        problem = check(op, rc, out, outputs)
        if problem:
            self.failed += 1
            self.problems.append(f"{op.label}: {problem}")
        return problem is None

    def run_timed(self, ops: list[Op], seconds: float) -> dict:
        """Repeat the op list until ``seconds`` have gone by, stopping between
        two calls; the first pass always runs whole.  Returns each op's wall
        and CPU samples, whether it passed every time, the peak RSS, and the
        first pass's outputs."""
        walls: list[list[float]] = [[] for _ in ops]
        cpus: list[list[float]] = [[] for _ in ops]
        ok = [True] * len(ops)
        rss, first = 0.0, None
        start = time.perf_counter()
        while True:
            outputs: list[str] = []
            for i, op in enumerate(ops):
                now = time.perf_counter()
                if first is not None and (now - start >= seconds or now >= self.budget_end):
                    return {"walls": walls, "cpus": cpus, "ok": ok, "rss_mb": rss,
                            "outputs": first}
                stdin = outputs[op.stdin_from] if op.stdin_from is not None else op.stdin
                r = self.call(op, stdin)
                ok[i] = self.record(op, r.rc, r.out, outputs) and ok[i]
                outputs.append(r.out)
                walls[i].append(r.wall)
                cpus[i].append(r.cpu)
                rss = max(rss, r.rss_mb)
            first = first or outputs

    def warm_up(self, ops: list[Op], seconds: float) -> None:
        """Untimed calls from the op list until ``seconds`` have gone by.

        A shared host may run faster for a while after an idle spell; the
        timed passes start once it has settled.
        """
        start = time.perf_counter()
        outputs: list[str] = []
        while time.perf_counter() - start < seconds:
            op = ops[len(outputs)]
            stdin = outputs[op.stdin_from] if op.stdin_from is not None else op.stdin
            r = self.call(op, stdin)
            self.record(op, r.rc, r.out, outputs)
            outputs = [] if len(outputs) + 1 == len(ops) else outputs + [r.out]

    def setup(self, plan) -> tuple[float, list[str]]:
        """Build the plan's inputs with `construct`, plus one discarded warm-up
        call; returns the set-up time and the inputs."""
        start = time.perf_counter()
        outputs = []
        for op in plan.setup + [WARMUP]:
            r = self.call(op)
            self.record(op, r.rc, r.out, outputs)
            outputs.append(r.out)
        return time.perf_counter() - start, outputs[:-1]


def tail(samples: list[float]) -> dict | None:
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for q in (90, 95, 99, 99.9):
        if n * (100 - q) / 100 >= 10:
            index = min(n - 1, int(n * q / 100 + 0.999999) - 1)
            best = {"percentile": q, "value": ordered[index], "samples": n}
    return best


def context(root: Path, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(runner: Runner, plan, args) -> tuple[dict, dict]:
    setups = [runner.setup(plan) for _ in range(SETUP_REPEATS)]
    setup_outputs = setups[0][1]
    if any(outputs != setup_outputs for _, outputs in setups):
        runner.problems.append("set-up: construct output differs between repetitions")
    ops = plan.ops(setup_outputs)

    runner.warm_up(ops, WARMUP_S)
    timed = runner.run_timed(ops, args.seconds)
    # Each call is repeated 10-15 times through the run, and its median over
    # those repetitions is its time.  Its fastest repetition (in the details)
    # was steadier while the shared host was calm, but swung far more between
    # runs in busy spells, when fast moments were rare (see README.md).
    med_wall = [statistics.median(w) for w in timed["walls"]]
    med_cpu = [statistics.median(c) for c in timed["cpus"]]
    outputs, ok = timed["outputs"], timed["ok"]
    if plan.workload == "interactive":  # a round trip counts once its re-synthesis matched
        work = sum(ok[i] for i, op in enumerate(ops) if "identical_to" in op.expect)
        work_time = sum(med_wall)
    else:
        counted = [i for i, op in enumerate(ops) if op.argv[1] in ("verify", "enumerate")]
        work = sum(work_done(ops[i], outputs[i]) for i in counted if ok[i])
        work_time = sum(med_wall[i] for i in counted)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (sum(med_wall), "s"),
        "cpu_s": (sum(med_cpu), "s"),
        "op_p50_s": (statistics.median(med_wall), "s"),
        "peak_rss_mb": (timed["rss_mb"], "MB"),
        "work_per_s": (work / work_time, "1/s"),
    }
    all_walls = [w for walls in timed["walls"] for w in walls]
    details = {
        "calls": len(all_walls),
        "ops_per_pass": len(ops),
        "repetitions_per_op": [min(map(len, timed["walls"])), max(map(len, timed["walls"]))],
        "setup_s_each": [s for s, _ in setups],
        "op_tail_s": tail(all_walls),
        "op_median_s": {op.label: med for op, med in zip(ops, med_wall)},
        "op_best_s": {op.label: min(w) for op, w in zip(ops, timed["walls"])},
        "wall_best_s": sum(min(w) for w in timed["walls"]),
        "work_unit": plan.work_unit,
        THROUGHPUT_NAMES[plan.workload]: work / work_time,
    }
    if plan.workload == "census":
        flag, value = workloads.DEADLINE_PROBE
        probe = Op(f"enumerate {flag} {value}", ["--json", "enumerate", flag, value], {},
                   deadline_s=workloads.DEADLINE_PROBE_S)
        r = runner.call(probe)
        details["deadline_probe"] = {"op": probe.label, "deadline_s": probe.deadline_s,
                                     "finished": r.rc is not None, "exit_code": r.rc,
                                     "wall_s": r.wall}
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sring" / "cli.py").is_file():
        print(f"perfbench: no src/sring/cli.py under {root}; run from the source tree root",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("SRING_")]:
        del os.environ[key]  # the CLI's defaults apply, in-process and in children

    plan = WORKLOADS[args.workload](args.seed)
    info = context(root, args)
    runner = Runner(root)
    metrics, details = (per_layer if args.trace else end_to_end)(runner, plan, args)
    details.update(context=info, attempted=runner.attempted, failed=runner.failed,
                   failed_ratio=runner.failed / runner.attempted,
                   problems=runner.problems[:20])
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

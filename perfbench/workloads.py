"""Seeded operation lists for the three workloads, and the correctness oracle.

An operation is one `sring` CLI call: an argv, an optional stdin text (or the
stdout of an earlier operation of the same pass), and what its result must
be.  The same seed always gives the same operations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

GENERATORS = ("psi", "delta", "xi", "rho", "sigma", "zeta", "tau")

# Census counts pinned to the values the seed code gives.  Counts of prime
# cyclic groups come from the closed form d(p - 1) instead (Schur rings over
# Z_p correspond to the subgroups of Aut(Z_p)).
PINNED_COUNTS = {
    ("--group", "Z12"): 32, ("--group", "Z14"): 13, ("--group", "Z15"): 21,
    ("--group", "Z16"): 37, ("--group", "Z2xZ4"): 28, ("--group", "Z2xZ6"): 76,
    ("--group", "Z2xZ8"): 163, ("--windowed", "4"): 48, ("--windowed", "5"): 59,
    ("--windowed", "6"): 70,
}
# One census pass: a prime cyclic group, two composite cyclic groups, a
# non-cyclic group and a windowed census.  Every call takes 0.25-0.55 s, so
# that each is timed 10-15 times in a run (see run.py).  Left out: Z13 (about
# 2 s a call; it took half of each pass and swung most between runs), Z3xZ3
# (about 24 s of traditionality per call), and Z15, Z16, Z2xZ8 and windowed 5
# and 6 (0.7-9 s each).  Z4xZ4 does not finish in 300 s, so it only runs as
# the deadline probe below.
CENSUS_TARGETS = (
    ("--group", "Z11"), ("--group", "Z12"), ("--group", "Z14"),
    ("--group", "Z2xZ6"), ("--windowed", "4"),
)
DEADLINE_PROBE = ("--group", "Z4xZ4")
DEADLINE_PROBE_S = 2.0
OP_DEADLINE_S = 60.0


@dataclass
class Op:
    """One CLI call and the outcome the oracle expects of it."""

    label: str
    argv: list[str]
    expect: dict
    stdin: str = ""
    stdin_from: int | None = None  # index of an earlier op in the same pass
    deadline_s: float = OP_DEADLINE_S


@dataclass
class Plan:
    """A workload for one seed: inputs built in set-up, then the timed ops."""

    workload: str
    setup: list[Op] = field(default_factory=list)
    work_unit: str = ""  # what work_per_s counts

    def ops(self, setup_outputs: list[str]) -> list[Op]:
        raise NotImplementedError


# -- families -----------------------------------------------------------------


def construct_op(kind: str, params: dict, window: int) -> Op:
    argv = ["--json", "construct", "--kind", kind, "--params",
            json.dumps(params, sort_keys=True), "--window", str(window)]
    label = f"construct {kind} {json.dumps(params, sort_keys=True)} w={window}"
    return Op(label, argv, {"rc": 0, "presentation_window": window})


# Draws within one family name cost the same to verify, so that the seed
# changes the inputs but hardly the work: psi, delta and tau give rings of the
# same class structure, as do rho, sigma and zeta, and as do these generator
# pairs (130 classes and 4,323 checked pairs at window 64).
UNIT_GENERATORS = ("psi", "delta", "tau")
INVERSION_GENERATORS = ("rho", "sigma", "zeta")
GENERATOR_PAIRS = (("delta", "rho"), ("delta", "xi"), ("psi", "sigma"), ("psi", "xi"),
                   ("rho", "xi"), ("sigma", "xi"), ("tau", "xi"), ("tau", "zeta"),
                   ("xi", "zeta"))


def draw_family(rng: random.Random, family: str) -> tuple[str, dict]:
    """A (construct kind, params) pair of the named family, details seeded."""
    if family == "discrete":
        return "discrete", {}
    if family == "symmetric":
        return "orbit", {"gens": ["xi"]}
    if family == "orbit-unit":
        return "orbit", {"gens": [rng.choice(UNIT_GENERATORS)]}
    if family == "orbit-inversion":
        return "orbit", {"gens": [rng.choice(INVERSION_GENERATORS)]}
    if family == "orbit-pair":
        return "orbit", {"gens": list(rng.choice(GENERATOR_PAIRS))}
    if family == "orbit-any":
        return "orbit", {"gens": sorted(rng.sample(GENERATORS, rng.randint(1, 3)))}
    if family == "wedge-discrete":
        return "wedge", {"step": rng.randint(3, 5), "inner": "discrete", "outer": "discrete"}
    if family == "wedge0":
        return "wedge", {"step": 0, "inner": rng.choice(["discrete", "trivial"]),
                         "outer": rng.choice(["discrete", "symmetric"])}
    if family == "wedge":
        side = rng.choice(["discrete", "symmetric"])
        return "wedge", {"step": rng.randint(2, 5), "inner": side, "outer": side}
    raise ValueError(family)


def _star(cls: tuple) -> tuple:
    return tuple(sorted((-z, (-a) % 3) for z, a in cls))


def perturb(text: str, level: int, rng: random.Random) -> str:
    """Merge two class pairs at the first level >= ``level`` that has two
    classes to merge, keeping the partition star-closed.

    Two classes C1, C2 at that level are merged, and so are their stars; the
    classes are either both self-star or both not, and C2 is not the star of
    C1, so the result is still a partition.
    """
    data = json.loads(text)
    classes = [tuple(sorted(tuple(g) for g in c)) for c in data["classes"]]
    window = data["window"]
    for k in range(level, window + 1):
        at_k = [c for c in classes if max(abs(z) for z, _ in c) == k and max(z for z, _ in c) == k]
        pairs = [
            (c1, c2)
            for i, c1 in enumerate(at_k)
            for c2 in at_k[i + 1:]
            if c2 != _star(c1) and (_star(c1) == c1) == (_star(c2) == c2)
        ]
        if pairs:
            break
    else:
        raise ValueError("no level has two classes to merge")
    c1, c2 = rng.choice(pairs)
    drop = {c1, c2, _star(c1), _star(c2)}
    merged = [tuple(sorted(set(c1) | set(c2))), tuple(sorted(set(_star(c1)) | set(_star(c2))))]
    kept = [c for c in classes if c not in drop] + list(dict.fromkeys(merged))
    data["classes"] = [[list(g) for g in c] for c in sorted(kept)]
    return json.dumps(data, sort_keys=True)


# -- workloads ----------------------------------------------------------------


class VerifyWide(Plan):
    """verify and check-lemmas on wide windows; a seeded share is perturbed."""

    # (command, family, window range, perturbed): one pass, fixed in shape so
    # that its cost barely depends on the seed; the seed picks the details.
    # Perturbed inputs use families that have two classes to merge at every
    # level (rho, sigma and zeta do not).  The pass has an odd number of ops,
    # so that the median op is one op and not the gap between two.  Windows
    # stay at 49-64, so that a pass takes about 3 s and each call is timed
    # many times in a run (see run.py), and each range is two windows wide,
    # so that the seed hardly changes the cost.
    SLOTS = (
        ("verify", "discrete", (63, 64), False),
        ("verify", "orbit-unit", (57, 58), False),
        ("verify", "orbit-inversion", (57, 58), False),
        ("verify", "orbit-pair", (57, 58), False),
        ("verify", "wedge-discrete", (49, 50), False),
        ("check-lemmas", "symmetric", (49, 50), False),
        ("verify", "discrete", (63, 64), True),
        ("verify", "orbit-unit", (57, 58), True),
        ("verify", "symmetric", (57, 58), True),
    )

    def __init__(self, seed: int):
        super().__init__("verify_wide", work_unit="checked class pairs")
        rng = random.Random(seed)
        self.slots = []
        for command, family, (lo, hi), perturbed in self.SLOTS:
            kind, params = draw_family(rng, family)
            window = rng.randint(lo, hi)
            level = rng.randint(int(0.38 * window), int(0.42 * window)) if perturbed else None
            self.setup.append(construct_op(kind, params, window))
            self.slots.append((command, level, rng.random()))
        self.order = list(range(len(self.slots)))
        rng.shuffle(self.order)

    def ops(self, setup_outputs: list[str]) -> list[Op]:
        out = []
        for i in self.order:
            command, level, merge_seed = self.slots[i]
            text = setup_outputs[i]
            base = self.setup[i].label.removeprefix("construct ")
            if command == "check-lemmas":
                out.append(Op(f"check-lemmas {base}", ["--json", "check-lemmas", "-"],
                              {"lemmas": True}, stdin=text))
            elif level is None:
                out.append(Op(f"verify {base}", ["--json", "verify", "-"],
                              {"rc": 0, "verdict": "valid-up-to-window"}, stdin=text))
            else:
                bad = perturb(text, level, random.Random(merge_seed))
                out.append(Op(f"verify perturbed@{level} {base}", ["--json", "verify", "-"],
                              {"rc": 1, "verdict": "invalid", "witness": "product-closure"},
                              stdin=bad))
        return out


class Census(Plan):
    """Exhaustive censuses, order shuffled by the seed."""

    def __init__(self, seed: int):
        super().__init__("census", work_unit="rings enumerated")
        self.targets = list(CENSUS_TARGETS)
        random.Random(seed).shuffle(self.targets)

    def ops(self, setup_outputs: list[str]) -> list[Op]:
        return [
            Op(f"enumerate {flag} {value}", ["--json", "enumerate", flag, value],
               {"rc": 0, "count": expected_count(flag, value)})
            for flag, value in self.targets
        ]


class Interactive(Plan):
    """Short round trips at the default window: construct, verify, classify,
    re-synthesize, and compare the re-synthesis byte for byte."""

    FAMILIES = ("discrete", "symmetric", "orbit-any", "orbit-any",
                "wedge0", "wedge0", "wedge", "wedge")
    WIDE = 2  # round trips per pass at window 24; the rest use the default 12

    def __init__(self, seed: int):
        super().__init__("interactive", work_unit="round trips")
        rng = random.Random(seed)
        families = list(self.FAMILIES)
        rng.shuffle(families)
        wide = set(rng.sample(range(len(families)), self.WIDE))
        self.trips = [(draw_family(rng, f), 24 if i in wide else None)
                      for i, f in enumerate(families)]

    def ops(self, setup_outputs: list[str]) -> list[Op]:
        out: list[Op] = []
        for (kind, params), window in self.trips:
            start = len(out)
            argv = ["--json", "construct", "--kind", kind, "--params",
                    json.dumps(params, sort_keys=True)]
            if window is not None:
                argv += ["--window", str(window)]
            label = f"{kind} {json.dumps(params, sort_keys=True)} w={window or 12}"
            out.append(Op(f"construct {label}", argv, {"rc": 0, "presentation_window": window or 12}))
            out.append(Op(f"verify {label}", ["--json", "verify", "-"],
                          {"rc": 0, "verdict": "valid-up-to-window"}, stdin_from=start))
            out.append(Op(f"classify {label}", ["--json", "classify", "-"],
                          {"rc": 0, "descriptor": True}, stdin_from=start))
            out.append(Op(f"resynthesize {label}", ["--json", "classify", "--resynthesize", "-"],
                          {"rc": 0, "identical_to": start}, stdin_from=start))
        return out


WORKLOADS = {"verify_wide": VerifyWide, "census": Census, "interactive": Interactive}

WARMUP = Op("warm-up construct", ["--json", "construct", "--kind", "discrete"],
            {"rc": 0, "presentation_window": 12})


# -- oracle -------------------------------------------------------------------


def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def expected_count(flag: str, value: str) -> int:
    if (flag, value) in PINNED_COUNTS:
        return PINNED_COUNTS[(flag, value)]
    p = int(value.removeprefix("Z"))
    if not _is_prime(p):
        raise ValueError(f"no closed form for {value}")
    return _divisor_count(p - 1)


def check(op: Op, rc: int | None, stdout: str, outputs: list[str]) -> str | None:
    """None when the call did what ``op.expect`` says, else why it failed.

    ``rc`` is None for a call that missed its deadline; ``outputs`` holds the
    stdout of the earlier ops of the same pass.
    """
    if rc is None:
        return "missed its deadline"
    exp = op.expect
    if "rc" in exp and rc != exp["rc"]:
        return f"exit code {rc}, expected {exp['rc']}"
    try:
        lines = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as ex:
        return f"stdout is not JSON lines: {ex}"
    if not lines:
        return "no output"
    last = lines[-1]
    if "presentation_window" in exp:
        if len(lines) != 1 or not last.get("classes") or last.get("window") != exp["presentation_window"]:
            return "not a presentation at the requested window"
    if "verdict" in exp:
        if last.get("verdict") != exp["verdict"]:
            return f"verdict {last.get('verdict')!r}, expected {exp['verdict']!r}"
        if not isinstance(last.get("checked_pairs"), int):
            return "no checked_pairs"
    if "witness" in exp and (last.get("witness") or {}).get("kind") != exp["witness"]:
        return f"witness {last.get('witness')!r}, expected kind {exp['witness']!r}"
    if exp.get("lemmas"):
        rows = {row["name"]: row["ok"] for row in last.get("checks", [])}
        if rows.get("wielandt-agreement") is not True:
            return "wielandt-agreement row does not pass"
        if rc != (0 if all(rows.values()) else 1):
            return f"exit code {rc} does not match the rows"
    if exp.get("descriptor") and last.get("variant") not in ("full", "orbit", "wedge"):
        return "no family descriptor"
    if "identical_to" in exp and stdout != outputs[exp["identical_to"]]:
        return "re-synthesis differs from the constructed presentation"
    if "count" in exp:
        if last.get("count") != exp["count"]:
            return f"count {last.get('count')}, expected {exp['count']}"
        if len(lines) - 1 != exp["count"]:
            return f"{len(lines) - 1} presentation lines for count {exp['count']}"
    return None


def work_done(op: Op, stdout: str) -> int:
    """The op's contribution to work_per_s: checked pairs of a verify call, or
    rings of a census call.  Round trips are counted by the caller."""
    if op.argv[1] == "verify":
        return json.loads(stdout.splitlines()[-1])["checked_pairs"]
    if op.argv[1] == "enumerate":
        return json.loads(stdout.splitlines()[-1])["count"]
    return 0

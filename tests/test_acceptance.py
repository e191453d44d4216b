"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and recorded runtimes.  All arithmetic is exact; no tolerances are used
anywhere.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from sring import (
    Automorphism,
    GroupDescriptor,
    MalformedPartition,
    Recipe,
    RingElement,
    SchurPresentation,
    classify,
    discrete,
    enumerate_finite,
    enumerate_windowed,
    find_H,
    is_traditional,
    named_automorphism,
    orbit_ring,
    projection_type,
    resynthesize,
    simple_quantity,
    standard_wedge,
    symmetric,
    tensor,
    trivial,
    verify_axioms,
    verify_wielandt,
)
from sring.constructions import IncompatibleWedge, torsion_tower
from sring.enumeration import MAX_WINDOW
from sring.lemmas import (
    class_shape_holds,
    frobenius_closure_holds,
    multiplier_sets_hold,
    power_in_subgroup_holds,
    torsion_subgroup_holds,
)

G = GroupDescriptor(0, 3)
Z = GroupDescriptor(0, 1)
Z3 = GroupDescriptor(1, 3)
NAMES = ("psi", "delta", "xi", "rho", "sigma")
AUTOS = {name: named_automorphism(name, G) for name in ("psi", "delta", "xi", "rho", "sigma", "zeta", "tau")}


def _report(number: int, title: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {title}: {detail} ({elapsed:.1f}s)")


def _both_verdicts(P):
    """Verdicts of the two verification routes, folding raised errors in."""
    outcomes = []
    for checker in (verify_axioms, verify_wielandt):
        try:
            outcomes.append(checker(P).verdict)
        except MalformedPartition:
            outcomes.append("malformed")
    return outcomes


def _corrupted_partitions(count: int):
    """Deterministic stream of guaranteed-invalid mutations of valid rings."""
    rng = random.Random(74125)
    bases = []
    for spec in [(1, 5), (1, 6), (1, 7), (1, 8), (2, 3)]:
        bases.extend(enumerate_finite(GroupDescriptor(*spec)))
    produced = 0
    while produced < count:
        base = rng.choice(bases)
        group = base.group
        classes = [set(c) for c in base.classes]
        style = produced % 4
        identity = group.identity
        id_index = next(i for i, c in enumerate(classes) if identity in c)
        others = [i for i in range(len(classes)) if i != id_index]
        if not others:
            continue
        if style == 0:  # merge the identity class into another class
            j = rng.choice(others)
            classes[j] |= classes[id_index]
            del classes[id_index]
        elif style == 1:  # drop one non-identity element: leaves a gap
            j = rng.choice(others)
            victim = rng.choice(sorted(classes[j]))
            classes[j].discard(victim)
            classes = [c for c in classes if c]
            if all(victim not in c for c in classes) and len(classes) < 2:
                continue
        elif style == 2:  # duplicate an element into a second class: overlap
            j = rng.choice(others)
            donor = rng.choice(sorted(classes[j]))
            k = rng.choice([i for i in range(len(classes)) if i != j])
            classes[k].add(donor)
        else:  # pull a non-identity element into the identity class
            j = rng.choice(others)
            victim = rng.choice(sorted(classes[j]))
            classes[j].discard(victim)
            classes[id_index].add(victim)
            classes = [c for c in classes if c]
        produced += 1
        yield SchurPresentation(group, [sorted(c) for c in classes])


class TestCriterion1VerifierCrossAgreement:
    def test_cross_agreement(self):
        start = time.time()
        checked = 0
        disagreements = []
        for n in range(2, 13):
            for P in enumerate_finite(GroupDescriptor(1, n)):
                verdicts = _both_verdicts(P)
                checked += 1
                if len(set(verdicts)) != 1 or verdicts[0] != "valid":
                    disagreements.append((n, verdicts))
        undetected = []
        for P in _corrupted_partitions(200):
            verdicts = _both_verdicts(P)
            checked += 1
            if len(set(verdicts)) != 1:
                disagreements.append(("corrupt", verdicts))
            if verdicts[0] not in ("invalid", "malformed"):
                undetected.append(P)
        elapsed = time.time() - start
        ok = not disagreements and not undetected
        _report(
            1,
            "axiom-verifier cross-agreement",
            ok,
            f"{checked} presentations, {len(disagreements)} disagreements, "
            f"{len(undetected)} corruptions missed",
            elapsed,
        )
        assert ok, (disagreements, undetected)


class TestCriterion2ConstructorSweep:
    def test_validity_sweep(self):
        start = time.time()
        built: list[tuple[str, SchurPresentation]] = []
        for window in (6, 12, 24):
            built.append((f"discrete {window}", discrete(G, window)))
            for name in NAMES:
                built.append((f"{name} {window}", orbit_ring(G, [AUTOS[name]], window)))
            built.append((f"psi,xi {window}", orbit_ring(G, [AUTOS["psi"], AUTOS["xi"]], window)))
            built.append(
                (f"delta,xi {window}", orbit_ring(G, [AUTOS["delta"], AUTOS["xi"]], window)))
            built.append((f"symmetric x discrete {window}",
                          tensor(symmetric(Z, window), discrete(Z3))))
            built.append((f"symmetric x trivial {window}",
                          tensor(symmetric(Z, window), trivial(Z3))))
            built.append((f"discrete x discrete {window}",
                          tensor(discrete(Z, window), discrete(Z3))))
            for inner in ("discrete", "trivial"):
                for outer in ("discrete", "symmetric"):
                    built.append((f"wedge 0 {inner} {outer} {window}",
                                  standard_wedge(G, 0, inner, outer, window)))
            for step in (2, 3, 4):
                for kind in ("discrete", "symmetric"):
                    built.append((f"wedge {step} {kind} {kind} {window}",
                                  standard_wedge(G, step, kind, kind, window)))
        built.append(("trivial Z_3", trivial(Z3)))
        built.append(("trivial Z_2 x Z_3", trivial(GroupDescriptor(2, 3))))
        invalid = [label for label, P in built if not verify_axioms(P).ok]
        elapsed = time.time() - start
        ok = not invalid
        _report(
            2,
            "constructor validity sweep",
            ok,
            f"{len(built)} presentations built, {len(invalid)} invalid",
            elapsed,
        )
        assert ok, invalid


class TestCriterion3MainTheoremRoundTrip:
    def test_round_trip(self):
        start = time.time()
        window = 12
        cases: list[tuple[str, SchurPresentation]] = [("discrete", discrete(G, window))]
        for name in NAMES:
            cases.append((name, orbit_ring(G, [AUTOS[name]], window)))
        cases.append(("psi,xi", orbit_ring(G, [AUTOS["psi"], AUTOS["xi"]], window)))
        cases.append(("delta,xi", orbit_ring(G, [AUTOS["delta"], AUTOS["xi"]], window)))
        cases.append(("inversion", orbit_ring(G, [AUTOS["zeta"]], window)))
        cases.append(("full-inversion", symmetric(G, window)))
        # wedge towers with index parameters 1..3; step 1 degenerates to the
        # whole group ring, realized by the discrete/full cases above
        for step in (0, 2, 3):
            inners = ("discrete", "trivial") if step == 0 else ("discrete", "symmetric")
            for inner in inners:
                for outer in ("discrete", "symmetric"):
                    try:
                        P = standard_wedge(G, step, inner, outer, window)
                    except IncompatibleWedge:
                        continue
                    cases.append((f"wedge[{step},{inner},{outer}]", P))
        failures = []
        for label, P in cases:
            descriptor = classify(P)
            rebuilt = resynthesize(descriptor, window)
            if rebuilt.classes != P.classes:
                failures.append(label)
        elapsed = time.time() - start
        ok = not failures
        _report(
            3,
            "main-theorem round-trip",
            ok,
            f"{len(cases)} families round-tripped, {len(failures)} failures",
            elapsed,
        )
        assert ok, failures


@lru_cache(maxsize=None)
def _windowed(window: int) -> tuple:
    return tuple(enumerate_windowed(window))


# The Schur rings over Z x Z_3 whose class of z is not a union of torsion
# cosets: the full ring, its symmetric alias, and the orbit rings.
LEVEL_ONE = (
    Recipe("orbit"),
    Recipe("orbit", (Automorphism.inversion(G),)),
    *(Recipe("orbit", tuple(AUTOS[name] for name in names))
      for names in (("tau",), ("delta",), ("psi",), ("zeta",), ("sigma",), ("rho",),
                    ("delta", "xi"), ("psi", "xi"), ("xi", "zeta"))),
)
# the rings over the torsion subgroup Z_3, and over the free quotient Z
TORSION_RINGS = {"discrete": Recipe("orbit"), "trivial": Recipe("trivial")}
FREE_RINGS = {"discrete": Recipe("orbit"), "symmetric": Recipe("orbit", (Automorphism.inversion(Z),))}


class TestCriterion4DeskScaleExhaustiveness:
    @pytest.mark.parametrize("window", range(1, MAX_WINDOW + 1))
    def test_closed_form(self, window):
        # every ring is one of the 11 level-one rings, one of the 4 wedges over
        # the torsion subgroup, or a wedge with middle subgroup <z^s> x <a>
        # (s = 2..window) around a level-one ring: 11 + 4 + 11 (window - 1)
        torsion_wedges = [Recipe("wedge", subgroups=torsion_tower(G, 0), parts=(inner, outer))
                          for inner in TORSION_RINGS.values() for outer in FREE_RINGS.values()]
        tower_wedges = [
            Recipe("wedge", subgroups=torsion_tower(G, step),
                   parts=(d, FREE_RINGS[projection_type(resynthesize(d, 1))]))
            for d in LEVEL_ONE for step in range(2, window + 1)
        ]
        expected = [resynthesize(d, window).classes
                    for d in (*LEVEL_ONE, *torsion_wedges, *tower_wedges)]
        assert len(set(expected)) == len(expected) == 11 * window + 4
        assert {P.classes for P in _windowed(window)} == set(expected)

    @pytest.mark.parametrize("window", range(3, MAX_WINDOW + 1))
    def test_every_window_classifies(self, window):
        # the search uses the axioms alone, so the lemma checks here are a
        # test of the paper's lemmas on every ring it finds
        start = time.time()
        presentations = _windowed(window)
        failures = []
        for P in presentations:
            try:
                if resynthesize(classify(P), window).classes != P.classes:
                    failures.append((P.describe(), "round trip"))
                checks = [
                    frobenius_closure_holds(P, 2),
                    class_shape_holds(P),
                    power_in_subgroup_holds(P, find_H(P)),
                ]
                failures.extend((P.describe(), msg) for ok, msg in checks if not ok)
            except Exception as ex:  # noqa: BLE001 - any failure counts
                failures.append((P.describe(), repr(ex)))
        elapsed = time.time() - start
        ok = not failures and len(presentations) == 11 * window + 4
        _report(
            4,
            f"desk-scale exhaustiveness (N={window})",
            ok,
            f"{len(presentations)} window partitions, {len(failures)} failures",
            elapsed,
        )
        assert len(presentations) == 11 * window + 4
        assert not failures, failures


class TestCriterion5LemmaSuite:
    def _corpus(self):
        window = 12
        corpus = [("discrete", discrete(G, window)),
                  ("wedge 0 discrete discrete", standard_wedge(G, 0, "discrete", "discrete", window))]
        for name in (*NAMES, "zeta", "tau"):
            corpus.append((name, orbit_ring(G, [AUTOS[name]], window)))
        corpus.append(("psi,xi", orbit_ring(G, [AUTOS["psi"], AUTOS["xi"]], window)))
        corpus.append(("delta,xi", orbit_ring(G, [AUTOS["delta"], AUTOS["xi"]], window)))
        for step, inner, outer in ((0, "trivial", "symmetric"), (2, "discrete", "discrete"),
                                   (3, "symmetric", "symmetric")):
            corpus.append((f"wedge {step} {inner} {outer}",
                           standard_wedge(G, step, inner, outer, window)))
        corpus.append(("symmetric x trivial", tensor(symmetric(Z, window), trivial(Z3))))
        return corpus

    def test_lemma_suite(self):
        start = time.time()
        failures = []
        corpus = self._corpus()
        for label, P in corpus:
            assert verify_axioms(P).ok, label
            for k in (2, 4, 5, 7):
                ok, msg = frobenius_closure_holds(P, k)
                if not ok:
                    failures.append((label, f"frobenius {k}", msg))
            ok, msg = torsion_subgroup_holds(P)
            if not ok:
                failures.append((label, "torsion", msg))
            ok, msg = multiplier_sets_hold(P, 3)  # both routes must agree inside
            if not ok:
                failures.append((label, "multipliers", msg))
            ok, msg = class_shape_holds(P)
            if not ok:
                failures.append((label, "class shape", msg))
            ok, msg = power_in_subgroup_holds(P, find_H(P))
            if not ok:
                failures.append((label, "small-class powers", msg))
        elapsed = time.time() - start
        ok = not failures
        _report(
            5,
            "lemma suite",
            ok,
            f"{len(corpus)} presentations x 8 checks, {len(failures)} failures",
            elapsed,
        )
        assert ok, failures


class TestCriterion6FiniteTraditionality:
    def test_never_untraditional(self):
        start = time.time()
        checked = 0
        untraditional = []
        # Z2xZ6, Z2xZ8 and Z3xZ3 stay out: their automorphisms include maps
        # that send a into <z>, which the parametric family misses
        groups = [GroupDescriptor(1, n) for n in range(2, 17)]
        groups += [GroupDescriptor(*spec) for spec in ((2, 2), (2, 3), (2, 4), (4, 3))]
        for group in groups:
            for P in enumerate_finite(group):
                checked += 1
                if not is_traditional(P):
                    untraditional.append((group, P.describe()))
        elapsed = time.time() - start
        ok = not untraditional
        _report(
            6,
            "finite traditionality corroboration",
            ok,
            f"{checked} rings over {len(groups)} groups, {len(untraditional)} non-traditional",
            elapsed,
        )
        assert ok, untraditional


class TestCriterion7AlgebraProperties:
    CHECKS = 1000

    def _random_element(self, rng):
        return RingElement(
            G,
            [
                (
                    (rng.randint(-12, 12), rng.randint(0, 2)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                )
                for _ in range(rng.randint(0, 5))
            ],
        )

    def _random_set(self, rng):
        size = rng.randint(1, 5)
        return {
            G.element(rng.randint(-8, 8), rng.randint(0, 2)) for _ in range(size)
        }

    def test_randomized_identities(self):
        start = time.time()
        rng = random.Random(991231)
        failures = 0
        for _ in range(self.CHECKS):
            x, y, w = (self._random_element(rng) for _ in range(3))
            c_set, d_set = self._random_set(rng), self._random_set(rng)
            c_bar = simple_quantity(G, c_set)
            d_bar = simple_quantity(G, d_set)
            j, k = rng.randint(-4, 4), rng.randint(-4, 4)
            checks = [
                (x * y) * w == x * (y * w),
                x * y == y * x,
                x * (y + w) == x * y + x * w,
                (x * y).star() == x.star() * y.star(),
                c_bar.hadamard(d_bar) == simple_quantity(G, c_set & d_set),
                x.frobenius(j).frobenius(k) == x.frobenius(j * k),
            ]
            if not all(checks):
                failures += 1
        elapsed = time.time() - start
        ok = failures == 0
        _report(
            7,
            "group-ring algebra properties",
            ok,
            f"{self.CHECKS} randomized rounds x 6 identities, {failures} failures",
            elapsed,
        )
        assert ok

import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sring import (
    GroupDescriptor,
    GroupElement,
    MalformedPartition,
    NotSSet,
    NotSSubgroup,
    BadPrime,
    RingElement,
    SchurPresentation,
    Subgroup,
    all_subgroups,
    discrete,
    enumerate_windowed,
    is_sset,
    is_ssubgroup,
    multiplier_set,
    multiplier_set_congruence,
    quotient,
    restrict,
    simple_quantity,
    torsion_is_ssubgroup,
    verify_axioms,
    verify_wielandt,
)
from sring.lemmas import (
    class_shape_holds,
    frobenius_closure_holds,
    multiplier_sets_hold,
    power_in_subgroup_holds,
)
from sring.schur import _split_level, check_partition, is_union, star
from test_kernel import partitions


# {1}, {a, a^2}, {z^-1, z a^2}, {z^-1 a, z}, {z^-1 a^2, z a}: star-closed, but
# no Schur ring over Z x Z_3 extends it
WINDOW_1_NOT_A_RING = [
    [(0, 0)], [(0, 1), (0, 2)], [(-1, 0), (1, 2)], [(-1, 1), (1, 0)], [(-1, 2), (1, 1)],
]


class TestVerification:
    def test_discrete_z6_valid_both_routes(self):
        Z6 = GroupDescriptor(1, 6)
        P = SchurPresentation(Z6, [[(0, i)] for i in range(6)])
        assert verify_axioms(P).verdict == "valid"
        assert verify_wielandt(P).verdict == "valid"

    def test_trivial_z3_valid(self, Z3):
        P = SchurPresentation(Z3, [[(0, 0)], [(0, 1), (0, 2)]])
        assert verify_axioms(P).ok and verify_wielandt(P).ok

    def test_z4_star_counterexample(self):
        # {a, a^2}* = {a^3, a^2} is not a class
        Z4 = GroupDescriptor(1, 4)
        P = SchurPresentation(Z4, [[(0, 0)], [(0, 1), (0, 2)], [(0, 3)]])
        ra, rw = verify_axioms(P), verify_wielandt(P)
        assert ra.verdict == "invalid" and ra.witness.kind == "star-closure"
        assert rw.verdict == "invalid" and rw.witness.kind == "star-closure"

    def test_identity_must_be_singleton(self, Z3):
        P = SchurPresentation(Z3, [[(0, 0), (0, 1), (0, 2)]])
        report = verify_axioms(P)
        assert report.verdict == "invalid" and report.witness.kind == "identity-class"
        assert verify_wielandt(P).witness.kind == "identity-class"

    def test_product_closure_failure(self):
        Z5 = GroupDescriptor(1, 5)
        # inversion orbits form a ring; splitting one orbit breaks product closure
        P = SchurPresentation(Z5, [[(0, 0)], [(0, 1), (0, 4)], [(0, 2), (0, 3)]])
        assert verify_axioms(P).ok
        Q = SchurPresentation(Z5, [[(0, 0)], [(0, 1), (0, 4)], [(0, 2)], [(0, 3)]])
        ra, rw = verify_axioms(Q), verify_wielandt(Q)
        assert ra.verdict == "invalid" and ra.witness.kind == "product-closure"
        assert rw.verdict == "invalid" and rw.witness.kind == "product-closure"

    def test_windowed_verdict(self, psi_ring):
        report = verify_axioms(psi_ring)
        assert report.verdict == "valid-up-to-window"
        assert report.effective_window == 6
        assert report.checked_pairs > 0

    def test_windowed_product_never_out_of_reach(self, G):
        # {z^-3, z^3}{a} = z^-3 a + z^3 a meets {z^-3 a, z^3 a^2} in z^-3 a only
        classes = [[(0, 0)], [(0, 1)], [(0, 2)]]
        for k in range(1, 4):
            for i in range(3):
                classes.append([(k, i), (-k, i)] if i == 0 else [(k, i), (-k, (3 - i) % 3)])
        P = SchurPresentation(G, classes, window=3)
        assert verify_axioms(P).to_json() == {
            "verdict": "invalid",
            "checked_pairs": 11,
            "effective_window": 3,
            "witness": {
                "kind": "product-closure",
                "left": [[-3, 0], [3, 0]],
                "right": [[0, 1]],
                "detail": "product is not constant on class {z^-3*a, z^3*a^2}",
            },
        }
        report = verify_wielandt(P)
        assert (report.verdict, report.checked_pairs) == ("invalid", 11)
        assert (report.witness.left, report.witness.right) == (((-3, 0), (3, 0)), ((0, 1),))

    def test_a_pair_reaching_past_the_window_is_checked_on_it(self, G):
        # {z^-1, z a^2}^2 = z^-2 + 2a^2 + z^2 a: on window 1 it is 2a^2, not
        # constant on {a, a^2}, though the product reaches z^-2 and z^2
        P = SchurPresentation(G, WINDOW_1_NOT_A_RING, window=1)
        for verify in (verify_axioms, verify_wielandt):
            report = verify(P)
            assert report.verdict == "invalid", verify.__name__
            assert report.witness.kind == "product-closure"
            assert report.witness.left == report.witness.right == ((-1, 0), (1, 2))

    def test_malformed_gap(self, Z3):
        with pytest.raises(MalformedPartition):
            verify_axioms(SchurPresentation(Z3, [[(0, 0)], [(0, 1)]]))

    def test_malformed_outside_window(self, G):
        # every element of the window is covered, plus {z^5} and {z^-5} beyond it
        classes = [[(0, 0)], [(0, 1)], [(0, 2)]]
        classes += [[(k, i)] for k in (1, -1) for i in range(3)]
        classes += [[(5, 0)], [(-5, 0)]]
        P = SchurPresentation(G, classes, window=1)
        for verify in (verify_axioms, verify_wielandt):
            with pytest.raises(MalformedPartition, match="outside window 1"):
                verify(P)

    @pytest.mark.parametrize("window", [-3, 1])
    def test_malformed_finite_window(self, window):
        # a finite group has no window: any other value than 0 is rejected,
        # though the same classes with window 0 are a valid ring over Z5
        G = GroupDescriptor(1, 5)
        classes = [[(0, 0)], [(0, 1), (0, 4)], [(0, 2), (0, 3)]]
        assert verify_axioms(SchurPresentation(G, classes)).ok
        P = SchurPresentation(G, classes, window=window)
        for verify in (verify_axioms, verify_wielandt):
            with pytest.raises(MalformedPartition, match=f"window 0, not {window}"):
                verify(P)

    def test_malformed_overlap(self, Z3):
        with pytest.raises(MalformedPartition):
            verify_axioms(
                SchurPresentation(Z3, [[(0, 0)], [(0, 1), (0, 2)], [(0, 2)]])
            )

    def test_agreement_on_corpus(self, G, psi_ring, xi_ring):
        for P in (psi_ring, xi_ring, discrete(G, 4)):
            assert verify_axioms(P).verdict == verify_wielandt(P).verdict


def levels(alpha) -> dict:
    """The support of alpha grouped by coefficient value."""
    parts: dict = {}
    for g, v in alpha.terms().items():
        parts.setdefault(v, set()).add(g)
    return {v: frozenset(part) for v, part in parts.items()}


class TestLevelSets:
    """Schur-Wielandt: each level set of an element of the span is an S-set."""

    def test_spec_example(self, G, psi_ring):
        alpha = RingElement(G, {(1, 0): 2, (1, 1): 2, (1, 2): 1})
        parts = levels(alpha)
        assert parts == {
            Fraction(2): frozenset({(1, 0), (1, 1)}),
            Fraction(1): frozenset({(1, 2)}),
        }
        assert all(is_sset(psi_ring, part) for part in parts.values())

    def test_torsion_sum_single_level(self, G, psi_ring):
        alpha = simple_quantity(G, [(0, 0), (0, 1), (0, 2)])
        parts = levels(alpha)
        assert parts == {Fraction(1): frozenset({(0, 0), (0, 1), (0, 2)})}
        # the single level splits over two classes
        part = parts[Fraction(1)]
        assert is_sset(psi_ring, part)
        assert psi_ring.class_of((0, 0)) < part and psi_ring.class_of((0, 1)) < part

    def test_random_span_elements_have_sset_levels(self, G, psi_ring, xi_ring):
        rng = random.Random(4321)
        for P in (psi_ring, xi_ring):
            for _ in range(25):
                picked = rng.sample(P.classes, rng.randint(1, 4))
                alpha = RingElement(G)
                for c in picked:
                    alpha = alpha + simple_quantity(G, c).scale(rng.randint(-3, 3))
                for part in levels(alpha).values():
                    assert is_sset(P, part)


class TestGeneratedSubgroup:
    """Schur-Wielandt: the subgroup generated by the support of an element of
    the span is an S-subgroup."""

    @staticmethod
    def generated(alpha, P) -> Subgroup:
        H = Subgroup.generated_by(P.group, alpha.support())
        assert is_ssubgroup(P, H)
        return H

    def test_symmetric_pair(self, G, xi_ring):
        alpha = simple_quantity(G, [(3, 0), (-3, 0)])
        assert self.generated(alpha, xi_ring).z_index == 3

    def test_torsion(self, G, psi_ring):
        alpha = simple_quantity(G, [(0, 1), (0, 2)])
        H = self.generated(alpha, psi_ring)
        assert H.order == 3

    def test_full_group(self, G, psi_ring):
        alpha = simple_quantity(G, [(1, 0), (1, 1)])
        assert self.generated(alpha, psi_ring).is_full

    def test_twisted_from_discrete(self, G):
        P = discrete(G, 4)
        alpha = simple_quantity(G, [(1, 1)])
        H = self.generated(alpha, P)
        assert H.contains((2, 2)) and not H.contains((0, 1))


# enumerate_finite(G) as [P.to_json() for P in ...], keyed by the CLI group label
FINITE_GOLDEN = json.loads((Path(__file__).parent / "finite_golden.json").read_text())


def count_rule(P: SchurPresentation, H: Subgroup) -> bool:
    """The first S-subgroup test that :func:`is_ssubgroup` replaced: no class
    has some but not all of its elements in H."""
    for c in P.classes:
        inside = sum(1 for g in c if H.contains(g))
        if inside not in (0, len(c)):
            return False
    return True


def set_rule(P: SchurPresentation, H: Subgroup) -> bool:
    """The second one: no class meets H, cut to the window, without lying
    inside it."""
    elems = frozenset(H.window_elements(P.window))
    return not any(not (c <= elems or c.isdisjoint(elems)) for c in P.classes)


def subgroups_to_check(P: SchurPresentation) -> tuple[Subgroup, ...]:
    """Every subgroup of a finite group; on a window w, the torsion subgroup,
    <z^h> and <z^h> x <a> for h <= w."""
    G = P.group
    if not G.is_infinite:
        return tuple(all_subgroups(G))
    return (Subgroup.torsion(G),) + tuple(
        make(G, h) for h in range(1, P.window + 1)
        for make in (Subgroup.free_power, Subgroup.free_power_with_torsion)
    )


@cache
def rings() -> list[tuple[SchurPresentation, tuple[Subgroup, ...]]]:
    """Each ring of the finite golden census and of enumerate_windowed(1..6),
    with :func:`subgroups_to_check`."""
    out = [SchurPresentation.from_json(data)
           for _, census in sorted(FINITE_GOLDEN.items()) for data in census]
    out += [P for w in range(1, 7) for P in enumerate_windowed(w)]
    return [(P, subgroups_to_check(P)) for P in out]


def merges(P: SchurPresentation) -> list[SchurPresentation]:
    """P with two classes merged and their stars merged, as the benchmark's
    perturbed inputs are made: both classes self-star or neither, and neither
    the star of the other, so that the result is still a partition."""
    G, out = P.group, []
    for i, c in enumerate(P.classes[1:], 1):
        for d in P.classes[i + 1:]:
            if d != star(c, G) and (star(c, G) == c) == (star(d, G) == d):
                kept = [e for e in P.classes if e not in {c, d, star(c, G), star(d, G)}]
                classes = kept + [c | d, star(c, G) | star(d, G)]
                out.append(SchurPresentation(G, classes, window=P.window))
    return out


class TestSSubgroupRule:
    """:func:`is_ssubgroup`, a union-of-classes test, agrees with both rules it
    replaced whenever the classes cover the window and lie in it, as on every
    partition the package builds or accepts."""

    def assert_rules_agree(self, P, subgroups):
        for H in subgroups:
            assert is_ssubgroup(P, H) == count_rule(P, H) == set_rule(P, H), (
                P.describe(), str(H))

    def test_every_census_ring_and_subgroup(self):
        for P, subgroups in rings():
            self.assert_rules_agree(P, subgroups)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_merged_variants(self, data):
        P, subgroups = data.draw(st.sampled_from(rings()))
        P = data.draw(st.sampled_from(merges(P) or [P]))
        self.assert_rules_agree(P, subgroups)

    @settings(max_examples=300, deadline=None)
    @given(partitions())
    def test_random_partitions(self, P):
        # star-closed or not, and mostly not rings
        self.assert_rules_agree(P, subgroups_to_check(P))

    def test_a_class_past_the_window_splits_every_subgroup_it_meets(self, G):
        P = SchurPresentation(G, [[(0, 0)], [(1, 0), (2, 0)]], window=1)
        assert not is_union(G.window_elements(1), P._member_class)
        assert not is_ssubgroup(P, Subgroup.free_power(G, 1))
        assert count_rule(P, Subgroup.free_power(G, 1))

    def test_an_element_in_no_class_makes_no_s_subgroup(self, G):
        # the one place the set rule differed: z^-1 lies in <z> but in no class,
        # and a partition with such a gap is refused as malformed
        P = SchurPresentation(G, [[(0, 0)], [(1, 0)]], window=1)
        H = Subgroup.free_power(G, 1)
        assert not is_ssubgroup(P, H)
        assert set_rule(P, H) and count_rule(P, H)
        with pytest.raises(MalformedPartition, match="group not covered"):
            check_partition(P)


class TestRestrictQuotient:
    def test_restrict_to_torsion(self, G, psi_ring, Z3):
        inner = restrict(psi_ring, Subgroup.torsion(G))
        assert inner.group == Z3
        assert set(inner.classes) == {
            frozenset({(0, 0)}),
            frozenset({(0, 1), (0, 2)}),
        }

    def test_restrict_discrete(self, G):
        P = discrete(G, 6)
        H = Subgroup.free_power_with_torsion(G, 2)
        inner = restrict(P, H)
        assert inner.group == GroupDescriptor(0, 3)
        assert inner.window == 3
        assert all(len(c) == 1 for c in inner.classes)

    def test_restrict_full_is_identity_map(self, G, psi_ring):
        same = restrict(psi_ring, Subgroup.full(G))
        assert same.classes == psi_ring.classes

    def test_restrict_requires_ssubgroup(self, G, psi_ring):
        with pytest.raises(NotSSubgroup):
            restrict(psi_ring, Subgroup.free_power(G, 1))  # <z> splits {z, az}

    def test_quotient_psi_is_discrete_over_Z(self, G, psi_ring):
        q = quotient(psi_ring, Subgroup.torsion(G))
        assert q.group == GroupDescriptor(0, 1)
        assert all(len(c) == 1 for c in q.classes)
        assert len(q.classes) == 2 * psi_ring.window + 1

    def test_quotient_xi_is_symmetric_over_Z(self, G, xi_ring):
        q = quotient(xi_ring, Subgroup.torsion(G))
        assert frozenset({(2, 0), (-2, 0)}) in set(q.classes)
        assert all(len(c) in (1, 2) for c in q.classes)

    def test_quotient_by_trivial_keeps_classes(self, G, psi_ring):
        q = quotient(psi_ring, Subgroup.trivial(G))
        assert q.classes == psi_ring.classes

    def test_quotient_requires_ssubgroup(self, G, psi_ring):
        with pytest.raises(NotSSubgroup):
            quotient(psi_ring, Subgroup.free_power(G, 1))


class TestMultiplierSets:
    def test_pair_collapses_to_cube(self, G, psi_ring):
        X = {GroupElement(1, 0), GroupElement(1, 1)}
        assert multiplier_set(X, 3, psi_ring) == {(3, 0)}

    def test_full_coset_vanishes(self, G, psi_ring):
        X = G.coset_of_torsion(1)
        assert multiplier_set(X, 3, psi_ring) == frozenset()

    def test_torsion_generator(self, G):
        P = discrete(G, 6)
        assert multiplier_set({GroupElement(0, 1)}, 3, P) == {(0, 0)}

    def test_congruence_route_agrees(self, G, psi_ring, xi_ring):
        for P in (psi_ring, xi_ring):
            for c in P.classes:  # both count the whole class, inside the window or past it
                assert multiplier_set(c, 3, P) == multiplier_set_congruence(c, 3, P)

    def test_integer_counts_match_the_group_ring(self, G):
        # the lemma rows count in integers; the rational algebra of RingElement
        # must give the same power maps and multiplier sets
        failing = [_discrete_with(G, 3, *REACH_3_NOT_A_RING), _discrete_with(G, 3, MERGED_INVERSES)]
        for P in enumerate_windowed(4) + failing:
            for c in P.classes:
                X = simple_quantity(G, c)
                cube = {g for g, v in (X * X * X).terms().items() if v % 3}
                assert multiplier_set_congruence(c, 3, P) == cube
            for k in (2, 4, 5, 7):
                closed = all(
                    _split_level(simple_quantity(G, c).frobenius(k).terms(), P._member_class)
                    is None
                    for c in P.classes
                )
                assert frobenius_closure_holds(P, k)[0] == closed

    def test_requires_sset(self, G, psi_ring):
        with pytest.raises(NotSSet):
            multiplier_set({GroupElement(0, 1)}, 3, psi_ring)

    def test_requires_prime_dividing_torsion(self, G, psi_ring):
        with pytest.raises(BadPrime):
            multiplier_set(G.coset_of_torsion(0), 2, psi_ring)

    def test_union_of_classes_is_sset(self, G, psi_ring):
        X = set(psi_ring.class_of((1, 0))) | set(psi_ring.class_of((1, 2)))
        out = multiplier_set(X, 3, psi_ring)
        assert is_sset(psi_ring, out)

    def test_a_result_that_is_no_sset_is_returned(self, G):
        # the lemma, not multiplier_set, decides: {z^-1 a}^[3] = {z^-3}, half of a class
        P = _discrete_with(G, 3, MERGED_INVERSES)
        assert multiplier_set({GroupElement(-1, 1)}, 3, P) == {(-3, 0)}


def _discrete_with(G, window, *classes):
    """discrete(G, window) with the given classes in place of the singletons they cover."""
    covered = {g for c in classes for g in c}
    singletons = [c for c in discrete(G, window).classes if not c <= covered]
    return SchurPresentation(G, [*singletons, *classes], window=window)


# window 3, merged into discrete: {z^-3, z^-1}, and {z, z^3} with {z^2, z^3 a}
MERGED_INVERSES = [(-3, 0), (-1, 0)]
REACH_3_NOT_A_RING = [[(1, 0), (3, 0)], [(2, 0), (3, 1)]]


class TestLemmaHelpers:
    def test_torsion_is_ssubgroup(self, G, psi_ring):
        assert torsion_is_ssubgroup(psi_ring)
        assert torsion_is_ssubgroup(discrete(G, 3))

    def test_frobenius_closure(self, psi_ring, xi_ring):
        for P in (psi_ring, xi_ring):
            for k in (2, 4, 5, 7):
                ok, msg = frobenius_closure_holds(P, k)
                assert ok, msg

    def test_frobenius_closure_checks_a_class_that_reaches_past_the_window(self, G):
        # {z, z^3} squared is {z^2, z^6}: on the window {z^2}, half of {z^2, z^3 a}
        P = _discrete_with(G, 3, *REACH_3_NOT_A_RING)
        ok, msg = frobenius_closure_holds(P, 2)
        assert not ok and msg == "class {z, z^3} breaks closure under power 2"

    def test_every_class_is_counted(self, G, psi_ring):
        n = len(psi_ring.classes)
        assert frobenius_closure_holds(psi_ring, 7) == (
            True, f"all {n} classes closed under power 7 on the window")
        assert multiplier_sets_hold(psi_ring, 3) == (
            True, f"multiplier sets verified for {n} classes")

    def test_multiplier_sets_fail_on_a_class_that_reaches_past_the_window(self, G):
        # {z^-3, z^-1}^[3] = {z^-9, z^-3}: on the window {z^-3}, half of the class
        ok, msg = multiplier_sets_hold(_discrete_with(G, 3, MERGED_INVERSES), 3)
        assert (ok, msg) == (False, "multiplier set of {z^-3, z^-1} is not an S-set")

    def test_class_shape(self, psi_ring, xi_ring):
        for P in (psi_ring, xi_ring):
            ok, msg = class_shape_holds(P)
            assert ok, msg

    def test_power_in_subgroup(self, G, psi_ring):
        ok, msg = power_in_subgroup_holds(psi_ring, Subgroup.free_power(G, 3))
        assert ok, msg
        # misreported H is caught
        ok, _ = power_in_subgroup_holds(psi_ring, Subgroup.free_power(G, 5))
        assert not ok


class TestSerialization:
    def test_presentation_roundtrip(self, psi_ring):
        data = psi_ring.to_json()
        assert data["group"] == {"free": "Z", "torsion": 3}
        again = SchurPresentation.from_json(data)
        assert again.classes == psi_ring.classes and again.window == psi_ring.window

    @pytest.mark.parametrize(
        "group,classes,window",
        [(GroupDescriptor(0, 3), [[(0, 0)], [(0, -2), (0, 5)], [(-1, 3), (1, -3)]], 1),
         (GroupDescriptor(3, 2), [[(3, 2)], [(-1, 0), (4, -2)], [(0, 1)], [(2, 1), (1, 3)]], 0)],
        ids=["ZxZ3", "Z3xZ2"],
    )
    def test_constructor_reduces_and_to_json_writes_reduced_exponents(
        self, group, classes, window
    ):
        data = SchurPresentation(group, classes, window=window).to_json()
        n, m = group.free_order, group.torsion_order
        assert all(0 <= a < m and (not n or 0 <= z < n) for c in data["classes"] for z, a in c)
        assert SchurPresentation.from_json(data).to_json() == data

    @pytest.mark.parametrize(
        "patch",
        [{"window": True}, {"window": 6.0}, {"window": "6"}, {"group": 5}, {"classes": 5},
         {"classes": [5]}, {"classes": [[5]]}, {"classes": [[[0, 0, 0]]]},
         {"classes": [[[0.0, 0]]]}, {"classes": [[["0", 0]]]}, {"classes": [[[False, 0]]]}],
    )
    def test_presentation_shape_rejected(self, psi_ring, patch):
        with pytest.raises(ValueError):
            SchurPresentation.from_json({**psi_ring.to_json(), **patch})

    @pytest.mark.parametrize("field", ["group", "classes"])
    def test_presentation_field_required(self, psi_ring, field):
        data = psi_ring.to_json()
        del data[field]
        with pytest.raises(ValueError, match=field):
            SchurPresentation.from_json(data)
        with pytest.raises(ValueError):
            SchurPresentation.from_json([data])

    def test_classes_sorted_by_least_element(self, psi_ring):
        data = psi_ring.to_json()
        keys = [tuple(map(tuple, c)) for c in data["classes"]]
        assert keys == sorted(keys)

    def test_report_json(self, psi_ring):
        report = verify_axioms(psi_ring)
        data = report.to_json()
        assert data["verdict"] == "valid-up-to-window"
        assert data["witness"] is None

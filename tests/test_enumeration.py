import hashlib
import json
import re
from collections import Counter
from functools import cache, partial
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sring.enumeration as enumeration

from sring import (
    BoundExceeded,
    GroupDescriptor,
    GroupElement,
    InfiniteGroup,
    SchurPresentation,
    Subgroup,
    build,
    class_stabilizer,
    discrete,
    enumerate_finite,
    enumerate_windowed,
    is_traditional,
    orbit_ring,
    projection_type,
    quotient,
    restrict,
    standard_wedge,
    trivial,
    verify_axioms,
    verify_wielandt,
)
from sring.cli import parse_group
from sring.constructions import _direct_product
from sring.enumeration import MAX_WINDOW, _closed, _search, _star_pairs
from sring.automorphisms import close_automorphisms
from sring.schur import is_ssubgroup, reach, shadow, star

# enumerate_windowed(w, projection) for w = 1-6, as [P.to_json() for P in ...],
# keyed "<w> <projection>"; recorded while the window search still pruned with
# the paper's lemmas.  This pins the order of the rings as well, which the
# search's final sort must reproduce.
WINDOWED_GOLDEN = json.loads((Path(__file__).parent / "windowed_golden.json").read_text())

# SHA-256 of the lines that `sring --json enumerate --windowed w` prints for
# enumerate_windowed(w, projection), summary line excluded, for w = 1-12; keyed
# "<w> <projection>" with "all" for no projection.  Recorded on the recursive
# search over set-partition layouts, before layouts came from star pairs.
WINDOWED_SHA256 = json.loads((Path(__file__).parent / "windowed_sha256.json").read_text())

# enumerate_finite(G) as [P.to_json() for P in ...], keyed by the CLI group
# label; recorded with the subset search that tried every 2^(r-1) subset.
FINITE_GOLDEN = json.loads((Path(__file__).parent / "finite_golden.json").read_text())


def _set_partitions(items):
    """Every set partition of ``items``, each class listed by its least
    element; filtered, the reference definition of a level layout."""
    items = sorted(items)
    if not items:
        yield []
        return
    least, rest = items[0], items[1:]
    for mask in range(2 ** len(rest)):
        cls = frozenset([least] + [rest[i] for i in range(len(rest)) if mask >> i & 1])
        for sub in _set_partitions([x for x in rest if x not in cls]):
            yield [cls] + sub


@cache
def _census(spec):
    return enumerate_finite(GroupDescriptor(*spec), bound=18)


# enumerate_windowed(window, projection), shared by the tests that read whole
# censuses; call it with both arguments, as the cache keys on them as given
_windowed = cache(enumerate_windowed)


@st.composite
def star_closed_partitions(draw):
    """A star-closed partition of Z_n x Z_m (n*m <= 16) as a class list with
    {1} first: a ring of the census, that ring with two classes merged and
    their stars merged, or inverse pairs {g, g^-1} grouped at random, where
    a group free of involutions may split into a set holding one element of
    each pair and its star."""
    spec = draw(st.sampled_from([(n, m) for n in range(1, 17) for m in range(1, 16 // n + 1)]))
    G = GroupDescriptor(*spec)
    how = draw(st.sampled_from(["ring", "merged", "random"]))
    if how != "random":
        classes = list(draw(st.sampled_from(_census(spec))).classes)
        # two classes merge with their stars when both or neither are self-star
        mergeable = [(c, d) for i, c in enumerate(classes[1:], 1) for d in classes[i + 1:]
                     if (star(c, G) == c) == (star(d, G) == d)]
        if how == "merged" and mergeable:
            c, d = draw(st.sampled_from(mergeable))
            merged = {c | d, star(c, G) | star(d, G)}
            classes = [e for e in classes if e not in {c, d, star(c, G), star(d, G)}]
            classes += merged
        return G, [frozenset([G.identity])] + [c for c in classes if G.identity not in c]
    pairs = sorted({frozenset([g, G.inverse(g)]) for g in G.elements() if g != G.identity}, key=sorted)
    labels = draw(st.lists(st.integers(0, len(pairs)), min_size=len(pairs), max_size=len(pairs)))
    classes = [frozenset([G.identity])]
    for label in sorted(set(labels)):
        c = [p for p, i in zip(pairs, labels) if i == label]
        if all(len(p) == 2 for p in c) and draw(st.booleans()):
            half = frozenset(min(p) if draw(st.booleans()) else max(p) for p in c)
            classes += [half, star(half, G)]
        else:
            classes.append(frozenset().union(*c))
    return G, classes


# Counts below with no literature anchor were frozen from the first verified
# run (pruned and unpruned searches agree, and every member passes both
# verification routes).
FROZEN_COUNTS = {
    (1, 2): 1,
    (1, 3): 2,
    (1, 4): 3,
    (1, 5): 3,
    (1, 6): 7,
    (1, 7): 4,
    (1, 8): 10,
    (1, 9): 7,
    (1, 10): 10,
    (1, 11): 4,
    (1, 12): 32,
    (2, 3): 7,
    (4, 3): 32,
}


# is_traditional on every ring of enumerate_finite(G), in enumeration order, as
# (kind, [phi.to_json() for phi in generators]).  An orbit result carries the
# canonical generators of the ring's class stabilizer.
TRADITIONALITY = {
    (1, 2): [
        ("trivial", []),
    ],
    (1, 3): [
        ("orbit", []), ("trivial", []),
    ],
    (1, 4): [
        ("orbit", []), ("trivial", []), ("orbit", [{"a": 3, "z": [0, 0]}]),
    ],
    (1, 5): [
        ("orbit", []), ("trivial", []), ("orbit", [{"a": 4, "z": [0, 0]}]),
    ],
    (1, 6): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 5, "z": [0, 0]}]),
    ],
    (1, 7): [
        ("orbit", []), ("trivial", []), ("orbit", [{"a": 2, "z": [0, 0]}]),
        ("orbit", [{"a": 6, "z": [0, 0]}]),
    ],
    (1, 8): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("orbit", [{"a": 3, "z": [0, 0]}]),
        ("wedge", []), ("wedge", []), ("orbit", [{"a": 3, "z": [0, 0]}, {"a": 5, "z": [0, 0]}]),
        ("orbit", [{"a": 5, "z": [0, 0]}]), ("wedge", []), ("orbit", [{"a": 7, "z": [0, 0]}]),
    ],
    (1, 9): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("orbit", [{"a": 2, "z": [0, 0]}]),
        ("orbit", [{"a": 4, "z": [0, 0]}]), ("wedge", []), ("orbit", [{"a": 8, "z": [0, 0]}]),
    ],
    (1, 10): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 3, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 9, "z": [0, 0]}]),
    ],
    (1, 11): [
        ("orbit", []), ("trivial", []), ("orbit", [{"a": 3, "z": [0, 0]}]),
        ("orbit", [{"a": 10, "z": [0, 0]}]),
    ],
    (1, 12): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("tensor", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("orbit", [{"a": 5, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 5, "z": [0, 0]}, {"a": 7, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("orbit", [{"a": 7, "z": [0, 0]}]), ("wedge", []),
        ("wedge", []), ("tensor", []), ("orbit", [{"a": 11, "z": [0, 0]}]),
    ],
    (1, 13): [
        ("orbit", []), ("trivial", []), ("orbit", [{"a": 4, "z": [0, 0]}]),
        ("orbit", [{"a": 3, "z": [0, 0]}]), ("orbit", [{"a": 5, "z": [0, 0]}]),
        ("orbit", [{"a": 12, "z": [0, 0]}]),
    ],
    (1, 14): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("orbit", [{"a": 3, "z": [0, 0]}]), ("wedge", []),
        ("wedge", []), ("orbit", [{"a": 9, "z": [0, 0]}]), ("orbit", [{"a": 13, "z": [0, 0]}]),
    ],
    (1, 15): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("orbit", [{"a": 2, "z": [0, 0]}, {"a": 7, "z": [0, 0]}]),
        ("orbit", [{"a": 2, "z": [0, 0]}]), ("orbit", [{"a": 4, "z": [0, 0]}]), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 7, "z": [0, 0]}]),
        ("orbit", [{"a": 4, "z": [0, 0]}, {"a": 11, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 11, "z": [0, 0]}]), ("orbit", [{"a": 14, "z": [0, 0]}]),
    ],
    (1, 16): [
        ("orbit", []), ("trivial", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 3, "z": [0, 0]}, {"a": 5, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("wedge", []), ("orbit", [{"a": 3, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 5, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 7, "z": [0, 0]}]), ("wedge", []), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 7, "z": [0, 0]}, {"a": 9, "z": [0, 0]}]),
        ("orbit", [{"a": 9, "z": [0, 0]}]), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 15, "z": [0, 0]}]),
    ],
    (2, 2): [
        ("orbit", []), ("orbit", [{"a": 1, "z": [1, 1]}]), ("wedge", []), ("trivial", []),
        ("wedge", []),
    ],
    (2, 4): [
        ("orbit", []), ("wedge", []), ("orbit", [{"a": 1, "z": [2, 1]}]), ("tensor", []),
        ("wedge", []), ("tensor", []), ("trivial", []), ("wedge", []), ("wedge", []),
        ("orbit", [{"a": 3, "z": [0, 1]}]), ("wedge", []), ("orbit", [{"a": 3, "z": [2, 1]}]),
        ("orbit", [{"a": 3, "z": [0, 1]}, {"a": 1, "z": [2, 1]}]), ("tensor", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("tensor", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []),
    ],
    (2, 6): [
        ("orbit", []), ("wedge", []), ("tensor", []), ("orbit", [{"a": 1, "z": [3, 1]}]),
        ("tensor", []), ("wedge", []), ("tensor", []), ("trivial", []), ("wedge", []),
        ("wedge", []), ("tensor", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("tensor", []), ("wedge", []),
        ("tensor", []), ("wedge", []), ("tensor", []), ("wedge", []), ("wedge", []),
        ("tensor", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("tensor", []),
        ("tensor", []), ("tensor", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("orbit", [{"a": 5, "z": [0, 1]}]),
        ("wedge", []), ("tensor", []), ("orbit", [{"a": 5, "z": [3, 1]}]),
        ("orbit", [{"a": 5, "z": [0, 1]}, {"a": 1, "z": [3, 1]}]), ("tensor", []), ("tensor", []),
        ("tensor", []), ("tensor", []), ("tensor", []), ("wedge", []), ("tensor", []),
        ("tensor", []), ("wedge", []), ("tensor", []), ("tensor", []), ("wedge", []),
        ("tensor", []), ("no", []), ("tensor", []), ("tensor", []), ("wedge", []), ("no", []),
    ],
    (3, 3): [
        ("orbit", []), ("orbit", [{"a": 1, "z": [1, 1]}]),
        ("orbit", [{"a": 1, "z": [0, 2]}, {"a": 1, "z": [1, 1]}]),
        ("orbit", [{"a": 1, "z": [0, 2]}]), ("orbit", [{"a": 1, "z": [1, 2]}]),
        ("orbit", [{"a": 1, "z": [2, 2]}]), ("orbit", [{"a": 2, "z": [0, 1]}]),
        ("orbit", [{"a": 2, "z": [1, 1]}]),
        ("orbit", [{"a": 2, "z": [0, 1]}, {"a": 1, "z": [1, 1]}]),
        # {1}; {a, a^2}; the 6 elements outside <a>.  A search over the
        # subgroups of Aut(G), smallest first, stopped at <z->a^1z^2, a->a^2>,
        # which has the same orbits; the full class stabilizer needs two.
        ("orbit", [{"a": 2, "z": [0, 1]}, {"a": 1, "z": [1, 2]}]),
        ("orbit", [{"a": 2, "z": [0, 2]}, {"a": 2, "z": [1, 1]}]),
        ("orbit", [{"a": 2, "z": [2, 1]}]),
        ("orbit", [{"a": 2, "z": [0, 2]}, {"a": 1, "z": [1, 2]}]),
        ("orbit", [{"a": 2, "z": [0, 1]}, {"a": 1, "z": [0, 2]}]),
        ("orbit", [{"a": 2, "z": [0, 2]}]), ("trivial", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("no", []), ("tensor", []), ("wedge", []), ("wedge", []),
        ("no", []), ("tensor", []), ("no", []), ("tensor", []), ("tensor", []), ("wedge", []),
        ("wedge", []), ("tensor", []), ("wedge", []), ("wedge", []), ("tensor", []), ("wedge", []),
        ("wedge", []), ("tensor", []), ("tensor", []), ("tensor", []),
    ],
    (4, 3): [
        ("orbit", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("tensor", []), ("orbit", [{"a": 1, "z": [0, 3]}]), ("orbit", [{"a": 2, "z": [0, 1]}]),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("tensor", []),
        ("orbit", [{"a": 2, "z": [0, 1]}, {"a": 1, "z": [0, 3]}]),
        ("orbit", [{"a": 2, "z": [0, 3]}]), ("trivial", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
        ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []), ("wedge", []),
    ],
}


class TestEnumerateFinite:
    def test_z3_exactly_two(self, Z3):
        rings = enumerate_finite(Z3)
        assert len(rings) == 2
        class_sets = [set(P.classes) for P in rings]
        assert {frozenset({(0, 0)}), frozenset({(0, 1)}), frozenset({(0, 2)})} in class_sets
        assert {frozenset({(0, 0)}), frozenset({(0, 1), (0, 2)})} in class_sets

    def test_z4_expected_partitions(self):
        Z4 = GroupDescriptor(1, 4)
        rings = enumerate_finite(Z4)
        class_sets = [set(P.classes) for P in rings]
        assert len(rings) == 3
        assert {
            frozenset({(0, 0)}),
            frozenset({(0, 2)}),
            frozenset({(0, 1), (0, 3)}),
        } in class_sets

    @pytest.mark.parametrize("spec,count", sorted(FROZEN_COUNTS.items()))
    def test_frozen_counts(self, spec, count):
        assert len(enumerate_finite(GroupDescriptor(*spec))) == count

    def test_members_verify_both_routes(self):
        for spec in [(1, 6), (2, 3)]:
            for P in enumerate_finite(GroupDescriptor(*spec)):
                assert verify_axioms(P).verdict == "valid"
                assert verify_wielandt(P).verdict == "valid"

    def test_contains_discrete_and_trivial(self):
        for spec in [(1, 5), (2, 3), (1, 8)]:
            G = GroupDescriptor(*spec)
            class_sets = [set(P.classes) for P in enumerate_finite(G)]
            assert set(discrete(G).classes) in class_sets
            assert set(trivial(G).classes) in class_sets

    @pytest.mark.parametrize(
        "spec", [(1, 4), (1, 6), (2, 3), (1, 7), (1, 8), (2, 2), (2, 4), (1, 9), (3, 3)]
    )
    def test_pruning_soundness(self, spec):
        # the reference is the unpruned search: every set partition of the
        # elements other than the identity, {1} added, that verify_axioms
        # accepts, in enumerate_finite's order
        G = GroupDescriptor(*spec)
        rest = [g for g in G.elements() if g != G.identity]
        leaves = (SchurPresentation(G, [[G.identity], *parts]) for parts in _set_partitions(rest))
        raw = sorted((P for P in leaves if verify_axioms(P).ok),
                     key=lambda P: tuple(tuple(sorted(c)) for c in P.classes))
        assert [P.classes for P in enumerate_finite(G)] == [P.classes for P in raw]

    @pytest.mark.parametrize("label", sorted(FINITE_GOLDEN))
    def test_golden_output(self, label):
        assert [P.to_json() for P in enumerate_finite(parse_group(label))] == FINITE_GOLDEN[label]

    @pytest.mark.parametrize(
        "spec",
        [(n, m) for n in range(1, 13) for m in range(1, 13) if 2 <= n * m <= 12],
        ids=lambda spec: "Z{}xZ{}".format(*spec),
    )
    def test_star_pairs_match_the_star_filtered_mask_loop(self, spec):
        # the reference is the pruned search's former candidate loop: every
        # subset of the unassigned elements holding the least one, kept when
        # it is star-closed or disjoint from its star (then added with it)
        G = GroupDescriptor(*spec)
        elems = sorted(G.elements())
        inv = [elems.index(G.inverse(g)) for g in elems]
        pairs = sorted({frozenset([g, G.inverse(g)]) for g in elems if g != G.identity}, key=sorted)

        def mask_loop(remaining):
            least, rest = remaining[0], remaining[1:]
            kept = []
            for mask in range(2 ** len(rest)):
                cls = frozenset([least] + [rest[i] for i in range(len(rest)) if mask >> i & 1])
                cls_star = star(cls, G)
                if cls_star != cls and (cls_star & cls or not cls_star <= set(rest)):
                    continue
                kept.append(frozenset([cls, cls_star]))
            return kept

        # every star-closed set of unassigned elements: a union of inverse pairs
        for mask in range(1, 2 ** len(pairs)):
            remaining = sorted(set().union(*(p for i, p in enumerate(pairs) if mask >> i & 1)))
            got = [
                frozenset(frozenset(elems[i] for i in c) for c in fresh)
                for fresh in _star_pairs([elems.index(g) for g in remaining], inv)
            ]
            assert len(got) == len(set(got))
            assert set(got) == set(mask_loop(remaining))

    @pytest.mark.parametrize("label,count", [("Z16", 37), ("Z2xZ8", 163), ("Z4xZ4", 537)])
    def test_every_leaf_is_a_ring(self, monkeypatch, label, count):
        # _closed is exact, so each partition the search completes passes
        # verify_axioms: one leaf check per ring
        leaves = []
        monkeypatch.setattr(enumeration, "verify_axioms", lambda P: leaves.append(P) or verify_axioms(P))
        assert len(enumerate_finite(parse_group(label))) == count
        assert len(leaves) == count

    @given(star_closed_partitions())
    @settings(max_examples=300, deadline=None)
    def test_closed_with_every_class_fresh_is_verify_axioms(self, drawn):
        G, classes = drawn
        n, m = G.free_order, G.torsion_order
        labels = {g: i for i, c in enumerate(classes) for g in c}

        def row(r, g):
            return [labels[(g.z_exp - x.z_exp) % n, (g.a_exp - x.a_exp) % m] for x in r]

        assert _closed(classes, 1, row) == verify_axioms(SchurPresentation(G, classes)).ok

    def test_determinism(self):
        G = GroupDescriptor(1, 8)
        first = [P.classes for P in enumerate_finite(G)]
        second = [P.classes for P in enumerate_finite(G)]
        assert first == second

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            enumerate_finite(GroupDescriptor(1, 20), bound=16)
        with pytest.raises(InfiniteGroup):
            enumerate_finite(GroupDescriptor(0, 3))


class TestIsTraditional:
    def test_trivial(self):
        assert is_traditional(trivial(GroupDescriptor(1, 5))).kind == "trivial"

    def test_z4_inversion_orbit(self):
        Z4 = GroupDescriptor(1, 4)
        from sring import SchurPresentation

        P = SchurPresentation(Z4, [[(0, 0)], [(0, 2)], [(0, 1), (0, 3)]])
        result = is_traditional(P)
        assert result.kind == "orbit"
        (gen,) = result.generators
        assert gen.torsion_unit == 3  # a -> a^-1

    def test_discrete_is_orbit_of_identity(self, Z3):
        assert is_traditional(discrete(Z3)).kind == "orbit"

    def test_tensor_detection(self):
        # over Z_4 x Z_3: combine inversion on the free factor with full torsion merge
        G = GroupDescriptor(4, 3)
        from sring import SchurPresentation

        classes = []
        for z_part in ([0], [2], [1, 3]):
            for a_part in ([0], [1, 2]):
                classes.append([(z, a) for z in z_part for a in a_part])
        P = SchurPresentation(G, classes)
        assert verify_axioms(P).ok
        result = is_traditional(P)
        assert result.kind in ("orbit", "tensor")  # orbit is found first when both apply

    def test_orbit_found_before_wedge(self):
        # over Z_9 the coset-of-<a^3> ring is also the orbit ring of a -> a^4,
        # and the orbit family is matched first
        Z9 = GroupDescriptor(1, 9)
        from sring import SchurPresentation

        classes = [[(0, 0)], [(0, 3)], [(0, 6)]]
        for r in (1, 2):
            classes.append([(0, r), (0, r + 3), (0, r + 6)])
        P = SchurPresentation(Z9, classes)
        assert verify_axioms(P).ok
        assert is_traditional(P).kind == "orbit"

    def test_wedge_detection(self):
        # over Z_6: discrete inside <a^2>, one merged class outside; neither
        # an orbit (the only automorphism is inversion) nor a tensor
        Z6 = GroupDescriptor(1, 6)
        from sring import SchurPresentation

        P = SchurPresentation(Z6, [[(0, 0)], [(0, 2)], [(0, 4)], [(0, 1), (0, 3), (0, 5)]])
        assert verify_axioms(P).ok
        result = is_traditional(P)
        assert result.kind == "wedge"
        K, H = result.subgroups
        assert K.order == 3 and H.order == 3

    @pytest.mark.parametrize("n", [*range(2, 11), 17, 18, 19, 20])
    def test_cyclic_groups_all_traditional(self, n):
        # Leung-Man: every Schur ring over a cyclic group is traditional
        for P in enumerate_finite(GroupDescriptor(1, n), bound=64):
            assert is_traditional(P), P.describe()

    @pytest.mark.parametrize(
        "spec", sorted(TRADITIONALITY), ids=lambda spec: "Z{}xZ{}".format(*spec)
    )
    def test_golden_table(self, spec):
        G = GroupDescriptor(*spec)
        results = []
        for P in enumerate_finite(G):
            result = is_traditional(P)
            results.append((result.kind, [phi.to_json() for phi in result.generators]))
            if result:
                assert build(G, result) == P
        assert results == TRADITIONALITY[spec]

    @pytest.mark.parametrize("spec,kinds", [
        pytest.param((2, 8), {"trivial": 1, "orbit": 16, "wedge": 134, "tensor": 10, "no": 2},
                     id="Z2xZ8"),
        pytest.param((4, 4), {"trivial": 1, "orbit": 32, "wedge": 241, "tensor": 63, "no": 200},
                     id="Z4xZ4"),
        pytest.param((3, 6), {"trivial": 1, "orbit": 15, "wedge": 146, "tensor": 126, "no": 9},
                     id="Z3xZ6"),
    ])
    def test_every_yes_rebuilds(self, spec, kinds):
        G = GroupDescriptor(*spec)
        seen = Counter()
        for P in enumerate_finite(G, bound=64):
            result = is_traditional(P)
            seen[result.kind] += 1
            if result:
                assert build(G, result) == P
        assert seen == kinds

    def test_tensor_factors_are_traditional(self):
        # These Z3xZ6 rings split as <a^3> x <z, a^2>, and their Z3xZ3 factor
        # is one of the three "no" verdicts over Z3xZ3, all of them false:
        # the parametric Automorphism family misses automorphisms there.  So
        # they are "no" as well, until that family covers all of Aut(G).
        G = GroupDescriptor(3, 6)
        K = Subgroup.generated_by(G, [GroupElement(0, 3)])
        H = Subgroup.generated_by(G, [GroupElement(1, 0), GroupElement(0, 2)])
        false_no = {P.classes for P in enumerate_finite(GroupDescriptor(3, 3))
                    if not is_traditional(P)}
        rings = enumerate_finite(G, bound=64)
        for index in (247, 260, 262):
            P = rings[index]
            assert _direct_product(K, H, restrict(P, K), restrict(P, H)) == P
            assert restrict(P, H).classes in false_no
            assert is_traditional(P).kind == "no"

    def test_orbit_generators_generate_the_class_stabilizer(self):
        G = GroupDescriptor(3, 3)
        from sring import SchurPresentation

        outside = [(z, a) for z in (1, 2) for a in range(3)]
        P = SchurPresentation(G, [[(0, 0)], [(0, 1), (0, 2)], outside])
        result = is_traditional(P)
        assert [str(phi) for phi in result.generators] == [
            "z->a^0z^1, a->a^2",
            "z->a^1z^2, a->a^1",
        ]
        assert close_automorphisms(result.generators) == frozenset(class_stabilizer(P))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_prime_cyclic_rings_match_subgroups_of_aut(self, p):
        # the Schur rings over Z_p are the orbit rings of the subgroups of the
        # cyclic group Aut(Z_p), so there are d(p - 1) of them
        rings = enumerate_finite(GroupDescriptor(1, p), bound=64)
        assert len(rings) == sum(1 for k in range(1, p) if (p - 1) % k == 0)
        assert {is_traditional(P).kind for P in rings} <= {"trivial", "orbit"}


class TestEnumerateWindowed:
    def test_window_three_contains_named_families(self, G, autos):
        out = enumerate_windowed(3)
        windows = {P.classes for P in out}
        assert discrete(G, 3).classes in windows
        for name in ("psi", "delta", "xi", "rho", "sigma"):
            assert orbit_ring(G, [autos[name]], 3).classes in windows, name
        assert standard_wedge(G, 0, "discrete", "discrete", 3).classes in windows
        assert standard_wedge(G, 0, "discrete", "symmetric", 3).classes in windows
        assert standard_wedge(G, 2, "discrete", "discrete", 3).classes in windows
        assert standard_wedge(G, 3, "discrete", "discrete", 3).classes in windows

    def test_every_output_verifies(self):
        for P in enumerate_windowed(3):
            assert verify_axioms(P).ok

    @pytest.mark.parametrize("window", range(1, MAX_WINDOW + 1))
    def test_projection_filter_excludes_discrete(self, G, window):
        # the projection is found, not assumed: each filter keeps only rings
        # of its own projection type
        assert discrete(G, window) not in _windowed(window, "symmetric")
        for mode in ("discrete", "symmetric"):
            out = _windowed(window, mode)
            assert out and all(projection_type(P) == mode for P in out)

    @pytest.mark.parametrize("window", range(1, MAX_WINDOW + 1))
    def test_union_of_filters_is_everything(self, window):
        # the two filters partition the census, discrete rings first
        split = _windowed(window, "discrete") + _windowed(window, "symmetric")
        assert split == _windowed(window, None)

    def test_determinism(self):
        assert [P.classes for P in enumerate_windowed(3)] == [
            P.classes for P in enumerate_windowed(3)
        ]

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            enumerate_windowed(MAX_WINDOW + 1)
        with pytest.raises(BoundExceeded):
            enumerate_windowed(0)

    @pytest.mark.parametrize("projection", ["Symmetric", "twisted", ""])
    def test_an_unknown_projection_is_refused(self, projection):
        with pytest.raises(ValueError, match=re.escape(repr(projection))):
            enumerate_windowed(3, projection)

    @pytest.mark.parametrize("window", range(1, 7))
    @pytest.mark.parametrize("projection", [None, "discrete", "symmetric"])
    def test_golden_output_order(self, window, projection):
        golden = WINDOWED_GOLDEN
        modes = [projection] if projection else ["discrete", "symmetric"]
        expected = [P for mode in modes for P in golden[f"{window} {mode}"]]
        assert [P.to_json() for P in enumerate_windowed(window, projection)] == expected

    @pytest.mark.parametrize("window", range(1, MAX_WINDOW + 1))
    @pytest.mark.parametrize("projection", [None, "discrete", "symmetric"])
    def test_output_digest(self, window, projection):
        lines = "".join(
            json.dumps(P.to_json(), sort_keys=True) + "\n"
            for P in _windowed(window, projection)
        )
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert digest == WINDOWED_SHA256[f"{window} {projection or 'all'}"]

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_the_leaf_check_alone_gives_the_census(self, G, window):
        # the census is every level-local, star-closed partition of the window
        # that verify_axioms accepts, whatever its projection: a level's
        # layouts are the star-closed set partitions of its slab at z^+-k, less
        # the identity.  At w = 3 (59,582 combinations) the layouts are first
        # cut to the shadows of one projection at a time.
        fits = [lambda c, k: True]
        if window == 3:
            fits = [lambda c, k: shadow(c) in ({k}, {-k}), lambda c, k: shadow(c) == {k, -k}]
        found = set()
        for fit in fits:
            levels = []
            for k in range(window + 1):
                slab = (G.coset_of_torsion(k) | G.coset_of_torsion(-k)) - {G.identity}
                levels.append([
                    parts for parts in _set_partitions(slab)
                    if {star(c, G) for c in parts} == set(parts) and all(fit(c, k) for c in parts)
                ])
            for layouts in product(*levels):
                P = SchurPresentation(G, [[G.identity], *chain(*layouts)], window=window)
                if verify_axioms(P).ok:
                    found.add(P)
        assert found == set(enumerate_windowed(window))

    # (calls, passes) of _closed in the search below, at w = 1, 2 and 3
    UNRESTRICTED_WORK = {1: (97, 29), 2: (2703, 92), 3: (97967, 337)}

    @pytest.mark.parametrize("window", UNRESTRICTED_WORK)
    def test_the_axioms_alone_force_level_locality(self, monkeypatch, G, window):
        # the census assumes each class lies in the levels +-k of one k.  Run
        # over the whole window in (|z|, g) order with the star pairs of every
        # unplaced element as options, not cut to one level, the search
        # yields every star-closed partition that _closed accepts, which is
        # exact on the window: the same rings, so the axioms force the shape
        elems = sorted(G.window_elements(window), key=lambda g: (abs(g.z_exp), g))
        inv = [elems.index(G.inverse(g)) for g in elems]
        verdicts = []
        monkeypatch.setattr(enumeration, "_closed", lambda *args: verdicts.append(_closed(*args))
                            or verdicts[-1])
        leaves = list(_search(G, elems, partial(_star_pairs, inv=inv)))
        assert (len(verdicts), sum(verdicts)) == self.UNRESTRICTED_WORK[window]
        found = {SchurPresentation(G, classes, window=window) for classes in leaves}
        assert len(found) == len(leaves)
        assert all(verify_axioms(P).ok for P in found)
        assert found == set(enumerate_windowed(window))

    def test_the_search_makes_no_leaf_check(self, monkeypatch):
        leaves = []
        monkeypatch.setattr(enumeration, "verify_axioms", lambda P: leaves.append(P) or verify_axioms(P))
        assert len(enumerate_windowed(6)) == 70
        assert not leaves

    def test_quotients_are_in_the_finite_census(self, G):
        # the bridge between the two enumerators: where <z^N> is an
        # S-subgroup of a window-12 ring, its quotient is a ring over
        # Z_N x Z_3 and, by the finite analogue, traditional
        seen = 0
        for P in enumerate_windowed(12):
            for N in range(2, 7):
                K = Subgroup.free_power(G, N)
                if is_ssubgroup(P, K):
                    Q = quotient(P, K)
                    assert Q in _census((N, 3)), (N, P)
                    assert is_traditional(Q).kind != "no", (N, P)
                    seen += 1
        assert seen == 83

    def test_each_ring_cut_one_level_down_is_a_ring_one_window_down(self):
        # every ring at window w-1 has one child at window w, except four
        # with 2, 4, 4 and 5, so the census grows by 11 rings a window
        census = {w: enumerate_windowed(w) for w in range(1, 9)}
        for w in range(2, 9):
            fibres = Counter(
                SchurPresentation(P.group, [c for c in P.classes if reach(c) < w], window=w - 1)
                for P in census[w]
            )
            assert set(fibres) == set(census[w - 1]), w
            assert sorted(Counter(fibres.values()).items()) == [
                (1, 11 * (w - 1)), (2, 1), (4, 2), (5, 1)], w


# (calls, passes) of _closed over each census: a finite group by its label, or
# Z x Z_3 by its window.  This pins the search's work: a search that tests
# more or fewer class triples fails, even when its output is the same.
CLOSED_WORK = {
    "Z12": (523, 93), "Z16": (5800, 176), "Z2xZ6": (866, 201), "Z2xZ8": (6756, 521),
    "Z4xZ4": (10005, 1519), 1: (64, 29), 2: (336, 80), 3: (769, 142), 6: (3031, 433),
    12: (11557, 1351),
}


@pytest.mark.parametrize("census", CLOSED_WORK, ids=str)
def test_the_search_tests_each_triple_as_before(monkeypatch, census):
    verdicts = []
    monkeypatch.setattr(enumeration, "_closed", lambda *args: verdicts.append(_closed(*args))
                        or verdicts[-1])
    if isinstance(census, str):
        enumerate_finite(parse_group(census))
    else:
        enumerate_windowed(census)
    assert (len(verdicts), sum(verdicts)) == CLOSED_WORK[census]

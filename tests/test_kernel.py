"""The integer class-product kernel and the verifier reports built on it.

``class_product`` is checked against the exact group-ring product, which stays
the reference.  The golden reports (verdict, checked pairs, witness) are taken
on valid rings and on star-closed perturbations of them: two class pairs at one
level are merged, so the product-closure witness lands inside the scan.  The
two finite rows were recorded from the group-ring product path that the kernel
replaced.  The windowed rows come from a plain reference scan
(:func:`_reference_scan`): every unordered class pair in scan order, multiplied
with the exact group-ring product, up to the first pair whose product is not
constant on a class of the window.  The rows up to window 16 are re-derived
from that scan on every run.  On random partitions, ``verify_axioms`` (row
pass) and ``verify_wielandt`` (pairwise level sets) must agree.
"""

import json

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from sring import (
    GroupDescriptor,
    GroupElement,
    SchurPresentation,
    discrete,
    named_automorphism,
    orbit_ring,
    simple_quantity,
    standard_wedge,
    verify_axioms,
    verify_wielandt,
)
from sring.schur import _fmt_class, class_product, reach, split_class, star

G = GroupDescriptor(0, 3)

# Z x Z_3, Z x Z_1, Z_1 x Z_n and Z_n x Z_m
KERNEL_GROUPS = (
    G,
    GroupDescriptor(0, 1),
    GroupDescriptor(1, 7),
    GroupDescriptor(4, 6),
    GroupDescriptor(3, 3),
)


@st.composite
def class_pairs(draw):
    group = draw(st.sampled_from(KERNEL_GROUPS))
    if group.is_infinite:
        z = st.integers(min_value=-6, max_value=6)
    else:
        z = st.integers(min_value=0, max_value=group.free_order - 1)
    elems = st.builds(GroupElement, z, st.integers(min_value=0, max_value=group.torsion_order - 1))
    c = draw(st.frozensets(elems, max_size=8))
    d = draw(st.frozensets(elems, max_size=8))
    return group, c, d


class TestClassProduct:
    @given(class_pairs())
    @settings(max_examples=200)
    def test_matches_group_ring_product(self, pair):
        group, c, d = pair
        expected = (simple_quantity(group, c) * simple_quantity(group, d)).terms()
        assert class_product(c, d, group) == expected

    def test_counts_are_plain_ints_on_reduced_keys(self):
        Z4xZ6 = GroupDescriptor(4, 6)
        c = [GroupElement(3, 5), GroupElement(1, 1)]
        prod = class_product(c, c, Z4xZ6)
        assert prod == {(2, 4): 1, (0, 0): 2, (2, 2): 1}
        assert all(type(v) is int for v in prod.values())


@st.composite
def partitions(draw):
    """A partition of Z x Z_m (m <= 4, window <= 5) or of Z_n x Z_m (nm <= 24)
    with {1} as a class, usually joined with its image under inversion so
    that it is star-closed."""
    if draw(st.booleans()):
        group = GroupDescriptor(0, draw(st.integers(1, 4)))
        window = draw(st.integers(1, 5))
    else:
        n = draw(st.integers(1, 24))
        group, window = GroupDescriptor(n, draw(st.integers(1, 24 // n))), 0
    elems = [g for g in group.window_elements(window) if g != group.identity]
    labels = draw(st.lists(st.integers(0, len(elems)), min_size=len(elems), max_size=len(elems)))
    star_closed = draw(st.integers(0, 4)) > 0
    index = {g: i for i, g in enumerate(elems)}
    inv = [index[group.inverse(g)] for g in elems]
    root = list(range(len(elems)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    first: dict = {}
    for i, label in enumerate(labels):
        j = first.setdefault(label, i)
        root[find(i)] = find(j)
        if star_closed:
            root[find(inv[i])] = find(inv[j])
    classes = defaultdict(list)
    for i, g in enumerate(elems):
        classes[find(i)].append(g)
    return SchurPresentation(group, [[group.identity], *classes.values()], window)


class TestRoutesAgree:
    @given(partitions())
    @settings(max_examples=300, deadline=None)
    def test_axioms_and_wielandt_agree(self, P):
        axioms, wielandt = verify_axioms(P), verify_wielandt(P)
        assert (axioms.verdict, axioms.checked_pairs) == (wielandt.verdict, wielandt.checked_pairs)
        # "is a class" and "is a union of classes" may name different first star witnesses
        if axioms.witness is not None and axioms.witness.kind != "star-closure":
            assert axioms.witness.kind == wielandt.witness.kind
            assert (axioms.witness.left, axioms.witness.right) == (
                wielandt.witness.left, wielandt.witness.right)


class TestHelpers:
    def test_split_class_finds_the_first_split_class_in_sorted_order(self):
        low, high = frozenset({(0, 1), (0, 2)}), frozenset({(1, 1), (1, 2)})
        member = {g: c for c in (low, high) for g in c}
        prod = {(1, 1): 2, (1, 2): 1, (0, 1): 1, (5, 0): 3}  # (5, 0) is in no class
        assert split_class(prod, member) == low
        assert split_class({(0, 1): 4, (0, 2): 4, (5, 0): 1}, member) is None
        assert split_class({(0, 1): 4}, member) == low  # a missing element counts as 0

    def test_star_and_reach(self):
        c = [GroupElement(2, 1), GroupElement(-3, 0)]
        assert star(c, G) == {(-2, 2), (3, 0)}
        assert star(c, GroupDescriptor(4, 3)) == {(2, 2), (3, 0)}
        assert reach(c) == 3


def _star(group, cls):
    return frozenset(group.inverse(g) for g in cls)


def _merge(P, c1, c2):
    """Merge two classes and, separately, their stars; the result stays star-closed."""
    drop = {c1, c2, _star(P.group, c1), _star(P.group, c2)}
    merged = {c1 | c2, _star(P.group, c1) | _star(P.group, c2)}
    kept = [c for c in P.classes if c not in drop] + sorted(merged, key=sorted)
    return SchurPresentation(P.group, kept, window=P.window)


def _perturb(P, level, pick):
    """Merge two class pairs at the first level >= level that has two to merge."""
    for k in range(level, P.window + 1):
        at_k = [c for c in P.classes if max(abs(g.z_exp) for g in c) == k
                and max(g.z_exp for g in c) == k]
        pairs = [(c1, c2) for i, c1 in enumerate(at_k) for c2 in at_k[i + 1:]
                 if c2 != _star(P.group, c1)
                 and (_star(P.group, c1) == c1) == (_star(P.group, c2) == c2)]
        if pairs:
            return _merge(P, *pairs[pick % len(pairs)])
    raise ValueError("no level has two classes to merge")


def _cases():
    auto = lambda name: named_automorphism(name, G)
    E = GroupElement
    d16 = discrete(G, 16)
    psi16 = orbit_ring(G, [auto("psi")], 16)
    xi14 = orbit_ring(G, [auto("xi")], 14)
    pair16 = orbit_ring(G, [auto("delta"), auto("xi")], 16)
    wedge12 = standard_wedge(G, 3, "discrete", "discrete", 12)
    z12, z2z6 = discrete(GroupDescriptor(1, 12)), discrete(GroupDescriptor(2, 6))
    d64 = discrete(G, 64)
    psi58 = orbit_ring(G, [auto("psi")], 58)
    return {
        "discrete-16": d16,
        "discrete-16-perturbed@6a": _perturb(d16, 6, 0),
        "discrete-16-perturbed@6b": _perturb(d16, 6, 5),
        "discrete-16-perturbed@1": _perturb(d16, 1, 2),
        "psi-16": psi16,
        "psi-16-perturbed@6": _perturb(psi16, 6, 1),
        "psi-16-perturbed@11": _perturb(psi16, 11, 0),
        "symmetric-14": xi14,
        "symmetric-14-perturbed@5": _perturb(xi14, 5, 0),
        "symmetric-14-perturbed@9": _perturb(xi14, 9, 3),
        "delta-xi-16-perturbed@7": _perturb(pair16, 7, 0),
        "wedge-12-perturbed@4": _perturb(wedge12, 4, 0),
        "Z12-merged": _merge(z12, frozenset({E(0, 2)}), frozenset({E(0, 5)})),
        "Z2xZ6-merged": _merge(z2z6, frozenset({E(1, 1)}), frozenset({E(0, 4)})),
        "discrete-64": d64,
        "discrete-64-perturbed@25": _perturb(d64, 25, 0),
        "discrete-64-perturbed@26": _perturb(d64, 26, 3),
        "psi-58": psi58,
        "psi-58-perturbed@23": _perturb(psi58, 23, 1),
        "sigma-58": orbit_ring(G, [auto("sigma")], 58),
    }


def _reference_scan(P):
    """The pairs checked, the first failing pair and the first class of the
    window, in element order, that its product is not constant on."""
    member, pairs = P._member_class, 0
    for i, c in enumerate(P.classes):
        for d in P.classes[i:]:
            pairs += 1
            prod = (simple_quantity(P.group, c) * simple_quantity(P.group, d)).terms()
            split = next((member[g] for g in sorted(prod) if g in member
                          and len({prod.get(h, 0) for h in member[g]}) > 1), None)
            if split is not None:
                return pairs, (c, d), split
    return pairs, None, None


# name -> (verify_axioms report, verify_wielandt report), as sorted-key JSON
GOLDEN = {
    'discrete-16': ('{"checked_pairs": 4950, "effective_window": 16, "verdict": "valid-up-to-window", "witness": null}',
        '{"checked_pairs": 4950, "effective_window": 16, "verdict": "valid-up-to-window", "witness": null}'),
    'discrete-16-perturbed@6a': ('{"checked_pairs": 77, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-6, z^-6*a^2}", "kind": "product-closure", "left": [[-16, 0]], "right": [[10, 0]]}}',
        '{"checked_pairs": 77, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-16, 0]], "right": [[10, 0]]}}'),
    'discrete-16-perturbed@6b': ('{"checked_pairs": 78, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-6*a, z^-6*a^2}", "kind": "product-closure", "left": [[-16, 0]], "right": [[10, 1]]}}',
        '{"checked_pairs": 78, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-16, 0]], "right": [[10, 1]]}}'),
    'discrete-16-perturbed@1': ('{"checked_pairs": 93, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-1*a, z^-1*a^2}", "kind": "product-closure", "left": [[-16, 0]], "right": [[15, 1]]}}',
        '{"checked_pairs": 93, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-16, 0]], "right": [[15, 1]]}}'),
    'psi-16': ('{"checked_pairs": 2211, "effective_window": 16, "verdict": "valid-up-to-window", "witness": null}',
        '{"checked_pairs": 2211, "effective_window": 16, "verdict": "valid-up-to-window", "witness": null}'),
    'psi-16-perturbed@6': ('{"checked_pairs": 51, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-6, z^-6*a, z^-6*a^2}", "kind": "product-closure", "left": [[-16, 0], [-16, 2]], "right": [[10, 0], [10, 1]]}}',
        '{"checked_pairs": 51, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-16, 0], [-16, 2]], "right": [[10, 0], [10, 1]]}}'),
    'psi-16-perturbed@11': ('{"checked_pairs": 42, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-11, z^-11*a, z^-11*a^2}", "kind": "product-closure", "left": [[-16, 0], [-16, 2]], "right": [[5, 0], [5, 2]]}}',
        '{"checked_pairs": 42, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-16, 0], [-16, 2]], "right": [[5, 0], [5, 2]]}}'),
    'symmetric-14': ('{"checked_pairs": 990, "effective_window": 14, "verdict": "valid-up-to-window", "witness": null}',
        '{"checked_pairs": 990, "effective_window": 14, "verdict": "valid-up-to-window", "witness": null}'),
    'symmetric-14-perturbed@5': ('{"checked_pairs": 16, "effective_window": 14, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-5, z^-5*a, z^5, z^5*a^2}", "kind": "product-closure", "left": [[-14, 0], [14, 0]], "right": [[-9, 0], [9, 0]]}}',
        '{"checked_pairs": 16, "effective_window": 14, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-14, 0], [14, 0]], "right": [[-9, 0], [9, 0]]}}'),
    'symmetric-14-perturbed@9': ('{"checked_pairs": 27, "effective_window": 14, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-9, z^-9*a, z^9, z^9*a^2}", "kind": "product-closure", "left": [[-14, 0], [14, 0]], "right": [[-5, 0], [5, 0]]}}',
        '{"checked_pairs": 27, "effective_window": 14, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-14, 0], [14, 0]], "right": [[-5, 0], [5, 0]]}}'),
    'delta-xi-16-perturbed@7': ('{"checked_pairs": 15, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-7, z^-7*a, z^-7*a^2, z^7, z^7*a, z^7*a^2}", "kind": "product-closure", "left": [[-16, 0], [-16, 1], [16, 0], [16, 2]], "right": [[-9, 0], [9, 0]]}}',
        '{"checked_pairs": 15, "effective_window": 16, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-16, 0], [-16, 1], [16, 0], [16, 2]], "right": [[-9, 0], [9, 0]]}}'),
    'wedge-12-perturbed@4': ('{"checked_pairs": 30, "effective_window": 12, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-6, z^-6*a^2}", "kind": "product-closure", "left": [[-12, 0]], "right": [[6, 0], [6, 1]]}}',
        '{"checked_pairs": 30, "effective_window": 12, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-12, 0]], "right": [[6, 0], [6, 1]]}}'),
    'Z12-merged': ('{"checked_pairs": 11, "effective_window": null, "verdict": "invalid", "witness": {"detail": "product is not constant on class {a^2, a^5}", "kind": "product-closure", "left": [[0, 1]], "right": [[0, 1]]}}',
        '{"checked_pairs": 11, "effective_window": null, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[0, 1]], "right": [[0, 1]]}}'),
    'Z2xZ6-merged': ('{"checked_pairs": 11, "effective_window": null, "verdict": "invalid", "witness": {"detail": "product is not constant on class {a^2, z*a^5}", "kind": "product-closure", "left": [[0, 1]], "right": [[0, 1]]}}',
        '{"checked_pairs": 11, "effective_window": null, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[0, 1]], "right": [[0, 1]]}}'),
    'discrete-64': ('{"checked_pairs": 75078, "effective_window": 64, "verdict": "valid-up-to-window", "witness": null}',
        '{"checked_pairs": 75078, "effective_window": 64, "verdict": "valid-up-to-window", "witness": null}'),
    'discrete-64-perturbed@25': ('{"checked_pairs": 308, "effective_window": 64, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-25, z^-25*a^2}", "kind": "product-closure", "left": [[-64, 0]], "right": [[39, 0]]}}',
        '{"checked_pairs": 308, "effective_window": 64, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-64, 0]], "right": [[39, 0]]}}'),
    'discrete-64-perturbed@26': ('{"checked_pairs": 305, "effective_window": 64, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-26, z^-26*a^2}", "kind": "product-closure", "left": [[-64, 0]], "right": [[38, 0]]}}',
        '{"checked_pairs": 305, "effective_window": 64, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-64, 0]], "right": [[38, 0]]}}'),
    'psi-58': ('{"checked_pairs": 27495, "effective_window": 58, "verdict": "valid-up-to-window", "witness": null}',
        '{"checked_pairs": 27495, "effective_window": 58, "verdict": "valid-up-to-window", "witness": null}'),
    'psi-58-perturbed@23': ('{"checked_pairs": 185, "effective_window": 58, "verdict": "invalid", "witness": {"detail": "product is not constant on class {z^-23, z^-23*a, z^-23*a^2}", "kind": "product-closure", "left": [[-58, 0], [-58, 2]], "right": [[35, 0], [35, 2]]}}',
        '{"checked_pairs": 185, "effective_window": 58, "verdict": "invalid", "witness": {"detail": "coefficient level set for value 1 is not an S-set", "kind": "product-closure", "left": [[-58, 0], [-58, 2]], "right": [[35, 0], [35, 2]]}}'),
    'sigma-58': ('{"checked_pairs": 15753, "effective_window": 58, "verdict": "valid-up-to-window", "witness": null}',
        '{"checked_pairs": 15753, "effective_window": 58, "verdict": "valid-up-to-window", "witness": null}'),
}


class TestGoldenReports:
    def test_cases_are_pinned(self):
        assert set(_cases()) == set(GOLDEN)

    def test_windowed_rows_match_the_reference_scan(self):
        for name, P in _cases().items():
            if not P.group.is_infinite or P.window > 16:
                continue
            report = json.loads(GOLDEN[name][0])
            pairs, pair, split = _reference_scan(P)
            assert report["checked_pairs"] == pairs, name
            if pair is None:
                assert report["witness"] is None, name
                continue
            witness = report["witness"]
            assert [witness["left"], witness["right"]] == [
                [list(g) for g in sorted(c)] for c in pair], name
            assert witness["detail"] == f"product is not constant on class {_fmt_class(split)}"

    def test_reports_match(self):
        for name, P in _cases().items():
            axioms, wielandt = GOLDEN[name]
            assert json.dumps(verify_axioms(P).to_json(), sort_keys=True) == axioms, name
            assert json.dumps(verify_wielandt(P).to_json(), sort_keys=True) == wielandt, name

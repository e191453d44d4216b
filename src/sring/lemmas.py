"""Restriction and quotient, multiplier sets, and the lemma rows.

What a Schur ring's structure theory says about a verified presentation: the
rings an S-subgroup gives on H and on G/K (:func:`restrict`,
:func:`quotient`), Schur's multiplier sets, the maximal free S-subgroup over
Z x Z_3 (:func:`find_H`), and the ``*_holds`` rows that ``sring
check-lemmas`` prints.  Whether a subgroup is an S-subgroup is
:func:`sring.schur.is_ssubgroup`.  Every count is exact and in integers, on
the window for an infinite group.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import Iterable

from .errors import BadPrime, NotSSet, NotSSubgroup, Unclassifiable, WindowTooSmall
from .groups import GroupDescriptor, GroupElement
from .schur import (
    Z_CROSS_Z3, SchurPresentation, _fmt_class, _split_level, is_sset, is_ssubgroup, is_union,
    shadow,
)
from .subgroups import QuotientMap, Subgroup


def restrict(P: SchurPresentation, H: Subgroup) -> SchurPresentation:
    """The presentation on H formed by the classes inside H.

    H must be an S-subgroup; the result lives over H's own descriptor with
    the canonical coordinates, and the window shrinks by H's free step.
    """
    if H.group != P.group:
        raise ValueError("subgroup belongs to a different group")
    h_elems = frozenset(H.window_elements(P.window))
    if not is_union(h_elems, P._member_class):
        raise NotSSubgroup(f"{H} is not a union of classes")
    desc, coords = H.as_group()
    inner_classes = [frozenset(coords.to_sub(g) for g in c) for c in P.classes if c <= h_elems]
    if desc.is_infinite:
        window = P.window // H.free_step
    else:
        window = 0
    return SchurPresentation(desc, inner_classes, window=window)


def quotient(P: SchurPresentation, K: Subgroup) -> SchurPresentation:
    """The image presentation over G/K (K must be an S-subgroup).

    Duplicate class images are merged, matching the quotient construction for
    Schur rings over abelian groups.
    """
    if K.group != P.group:
        raise ValueError("subgroup belongs to a different group")
    if not is_ssubgroup(P, K):
        raise NotSSubgroup(f"{K} is not a union of classes")
    qm = QuotientMap(P.group, K)
    images = {qm.project_set(c) for c in P.classes}
    if qm.descriptor.is_infinite:
        window = P.window
    else:
        window = 0
    return SchurPresentation(qm.descriptor, images, window=window)


def torsion_is_ssubgroup(P: SchurPresentation) -> bool:
    """Whether the torsion subgroup is a union of classes."""
    return is_ssubgroup(P, Subgroup.torsion(P.group))


# -- multiplier sets (second Schur theorem on multipliers) --------------------


def _p_torsion_kernel(G: GroupDescriptor, p: int) -> frozenset:
    """E = {g : g^p = 1}."""
    if G.is_infinite:
        return frozenset(
            GroupElement(0, i) for i in range(G.torsion_order) if (i * p) % G.torsion_order == 0
        )
    return frozenset(g for g in G.elements() if G.pow(g, p) == G.identity)


def _check_multiplier_preconditions(X: frozenset, p: int, P: SchurPresentation) -> None:
    G = P.group
    torsion_size = G.torsion_order if G.is_infinite else G.order
    if p < 2 or torsion_size % p:
        raise BadPrime(f"{p} does not divide the torsion order {torsion_size}")
    if not is_sset(P, X):
        raise NotSSet("multiplier sets are defined for S-sets only")


def multiplier_set(X: Iterable[GroupElement], p: int, P: SchurPresentation) -> frozenset:
    """The set {x^p : x in X, |X ∩ Ex| not divisible by p}, E the p-torsion kernel.

    Exact, as it counts the whole of X; it may reach past the window.  Raises
    only on the preconditions: BadPrime, NotSSet when X is not an S-set.
    """
    G = P.group
    X = frozenset(G.element(*g) for g in X)
    _check_multiplier_preconditions(X, p, P)
    E = _p_torsion_kernel(G, p)
    result = set()
    for x in X:
        coset = frozenset(G.mul(e, x) for e in E)
        if len(X & coset) % p:
            result.add(G.pow(x, p))
    return frozenset(result)


def multiplier_set_congruence(
    X: Iterable[GroupElement], p: int, P: SchurPresentation
) -> frozenset:
    """Cross-check oracle for :func:`multiplier_set` via the mod-p route.

    Computes the p-th power of the class sum of X as integer counts per
    element, then keeps the support where the count is not divisible by p.
    """
    G = P.group
    X = frozenset(G.element(*g) for g in X)
    _check_multiplier_preconditions(X, p, P)
    power = Counter(X)
    for _ in range(p - 1):
        step: Counter = Counter()
        for g, count in power.items():
            for x in X:
                step[G.mul(g, x)] += count
        power = step
    return frozenset(g for g, count in power.items() if count % p)


# -- lemma-style checks (used by check-lemmas and the acceptance suite) -------


def frobenius_closure_holds(P: SchurPresentation, k: int) -> tuple[bool, str]:
    """Whether the image of every class under g -> g^k is an S-set on the window.

    Exact: each image counts its whole class.  On a finite group this is Schur's
    multiplier theorem for k coprime to the order (Wielandt, *Finite Permutation
    Groups*, 1964, Thm 23.9).
    """
    G = P.group
    for c in P.classes:
        if _split_level(Counter(G.pow(g, k) for g in c), P._member_class) is not None:
            return False, f"class {_fmt_class(c)} breaks closure under power {k}"
    return True, f"all {len(P.classes)} classes closed under power {k} on the window"


def torsion_subgroup_holds(P: SchurPresentation) -> tuple[bool, str]:
    ok = torsion_is_ssubgroup(P)
    return ok, "torsion subgroup is an S-subgroup" if ok else "torsion subgroup is split"


def multiplier_sets_hold(P: SchurPresentation, p: int) -> tuple[bool, str]:
    """Whether X^[p] is an S-set on the window for every class X, both routes
    agreeing.  Exact: both routes count the whole class."""
    for c in P.classes:
        direct = multiplier_set(c, p, P)
        if direct != multiplier_set_congruence(c, p, P):
            return False, f"multiplier routes disagree on {_fmt_class(c)}"
        if _split_level(dict.fromkeys(direct, 1), P._member_class) is not None:
            return False, f"multiplier set of {_fmt_class(c)} is not an S-set"
    return True, f"multiplier sets verified for {len(P.classes)} classes"


def class_shape_holds(P: SchurPresentation) -> tuple[bool, str]:
    """Every class is a full torsion coset or has size != torsion order (p odd prime)."""
    p = P.group.torsion_order
    for c in P.classes:
        if len(c) == p and len(shadow(c)) != 1:
            return False, f"class {_fmt_class(c)} has size {p} but is not a torsion coset"
    return True, "class shapes satisfy the coset-or-size dichotomy"


MIN_FIND_H_WINDOW = 3  # shows the classes of z, z^2 and z^3, which find_H reads


def find_H(P: SchurPresentation) -> Subgroup:
    """The maximal S-subgroup contained in <z>, as seen through the window.

    Computed as the span of the levels whose class stays inside <z>; the
    multiples of the least such level must behave consistently across the
    window, otherwise the input cannot be a Schur-ring window (Unclassifiable).
    Defined over Z x Z_3 only (ValueError), from window 3 on (WindowTooSmall).
    """
    if P.group != Z_CROSS_Z3:
        raise ValueError(f"classification is defined over Z x Z_3, got {P.group}")
    if P.window < MIN_FIND_H_WINDOW:
        raise WindowTooSmall(
            f"window {P.window} cannot certify a free S-subgroup (need >= {MIN_FIND_H_WINDOW})"
        )
    pure = []
    for k in range(1, P.window + 1):
        c = P.class_of(GroupElement(k, 0))
        if c is not None and all(g.a_exp == 0 for g in c):
            pure.append(k)
    if not pure:
        return Subgroup.trivial(P.group)
    h = gcd(*pure)
    if pure != list(range(h, P.window + 1, h)):
        raise Unclassifiable("levels with pure-z classes do not form a subgroup within the window")
    return Subgroup.free_power(P.group, h)


def power_in_subgroup_holds(P: SchurPresentation, H: Subgroup) -> tuple[bool, str]:
    """Classes of size < p containing z^m a^i force z^(p*m) into H (p = torsion order)."""
    G = P.group
    p = G.torsion_order
    for c in P.classes:
        if len(c) >= p:
            continue
        for g in c:
            target = GroupElement(p * g.z_exp, 0)
            if G.is_infinite and abs(target.z_exp) > P.window:  # find_H sees H on the window
                continue
            if target not in H:
                return False, (
                    f"class {_fmt_class(c)} is small but z^{p * g.z_exp} escapes {H}"
                )
    return True, "small classes push their p-th powers into the maximal free S-subgroup"

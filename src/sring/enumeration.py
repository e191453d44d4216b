"""Brute-force oracles: exhaustive enumeration and traditionality detection.

These searches are deliberately independent of the classifier: they work from
the axioms (plus a handful of proven closure facts used as pruning rules) so
their output can falsify the classifier at desk scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from typing import Callable, Iterator, Sequence

from .constructions import orbit_ring
from .errors import BoundExceeded, InfiniteGroup
from .groups import (
    Automorphism,
    GroupDescriptor,
    GroupElement,
    Subgroup,
    all_subgroups,
    canonical_generators,
)
from .schur import (
    SchurPresentation,
    VALID,
    class_product,
    class_stabilizer,
    is_union,
    quotient,
    restrict,
    split_class,
    star,
    verify_axioms,
)

DEFAULT_FINITE_BOUND = 16
MAX_WINDOW = 6


# -- exhaustive enumeration over finite groups --------------------------------


def _closed(classes: list[frozenset], fresh: Sequence[frozenset], multiply: Callable) -> bool:
    """Whether each product of a fresh class with a class of ``classes`` is
    constant on every class of ``classes`` it meets; both searches prune on it.

    ``multiply(c, d)`` counts the class-sum product per element.  ``fresh``
    are the classes just added, which end ``classes``; pairs of older classes
    were tested when the younger of the two was added.  ``classes[0]`` is the
    identity class, skipped since C{1} = C is constant on C.
    """
    member = {g: c for c in classes for g in c}
    start = len(classes) - len(fresh)
    return all(
        split_class(multiply(classes[i], d), member) is None
        for i in range(start, len(classes))
        for d in classes[1 : i + 1]
    )


def _star_pairs(remaining: Sequence[int], inv: Sequence[int]) -> Iterator[list[frozenset]]:
    """The fresh classes holding the least of the star-closed ``remaining``.

    A self-inverse class is the least element, its inverse and any union of
    whole inverse pairs {g, g^-1}.  A class disjoint from its star holds the
    least element (not an involution) and at most one element of each other
    non-involution pair; it is yielded with its star.
    """
    least = remaining[0]
    pairs = [(g, inv[g]) for g in remaining if least != g != inv[least] and g <= inv[g]]
    for picks in product(*[((), pair) for pair in pairs]):
        yield [frozenset((least, inv[least], *chain(*picks)))]
    if inv[least] != least:
        for picks in product(*[((), (g,), (h,)) for g, h in pairs if g != h]):
            cls = frozenset((least, *chain(*picks)))
            yield [cls, frozenset(inv[g] for g in cls)]


def _subsets(remaining: Sequence) -> Iterator[list[frozenset]]:
    """Every subset of ``remaining`` holding its least element."""
    least, rest = remaining[0], remaining[1:]
    for mask in range(2 ** len(rest)):
        yield [frozenset([least] + [rest[i] for i in range(len(rest)) if mask >> i & 1])]


def enumerate_finite(
    group: GroupDescriptor,
    bound: int = DEFAULT_FINITE_BOUND,
    prune: bool = True,
) -> list[SchurPresentation]:
    """All Schur-ring partitions of a finite group, sorted by their classes.

    The search runs on element indices in sorted order (0 is the identity)
    with a Cayley table.  Backtracking puts the least unassigned element into
    a fresh class.  ``prune=False`` tries every subset of the unassigned
    elements holding it.  With ``prune`` only star-closed classes or
    class-and-star pairs are tried (:func:`_star_pairs`), which are exactly
    the subsets that pass the star axiom; so the unassigned elements stay
    star-closed and no ring is lost.  A branch is also cut when a product
    with a fresh class is not constant on some class (:func:`_closed`).  The
    final arbiter is verify_axioms either way, so both modes return the same
    list.
    """
    if group.is_infinite:
        raise InfiniteGroup("enumeration needs a finite group")
    if group.order > bound:
        raise BoundExceeded(f"|G| = {group.order} exceeds bound {bound}")
    n, m = group.free_order, group.torsion_order
    elems = sorted(group.elements())
    index = {g: i for i, g in enumerate(elems)}
    inv = [index[-z % n, -a % m] for z, a in elems]
    table = [[index[(z + y) % n, (a + b) % m] for y, b in elems] for z, a in elems]
    results: list[SchurPresentation] = []

    def multiply(c: frozenset, d: frozenset) -> Counter:
        return Counter([table[x][y] for x in c for y in d])

    def extend(classes: list[frozenset], remaining: tuple[int, ...]) -> None:
        if not remaining:
            P = SchurPresentation(group, [[elems[i] for i in c] for c in classes])
            if verify_axioms(P).verdict == VALID:
                results.append(P)
            return
        for fresh in _star_pairs(remaining, inv) if prune else _subsets(remaining):
            if prune and not _closed(classes + fresh, fresh, multiply):
                continue
            used = set().union(*fresh)
            extend(classes + fresh, tuple(g for g in remaining if g not in used))

    extend([frozenset([0])], tuple(range(1, len(elems))))
    return sorted(results, key=lambda P: tuple(tuple(sorted(c)) for c in P.classes))


# -- traditionality -----------------------------------------------------------


@dataclass(frozen=True)
class TraditionalityResult:
    kind: str  # "trivial" | "orbit" | "tensor" | "wedge" | "no"
    generators: tuple[Automorphism, ...] = ()
    split: tuple[Subgroup, Subgroup] | None = None
    tower: tuple[Subgroup, Subgroup] | None = None  # (K, H)

    def __bool__(self) -> bool:
        return self.kind != "no"

    def describe(self) -> str:
        if self.kind == "orbit":
            return "orbit<" + ",".join(str(g) for g in self.generators) + ">"
        if self.kind == "tensor":
            return f"tensor({self.split[0]} x {self.split[1]})"
        if self.kind == "wedge":
            return f"wedge(K={self.tower[0]}, H={self.tower[1]})"
        return self.kind


def is_traditional(P: SchurPresentation) -> TraditionalityResult:
    """First matching family: trivial, orbit, tensor, wedge (parts recursively
    traditional), else "no".

    P is an orbit ring exactly when it is the orbit partition of its own
    class stabilizer S (the automorphisms fixing every class setwise): any
    group A whose orbits are the classes lies in S, so every class lies in an
    S-orbit, and every S-orbit lies in a class.  An orbit result carries the
    canonical generators of S.  S is taken in the parametric automorphism
    family, which is all of Aut(G) whenever the two factor orders are coprime.

    The tensor and wedge tests run over one list of the proper nontrivial
    S-subgroups with their element sets, in :func:`all_subgroups` order.
    """
    G = P.group
    if G.is_infinite:
        raise InfiniteGroup("traditionality detection works on finite groups")
    class_set = set(P.classes)

    rest = frozenset(g for g in G.elements() if g != G.identity)
    if G.order >= 2 and class_set == {frozenset([G.identity]), rest}:
        return TraditionalityResult("trivial")

    S = class_stabilizer(P)
    if orbit_ring(G, S, bound=G.order).classes == P.classes:
        return TraditionalityResult("orbit", generators=canonical_generators(S))

    proper = [
        (H, h_elems)
        for H in all_subgroups(G)
        if not H.is_trivial and H.order != G.order
        for h_elems in [frozenset(H.elements())]
        if all(c <= h_elems or c.isdisjoint(h_elems) for c in P.classes)
    ]
    for H, h_elems in proper:
        for K, k_elems in proper:
            if H.order * K.order != G.order or len(h_elems & k_elems) != 1:
                continue
            products = {
                frozenset(G.mul(x, y) for x in ch for y in ck)
                for ch in P.classes
                if ch <= h_elems
                for ck in P.classes
                if ck <= k_elems
            }
            if products == class_set:
                return TraditionalityResult("tensor", split=(H, K))

    for H, h_elems in proper:
        for K, k_elems in proper:
            if not k_elems <= h_elems:
                continue
            outside_ok = all(
                frozenset(G.mul(g, k) for k in k_elems) <= c
                for c in P.classes
                if not c <= h_elems
                for g in c
            )
            if outside_ok and is_traditional(restrict(P, H)) and is_traditional(quotient(P, K)):
                return TraditionalityResult("wedge", tower=(K, H))

    return TraditionalityResult("no")


# -- windowed enumeration over Z x Z_3 ----------------------------------------


def _set_partitions(items: Sequence) -> Iterator[list[frozenset]]:
    items = sorted(items)
    if not items:
        yield []
        return
    for [cls] in _subsets(items):
        for sub in _set_partitions([x for x in items if x not in cls]):
            yield [cls] + sub


def _level_candidates(group: GroupDescriptor, k: int, mode: str) -> list[tuple[frozenset, ...]]:
    """Admissible class layouts for the z-levels +-k.

    Discrete projections partition the coset at +k (the -k side is the star
    image).  Symmetric projections partition the combined six-element slab
    into star-closed classes, each meeting both signs; three-element classes
    are excluded outright since a mixed-sign triple can never be a torsion
    coset.
    """
    out = []
    if mode == "discrete":
        coset = sorted(group.coset_of_torsion(k))
        for parts in _set_partitions(coset):
            layout = tuple(parts) + tuple(star(c, group) for c in parts)
            out.append(layout)
    else:
        slab = sorted(group.coset_of_torsion(k) | group.coset_of_torsion(-k))
        for parts in _set_partitions(slab):
            classes = tuple(parts)
            if any(len({1 if g.z_exp > 0 else -1 for g in c}) != 2 for c in classes):
                continue
            if any(len(c) == 3 for c in classes):
                continue
            if {star(c, group) for c in classes} != set(classes):
                continue
            out.append(classes)
    return sorted(out, key=lambda layout: sorted(tuple(sorted(c)) for c in layout))


def _squares_closed(classes: list[frozenset], m: int) -> bool:
    """Closure under the squaring transport (coprime to the torsion order m):
    each class's image under g -> g^2, once inside the window, is a union of
    classes.  Only the support of the transported class sum matters, and the
    search group Z x Z_m needs no reduction of the free exponent.
    """
    lookup = {g: c for c in classes for g in c}
    for c in classes:
        squares = {(2 * z, 2 * a % m) for z, a in c}
        if squares <= lookup.keys() and not is_union(squares, lookup):
            return False
    return True


def _small_class_rule(classes: list[frozenset], window: int) -> bool:
    """Classes of size < 3 push z^(3m) into the pure-z part of the window."""
    lookup = {g: c for c in classes for g in c}
    for c in classes:
        if len(c) >= 3:
            continue
        for g in c:
            target = GroupElement(3 * g.z_exp, 0)
            if abs(target.z_exp) > window or target.z_exp == 0:
                continue
            target_class = lookup.get(target)
            if target_class is None or any(x.a_exp for x in target_class):
                return False
    return True


def enumerate_windowed(
    window: int,
    projection: str | None = None,
) -> list[SchurPresentation]:
    """All window-consistent partitions of the window of Z x Z_3.

    Constraints: {1} is a class, star closure, the torsion subgroup is an
    S-subgroup, the projection modulo torsion is a discrete or symmetric
    window over Z, exact in-window product closure, closure under the
    squaring transport, the coset-or-size class-shape rule, and the
    small-class power rule.  ``projection`` filters to one projection type.
    """
    if window < 1 or window > MAX_WINDOW:
        raise BoundExceeded(f"window must be between 1 and {MAX_WINDOW}")
    group = GroupDescriptor(0, 3)
    a, a2 = GroupElement(0, 1), GroupElement(0, 2)
    torsion_layouts = [
        (frozenset([a]), frozenset([a2])),
        (frozenset([a, a2]),),
    ]
    results = []

    def multiply(c: frozenset, d: frozenset) -> dict:
        return class_product(c, d, group)

    def extend(classes: list[frozenset], level: int, candidates: dict, mode: str) -> None:
        if level > window:
            if _small_class_rule(classes, window):
                P = SchurPresentation(group, classes, window=window, tag=f"windowed({mode})")
                if verify_axioms(P).ok:
                    results.append(P)
            return
        for layout in candidates[level]:
            extended = classes + list(layout)
            if _closed(extended, layout, multiply) and _squares_closed(extended, group.torsion_order):
                extend(extended, level + 1, candidates, mode)

    for mode in ("discrete", "symmetric"):
        if projection and mode != projection:
            continue
        candidates = {k: _level_candidates(group, k, mode) for k in range(1, window + 1)}
        for torsion in torsion_layouts:
            extend([frozenset([group.identity]), *torsion], 1, candidates, mode)
    return results

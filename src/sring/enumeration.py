"""Brute-force oracles: exhaustive enumeration and traditionality detection.

These searches are deliberately independent of the classifier and of the
paper's lemmas: they work from the axioms alone, so their output can falsify
the classifier at desk scale.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, product
from typing import Callable, Iterator, Mapping, Sequence

from .constructions import Recipe, _direct_product, wedge
from .errors import BoundExceeded, InfiniteGroup
from .automorphisms import canonical_generators, class_stabilizer
from .groups import GroupDescriptor
from .lemmas import quotient, restrict
from .schur import SchurPresentation, is_union, reach, shadow, verify_axioms
from .subgroups import all_subgroups

DEFAULT_FINITE_BOUND = 16
MAX_WINDOW = 12


# -- one backtracking search; exhaustive enumeration over finite groups -------


def _closed(classes: list[frozenset], start: int, row: Callable) -> bool:
    """Whether each class triple completed by the fresh ``classes[start:]``
    is product-closed; exact, so a leaf that passes at every node is a ring.

    ``row(r, g)`` lists the class index of x^-1 g over x in r (-1 if unplaced
    or off the window, as verify_axioms reads it).  g in r.d has coefficient
    #{x in r : x^-1 g in d}, so r.d is constant on e for all placed d when
    every g in e sees one multiset of labels; a leaf only splits -1, so no
    ring lies below a failing node.  A triple (c, d, e) is tested when its
    last class is placed: at the pair (c, e) if that is c or e, else at
    (d, e) since c.d = d.c.  So each pair (r, e) with r or e fresh is tested,
    less r = classes[0] = {1} and singleton e.
    """
    for i, r in enumerate(classes[1:], 1):
        for e in classes[1:] if i >= start else classes[start:]:
            if len(e) > 1:
                g, *rest = e
                first = sorted(row(r, g))
                if any(sorted(row(r, h)) != first for h in rest):
                    return False
    return True


def _star_pairs(remaining: Sequence, inv: Sequence | Mapping) -> Iterator[list[frozenset]]:
    """The fresh classes holding the least of the sorted, star-closed
    ``remaining``; ``inv[g]`` is the inverse of g.

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


def _search(group: GroupDescriptor, elems: Sequence, options: Callable) -> Iterator[list[list]]:
    """The partitions of ``elems`` (``elems[0]`` the identity) that the
    backtracking search completes.  A node puts the least unplaced index into
    the fresh classes of each ``options(remaining)`` in turn, and a branch is
    cut where :func:`_closed` fails.  ``over[g][x]`` is the index of x^-1 g,
    ``len(elems)`` off the window, whose label stays -1.
    """
    index = {g: i for i, g in enumerate(elems)}
    off = len(elems)
    over = [[index.get(group.element(z - y, a - b), off) for y, b in elems] for z, a in elems]
    labels = [0] + [-1] * off

    def row(r: frozenset, g: int) -> list[int]:
        return [labels[over[g][x]] for x in r]

    def extend(classes: list[frozenset], remaining: tuple[int, ...]) -> Iterator[list[list]]:
        if not remaining:
            yield [[elems[i] for i in c] for c in classes]
            return
        for fresh in options(remaining):
            extended = classes + fresh
            for i, c in enumerate(fresh, len(classes)):
                for g in c:
                    labels[g] = i
            if _closed(extended, len(classes), row):
                yield from extend(extended, tuple(g for g in remaining if labels[g] < 0))
            for c in fresh:
                for g in c:
                    labels[g] = -1

    yield from extend([frozenset([0])], tuple(range(1, off)))


def enumerate_finite(
    group: GroupDescriptor, bound: int = DEFAULT_FINITE_BOUND
) -> list[SchurPresentation]:
    """All Schur-ring partitions of a finite group, sorted by their classes.

    :func:`_search` runs on the sorted elements.  Only star-closed classes or
    class-and-star pairs are tried (:func:`_star_pairs`), exactly the subsets
    that pass the star axiom, so no ring is lost; and a branch is cut when a
    class triple it completes fails :func:`_closed`, which is exact, so every
    leaf is a ring.  verify_axioms is the final arbiter all the same.
    """
    if group.is_infinite:
        raise InfiniteGroup("enumeration needs a finite group")
    if group.order > bound:
        raise BoundExceeded(f"|G| = {group.order} exceeds bound {bound}")
    elems = sorted(group.elements())
    inv = [elems.index(group.inverse(g)) for g in elems]
    options = partial(_star_pairs, inv=inv)
    leaves = map(partial(SchurPresentation, group), _search(group, elems, options))
    results = [P for P in leaves if verify_axioms(P).ok]
    return sorted(results, key=lambda P: tuple(tuple(sorted(c)) for c in P.classes))


# -- traditionality -----------------------------------------------------------


def is_traditional(P: SchurPresentation) -> Recipe:
    """A recipe that :func:`~sring.constructions.build` turns back into P:
    the first of trivial, orbit, tensor and wedge that fits, else "no".

    P is an orbit ring exactly when it is the orbit partition of its own
    class stabilizer S (the automorphisms fixing every class setwise): any
    group A whose orbits are the classes lies in S, so every class lies in an
    S-orbit, and every S-orbit lies in a class.  As S is a group, the S-orbit
    of g is {phi(g) : phi in S}, so it suffices that one element of each class
    has an S-orbit as large as its class.  An orbit result carries the
    canonical generators of S.  S is taken in the parametric automorphism
    family, which is all of Aut(G) whenever the two factor orders are coprime,
    so a "no" over Z_n x Z_m with gcd(n, m) > 1 may be false.

    A tensor or wedge candidate, over the proper nontrivial S-subgroups in
    :func:`all_subgroups` order, is accepted when rebuilding it from P's own
    parts (:func:`restrict` and :func:`quotient`) gives P back and both parts
    are traditional in turn, so by induction ``build(G, is_traditional(P))
    == P`` for every "yes".
    """
    G = P.group
    if G.is_infinite:
        raise InfiniteGroup("traditionality detection works on finite groups")

    rest = frozenset(g for g in G.elements() if g != G.identity)
    if G.order >= 2 and set(P.classes) == {frozenset([G.identity]), rest}:
        return Recipe("trivial")

    S = class_stabilizer(P)
    if all(len({phi.apply(next(iter(c))) for phi in S}) == len(c) for c in P.classes):
        return Recipe("orbit", generators=canonical_generators(S))

    proper = [
        (H, h_elems)
        for H in all_subgroups(G)
        if not H.is_trivial and H.order != G.order
        for h_elems in [frozenset(H.elements())]
        if is_union(h_elems, P._member_class)
    ]

    # P's parts, each computed once and only when a candidate first needs it
    restricted, quotiented = cache(partial(restrict, P)), cache(partial(quotient, P))

    def candidates() -> Iterator[tuple]:
        """(kind, subgroups, parts, the ring rebuilt from the parts)"""
        for H, h_elems in proper:
            for K, k_elems in proper:
                if H.order * K.order == G.order and len(h_elems & k_elems) == 1:
                    parts = restricted(H), restricted(K)
                    yield "tensor", (H, K), parts, _direct_product(H, K, *parts)
        for H, h_elems in proper:
            for K, k_elems in proper:
                if k_elems <= h_elems:
                    parts = restricted(H), quotiented(K)
                    yield "wedge", (K, H), parts, wedge(H, K, *parts)

    for kind, subgroups, parts, rebuilt in candidates():
        if rebuilt == P:
            recipes = tuple(is_traditional(Q) for Q in parts)
            if all(recipes):
                return Recipe(kind, subgroups=subgroups, parts=recipes)
    return Recipe("no")


# -- windowed enumeration over Z x Z_3 ----------------------------------------


def enumerate_windowed(
    window: int,
    projection: str | None = None,
) -> list[SchurPresentation]:
    """The level-local, star-closed partitions of the window of Z x Z_3 that
    verify_axioms accepts: every product of two classes is constant on every
    class.

    The search uses the axioms alone and one assumption, that each class lies
    in the levels +-k of one k.  With the elements ordered by (|z|, g),
    :func:`_search` runs as for a finite group, its options the star pairs
    (:func:`_star_pairs`) of the unplaced elements on the level of the least
    one; :func:`_closed` is exact on the window, so every leaf is in the
    census.  The projection modulo torsion is found, not assumed: a ring is
    symmetric when the class of z has shadow {1, -1}, else discrete, and
    ``projection`` filters to one type.  The rings are listed discrete first,
    then by each level's classes from level 0.  None of the paper's lemmas
    shapes the search; they are checked on finished rings (``check-lemmas``).
    """
    if window < 1 or window > MAX_WINDOW:
        raise BoundExceeded(f"window must be between 1 and {MAX_WINDOW}")
    if projection not in (None, "discrete", "symmetric"):
        raise ValueError(f"projection must be 'discrete' or 'symmetric', not {projection!r}")
    group = GroupDescriptor(0, 3)
    elems = sorted(group.window_elements(window), key=lambda g: (abs(g.z_exp), g))
    inv = [elems.index(group.inverse(g)) for g in elems]

    def options(remaining: Sequence) -> Iterator[list[frozenset]]:
        level = abs(elems[remaining[0]].z_exp)
        return _star_pairs([i for i in remaining if abs(elems[i].z_exp) == level], inv)

    def mode(P: SchurPresentation) -> str:
        return "symmetric" if shadow(P.class_of((1, 0))) == {1, -1} else "discrete"

    def order(P: SchurPresentation) -> tuple:
        return mode(P) == "symmetric", sorted((reach(c), sorted(c)) for c in P.classes)

    leaves = _search(group, elems, options)
    rings = (SchurPresentation(group, classes, window=window) for classes in leaves)
    return sorted((P for P in rings if projection in (None, mode(P))), key=order)

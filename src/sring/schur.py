"""Schur presentations: axiom verification, S-sets, S-subgroups, quotients.

A presentation is a finite-support partition of a group (or of a window of an
infinite group) claiming to span a Schur ring.  Verification is exact and
checks every pair of classes.  On a window, "valid-up-to-window" means that
every class-sum product is constant on every class of the window: the product
may reach past the window, but the coefficient of an element of the window
counts pairs from the two classes alone, so it is exact there.

Class sums have non-negative integer coefficients.  :func:`verify_axioms`
takes one row pass per class c: it reads the class labels of x^-1 g for every
x in c and g in the window off one list, and so checks c against every class
at once.  :func:`verify_wielandt` multiplies one pair at a time with
:func:`class_product`, which counts products of exponent pairs.  The lemma
checks count in integers too, so no function here takes a group-ring element.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, islice
from math import gcd
from operator import itemgetter, ne
from typing import Iterable, Mapping

from .errors import (
    BadPrime,
    MalformedPartition,
    NotSSet,
    NotSSubgroup,
    Unclassifiable,
    WindowTooSmall,
)
from .groups import (
    Automorphism,
    GroupDescriptor,
    GroupElement,
    QuotientMap,
    Record,
    Subgroup,
    _setattr,
    all_automorphisms,
    format_element,
    json_field,
    json_int_pair,
    json_value,
)


Z_CROSS_Z3 = GroupDescriptor(0, 3)
MIN_FIND_H_WINDOW = 3  # shows the classes of z, z^2 and z^3, which find_H reads


def _class_key(cls: frozenset) -> tuple:
    return tuple(sorted(cls))


class SchurPresentation:
    """A partition of a group (or a window of one) into basic sets."""

    __slots__ = ("group", "window", "classes", "_member_class")

    def __init__(
        self,
        group: GroupDescriptor,
        classes: Iterable[Iterable[GroupElement]],
        window: int = 0,
    ):
        self.group = group
        self.window = int(window)
        normalized = [frozenset(group.element(*g) for g in c) for c in classes]
        self.classes = tuple(sorted(normalized, key=_class_key))
        member: dict[GroupElement, frozenset] = {}
        for c in self.classes:
            for g in c:
                member.setdefault(g, c)
        self._member_class = member

    # -- basic queries -----------------------------------------------------

    def class_of(self, g: GroupElement) -> frozenset | None:
        return self._member_class.get(self.group.element(*g))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchurPresentation)
            and self.group == other.group
            and self.window == other.window
            and self.classes == other.classes
        )

    def __hash__(self) -> int:
        return hash((self.group, self.window, self.classes))

    def __repr__(self) -> str:
        kind = "finite" if not self.group.is_infinite else f"window={self.window}"
        return f"<SchurPresentation {kind} classes={len(self.classes)}>"

    def describe(self) -> str:
        return "; ".join(map(_fmt_class, self.classes))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "window": self.window,
            "classes": [[list(g) for g in sorted(c)] for c in self.classes],
        }

    @classmethod
    def from_json(cls, data) -> "SchurPresentation":
        """Read :meth:`to_json` output; ValueError on any other shape (1.9 is not 1)."""
        data = json_value(data, dict, "presentation")
        group = GroupDescriptor.from_json(json_field(data, "group", dict))
        classes = [
            [json_int_pair(g, "class element") for g in json_value(c, list, "class")]
            for c in json_field(data, "classes", list)
        ]
        return cls(group, classes, window=json_field(data, "window", int, 0))


# -- verification -------------------------------------------------------------


class Witness(Record):
    """Concrete evidence for an Invalid verdict.

    ``kind`` is "identity-class", "star-closure" or "product-closure";
    ``left`` and ``right`` (or None) are the classes involved, as tuples.
    """

    __slots__ = ("kind", "left", "right", "detail")

    def __init__(self, kind: str, left: tuple, right: tuple | None, detail: str) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _setattr(self, "detail", detail)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "left": [list(g) for g in self.left],
            "right": [list(g) for g in self.right] if self.right is not None else None,
            "detail": self.detail,
        }


VALID = "valid"
VALID_UP_TO_WINDOW = "valid-up-to-window"
INVALID = "invalid"


class VerificationReport(Record):
    """A verdict, the class pairs checked, and a witness when invalid."""

    __slots__ = ("verdict", "checked_pairs", "effective_window", "witness")

    def __init__(
        self,
        verdict: str,
        checked_pairs: int,
        effective_window: int | None = None,
        witness: Witness | None = None,
    ) -> None:
        _setattr(self, "verdict", verdict)
        _setattr(self, "checked_pairs", checked_pairs)
        _setattr(self, "effective_window", effective_window)
        _setattr(self, "witness", witness)

    @property
    def ok(self) -> bool:
        return self.verdict in (VALID, VALID_UP_TO_WINDOW)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "checked_pairs": self.checked_pairs,
            "effective_window": self.effective_window,
            "witness": self.witness.to_json() if self.witness else None,
        }


def check_partition(P: SchurPresentation) -> None:
    """Raise MalformedPartition on empty classes, overlaps, gaps, elements
    outside the window, or a finite group with a window other than 0."""
    total = 0
    for c in P.classes:
        if not c:
            raise MalformedPartition("empty class")
        total += len(c)
    if total != len(P._member_class):
        raise MalformedPartition("classes overlap")
    if P.group.is_infinite:
        if P.window < 1:
            raise MalformedPartition("windowed presentation needs window >= 1")
        outside = [g for g in P._member_class if abs(g.z_exp) > P.window]
        if outside:
            raise MalformedPartition(
                f"{format_element(min(outside))} lies outside window {P.window}"
            )
        universe = P.group.window_elements(P.window)
    elif P.window != 0:
        raise MalformedPartition(f"a finite group takes window 0, not {P.window}")
    else:
        universe = P.group.elements()
    missing = next((g for g in universe if g not in P._member_class), None)
    if missing is not None:
        raise MalformedPartition(f"group not covered, e.g. {format_element(missing)}")


def class_product(
    c: Iterable[GroupElement], d: Iterable[GroupElement], group: GroupDescriptor
) -> dict:
    """The product of the class sums of c and d, as counts per element.

    Keys are reduced ``(z, a)`` tuples, which hash and compare equal to
    :class:`GroupElement`; the count of g is the number of pairs x in c,
    y in d with xy = g.
    """
    n, m = group.free_order, group.torsion_order
    counts: dict = {}
    get = counts.get
    for gz, ga in c:
        for hz, ha in d:
            k = ((gz + hz) % n if n else gz + hz, (ga + ha) % m)
            counts[k] = get(k, 0) + 1
    return counts


def split_class(prod: Mapping, member: Mapping) -> frozenset | None:
    """The first class that prod meets but is not constant on, or None.

    prod stores no zero coefficients and member maps element -> class;
    elements of prod outside member are skipped.  Classes are met in the
    order of prod's sorted elements, each tested once.
    """
    seen: set[frozenset] = set()
    for g in sorted(prod):
        e = member.get(g)
        if e is None or e in seen:
            continue
        seen.add(e)
        if len(set(map(prod.get, e))) > 1:
            return e
    return None


def star(c: Iterable[GroupElement], group: GroupDescriptor) -> frozenset:
    """The inverse set {g^-1 : g in c}."""
    return frozenset(group.inverse(g) for g in c)


def reach(c: Iterable[GroupElement]) -> int:
    """How far a class reaches along the free factor: the largest |z|."""
    return max(abs(g.z_exp) for g in c)


def shadow(c: Iterable[GroupElement]) -> frozenset[int]:
    """The z-exponents of a class: its image modulo the torsion subgroup."""
    return frozenset(g.z_exp for g in c)


def is_union(elems: Iterable[GroupElement], lookup: Mapping) -> bool:
    """True when elems is exactly a union of classes; lookup maps element -> class."""
    remaining = set(elems)
    while remaining:
        c = lookup.get(next(iter(remaining)))
        if c is None or not c <= remaining:
            return False
        remaining -= c
    return True


def _split_level(coeffs: Mapping, member: Mapping):
    """The least value whose level set, cut to the window (the keys of member),
    is not a union of classes; None if every one is.  Exact for coefficients
    computed from whole classes: an element past the window is dropped."""
    levels: dict = {}
    for g, v in coeffs.items():
        if g in member:
            levels.setdefault(v, set()).add(g)
    for v in sorted(levels):
        if not is_union(levels[v], member):
            return v
    return None


def _report(P: SchurPresentation, pairs: int, witness: Witness | None = None) -> VerificationReport:
    """Invalid when there is a witness, else valid (up to the window for infinite G)."""
    infinite = P.group.is_infinite
    verdict = INVALID if witness is not None else VALID_UP_TO_WINDOW if infinite else VALID
    window = P.window if infinite else None
    return VerificationReport(verdict, pairs, effective_window=window, witness=witness)


def verify_axioms(P: SchurPresentation) -> VerificationReport:
    """Check the defining axioms: identity class, star closure, product closure.

    Product closure is tested as coefficient-constancy of each product on
    every class, one row pass per class c: the coefficient of g in c.d is the
    number of x in c with x^-1 g in d, so c passes against every d at once when
    all elements of a class see the same multiset of labels.  A row whose star
    row has passed is skipped.  On a window every pair counts, and an x^-1 g
    past the window has no label, so each class of the window is tested on its
    exact coefficients.  Deterministic: the witness is the least failing pair
    in canonical scan order, and ``checked_pairs`` counts the pairs up to it.
    """
    check_partition(P)
    identity_class = P.class_of(P.group.identity)
    if identity_class != frozenset([P.group.identity]):
        return _report(
            P,
            0,
            Witness(
                "identity-class",
                _class_key(identity_class),
                None,
                "the identity must form a singleton class",
            ),
        )

    class_set = set(P.classes)
    for c in P.classes:
        c_star = star(c, P.group)
        if c_star not in class_set:
            return _report(
                P,
                0,
                Witness(
                    "star-closure",
                    _class_key(c),
                    _class_key(c_star),
                    "the inverse set of a class must itself be a class",
                ),
            )

    pairs, split = _product_rows(P)
    if split is None:
        return _report(P, pairs)
    product = class_product(*split, P.group)
    e = split_class(product, P._member_class)
    detail = f"product is not constant on class {_fmt_class(e)}"
    return _report(P, pairs, Witness("product-closure", *map(_class_key, split), detail))


def _product_rows(P: SchurPresentation) -> tuple[int, tuple | None]:
    """The checked pairs, and the first pair (c, d) in scan order whose
    product is not constant on a class (None if there is none)."""
    classes, (n, m) = P.classes, (P.group.free_order, P.group.torsion_order)
    k, w = len(classes), P.window
    s, size = (n, n * m) if n else (w, (2 * w + 1) * m)  # s: the window's first block in labels
    base = [-1] * size  # class index per element of the window, in window order
    for i, c in enumerate(classes):
        for z, a in c:
            base[(z + s - n) * m + a] = i
    pad = base if n else [-1] * (w * m)  # so that x^-1 g has a label for all x, g in the window
    labels = pad + base + pad
    big = [e for e in classes if len(e) > 1]  # a singleton class cannot be split
    joined = [p + 1 < len(e) for e in big for p in range(len(e))]  # g and the next g share a class
    gathers = [itemgetter(*[(z + s - n) * m + (a - r) % m for e in big for z, a in e])
               for r in range(m)] if big else ()
    for i, c in enumerate(classes if big else ()):
        z, a = next(iter(c))
        if labels[(2 * s - n - z) * m + -a % m] < i:  # c.d = (c*.d*)*, and row c* passed
            continue
        cols = [gathers[a](labels[(s - z) * m:(s - z) * m + size]) for z, a in c]
        keys = cols[0] if len(cols) == 1 else list(map(sorted, zip(*cols)))
        if any(compress(map(ne, keys, keys[1:]), joined)):
            seen = iter(zip(*cols))  # the labels of each g, class by class
            first = min(d for ts in [list(islice(seen, len(e))) for e in big]
                        for d in set().union(*ts) if d >= 0 and len({t.count(d) for t in ts}) > 1)
            # rows before i hold i*k - i(i-1)/2 pairs; row i reaches (c, classes[first])
            return i * k - i * (i - 1) // 2 + first - i + 1, (c, classes[first])
    return k * (k + 1) // 2, None


def _fmt_class(c: Iterable[GroupElement]) -> str:
    return "{" + ", ".join(format_element(g) for g in sorted(c)) + "}"


def is_sset(P: SchurPresentation, elems: Iterable[GroupElement]) -> bool:
    """True when the set is exactly a union of classes of P."""
    return is_union({P.group.element(*g) for g in elems}, P._member_class)


def verify_wielandt(P: SchurPresentation) -> VerificationReport:
    """Alternative verification: span closed under Hadamard and star,
    contains the identity, supports cover the group.

    Ring closure is tested through the level-set route: for every pair of
    classes, each coefficient level set of their product, cut to the
    elements of the window, must be a union of classes.  Must agree with
    :func:`verify_axioms`.
    """
    check_partition(P)
    if not is_sset(P, [P.group.identity]):
        return _report(
            P,
            0,
            Witness(
                "identity-class",
                _class_key(P.class_of(P.group.identity)),
                None,
                "the identity element is not a singleton S-set",
            ),
        )

    for c in P.classes:
        c_star = star(c, P.group)
        if not is_sset(P, c_star):
            return _report(
                P,
                0,
                Witness(
                    "star-closure",
                    _class_key(c),
                    _class_key(c_star),
                    "the star of a class is not an S-set",
                ),
            )

    classes = P.classes
    pairs = 0
    for i, c in enumerate(classes):
        for d in classes[i:]:
            pairs += 1
            v = _split_level(class_product(c, d, P.group), P._member_class)
            if v is not None:
                detail = f"coefficient level set for value {v} is not an S-set"
                witness = Witness("product-closure", _class_key(c), _class_key(d), detail)
                return _report(P, pairs, witness)
    return _report(P, pairs)


# -- S-subgroups --------------------------------------------------------------


def is_ssubgroup(P: SchurPresentation, H: Subgroup) -> bool:
    """True when no class straddles H (checked on the window for infinite G)."""
    for c in P.classes:
        inside = sum(1 for g in c if H.contains(g))
        if inside not in (0, len(c)):
            return False
    return True


def class_stabilizer(P: SchurPresentation) -> list[Automorphism]:
    """The supported automorphisms that map every class of P onto itself."""
    return [
        phi
        for phi in all_automorphisms(P.group)
        if all(phi.apply_set(c) == c for c in P.classes)
    ]


def restrict(P: SchurPresentation, H: Subgroup) -> SchurPresentation:
    """The presentation on H formed by the classes inside H.

    H must be an S-subgroup; the result lives over H's own descriptor with
    the canonical coordinates, and the window shrinks by H's free step.
    """
    if H.group != P.group:
        raise ValueError("subgroup belongs to a different group")
    if not is_ssubgroup(P, H):
        raise NotSSubgroup(f"{H} is not a union of classes")
    desc, coords = H.as_group()
    inner_classes = [
        frozenset(coords.to_sub(g) for g in c)
        for c in P.classes
        if all(g in H for g in c)
    ]
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

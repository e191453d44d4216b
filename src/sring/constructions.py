"""Constructors for the standard Schur-ring families.

Five constructors: discrete, trivial, orbit, tensor and wedge.  Each returns
a :class:`~sring.schur.SchurPresentation`; windowed constructors only emit
classes that fit entirely inside the window, so partition invariants always
hold on the emitted presentation.  A :class:`Recipe` names a traditional ring
as a tree of these constructions, over a finite group or Z x Z_3 alike, and
:func:`build` is the one builder that realizes it.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    BadTower,
    IncompatibleWedge,
    InfiniteGroup,
    UnsupportedProduct,
    WindowTooSmall,
)
from .automorphisms import Automorphism, orbit
from .groups import GroupDescriptor, GroupElement, Record, _setattr
from .schur import SchurPresentation, is_ssubgroup, is_union, reach
from .subgroups import QuotientMap, Subgroup


def _require_window(group: GroupDescriptor, window: int) -> None:
    if group.is_infinite and window < 1:
        raise WindowTooSmall("infinite groups need a window of at least 1")


def discrete(group: GroupDescriptor, window: int = 0) -> SchurPresentation:
    """The discrete presentation: every element is its own class."""
    return orbit_ring(group, (), window)


def trivial(group: GroupDescriptor) -> SchurPresentation:
    """The two-class presentation {1}, G - 1 of a finite group."""
    if group.is_infinite:
        raise InfiniteGroup("there is no trivial Schur ring over an infinite group")
    rest = [g for g in group.elements() if g != group.identity]
    classes = [[group.identity]]
    if rest:
        classes.append(rest)
    return SchurPresentation(group, classes)


def orbit_ring(
    group: GroupDescriptor,
    gens: Iterable[Automorphism],
    window: int = 0,
) -> SchurPresentation:
    """Classes are the orbits of the group generated by ``gens``.

    With no generators this is the discrete presentation.  Each window element
    is closed over once, and its orbit stays in its own levels +-k, so every
    orbit of a window element fits in the window.
    """
    gens = list(gens)
    for phi in gens:
        if phi.group != group:
            raise ValueError("generator acts on a different group")
    _require_window(group, window)
    classes = []
    seen: set[GroupElement] = set()
    for g in group.window_elements(window):
        if g in seen:
            continue
        orb = orbit(gens, g)
        seen |= orb
        classes.append(orb)
    return SchurPresentation(group, classes, window=window if group.is_infinite else 0)


def symmetric(group: GroupDescriptor, window: int = 0) -> SchurPresentation:
    """Orbit presentation of the full inversion g -> g^-1."""
    return orbit_ring(group, [Automorphism.inversion(group)], window=window)


def _direct_product(
    H: Subgroup, K: Subgroup, A: SchurPresentation, B: SchurPresentation
) -> SchurPresentation:
    """The classes C*D over the internal direct product G = H x K, for A over
    ``H.as_group()`` and B over ``K.as_group()``; the window is the larger of
    the two, as a finite factor's is 0."""
    G, h_coords, k_coords = H.group, H.as_group()[1], K.as_group()[1]
    left = [[h_coords.from_sub(g) for g in c] for c in A.classes]
    right = [[k_coords.from_sub(g) for g in d] for d in B.classes]
    classes = [frozenset(G.mul(x, y) for x in c for y in d) for c in left for d in right]
    return SchurPresentation(G, classes, window=max(A.window, B.window))


def tensor(A: SchurPresentation, B: SchurPresentation) -> SchurPresentation:
    """The presentation on H x K whose classes are the products C*D.

    Supported when one factor carries only the free part and the other only
    the torsion part (either order), so the product is the split <z> x <a>
    of a free x torsion descriptor.  :func:`build` realizes other splits.
    """
    GA, GB = A.group, B.group
    if GA.order == 1:
        return B
    if GB.order == 1:
        return A
    free, torsion = (A, B) if GB.free_order == 1 else (B, A)
    if free.group.torsion_order != 1 or torsion.group.free_order != 1:
        raise UnsupportedProduct(
            f"cannot realize {GA} x {GB} as a free x torsion group"
        )
    group = GroupDescriptor(free.group.free_order, torsion.group.torsion_order)
    return _direct_product(Subgroup.free_power(group, 1), Subgroup.torsion(group), free, torsion)


def wedge(
    H: Subgroup,
    K: Subgroup,
    inner: SchurPresentation,
    outer: SchurPresentation,
    window: int = 0,
) -> SchurPresentation:
    """Assemble the wedge of a tower 1 < K <= H < G: inner classes inside H,
    K-coset unions outside.

    ``inner`` lives over H's own descriptor (H.as_group coordinates) and
    ``outer`` over the canonical descriptor of G/K.  They must agree on the
    overlap H/K: the images in G/K of the inner classes are the outer classes
    inside H/K, on the window both cover.
    """
    G = H.group
    if K.group != G:
        raise BadTower("K lives in a different group")
    if K.is_trivial or H.is_full or not H.contains_subgroup(K):
        raise BadTower("wedge tower must satisfy 1 < K <= H < G")
    if K.order is None:
        raise IncompatibleWedge(
            "K must be finite: classes outside H are unions of K-cosets"
        )
    _require_window(G, window)

    h_desc, h_coords = H.as_group()
    if inner.group != h_desc:
        raise IncompatibleWedge(
            f"inner presentation is over {inner.group}, expected {h_desc}"
        )
    if G.is_infinite and h_desc.is_infinite and inner.window < window // H.free_step:
        raise WindowTooSmall(
            f"inner window {inner.window} cannot cover the middle subgroup "
            f"inside window {window}"
        )
    if G.is_infinite and outer.window < window:
        raise WindowTooSmall(
            f"outer window {outer.window} cannot cover window {window}"
        )
    qm = QuotientMap(G, K)
    if outer.group != qm.descriptor:
        raise IncompatibleWedge(
            f"outer presentation is over {outer.group}, expected {qm.descriptor}"
        )

    # The inner and outer rings are compared on H/K in the coordinates of G/K.
    inner_classes = [frozenset(h_coords.from_sub(g) for g in c) for c in inner.classes]
    if not is_union(K.elements(), {g: c for c in inner_classes for g in c}):
        raise IncompatibleWedge("K is not an S-subgroup of the inner presentation")
    h_image = Subgroup.generated_by(qm.descriptor, [qm.project(g) for g in H.generators()])
    if not is_ssubgroup(outer, h_image):
        raise IncompatibleWedge("H/K is not an S-subgroup of the outer presentation")
    outside = [d for d in outer.classes if next(iter(d)) not in h_image]
    left = {qm.project_set(c) for c in inner_classes}
    right = set(outer.classes) - set(outside)
    if G.is_infinite:  # only classes inside both windows; K is finite, so z is kept
        common = min(outer.window, inner.window * H.free_step)
        left = {c for c in left if reach(c) <= common}
        right = {d for d in right if reach(d) <= common}
    if left != right:
        raise IncompatibleWedge("inner and outer presentations disagree on H/K")

    classes = [c for c in inner_classes if not G.is_infinite or reach(c) <= window]
    for d in outside:
        preimage = frozenset(g for q in d for g in qm.preimage(q))
        if G.is_infinite and reach(preimage) > window:
            continue  # coset classes are emitted only when entirely inside the window
        classes.append(preimage)
    return SchurPresentation(G, classes, window=window if G.is_infinite else 0)


class Recipe(Record):
    """A recipe for a traditional ring, or "no"; :func:`build` realizes it.

    ``kind`` is "trivial", "orbit", "tensor", "wedge" or "no".  An orbit
    recipe carries the generators of its automorphism group; with none it is
    the discrete ring.  A tensor carries the split (H, K) of G = H x K in
    ``subgroups`` and a recipe for each factor in ``parts``, over
    ``H.as_group()`` and ``K.as_group()``.  A wedge carries the tower (K, H)
    and recipes for its inner ring over ``H.as_group()`` and its outer ring
    over G/K.
    """

    __slots__ = ("kind", "generators", "subgroups", "parts")

    def __init__(
        self,
        kind: str,
        generators: tuple[Automorphism, ...] = (),
        subgroups: tuple[Subgroup, Subgroup] | None = None,
        parts: tuple[Recipe, Recipe] | None = None,
    ) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "generators", generators)
        _setattr(self, "subgroups", subgroups)
        _setattr(self, "parts", parts)

    def __bool__(self) -> bool:
        return self.kind != "no"


def build(group: GroupDescriptor, recipe: Recipe, window: int = 0) -> SchurPresentation:
    """The ring over ``group`` that ``recipe`` names, on ``window`` when the
    group is infinite; "no" raises ValueError.

    A tensor splits G into H x K with one factor finite; a wedge needs a
    finite K.  A part over an infinite subgroup is built by :func:`_build_on`.
    """
    if recipe.kind == "trivial":
        return trivial(group)
    if recipe.kind == "orbit":
        return orbit_ring(group, recipe.generators, window)
    if recipe.kind == "tensor":
        (H, K), (left, right) = recipe.subgroups, recipe.parts
        finite, other = (H, K) if H.order is not None else (K, H)
        HK = Subgroup.generated_by(group, H.generators() + K.generators())
        if (
            not HK.is_full
            or finite.order is None
            or any(g in other for g in finite.elements() if g != group.identity)
        ):
            raise UnsupportedProduct(f"{H} x {K} is not a split of {group}")
        return _direct_product(H, K, _build_on(H, left, window), _build_on(K, right, window))
    if recipe.kind == "wedge":
        (K, H), (inner, outer) = recipe.subgroups, recipe.parts
        return wedge(
            H, K,
            _build_on(H, inner, window),
            build(QuotientMap(group, K).descriptor, outer, window),
            window,
        )
    raise ValueError(f"a {recipe.kind!r} recipe builds no ring")


def _build_on(H: Subgroup, recipe: Recipe, window: int) -> SchurPresentation:
    """``recipe`` built over H's own descriptor.  An infinite H = <z^step> x ...
    is built on window // step, since its level k is level k * step of G."""
    return build(H.as_group()[0], recipe, window // H.free_step if H.order is None else window)


def torsion_tower(group: GroupDescriptor, step: int) -> tuple[Subgroup, Subgroup]:
    """The tower (K, H) of a wedge over the torsion kernel K = <a> of an
    infinite group: H = <z^step> x <a>, or H = K at step 0."""
    if step < 0:
        raise BadTower(f"step must be 0 or at least 2, got {step}")
    if step == 1:
        raise BadTower("step 1 makes the middle subgroup the whole group")
    K = Subgroup.torsion(group)
    return K, Subgroup.free_power_with_torsion(group, step) if step else K


def standard_part(kind: str, group: GroupDescriptor, role: str) -> Recipe:
    """The recipe a part of a standard wedge names by kind over ``group``:
    "discrete" or "symmetric" when it is infinite, "discrete" or "trivial"
    when it is finite.  ``role`` ("inner" or "outer") names the part in the
    error a wrong kind raises."""
    if kind == "discrete":
        return Recipe("orbit")
    if group.is_infinite and kind == "symmetric":
        return Recipe("orbit", generators=(Automorphism.inversion(group),))
    if not group.is_infinite and kind == "trivial":
        return Recipe("trivial")
    if not group.is_infinite:
        raise ValueError(f"{role} kind {kind!r} needs step >= 2")
    raise ValueError(f"unknown {role} kind {kind!r}")


def standard_wedge(
    group: GroupDescriptor, step: int, inner: str, outer_kind: str, window: int
) -> SchurPresentation:
    """Wedge over the torsion kernel with middle subgroup <z^step> x <a>.

    step == 0 keeps the middle subgroup equal to the torsion factor, where
    ``inner`` may be "discrete" or "trivial"; for step >= 2 the inner
    presentation over <z^step> x <a> may be "discrete" or "symmetric".  The
    outer presentation over the free quotient is "discrete" or "symmetric".
    An inner kind at a step above the window raises WindowTooSmall, as its
    ring would have window 0.
    """
    if not group.is_infinite:
        raise InfiniteGroup("standard wedges are built over the infinite group")
    K, H = torsion_tower(group, step)
    inner_part = standard_part(inner, H.as_group()[0], "inner")
    if step > window:
        raise WindowTooSmall(f"step {step} needs a window of at least {step}, got {window}")
    outer_part = standard_part(outer_kind, QuotientMap(group, K).descriptor, "outer")
    return build(group, Recipe("wedge", subgroups=(K, H), parts=(inner_part, outer_part)), window)

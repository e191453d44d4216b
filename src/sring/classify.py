"""Family classification of verified windowed presentations over Z x Z_3.

The classifier walks the case tree of the structure theorem in one pass.  The
shadows of the classes (their images modulo torsion) give the projection,
discrete or symmetric.  The first level d whose class is not a union of
torsion cosets then picks one of three cases: none, a wedge over the torsion
subgroup; d == 1, a full or orbit ring, read off the automorphisms that fix
every class; d > 1, a wedge with middle subgroup <z^d> x <a> around a full or
orbit ring.  Every answer is validated by re-synthesis: the descriptor must
reproduce the input class-for-class on its window.
"""

from __future__ import annotations

from math import gcd

from .constructions import discrete, orbit_ring, standard_wedge, symmetric
from .errors import Unclassifiable, UnrecognizedQuotient, WindowTooSmall
from .groups import (
    Automorphism,
    GroupDescriptor,
    GroupElement,
    Record,
    Subgroup,
    _setattr,
    automorphism_from_json,
    canonical_generators,
    json_field,
    json_value,
)
from .schur import (
    SchurPresentation,
    check_partition,
    class_shape_holds,
    class_stabilizer,
    is_ssubgroup,
    power_in_subgroup_holds,
    restrict,
    shadow,
    torsion_is_ssubgroup,
)

Z_CROSS_Z3 = GroupDescriptor(0, 3)

DISCRETE = "discrete"
SYMMETRIC = "symmetric"
TRIVIAL = "trivial"

MIN_CLASSIFY_WINDOW = 3


class FamilyDescriptor(Record):
    """Which family a presentation belongs to, with enough data to rebuild it.

    variant "full" is the whole group ring (symmetric flag distinguishes the
    inversion-orbit alias), "orbit" carries canonical automorphism
    generators, and "wedge" carries the tower over the torsion kernel: the
    middle subgroup <z^tower_step> x <a> (tower_step == 0 meaning the torsion
    subgroup itself), the inner description (a leaf kind over the torsion
    subgroup, or a nested descriptor when the middle subgroup is infinite)
    and the outer kind over the free quotient.
    """

    __slots__ = (
        "variant", "symmetric", "generators", "tower_step", "inner", "outer", "confidence_window"
    )

    def __init__(
        self,
        variant: str,
        symmetric: bool = False,
        generators: tuple[Automorphism, ...] = (),
        tower_step: int = 0,
        inner: FamilyDescriptor | str | None = None,
        outer: str | None = None,
        confidence_window: int = 0,
    ) -> None:
        _setattr(self, "variant", variant)
        _setattr(self, "symmetric", symmetric)
        _setattr(self, "generators", generators)
        _setattr(self, "tower_step", tower_step)
        _setattr(self, "inner", inner)
        _setattr(self, "outer", outer)
        _setattr(self, "confidence_window", confidence_window)

    def to_json(self) -> dict:
        data: dict = {"variant": self.variant, "window": self.confidence_window}
        if self.variant == "full":
            data["symmetric"] = self.symmetric
        elif self.variant == "orbit":
            data["generators"] = [phi.to_json() for phi in self.generators]
        elif self.variant == "wedge":
            data["tower"] = {"K": 0, "H": self.tower_step}
            data["inner"] = (
                self.inner.to_json()
                if isinstance(self.inner, FamilyDescriptor)
                else self.inner
            )
            data["outer"] = self.outer
        return data

    @classmethod
    def from_json(cls, data) -> "FamilyDescriptor":
        data = json_value(data, dict, "family descriptor")
        variant = json_field(data, "variant", str)
        window = json_field(data, "window", int, 0)
        if variant == "full":
            return cls("full", symmetric=json_field(data, "symmetric", bool, False),
                       confidence_window=window)
        if variant == "orbit":
            gens = tuple(
                automorphism_from_json(g, Z_CROSS_Z3)
                for g in json_field(data, "generators", list, [])
            )
            return cls("orbit", generators=gens, confidence_window=window)
        if variant == "wedge":
            inner = data.get("inner")
            return cls(
                "wedge",
                tower_step=json_field(json_field(data, "tower", dict, {}), "H", int, 0),
                inner=(cls.from_json(inner) if isinstance(inner, dict)
                       else json_field(data, "inner", str)),
                outer=json_field(data, "outer", str, DISCRETE),
                confidence_window=window,
            )
        raise ValueError(f"unknown variant {variant!r}")

    def describe(self) -> str:
        if self.variant == "full":
            return "full group ring" + (" (symmetric)" if self.symmetric else "")
        if self.variant == "orbit":
            names = ", ".join(phi.name() or str(phi) for phi in self.generators)
            return f"orbit ring <{names}>"
        inner = (
            self.inner.describe() if isinstance(self.inner, FamilyDescriptor) else self.inner
        )
        return f"wedge step {self.tower_step}: [{inner}] over [{self.outer}]"


def _require_group(P: SchurPresentation) -> None:
    if P.group != Z_CROSS_Z3:
        raise ValueError(f"classification is defined over Z x Z_3, got {P.group}")


def find_H(P: SchurPresentation) -> Subgroup:
    """The maximal S-subgroup contained in <z>, as seen through the window.

    Computed as the span of the levels whose class stays inside <z>; the
    multiples of the least such level must behave consistently across the
    window, otherwise the input cannot be a Schur-ring window.
    """
    _require_group(P)
    if P.window < MIN_CLASSIFY_WINDOW:
        raise WindowTooSmall(
            f"window {P.window} cannot certify a free S-subgroup (need >= {MIN_CLASSIFY_WINDOW})"
        )
    pure = []
    for k in range(1, P.window + 1):
        c = P.class_of(GroupElement(k, 0))
        if c is not None and all(g.a_exp == 0 for g in c):
            pure.append(k)
    if not pure:
        return Subgroup.trivial(P.group)
    h = 0
    for k in pure:
        h = gcd(h, k)
    expected = set(range(h, P.window + 1, h))
    if set(pure) != expected:
        raise Unclassifiable(
            "levels with pure-z classes do not form a subgroup within the window"
        )
    return Subgroup.free_power(P.group, h)


def projection_type(P: SchurPresentation) -> str:
    """Type of the quotient modulo torsion: "discrete" or "symmetric".

    The quotient's classes are the shadows of P's classes; they must form the
    discrete ring {k} or the symmetric ring {k, -k} over the window of Z.
    """
    _require_group(P)
    if not torsion_is_ssubgroup(P):
        raise UnrecognizedQuotient("the torsion subgroup is not an S-subgroup")
    shadows = {shadow(c) for c in P.classes}
    levels = range(P.window + 1)
    if shadows == {frozenset({s * k}) for k in levels for s in (1, -1)}:
        return DISCRETE
    if shadows == {frozenset({k, -k}) for k in levels}:
        return SYMMETRIC
    raise UnrecognizedQuotient(
        "quotient modulo torsion is neither discrete nor symmetric"
    )


def _is_full(c: frozenset) -> bool:
    """Whether a class is a union of whole torsion cosets."""
    return len(c) == len(shadow(c)) * Z_CROSS_Z3.torsion_order


def _orbit_family(P: SchurPresentation) -> FamilyDescriptor:
    """The full or orbit ring whose automorphisms fix every class of P."""
    k_max = class_stabilizer(P)
    gens = canonical_generators(k_max)
    if not gens:
        return FamilyDescriptor("full", symmetric=False)
    if len(k_max) == 2 and gens[0] == Automorphism.inversion(P.group):
        return FamilyDescriptor("full", symmetric=True)
    return FamilyDescriptor("orbit", generators=gens)


def _classify_core(P: SchurPresentation, mode: str) -> FamilyDescriptor:
    """The three cases of the structure theorem, told apart by the first level
    d whose class is not full (not a union of torsion cosets).

    No such d: a wedge over the torsion subgroup.  d == 1: a full or orbit
    ring.  d > 1: every level off the multiples of d is full, and P is a wedge
    with middle subgroup <z^d> x <a>.  Level 1 of the inner ring there is
    level d of P, so the inner ring is a full or orbit ring in turn.
    """
    partial = [k for k in range(1, P.window + 1) if not _is_full(P.class_of(GroupElement(k, 0)))]
    if not partial:
        torsion_class = P.class_of(GroupElement(0, 1))
        if torsion_class == frozenset({GroupElement(0, 1)}):
            inner = DISCRETE
        elif torsion_class == frozenset({GroupElement(0, 1), GroupElement(0, 2)}):
            inner = TRIVIAL
        else:
            raise Unclassifiable("torsion classes match no Schur ring over Z_3")
        return FamilyDescriptor("wedge", tower_step=0, inner=inner, outer=mode)

    d = partial[0]
    if d == 1:
        return _orbit_family(P)
    stray = next((k for k in partial if k % d), None)
    if stray is not None:
        raise Unclassifiable(f"level {stray} degenerates outside the tower of step {d}")
    middle = Subgroup.free_power_with_torsion(P.group, d)
    if not is_ssubgroup(P, middle):
        raise Unclassifiable(f"the middle subgroup {middle} is split by a class")
    return FamilyDescriptor("wedge", tower_step=d, inner=_orbit_family(restrict(P, middle)),
                            outer=mode)


def classify(P: SchurPresentation) -> FamilyDescriptor:
    """Identify the family of a verified presentation over Z x Z_3.

    Returns a descriptor whose re-synthesis reproduces P class-for-class on
    the window, raising Unclassifiable otherwise (which, for genuinely
    verified inputs, the structure theorem rules out).  A partition with a
    gap or an overlap raises MalformedPartition.  Windows below 3 are
    rejected; 12 is the recommended minimum for full-confidence answers.
    """
    check_partition(P)
    _require_group(P)
    if P.window < MIN_CLASSIFY_WINDOW:
        raise WindowTooSmall(
            f"window {P.window} < {MIN_CLASSIFY_WINDOW}; classification needs to see the classes of z, z^2, z^3"
        )
    mode = projection_type(P)  # validates torsion + dichotomy guards
    ok, msg = class_shape_holds(P)
    if not ok:
        raise Unclassifiable(f"class-shape dichotomy fails: {msg}")
    d = _classify_core(P, mode)
    descriptor = FamilyDescriptor(
        d.variant, d.symmetric, d.generators, d.tower_step, d.inner, d.outer, P.window
    )
    ok, msg = power_in_subgroup_holds(P, find_H(P))
    if not ok:
        raise Unclassifiable(f"small-class power rule fails: {msg}")
    rebuilt = resynthesize(descriptor, P.window)
    if rebuilt.classes != P.classes:
        raise Unclassifiable(
            f"descriptor {descriptor.describe()} does not reproduce the presentation"
        )
    return descriptor


def resynthesize(d: FamilyDescriptor, window: int) -> SchurPresentation:
    """Rebuild the presentation a descriptor denotes, at the given window."""
    G = Z_CROSS_Z3
    if d.variant == "full":
        return symmetric(G, window) if d.symmetric else discrete(G, window)
    if d.variant == "orbit":
        return orbit_ring(G, d.generators, window)
    if d.variant == "wedge":
        inner = d.inner
        if isinstance(inner, FamilyDescriptor):
            # a step below 2 leaves no room for a nested ring; standard_wedge refuses it
            inner = resynthesize(inner, window // max(d.tower_step, 1))
        return standard_wedge(G, d.tower_step, inner, d.outer, window)
    raise ValueError(f"unknown variant {d.variant!r}")

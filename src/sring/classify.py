"""Family classification of verified windowed presentations over Z x Z_3.

The classifier walks the same case tree as the structure theorem: project to
the free quotient (discrete or symmetric), find the largest level whose class
degenerates from a full torsion preimage, and either recover an automorphism
group (orbit family) or peel off a wedge tower and recurse on the middle
subgroup.  Every answer is validated by re-synthesis: the descriptor must
reproduce the input class-for-class on its window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .constructions import discrete, orbit_ring, standard_wedge, symmetric, wedge, WedgeSpec
from .errors import Unclassifiable, UnrecognizedQuotient, WindowTooSmall
from .groups import (
    Automorphism,
    GroupDescriptor,
    GroupElement,
    Subgroup,
    automorphism_from_json,
    canonical_generators,
    json_field,
    json_value,
)
from .schur import (
    SchurPresentation,
    class_shape_holds,
    class_stabilizer,
    is_ssubgroup,
    power_in_subgroup_holds,
    quotient,
    restrict,
    torsion_is_ssubgroup,
)

Z_CROSS_Z3 = GroupDescriptor(0, 3)

DISCRETE = "discrete"
SYMMETRIC = "symmetric"
TRIVIAL = "trivial"

MIN_CLASSIFY_WINDOW = 3
RECOMMENDED_WINDOW = 12


@dataclass(frozen=True)
class FamilyDescriptor:
    """Which family a presentation belongs to, with enough data to rebuild it.

    variant "full" is the whole group ring (symmetric flag distinguishes the
    inversion-orbit alias), "orbit" carries canonical automorphism
    generators, and "wedge" carries the tower over the torsion kernel: the
    middle subgroup <z^tower_step> x <a> (tower_step == 0 meaning the torsion
    subgroup itself), the inner description (a leaf kind over the torsion
    subgroup, or a nested descriptor when the middle subgroup is infinite)
    and the outer kind over the free quotient.
    """

    variant: str
    symmetric: bool = False
    generators: tuple[Automorphism, ...] = ()
    tower_step: int = 0
    inner: "FamilyDescriptor | str | None" = None
    outer: str | None = None
    confidence_window: int = 0

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
    """Type of the quotient modulo torsion: "discrete" or "symmetric"."""
    _require_group(P)
    if not torsion_is_ssubgroup(P):
        raise UnrecognizedQuotient("the torsion subgroup is not an S-subgroup")
    q = quotient(P, Subgroup.torsion(P.group))
    classes = set(q.classes)
    n = q.window
    if all(frozenset({GroupElement(k, 0)}) in classes for k in range(-n, n + 1)):
        if len(classes) == 2 * n + 1:
            return DISCRETE
    sym = {frozenset({GroupElement(0, 0)})}
    sym |= {frozenset({GroupElement(k, 0), GroupElement(-k, 0)}) for k in range(1, n + 1)}
    if classes == sym:
        return SYMMETRIC
    raise UnrecognizedQuotient(
        "quotient modulo torsion is neither discrete nor symmetric"
    )


def _class_signs(c: frozenset) -> set[int]:
    return {(-1 if g.z_exp < 0 else 1) for g in c}


def _full_preimage(P: SchurPresentation, k: int, mode: str) -> frozenset:
    if mode == DISCRETE:
        return P.group.coset_of_torsion(k)
    return frozenset(P.group.coset_of_torsion(k) | P.group.coset_of_torsion(-k))


def _detect_mode(P: SchurPresentation) -> str:
    modes = set()
    for k in range(1, P.window + 1):
        c = P.class_of(GroupElement(k, 0))
        if c is None:
            continue
        signs = _class_signs(c)
        modes.add(SYMMETRIC if signs == {1, -1} else DISCRETE)
    if len(modes) != 1:
        raise Unclassifiable("free levels mix single-signed and symmetric classes")
    return modes.pop()


def _classify_core(P: SchurPresentation) -> FamilyDescriptor:
    """Recursive case analysis; window may be as small as 1 in recursion."""
    G = P.group
    mode = _detect_mode(P)
    degenerate = None
    for k in range(1, P.window + 1):
        if P.class_of(GroupElement(k, 0)) != _full_preimage(P, k, mode):
            degenerate = k
            break

    if degenerate is None:
        torsion_class = P.class_of(GroupElement(0, 1))
        if torsion_class == frozenset({GroupElement(0, 1)}):
            inner = DISCRETE
        elif torsion_class == frozenset({GroupElement(0, 1), GroupElement(0, 2)}):
            inner = TRIVIAL
        else:
            raise Unclassifiable("torsion classes match no Schur ring over Z_3")
        return FamilyDescriptor("wedge", tower_step=0, inner=inner, outer=mode)

    if degenerate == 1:
        k_max = class_stabilizer(P)
        gens = canonical_generators(k_max)
        if not gens:
            return FamilyDescriptor("full", symmetric=False)
        if len(k_max) == 2 and gens[0] == Automorphism.inversion(G):
            return FamilyDescriptor("full", symmetric=True)
        return FamilyDescriptor("orbit", generators=gens)

    for k in range(1, P.window + 1):
        if k % degenerate and P.class_of(GroupElement(k, 0)) != _full_preimage(P, k, mode):
            raise Unclassifiable(
                f"level {k} degenerates outside the tower of step {degenerate}"
            )
    middle = Subgroup.free_power_with_torsion(G, degenerate)
    if not is_ssubgroup(P, middle):
        raise Unclassifiable(f"the middle subgroup {middle} is split by a class")
    inner = _classify_core(restrict(P, middle))
    return FamilyDescriptor("wedge", tower_step=degenerate, inner=inner, outer=mode)


def classify(P: SchurPresentation) -> FamilyDescriptor:
    """Identify the family of a verified presentation over Z x Z_3.

    Returns a descriptor whose re-synthesis reproduces P class-for-class on
    the window, raising Unclassifiable otherwise (which, for genuinely
    verified inputs, the structure theorem rules out).  Windows below 3 are
    rejected; 12 is the recommended minimum for full-confidence answers.
    """
    _require_group(P)
    if P.window < MIN_CLASSIFY_WINDOW:
        raise WindowTooSmall(
            f"window {P.window} < {MIN_CLASSIFY_WINDOW}; classification needs to see the classes of z, z^2, z^3"
        )
    projection_type(P)  # validates torsion + dichotomy guards
    ok, msg = class_shape_holds(P)
    if not ok:
        raise Unclassifiable(f"class-shape dichotomy fails: {msg}")
    descriptor = replace(_classify_core(P), confidence_window=P.window)
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
        if d.tower_step == 0:
            return standard_wedge(G, 0, d.inner, d.outer, window)
        inner = resynthesize(d.inner, window // d.tower_step)
        middle = Subgroup.free_power_with_torsion(G, d.tower_step)
        outer_group = GroupDescriptor(0, 1)
        outer = (
            symmetric(outer_group, window)
            if d.outer == SYMMETRIC
            else discrete(outer_group, window)
        )
        return wedge(WedgeSpec(middle, Subgroup.torsion(G), inner, outer), window)
    raise ValueError(f"unknown variant {d.variant!r}")

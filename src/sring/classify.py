"""Family classification of verified windowed presentations over Z x Z_3.

The classifier walks the case tree of the structure theorem in one pass.  The
shadows of the classes (their images modulo torsion) give the projection,
discrete or symmetric.  The first level d whose class is not a union of
torsion cosets then picks one of three cases: none, a wedge over the torsion
subgroup; d == 1, a full or orbit ring, read off the automorphisms that fix
every class; d > 1, a wedge with middle subgroup <z^d> x <a> around a full or
orbit ring.  The answer is a :class:`~sring.constructions.Recipe`, validated
by re-synthesis: :func:`~sring.constructions.build` must reproduce the input
class-for-class on its window.  A family descriptor is the recipe in words
(:func:`describe_recipe`) or in JSON (:func:`recipe_to_json`).
"""

from __future__ import annotations

from .constructions import Recipe, build, standard_part, torsion_tower
from .errors import Unclassifiable, UnrecognizedQuotient
from .automorphisms import Automorphism, canonical_generators, class_stabilizer
from .groups import GroupElement
from .lemmas import restrict, torsion_is_ssubgroup
from .schur import Z_CROSS_Z3, SchurPresentation, check_partition, is_ssubgroup, shadow
from .subgroups import QuotientMap

DISCRETE = "discrete"
SYMMETRIC = "symmetric"
TRIVIAL = "trivial"


def _require_group(P: SchurPresentation) -> None:
    if P.group != Z_CROSS_Z3:
        raise ValueError(f"classification is defined over Z x Z_3, got {P.group}")


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


def _orbit_family(P: SchurPresentation) -> Recipe:
    """The full or orbit ring whose automorphisms fix every class of P."""
    return Recipe("orbit", generators=canonical_generators(class_stabilizer(P)))


def _classify_core(P: SchurPresentation, mode: str) -> Recipe:
    """The three cases of the structure theorem, told apart by the first level
    d whose class is not full (not a union of torsion cosets).

    No such d: a wedge over the torsion subgroup.  d == 1: a full or orbit
    ring.  d > 1: every level off the multiples of d is full, and P is a wedge
    with middle subgroup <z^d> x <a>.  Level 1 of the inner ring there is
    level d of P, so the inner ring is a full or orbit ring in turn.
    """
    partial = [k for k in range(1, P.window + 1) if not _is_full(P.class_of(GroupElement(k, 0)))]
    d = partial[0] if partial else 0
    if d == 1:
        return _orbit_family(P)
    K, H = torsion_tower(P.group, d)
    if not d:
        torsion_class = P.class_of(GroupElement(0, 1))
        if torsion_class == frozenset({GroupElement(0, 1)}):
            kind = DISCRETE
        elif torsion_class == frozenset({GroupElement(0, 1), GroupElement(0, 2)}):
            kind = TRIVIAL
        else:
            raise Unclassifiable("torsion classes match no Schur ring over Z_3")
        inner = standard_part(kind, H.as_group()[0], "inner")
    else:
        stray = next((k for k in partial if k % d), None)
        if stray is not None:
            raise Unclassifiable(f"level {stray} degenerates outside the tower of step {d}")
        if not is_ssubgroup(P, H):
            raise Unclassifiable(f"the middle subgroup {H} is split by a class")
        inner = _orbit_family(restrict(P, H))
    outer = standard_part(mode, QuotientMap(P.group, K).descriptor, "outer")
    return Recipe("wedge", subgroups=(K, H), parts=(inner, outer))


def classify(P: SchurPresentation) -> Recipe:
    """Identify the family of a verified presentation over Z x Z_3.

    Returns the recipe whose re-synthesis reproduces P class-for-class on the
    window, raising Unclassifiable otherwise (which, for genuinely verified
    inputs, the structure theorem rules out): an orbit recipe, with no
    generators for the full ring, or a wedge over the torsion subgroup.  A
    partition with a gap or an overlap raises MalformedPartition.  Re-synthesis
    certifies the answer at every window; a small window costs uniqueness
    only: a torsion wedge (every level full) shares its window with 1, 3, 3 or
    4 wedges of step window + 1.
    """
    check_partition(P)
    _require_group(P)
    recipe = _classify_core(P, projection_type(P))
    if resynthesize(recipe, P.window).classes != P.classes:
        raise Unclassifiable(
            f"descriptor {describe_recipe(recipe)} does not reproduce the presentation"
        )
    return recipe


def resynthesize(recipe: Recipe, window: int) -> SchurPresentation:
    """Rebuild the presentation a recipe over Z x Z_3 denotes, at the given window."""
    return build(Z_CROSS_Z3, recipe, window)


# -- family descriptors: a recipe over Z x Z_3 in words and in JSON -------------


def _is_symmetric(recipe: Recipe) -> bool:
    """Whether an orbit recipe is the inversion alone, the symmetric full ring."""
    gens = recipe.generators
    return len(gens) == 1 and gens[0] == Automorphism.inversion(gens[0].group)


def _kind_name(part: Recipe) -> str:
    """The kind that names a part of a wedge, as :func:`standard_part` reads it."""
    if part.kind == "trivial":
        return TRIVIAL
    if part.kind == "orbit" and not part.generators:
        return DISCRETE
    if part.kind == "orbit" and _is_symmetric(part):
        return SYMMETRIC
    raise ValueError(f"a {part.kind!r} part has no kind name")


def _wedge_step(recipe: Recipe) -> int:
    """The step of a wedge over the torsion kernel of Z x Z_3; ValueError for
    a recipe that is no such wedge (nor a full or orbit ring)."""
    if recipe.kind == "wedge":
        K, H = recipe.subgroups
        if H.group.is_infinite and (K, H) == torsion_tower(H.group, H.free_step):
            return H.free_step
    raise ValueError(f"a {recipe.kind!r} recipe is no family over Z x Z_3")


def describe_recipe(recipe: Recipe) -> str:
    """One line naming the family of a recipe over Z x Z_3."""
    if recipe.kind == "orbit":
        if not recipe.generators:
            return "full group ring"
        if _is_symmetric(recipe):
            return "full group ring (symmetric)"
        names = ", ".join(phi.name() or str(phi) for phi in recipe.generators)
        return f"orbit ring <{names}>"
    step, (inner, outer) = _wedge_step(recipe), recipe.parts
    inner_text = describe_recipe(inner) if step else _kind_name(inner)
    return f"wedge step {step}: [{inner_text}] over [{_kind_name(outer)}]"


def recipe_to_json(recipe: Recipe, window: int) -> dict:
    """The family descriptor of a recipe over Z x Z_3, certified on ``window``;
    a nested inner ring is written with window 0."""
    gens = recipe.generators
    if recipe.kind == "orbit" and (not gens or _is_symmetric(recipe)):
        return {"variant": "full", "window": window, "symmetric": bool(gens)}
    if recipe.kind == "orbit":
        return {"variant": "orbit", "window": window, "generators": [phi.to_json() for phi in gens]}
    step, (inner, outer) = _wedge_step(recipe), recipe.parts
    return {
        "variant": "wedge",
        "window": window,
        "tower": {"K": 0, "H": step},
        "inner": recipe_to_json(inner, 0) if step else _kind_name(inner),
        "outer": _kind_name(outer),
    }

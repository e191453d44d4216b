"""Readers of the package's text and JSON forms that no command calls.

The tests read an element's text form (:func:`sring.format_element`) and a
family descriptor (:func:`sring.recipe_to_json`) back through these, to pin
both forms by round trip.
"""

import re

from sring import Automorphism, GroupDescriptor, GroupElement, IncompatibleWedge, Recipe
from sring.automorphisms import automorphism_from_json
from sring.classify import DISCRETE
from sring.constructions import standard_part, torsion_tower
from sring.groups import json_field, json_value
from sring.schur import Z_CROSS_Z3
from sring.subgroups import QuotientMap

_ELEMENT_RE = re.compile(
    r"^\s*(?:(?P<one>1)|(?P<z>z(?:\^(?P<zk>-?\d+))?)?\*?(?P<a>a(?:\^(?P<ak>-?\d+))?)?)\s*$"
)


def parse_element(text: str, group: GroupDescriptor | None = None) -> GroupElement:
    """Parse the text form produced by :func:`sring.format_element`.

    The separating "*" is optional, so "z^5a^2" is accepted too.
    """
    match = _ELEMENT_RE.match(text)
    if not match or (not match.group("one") and not match.group("z") and not match.group("a")):
        raise ValueError(f"not a group element: {text!r}")
    if match.group("one"):
        z_exp = a_exp = 0
    else:
        z_exp = 0
        if match.group("z"):
            z_exp = int(match.group("zk")) if match.group("zk") is not None else 1
        a_exp = 0
        if match.group("a"):
            a_exp = int(match.group("ak")) if match.group("ak") is not None else 1
    g = GroupElement(z_exp, a_exp)
    return group.element(*g) if group is not None else g


def recipe_from_json(data) -> Recipe:
    """Read :func:`sring.recipe_to_json` output as a recipe over Z x Z_3;
    ValueError on any other shape.

    The window is checked but not kept.  A wedge's inner ring is a kind
    ("discrete" or "trivial") over the torsion subgroup at step 0, and a kind
    ("discrete" or "symmetric") or a nested descriptor at a step of 2 or more,
    over the middle subgroup <z^step> x <a>, which is Z x Z_3 again.
    """
    G = Z_CROSS_Z3
    data = json_value(data, dict, "family descriptor")
    variant = json_field(data, "variant", str)
    json_field(data, "window", int, 0)
    if variant == "full":
        symmetric = json_field(data, "symmetric", bool, False)
        return Recipe("orbit", generators=(Automorphism.inversion(G),) if symmetric else ())
    if variant == "orbit":
        gens = json_field(data, "generators", list, [])
        return Recipe("orbit", generators=tuple(automorphism_from_json(g, G) for g in gens))
    if variant == "wedge":
        tower = json_field(data, "tower", dict, {})
        if json_field(tower, "K", int, 0) != 0:
            raise ValueError(f"tower K must be 0, the torsion subgroup, got {tower['K']}")
        step = json_field(tower, "H", int, 0)
        K, H = torsion_tower(G, step)
        h_desc = H.as_group()[0]
        inner = data.get("inner")
        if isinstance(inner, dict):
            if not step:  # the middle subgroup is the torsion subgroup
                raise IncompatibleWedge(f"inner presentation is over {G}, expected {h_desc}")
            inner = recipe_from_json(inner)
        else:
            inner = standard_part(json_field(data, "inner", str), h_desc, "inner")
        outer = json_field(data, "outer", str, DISCRETE)
        outer = standard_part(outer, QuotientMap(G, K).descriptor, "outer")
        return Recipe("wedge", subgroups=(K, H), parts=(inner, outer))
    raise ValueError(f"unknown variant {variant!r}")

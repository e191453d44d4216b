"""Automorphisms of Z x Z_m and Z_n x Z_m, their groups, and their orbits.

An :class:`Automorphism` is the map z -> a^twist z^unit, a -> a^torsion_unit.
Finite sets of them are closed under composition (:func:`close_automorphisms`)
and named by their least generating set (:func:`canonical_generators`); the
orbits of a group of them are the classes of an orbit ring (:func:`orbit`).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import TYPE_CHECKING, Iterable

from .errors import InvalidAutomorphism
from .groups import (
    GroupDescriptor, GroupElement, Record, _setattr, json_field, json_int_pair, json_value,
)

if TYPE_CHECKING:
    from .schur import SchurPresentation


def _units(n: int) -> list[int]:
    return [u for u in range(n) if gcd(u, n) == 1]


class Automorphism(Record):
    """Automorphism of the form z -> a^twist * z^unit, a -> a^torsion_unit.

    This parametric family is the whole automorphism group for the infinite
    group and for coprime n and m (see :func:`all_automorphisms`); otherwise
    it misses the automorphisms that send a outside <a>.  The validator
    rejects parameters that do not extend to a bijective homomorphism.
    """

    # twist: exponent j in z -> a^j z^e; unit: e, +1/-1 for an infinite free
    # part, else a unit mod n; torsion_unit: u in a -> a^u, coprime to m
    __slots__ = ("group", "twist", "unit", "torsion_unit")

    def __init__(self, group: GroupDescriptor, twist: int, unit: int, torsion_unit: int) -> None:
        n, m = group.free_order, group.torsion_order
        twist %= m
        torsion_unit %= m
        if gcd(torsion_unit, m) != 1:
            raise InvalidAutomorphism(f"a -> a^{torsion_unit} is not bijective mod {m}")
        if n == 0:
            if unit not in (1, -1):
                raise InvalidAutomorphism("infinite free part needs z -> a^j z^(+-1)")
        else:
            unit %= n
            if gcd(unit, n) != 1:
                raise InvalidAutomorphism(f"z -> z^{unit} is not bijective mod {n}")
            if (twist * n) % m:
                raise InvalidAutomorphism("image of z would violate z^n = 1")
        _setattr(self, "group", group)
        _setattr(self, "twist", twist)
        _setattr(self, "unit", unit)
        _setattr(self, "torsion_unit", torsion_unit)

    def apply(self, g: GroupElement) -> GroupElement:
        return self.group.element(
            self.unit * g.z_exp,
            self.twist * g.z_exp + self.torsion_unit * g.a_exp,
        )

    def apply_set(self, elems: Iterable[GroupElement]) -> frozenset[GroupElement]:
        return frozenset(self.apply(g) for g in elems)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        if self.group != other.group:
            raise InvalidAutomorphism("automorphisms live on different groups")
        return Automorphism(
            self.group,
            self.torsion_unit * other.twist + self.twist * other.unit,
            self.unit * other.unit,
            self.torsion_unit * other.torsion_unit,
        )

    def inverse(self) -> "Automorphism":
        G = self.group
        n, m = G.free_order, G.torsion_order
        e_inv = self.unit if n == 0 else pow(self.unit, -1, n)
        u_inv = pow(self.torsion_unit, -1, m)
        j_inv = (-self.twist * e_inv * u_inv) % m
        return Automorphism(G, j_inv, e_inv, u_inv)

    def is_identity(self) -> bool:
        return self == Automorphism.identity(self.group)

    @classmethod
    def identity(cls, group: GroupDescriptor) -> "Automorphism":
        return cls(group, 0, 1, 1)

    @classmethod
    def inversion(cls, group: GroupDescriptor) -> "Automorphism":
        """The map g -> g^-1."""
        return cls(group, 0, -1, -1)

    def name(self) -> str | None:
        """Canonical alias for one of the named maps, if any.

        Aliases are reserved for the infinite group with torsion order 3,
        where the named maps live.
        """
        if self.group != GroupDescriptor(0, 3):
            return None
        for alias, params in _NAMED_PARAMS.items():
            if (self.twist, self.unit, self.torsion_unit) == params:
                return alias
        return None

    def to_json(self):
        alias = self.name()
        if alias:
            return alias
        return {"z": [self.twist, self.unit], "a": self.torsion_unit}

    def __str__(self) -> str:
        alias = self.name()
        base = f"z->a^{self.twist}z^{self.unit}, a->a^{self.torsion_unit}"
        return f"{alias} ({base})" if alias else base


# The five maps named in the classification, plus the two plain inversions.
_NAMED_PARAMS: dict[str, tuple[int, int, int]] = {
    "psi": (1, 1, 2),     # z -> a z,       a -> a^2
    "delta": (2, 1, 2),   # z -> a^2 z,     a -> a^2
    "xi": (0, -1, 2),     # z -> z^-1,      a -> a^2   (full inversion g -> g^-1)
    "rho": (1, -1, 1),    # z -> a z^-1,    a -> a
    "sigma": (2, -1, 1),  # z -> a^2 z^-1,  a -> a
    "zeta": (0, -1, 1),   # z -> z^-1,      a -> a
    "tau": (0, 1, 2),     # z -> z,         a -> a^2
}

NAMED_AUTOMORPHISM_ORDER = tuple(_NAMED_PARAMS)


def named_automorphism(name: str, group: GroupDescriptor) -> Automorphism:
    """Look up one of psi/delta/xi/rho/sigma/zeta/tau on the given group."""
    try:
        j, e, u = _NAMED_PARAMS[name]
    except KeyError:
        raise KeyError(f"unknown automorphism alias {name!r}") from None
    return Automorphism(group, j, e, u)


def automorphism_from_json(data, group: GroupDescriptor) -> Automorphism:
    """An alias such as "psi", or ``{"z": [j, e], "a": u}`` for z -> a^j z^e, a -> a^u."""
    if isinstance(data, str):
        return named_automorphism(data, group)
    data = json_value(data, dict, "automorphism")
    j, e = json_int_pair(json_field(data, "z", list), "field 'z'")
    return Automorphism(group, j, e, json_field(data, "a", int))


def automorphism_sort_key(phi: Automorphism) -> tuple:
    """Named maps first (in their canonical order), then by parameters."""
    alias = phi.name()
    if alias is not None:
        return (0, NAMED_AUTOMORPHISM_ORDER.index(alias))
    return (1, phi.twist, phi.unit, phi.torsion_unit)


def all_automorphisms(group: GroupDescriptor) -> list[Automorphism]:
    """Every automorphism of the supported parametric form, canonically ordered.

    Complete for the infinite group and for finite groups with coprime factor
    orders; for non-coprime finite products the parametric family is a proper
    subgroup of Aut(G).
    """
    n, m = group.free_order, group.torsion_order
    units_free = (1, -1) if n == 0 else tuple(_units(n))
    result = []
    for e in units_free:
        for j in range(m):
            if n and (j * n) % m:
                continue
            for u in _units(m):
                result.append(Automorphism(group, j, e, u))
    return sorted(result, key=automorphism_sort_key)


def _closure(start, step, gens: list) -> frozenset:
    """Everything reached from ``start`` by repeated ``step(gen, x)``, breadth first.

    Callers close only over finite sets: a group of automorphisms, or an orbit,
    which never leaves the level z^(+-k) it starts in.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = step(gen, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def close_automorphisms(gens: Iterable[Automorphism]) -> frozenset[Automorphism]:
    """Closure of a generating set under composition.

    Always finite: the family has 2*m*phi(m) maps over Z x Z_m and at most
    |G|*phi(m) over a finite group.
    """
    gens = list(gens)
    if not gens:
        return frozenset()
    identity = Automorphism.identity(gens[0].group)
    return _closure(identity, Automorphism.compose, gens)


def canonical_generators(members: Iterable[Automorphism]) -> tuple[Automorphism, ...]:
    """The least generating set of a group of automorphisms.

    Candidates are the non-identity members in sort-key order, tried by size
    and then lexicographically; the identity group gives ().
    """
    target = frozenset(members)
    nonid = sorted((phi for phi in target if not phi.is_identity()), key=automorphism_sort_key)
    for size in range(1, len(nonid) + 1):
        for combo in combinations(nonid, size):
            if close_automorphisms(combo) == target:
                return combo
    if nonid:
        raise ValueError("the automorphisms do not form a group")
    return ()


def orbit(gens: Iterable[Automorphism], g: GroupElement) -> frozenset[GroupElement]:
    """The orbit of g under the group generated by gens.

    Every automorphism sends z^k a^i to some z^(+-k) a^i', so the orbit lies in
    the levels +-k of g and has at most 2m elements (at most |G| for a finite
    group).  Every generator has finite order, so closing under the generators
    alone already yields the group orbit.
    """
    return _closure(g, Automorphism.apply, list(gens))


def class_stabilizer(P: SchurPresentation) -> list[Automorphism]:
    """The supported automorphisms that map every class of P onto itself."""
    return [
        phi
        for phi in all_automorphisms(P.group)
        if all(phi.apply_set(c) == c for c in P.classes)
    ]

"""Elements, subgroups and automorphisms of Z x Z_m and Z_n x Z_m.

The group is a direct product of a cyclic "free" factor <z> (infinite or of
order n) and a cyclic torsion factor <a> of order m.  Elements are stored as
reduced exponent pairs, so equality is structural.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import gcd
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import InfiniteGroup, InvalidAutomorphism


class GroupElement(NamedTuple):
    """Exponent pair z^z_exp * a^a_exp; the identity is (0, 0)."""

    z_exp: int
    a_exp: int

    def __str__(self) -> str:
        return format_element(self)


IDENTITY = GroupElement(0, 0)

_setattr = object.__setattr__  # how a record's __init__ sets its fields


class Record:
    """An immutable record whose fields are its ``__slots__``, in order.

    Equality (same class, equal fields), hash (of the field tuple) and repr
    (``Name(field=value, ...)``) are those of a frozen dataclass.  A
    subclass's ``__init__`` sets each field once with ``_setattr``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)  # instance -> tuple of fields

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields(self))
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, which takes the fields
        return type(self), self._fields(self)


class GroupDescriptor(Record):
    """Direct product of a cyclic free factor and a cyclic torsion factor.

    ``free_order == 0`` encodes the infinite cyclic factor; ``free_order == n``
    with n >= 1 gives Z_n.  ``torsion_order`` is the order m >= 1 of <a>.
    """

    __slots__ = ("free_order", "torsion_order")

    def __init__(self, free_order: int = 0, torsion_order: int = 1) -> None:
        if free_order < 0:
            raise ValueError("free_order must be 0 (infinite) or >= 1")
        if torsion_order < 1:
            raise ValueError("torsion_order must be >= 1")
        _setattr(self, "free_order", free_order)
        _setattr(self, "torsion_order", torsion_order)

    def __str__(self) -> str:
        """The name that the CLI's ``parse_group`` reads: Z, ZxZ3, Z12 (Z_1 x Z_12), Z2xZ6."""
        n, m = self.free_order, self.torsion_order
        return f"Z{m}" if n == 1 else "Z" if (n, m) == (0, 1) else f"Z{n or ''}xZ{m}"

    @property
    def is_infinite(self) -> bool:
        return self.free_order == 0

    @property
    def order(self) -> int | None:
        """Group order, or None for the infinite group."""
        if self.is_infinite:
            return None
        return self.free_order * self.torsion_order

    # -- element arithmetic ------------------------------------------------

    def element(self, z_exp: int, a_exp: int) -> GroupElement:
        """Build the reduced element z^z_exp * a^a_exp."""
        if self.free_order:
            z_exp %= self.free_order
        return GroupElement(z_exp, a_exp % self.torsion_order)

    def reduce(self, g: GroupElement) -> GroupElement:
        return self.element(*g)

    @property
    def identity(self) -> GroupElement:
        return IDENTITY

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self.element(g.z_exp + h.z_exp, g.a_exp + h.a_exp)

    def inverse(self, g: GroupElement) -> GroupElement:
        return self.element(-g.z_exp, -g.a_exp)

    def pow(self, g: GroupElement, k: int) -> GroupElement:
        return self.element(g.z_exp * k, g.a_exp * k)

    # -- enumeration -------------------------------------------------------

    def elements(self) -> Iterator[GroupElement]:
        """All elements of a finite group in canonical order."""
        if self.is_infinite:
            raise InfiniteGroup("cannot enumerate an infinite group")
        for z in range(self.free_order):
            for a in range(self.torsion_order):
                yield GroupElement(z, a)

    def window_elements(self, window: int) -> Iterator[GroupElement]:
        """Elements with |z_exp| <= window (all elements for a finite group)."""
        if not self.is_infinite:
            yield from self.elements()
            return
        for z in range(-window, window + 1):
            for a in range(self.torsion_order):
                yield GroupElement(z, a)

    def coset_of_torsion(self, z_exp: int) -> frozenset[GroupElement]:
        """The full torsion coset z^z_exp * <a>."""
        return frozenset(self.element(z_exp, a) for a in range(self.torsion_order))

    def to_json(self) -> dict:
        return {
            "free": "Z" if self.is_infinite else self.free_order,
            "torsion": self.torsion_order,
        }

    @classmethod
    def from_json(cls, data) -> "GroupDescriptor":
        data = json_value(data, dict, "group")
        if data.get("free") == "Z":
            free = 0
        elif (free := json_field(data, "free", int)) < 1:  # 0 encodes Z, which is written "Z"
            raise ValueError(f'free order must be positive, got {free} (write "Z" for Z x Z_m)')
        return cls(free, json_field(data, "torsion", int))


# -- JSON input: shapes are checked, nothing is coerced -----------------------

_JSON_KINDS = {
    dict: "an object", list: "an array", int: "an integer", str: "a string", bool: "a boolean",
}
_REQUIRED = object()


def _is_json(value, kind: type) -> bool:
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def json_value(value, kind: type, what: str):
    """``value`` if it has JSON type ``kind``; an integer is never a bool, 1.0 or "1"."""
    if not _is_json(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def json_field(data: dict, key: str, kind: type, default=_REQUIRED):
    """Field ``key`` of ``data`` checked by :func:`json_value`, or ``default`` if absent."""
    if key in data:
        return json_value(data[key], kind, f"field {key!r}")
    if default is _REQUIRED:
        raise ValueError(f"missing field {key!r}")
    return default


def json_int_pair(value, what: str) -> tuple[int, int]:
    """``value`` if it is ``[x, y]`` with two JSON integers, as the pair (x, y)."""
    if not (_is_json(value, list) and len(value) == 2 and all(_is_json(x, int) for x in value)):
        raise ValueError(f"{what} must be a pair of integers, got {value!r:.40}")
    return value[0], value[1]


# -- text form --------------------------------------------------------------

_ELEMENT_RE = re.compile(
    r"^\s*(?:(?P<one>1)|(?P<z>z(?:\^(?P<zk>-?\d+))?)?\*?(?P<a>a(?:\^(?P<ak>-?\d+))?)?)\s*$"
)


def format_element(g: GroupElement) -> str:
    """Render an element as e.g. "z^3*a^2"; unit factors are omitted."""
    parts = []
    if g.z_exp:
        parts.append("z" if g.z_exp == 1 else f"z^{g.z_exp}")
    if g.a_exp:
        parts.append("a" if g.a_exp == 1 else f"a^{g.a_exp}")
    return "*".join(parts) if parts else "1"


def parse_element(text: str, group: GroupDescriptor | None = None) -> GroupElement:
    """Parse the text form produced by :func:`format_element`.

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
    return group.reduce(g) if group is not None else g


# -- automorphisms -----------------------------------------------------------


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


# -- subgroups ----------------------------------------------------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _times(x, M) -> tuple[int, int]:
    """The row vector x times the 2x2 matrix M."""
    return x[0] * M[0][0] + x[1] * M[1][0], x[0] * M[0][1] + x[1] * M[1][1]


def _diagonal_coords(p: int, q: int, r: int) -> tuple[int, int, tuple, tuple]:
    """Coordinates on Z^2 / L, where L is the row lattice of [[p, q], [0, r]].

    Returns (free_order, torsion_order, V, V_inv) with V unimodular, such that
    x -> x*V (first entry mod free_order, second mod torsion_order) maps
    Z^2 / L isomorphically onto Z_free_order x Z_torsion_order, and
    y -> y*V_inv maps back to a representative.  An order 0 is infinite.
    For q == 0 this is (p, r) with V = I; otherwise it is the Smith normal
    form, with the larger invariant factor (0 counting as the largest) as
    the free order.
    """
    identity = ((1, 0), (0, 1))
    if q == 0:
        return p, r, identity, identity
    A, V, V_inv = ((p, q), (0, r)), identity, identity
    while A[0][1] or A[1][0] or A[1][1] % A[0][0]:
        if A[0][1]:  # column operations: first row -> (gcd, 0)
            g, x, y = _ext_gcd(*A[0])
            s, t = A[0][0] // g, A[0][1] // g
            C, C_inv = ((x, -t), (y, s)), ((s, t), (-y, x))
            A, V = tuple(_times(row, C) for row in A), tuple(_times(row, C) for row in V)
            V_inv = tuple(_times(row, V_inv) for row in C_inv)
        elif A[1][0]:  # row operations: first column -> (gcd, 0)
            g, x, y = _ext_gcd(A[0][0], A[1][0])
            s, t = A[0][0] // g, A[1][0] // g
            A = ((g, x * A[0][1] + y * A[1][1]), (0, s * A[1][1] - t * A[0][1]))
        else:  # diagonal, but A00 does not divide A11: add the second row to the first
            A = ((A[0][0], A[1][1]), A[1])
    sign = -1 if A[1][1] < 0 else 1
    V = tuple((row[1] * sign, row[0]) for row in V)
    V_inv = ((V_inv[1][0] * sign, V_inv[1][1] * sign), V_inv[0])
    return abs(A[1][1]), A[0][0], V, V_inv


class Subgroup(Record):
    """Subgroup in Hermite-style normal form.

    Generated by z^free_step * a^twist together with a^torsion_step.  For the
    infinite group free_step == 0 means "no free part"; for a finite free
    factor of order n the trivial free part is encoded as free_step == n.
    torsion_step is a divisor d of m, giving the torsion part <a^d>
    (d == m means trivial).  Canonically 0 <= twist < torsion_step, and
    twist == 0 whenever the free part is trivial.

    This normal form covers every subgroup of the supported groups, including
    "twisted" ones such as <az> that the plain <z^h> x <a^d> shape misses.
    """

    __slots__ = ("group", "free_step", "twist", "torsion_step")

    def __init__(
        self, group: GroupDescriptor, free_step: int, twist: int, torsion_step: int
    ) -> None:
        n, m = group.free_order, group.torsion_order
        d, h, c = torsion_step, free_step, twist
        if d < 1 or m % d:
            raise ValueError("torsion_step must divide the torsion order")
        if n == 0:
            if h < 0:
                raise ValueError("free_step must be >= 0")
        else:
            if h < 1 or n % h:
                raise ValueError("free_step must divide the free order")
        if not 0 <= c < d:
            raise ValueError("twist must satisfy 0 <= twist < torsion_step")
        if h == n and c:  # h == n is the trivial free part, for Z (n = 0) and Z_n alike
            raise ValueError("twist must be 0 when the free part is trivial")
        if n and h != n and ((n // h) * c) % d:
            raise ValueError("twist incompatible with the free-part wrap-around")
        _setattr(self, "group", group)
        _setattr(self, "free_step", free_step)
        _setattr(self, "twist", twist)
        _setattr(self, "torsion_step", torsion_step)

    # -- constructors --------------------------------------------------------

    @classmethod
    def generated_by(
        cls, group: GroupDescriptor, elems: Iterable[GroupElement]
    ) -> "Subgroup":
        """The subgroup generated by the given elements."""
        n, m = group.free_order, group.torsion_order
        gens = [group.reduce(g) for g in elems]
        if n:
            gens.append(GroupElement(n, 0))  # wrap-around relation of the free factor
        h, c_h = 0, 0
        for k, i in gens:
            if k == 0:
                continue
            g, x, y = _ext_gcd(h, k)
            c_h = (x * c_h + y * i) % m
            h = g
        torsion_residues = [m]
        for k, i in gens:
            if h:
                torsion_residues.append((i - (k // h) * c_h) % m)
            elif k == 0:
                torsion_residues.append(i % m)
        d = 0
        for t in torsion_residues:
            d = gcd(d, t)
        d = d or m
        if n and h == 0:
            h = n
        trivial_free = (h == 0) if n == 0 else (h == n)
        c = 0 if trivial_free or d == 1 else c_h % d
        return cls(group, h, c, d)

    @classmethod
    def trivial(cls, group: GroupDescriptor) -> "Subgroup":
        return cls.generated_by(group, [])

    @classmethod
    def torsion(cls, group: GroupDescriptor) -> "Subgroup":
        """T(G) for the infinite group; the <a>-factor in general."""
        return cls.generated_by(group, [GroupElement(0, 1)])

    @classmethod
    def full(cls, group: GroupDescriptor) -> "Subgroup":
        return cls.generated_by(group, [GroupElement(1, 0), GroupElement(0, 1)])

    @classmethod
    def free_power(cls, group: GroupDescriptor, h: int) -> "Subgroup":
        """<z^h>, without torsion."""
        return cls.generated_by(group, [GroupElement(h, 0)])

    @classmethod
    def free_power_with_torsion(cls, group: GroupDescriptor, h: int) -> "Subgroup":
        """<z^h> x <a>."""
        return cls.generated_by(group, [GroupElement(h, 0), GroupElement(0, 1)])

    # -- structure -------------------------------------------------------------

    @property
    def _free_trivial(self) -> bool:
        n = self.group.free_order
        return self.free_step == 0 if n == 0 else self.free_step == n

    @property
    def torsion_included(self) -> bool:
        return self.torsion_step == 1

    @property
    def z_index(self) -> int:
        """The spec's h: 0 for a trivial free part, else the step of <z^h>."""
        return 0 if self._free_trivial else self.free_step

    @property
    def is_trivial(self) -> bool:
        return self._free_trivial and self.torsion_step == self.group.torsion_order

    @property
    def is_full(self) -> bool:
        full_free = self.free_step == 1 or self.group.free_order == 1
        return full_free and self.torsion_included and self.twist == 0

    @property
    def order(self) -> int | None:
        """Subgroup order, or None when infinite."""
        n, m = self.group.free_order, self.group.torsion_order
        torsion_count = m // self.torsion_step
        if self._free_trivial:
            return torsion_count
        if n == 0:
            return None
        return (n // self.free_step) * torsion_count

    def generators(self) -> list[GroupElement]:
        gens = []
        if not self._free_trivial:
            gens.append(self.group.element(self.free_step, self.twist))
        if self.torsion_step != self.group.torsion_order:
            gens.append(self.group.element(0, self.torsion_step))
        return gens

    def contains(self, g: GroupElement) -> bool:
        g = self.group.reduce(g)
        k, i = g
        if self._free_trivial:
            if k != 0:
                return False
            t = 0
        else:
            if k % self.free_step:
                return False
            t = k // self.free_step
        return (i - t * self.twist) % self.torsion_step == 0

    def __contains__(self, g: GroupElement) -> bool:
        return self.contains(g)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(self.contains(g) for g in other.generators())

    def elements(self) -> Iterator[GroupElement]:
        """All elements of a finite subgroup, in canonical order."""
        if self.order is None:
            raise InfiniteGroup("cannot enumerate an infinite subgroup")
        n, m = self.group.free_order, self.group.torsion_order
        free_count = 1 if self._free_trivial else n // self.free_step
        out = []
        for t in range(free_count):
            for j in range(m // self.torsion_step):
                out.append(
                    self.group.element(
                        t * self.free_step if not self._free_trivial else 0,
                        t * self.twist + j * self.torsion_step,
                    )
                )
        yield from sorted(out)

    def window_elements(self, window: int) -> Iterator[GroupElement]:
        """Members with |z_exp| <= window."""
        if self.order is not None:
            yield from self.elements()
            return
        h = self.free_step
        m = self.group.torsion_order
        for t in range(-(window // h), window // h + 1):
            for j in range(m // self.torsion_step):
                yield self.group.element(t * h, t * self.twist + j * self.torsion_step)

    # -- the subgroup as a group in its own right ------------------------------

    def as_group(self) -> tuple[GroupDescriptor, "SubgroupCoords"]:
        """Descriptor for H itself plus the coordinate maps G <-> H.

        H is the image of (t, j) -> z^(t*free_step) * a^(t*twist + j*torsion_step);
        its relations are generated by (p, -e) and (0, m/torsion_step), where
        p is the order of the free generator modulo <a> (0 when infinite) and
        e*torsion_step = p*twist.
        """
        n, m = self.group.free_order, self.group.torsion_order
        p = 1 if self._free_trivial else (n // self.free_step if n else 0)
        r = m // self.torsion_step
        e = p * self.twist // self.torsion_step
        free, torsion, V, V_inv = _diagonal_coords(p, -e % r, r)
        desc = GroupDescriptor(free, torsion)
        return desc, SubgroupCoords(self, desc, V, V_inv)

    def to_json(self) -> dict:
        return {
            "free_step": self.free_step,
            "twist": self.twist,
            "torsion_step": self.torsion_step,
        }

    def __str__(self) -> str:
        gens = self.generators()
        if not gens:
            return "<1>"
        return "<" + ", ".join(format_element(g) for g in gens) + ">"


class SubgroupCoords:
    """Coordinate change between a subgroup and its standalone descriptor."""

    def __init__(self, sub: Subgroup, descriptor: GroupDescriptor, V, V_inv):
        self.sub = sub
        self.descriptor = descriptor
        self._V, self._V_inv = V, V_inv

    def to_sub(self, g: GroupElement) -> GroupElement:
        sub = self.sub
        G = sub.group
        g = G.reduce(g)
        if not sub.contains(g):
            raise ValueError(f"{format_element(g)} is not in {sub}")
        t = 0 if sub._free_trivial else g.z_exp // sub.free_step
        j = ((g.a_exp - t * sub.twist) % G.torsion_order) // sub.torsion_step
        return self.descriptor.element(*_times((t, j), self._V))

    def from_sub(self, g: GroupElement) -> GroupElement:
        sub = self.sub
        t, j = _times(g, self._V_inv)
        return sub.group.element(t * sub.free_step, t * sub.twist + j * sub.torsion_step)


def all_subgroups(group: GroupDescriptor) -> list[Subgroup]:
    """Every subgroup of a finite group Z_n x Z_m, listed by normal form.

    The normal forms (see :class:`Subgroup`) are free_step h | n, torsion_step
    d | m and twist 0 <= c < d, where c = 0 for the trivial free part h = n
    and otherwise (n/h)c = 0 mod d, so that z^n = 1 wraps around into <a^d>.
    Sorted by (order, free_step, torsion_step, twist).
    """
    if group.is_infinite:
        raise InfiniteGroup("cannot enumerate subgroups of an infinite group")
    n, m = group.free_order, group.torsion_order
    subgroups = [
        Subgroup(group, h, c, d)
        for h in range(1, n + 1)
        if n % h == 0
        for d in range(1, m + 1)
        if m % d == 0
        for c in range(d if h != n else 1)
        if (n // h) * c % d == 0
    ]
    return sorted(subgroups, key=lambda s: (s.order, s.free_step, s.torsion_step, s.twist))


class QuotientMap:
    """Projection G -> G/K with a section, in the coordinates that
    :func:`_diagonal_coords` gives for K's normal form [[h, c], [0, d]].
    """

    def __init__(self, group: GroupDescriptor, kernel: Subgroup):
        if kernel.group != group:
            raise ValueError("kernel lives in a different group")
        self.group = group
        self.kernel = kernel
        free, torsion, self._V, self._V_inv = _diagonal_coords(
            kernel.free_step, kernel.twist, kernel.torsion_step
        )
        self.descriptor = GroupDescriptor(free, torsion)

    def project(self, g: GroupElement) -> GroupElement:
        return self.descriptor.element(*_times(g, self._V))

    def section(self, q: GroupElement) -> GroupElement:
        """One preimage of a quotient element."""
        return self.group.element(*_times(self.descriptor.reduce(q), self._V_inv))

    def preimage(self, q: GroupElement) -> frozenset[GroupElement]:
        """The full coset over a quotient element (kernel must be finite)."""
        if self.kernel.order is None:
            raise InfiniteGroup("preimages of an infinite kernel are infinite")
        base = self.section(q)
        return frozenset(self.group.mul(base, k) for k in self.kernel.elements())

    def project_set(self, elems: Iterable[GroupElement]) -> frozenset[GroupElement]:
        return frozenset(self.project(g) for g in elems)

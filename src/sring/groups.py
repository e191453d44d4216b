"""Elements of Z x Z_m and Z_n x Z_m, their text form, and the JSON readers.

The group is a direct product of a cyclic "free" factor <z> (infinite or of
order n) and a cyclic torsion factor <a> of order m.  Elements are stored as
reduced exponent pairs, so equality is structural.

Automorphisms live in :mod:`sring.automorphisms` and subgroups and quotient
maps in :mod:`sring.subgroups`, so that a command which needs neither, such as
``verify``, does not load them.  The three of their names that the benchmark's
trace binds here still resolve here on first use.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from typing import Iterator, NamedTuple

from . import _Forwarding
from .errors import InfiniteGroup


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


def format_element(g: GroupElement) -> str:
    """Render an element as e.g. "z^3*a^2"; unit factors are omitted."""
    parts = []
    if g.z_exp:
        parts.append("z" if g.z_exp == 1 else f"z^{g.z_exp}")
    if g.a_exp:
        parts.append("a" if g.a_exp == 1 else f"a^{g.a_exp}")
    return "*".join(parts) if parts else "1"


# names that perfbench/layers.py traces here but that live elsewhere; see sring._Forwarding
_MOVED = {"close_automorphisms": "automorphisms", "orbit": "automorphisms",
          "all_subgroups": "subgroups"}
sys.modules[__name__].__class__ = _Forwarding

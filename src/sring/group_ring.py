"""Exact group-algebra arithmetic over the rationals.

Ring elements are finitely supported maps from group elements to Fraction
coefficients.  Everything is immutable and exact; there is no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidCoeffFn, ZeroElement
from .groups import GroupDescriptor, GroupElement, Record, _setattr, format_element
from .subgroups import Subgroup

Rational = int | Fraction


class RingElement:
    """An element sum(coeff_g * g) of the group algebra over the rationals."""

    __slots__ = ("group", "_terms", "_hash")

    def __init__(
        self,
        group: GroupDescriptor,
        terms: Mapping[GroupElement, Rational] | Iterable[tuple[GroupElement, Rational]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[GroupElement, Fraction] = {}
        for g, c in items:
            g = group.element(*g)
            c = Fraction(c)
            if g in acc:
                acc[g] += c
            else:
                acc[g] = c
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_terms", {g: c for g, c in acc.items() if c})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    # -- inspection ---------------------------------------------------------

    def terms(self) -> dict[GroupElement, Fraction]:
        return dict(self._terms)

    def coeff(self, g: GroupElement) -> Fraction:
        return self._terms.get(self.group.element(*g), Fraction(0))

    def support(self) -> frozenset[GroupElement]:
        return frozenset(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.group == other.group
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.group, tuple(sorted(self._terms.items()))))
            )
        return self._hash

    # -- linear structure -----------------------------------------------------

    def _check_group(self, other: "RingElement") -> None:
        if self.group != other.group:
            raise ValueError("ring elements live over different groups")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_group(other)
        acc = dict(self._terms)
        for g, c in other._terms.items():
            acc[g] = acc.get(g, Fraction(0)) + c
        return RingElement(self.group, acc)

    def __neg__(self) -> "RingElement":
        return RingElement(self.group, {g: -c for g, c in self._terms.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, c: Rational) -> "RingElement":
        c = Fraction(c)
        return RingElement(self.group, {g: c * v for g, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.convolve(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- ring structure ---------------------------------------------------------

    def convolve(self, other: "RingElement") -> "RingElement":
        """The group-algebra product."""
        self._check_group(other)
        G = self.group
        acc: dict[GroupElement, Fraction] = {}
        for g, cg in self._terms.items():
            for h, ch in other._terms.items():
                k = G.mul(g, h)
                c = cg * ch
                if k in acc:
                    acc[k] += c
                else:
                    acc[k] = c
        return RingElement(G, acc)

    def hadamard(self, other: "RingElement") -> "RingElement":
        """Coefficient-wise product."""
        self._check_group(other)
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        return RingElement(
            self.group,
            {g: c * big._terms[g] for g, c in small._terms.items() if g in big._terms},
        )

    def star(self) -> "RingElement":
        """Transport coefficients to inverse elements."""
        G = self.group
        return RingElement(G, {G.inverse(g): c for g, c in self._terms.items()})

    def frobenius(self, k: int) -> "RingElement":
        """Transport coefficients along g -> g^k; colliding images sum."""
        G = self.group
        return RingElement(G, [(G.pow(g, k), c) for g, c in self._terms.items()])

    def translate(self, g: GroupElement) -> "RingElement":
        """The product self * g for a single group element."""
        G = self.group
        return RingElement(G, {G.mul(h, g): c for h, c in self._terms.items()})

    def apply_coeff(self, fn: "CoeffFn") -> "RingElement":
        """Apply a coefficient function term-wise."""
        return RingElement(self.group, {g: fn(c) for g, c in self._terms.items()})

    def stabilizer(self) -> Subgroup:
        """The subgroup of g with self * g == self."""
        if not self:
            raise ZeroElement("the zero element is stabilized by everything")
        G = self.group
        if G.is_infinite:
            candidates = [G.element(0, i) for i in range(G.torsion_order)]
        else:
            candidates = list(G.elements())
        fixed = [g for g in candidates if self.translate(g) == self]
        return Subgroup.generated_by(G, fixed)

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for g in sorted(self._terms):
            c = self._terms[g]
            mono = format_element(g)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<RingElement {self}>"


def zero(group: GroupDescriptor) -> RingElement:
    return RingElement(group)


def one(group: GroupDescriptor) -> RingElement:
    return RingElement(group, {group.identity: 1})


def monomial(group: GroupDescriptor, g: GroupElement, c: Rational = 1) -> RingElement:
    return RingElement(group, {group.element(*g): c})


def simple_quantity(group: GroupDescriptor, elems: Iterable[GroupElement]) -> RingElement:
    """The formal sum of a finite set of group elements."""
    return RingElement(group, [(g, 1) for g in set(elems)])


class CoeffFn(Record):
    """A coefficient remap: finite exception table plus a default for nonzero.

    Zero always maps to zero, which the constructor enforces; this is the
    serializable shape of the coefficient functions the theory applies.
    """

    __slots__ = ("table", "default")

    def __init__(self, table: Iterable[tuple[Rational, Rational]] = (), default: Rational = 0):
        norm = tuple(sorted((Fraction(v), Fraction(img)) for v, img in table))
        for v, img in norm:
            if v == 0 and img != 0:
                raise InvalidCoeffFn("coefficient functions must send 0 to 0")
        _setattr(self, "table", norm)
        _setattr(self, "default", Fraction(default))

    def __call__(self, value: Rational) -> Fraction:
        value = Fraction(value)
        if value == 0:
            return Fraction(0)
        for v, img in self.table:
            if v == value:
                return img
        return self.default

    @classmethod
    def indicator(cls) -> "CoeffFn":
        """Send every nonzero coefficient to 1."""
        return cls(default=Fraction(1))

    @classmethod
    def level(cls, value: Rational) -> "CoeffFn":
        """Send one nonzero value to 1 and everything else to 0."""
        value = Fraction(value)
        if value == 0:
            raise InvalidCoeffFn("level value must be nonzero")
        return cls(table=((value, Fraction(1)),))

"""Subgroups of Z x Z_m and Z_n x Z_m, their coordinates, and quotient maps.

A :class:`Subgroup` is kept in a Hermite-style normal form, so equality is
structural.  :meth:`Subgroup.as_group` and :class:`QuotientMap` give H and G/K
their own descriptors, through the Smith normal form of the relation lattice.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator

from .errors import InfiniteGroup
from .groups import GroupDescriptor, GroupElement, Record, _setattr, format_element


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
        gens = [group.element(*g) for g in elems]
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
        g = self.group.element(*g)
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
        g = G.element(*g)
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
        return self.group.element(*_times(self.descriptor.element(*q), self._V_inv))

    def preimage(self, q: GroupElement) -> frozenset[GroupElement]:
        """The full coset over a quotient element (kernel must be finite)."""
        if self.kernel.order is None:
            raise InfiniteGroup("preimages of an infinite kernel are infinite")
        base = self.section(q)
        return frozenset(self.group.mul(base, k) for k in self.kernel.elements())

    def project_set(self, elems: Iterable[GroupElement]) -> frozenset[GroupElement]:
        return frozenset(self.project(g) for g in elems)

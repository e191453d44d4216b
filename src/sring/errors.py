"""Exception types shared across the package."""


class SchurError(Exception):
    """Base class for all library errors."""


class InvalidAutomorphism(SchurError):
    """Mapping does not extend to a bijective homomorphism."""


class InvalidCoeffFn(SchurError):
    """Coefficient function must send 0 to 0."""


class ZeroElement(SchurError):
    """Operation undefined for the zero ring element."""


class MalformedPartition(SchurError):
    """Classes overlap, are empty, fail to cover the group/window, or, read
    from JSON, name an element twice or with an unreduced exponent."""


class NotSSubgroup(SchurError):
    """Subgroup is not a union of classes of the presentation."""


class NotSSet(SchurError):
    """Set is not a union of classes of the presentation."""


class BadPrime(SchurError):
    """Prime does not divide the torsion order."""


class InfiniteGroup(SchurError):
    """Operation requires a finite group."""


class UnsupportedProduct(SchurError):
    """Tensor factors do not combine into a supported group."""


class IncompatibleWedge(SchurError):
    """Inner and outer presentations disagree, or the coset classes are infinite."""


class BadTower(SchurError):
    """Wedge tower must satisfy 1 < K <= H < G."""


class WindowTooSmall(SchurError):
    """Window is too small for the requested operation."""


class Unclassifiable(SchurError):
    """Verified presentation matches no known family."""


class UnrecognizedQuotient(SchurError):
    """Quotient by the torsion subgroup is neither discrete nor symmetric."""


class BoundExceeded(SchurError):
    """Search bound exceeded."""

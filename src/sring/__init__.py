"""Exact-arithmetic toolkit for Schur rings over Z x Z_3 and finite analogues.

The package provides group and group-ring arithmetic over the rationals,
Schur-ring presentations with windowed axiom verification, the classical
constructions (discrete, trivial, orbit, tensor, wedge), a classifier that
identifies which family a verified presentation over Z x Z_3 belongs to, and
brute-force enumeration oracles for desk-scale cross-checks.
"""

from .classify import (
    FamilyDescriptor,
    classify,
    find_H,
    projection_type,
    resynthesize,
)
from .constructions import (
    WedgeSpec,
    discrete,
    orbit_ring,
    standard_wedge,
    symmetric,
    tensor,
    trivial,
    wedge,
)
from .enumeration import (
    TraditionalityResult,
    enumerate_finite,
    enumerate_windowed,
    is_traditional,
)
from .errors import (
    BadPrime,
    BadTower,
    BoundExceeded,
    IncompatibleWedge,
    InfiniteGroup,
    InvalidAutomorphism,
    InvalidCoeffFn,
    MalformedPartition,
    NotInSpan,
    NotSSet,
    NotSSubgroup,
    SchurError,
    Unclassifiable,
    UnrecognizedQuotient,
    UnsupportedProduct,
    WindowTooSmall,
    ZeroElement,
)
from .group_ring import CoeffFn, RingElement, monomial, one, simple_quantity, zero
from .groups import (
    Automorphism,
    GroupDescriptor,
    GroupElement,
    QuotientMap,
    Subgroup,
    all_automorphisms,
    all_subgroups,
    format_element,
    named_automorphism,
    orbit,
    parse_element,
)
from .schur import (
    SchurPresentation,
    VerificationReport,
    Witness,
    class_stabilizer,
    generated_subgroup,
    is_sset,
    is_ssubgroup,
    level_sets,
    multiplier_set,
    multiplier_set_congruence,
    quotient,
    restrict,
    torsion_is_ssubgroup,
    verify_axioms,
    verify_wielandt,
)

__version__ = "0.1.0"

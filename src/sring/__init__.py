"""Exact-arithmetic toolkit for Schur rings over Z x Z_3 and finite analogues.

The package provides group and group-ring arithmetic over the rationals,
Schur-ring presentations with windowed axiom verification, the classical
constructions (discrete, trivial, orbit, tensor, wedge), a classifier that
identifies which family a verified presentation over Z x Z_3 belongs to, and
brute-force enumeration oracles for desk-scale cross-checks.

Submodules load on first use (PEP 562): ``import sring`` loads none of them,
and ``sring.discrete`` loads :mod:`sring.constructions` and what it imports.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# home submodule -> the names the package exports from it
_HOMES = {
    "automorphisms": (
        "Automorphism", "all_automorphisms", "class_stabilizer", "named_automorphism", "orbit",
    ),
    "classify": (
        "classify", "describe_recipe", "projection_type", "recipe_to_json", "resynthesize",
    ),
    "constructions": (
        "Recipe", "build", "discrete", "orbit_ring", "standard_wedge", "symmetric", "tensor",
        "trivial", "wedge",
    ),
    "enumeration": ("enumerate_finite", "enumerate_windowed", "is_traditional"),
    "errors": (
        "BadPrime", "BadTower", "BoundExceeded", "IncompatibleWedge", "InfiniteGroup",
        "InvalidAutomorphism", "InvalidCoeffFn", "MalformedPartition", "NotSSet",
        "NotSSubgroup", "SchurError", "Unclassifiable", "UnrecognizedQuotient",
        "UnsupportedProduct", "WindowTooSmall", "ZeroElement",
    ),
    "group_ring": ("CoeffFn", "RingElement", "monomial", "one", "simple_quantity", "zero"),
    "groups": ("GroupDescriptor", "GroupElement", "format_element"),
    "lemmas": (
        "find_H", "multiplier_set", "multiplier_set_congruence", "quotient", "restrict",
        "torsion_is_ssubgroup",
    ),
    "schur": (
        "SchurPresentation", "VerificationReport", "Witness", "is_sset", "is_ssubgroup",
        "verify_axioms", "verify_wielandt",
    ),
    "subgroups": ("QuotientMap", "Subgroup", "all_subgroups"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(ModuleType):
    """Keeps an export bound over the submodule of the same name.

    Loading a submodule binds it on its package, so ``import sring.classify``
    would otherwise make ``sring.classify`` the module, not the function.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


class _Forwarding(ModuleType):
    """A submodule that still answers for some names of other submodules.

    ``perfbench/layers.py`` wraps functions by the module they lived in
    before they moved; ``_MOVED`` maps each name it binds that way to its
    home, and nothing else.  Reading the name imports the home and binds the
    name here too.  Binding it here binds it at the home as well, so a
    function replaced through the old path is replaced for the callers inside
    its home.  Any other name, dunder names such as ``__path__`` included,
    imports nothing.
    """

    def __getattr__(self, name: str):
        home = vars(self)["_MOVED"].get(name)
        if home is None:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        value = getattr(import_module(f"{__name__}.{home}"), name)
        super().__setattr__(name, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        home = vars(self)["_MOVED"].get(name)
        if home is not None:
            setattr(import_module(f"{__name__}.{home}"), name, value)
        super().__setattr__(name, value)

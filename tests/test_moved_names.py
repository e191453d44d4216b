"""The names the benchmark's trace binds in ``sring.groups`` and ``sring.schur``
still resolve there, and no other moved name does.

Automorphisms, subgroups and the lemma code live in their own modules, so
that ``verify`` compiles none of them.  ``perfbench/layers.py`` wraps a
function by the module it lived in before it moved, so each old module keeps
a ``_MOVED`` table of exactly the traced names whose home is elsewhere:
reading one gives the object of its home, and binding one binds it at its home
too, so that callers inside the home see the replacement.
"""

import importlib

import pytest

import sring
import sring.groups
import sring.schur
from test_traced_names import traced_table

# old module -> home module -> the traced names that moved there
MOVED = {
    "groups": {
        "automorphisms": ["close_automorphisms", "orbit"],
        "subgroups": ["all_subgroups"],
    },
    "schur": {
        "lemmas": ["class_shape_holds", "frobenius_closure_holds", "multiplier_sets_hold",
                   "power_in_subgroup_holds", "quotient", "restrict", "torsion_subgroup_holds"],
    },
}
# old module -> home module -> the moved names the trace does not bind there
DROPPED = {
    "groups": {
        "automorphisms": ["Automorphism", "NAMED_AUTOMORPHISM_ORDER", "all_automorphisms",
                          "automorphism_from_json", "automorphism_sort_key",
                          "canonical_generators", "named_automorphism"],
        "subgroups": ["QuotientMap", "Subgroup", "SubgroupCoords"],
    },
    "schur": {
        "automorphisms": ["class_stabilizer"],
        "lemmas": ["MIN_FIND_H_WINDOW", "find_H", "multiplier_set", "multiplier_set_congruence",
                   "torsion_is_ssubgroup"],
    },
}


def triples(table: dict) -> list:
    return [(old, home, name) for old, homes in table.items()
            for home, names in homes.items() for name in names]


TRIPLES = triples(MOVED)
DROPPED_TRIPLES = triples(DROPPED)


def module(short: str):
    return importlib.import_module(f"sring.{short}")


def traced_moves(old: str) -> dict:
    """name -> home of each name the trace binds in ``old`` whose object lives
    in another module."""
    names = {attribute.split(".")[0] for pairs in traced_table().values()
             for short, attribute in pairs if short == old}
    homes = {name: getattr(module(old), name).__module__ for name in names}
    return {name: home.rpartition(".")[2] for name, home in homes.items()
            if home != f"sring.{old}"}


@pytest.mark.parametrize("old,home,name", TRIPLES, ids=[f"{o}.{n}" for o, _, n in TRIPLES])
def test_old_path_is_the_home_object(old, home, name):
    assert getattr(module(old), name) is getattr(module(home), name)


@pytest.mark.parametrize("old,home,name", DROPPED_TRIPLES,
                         ids=[f"{o}.{n}" for o, _, n in DROPPED_TRIPLES])
def test_an_untraced_name_resolves_only_at_its_home(old, home, name):
    assert not hasattr(module(old), name)
    obj = vars(module(home))[name]
    if name in sring.__all__:
        assert getattr(sring, name) is obj


@pytest.mark.parametrize("old", MOVED)
def test_the_old_module_lists_exactly_these_names(old):
    expected = {name: home for home, names in MOVED[old].items() for name in names}
    assert vars(module(old))["_MOVED"] == traced_moves(old) == expected


def test_unknown_and_dunder_names_are_not_found():
    for name in ("no_such_name", "__path__"):
        assert not hasattr(sring.groups, name)
        assert not hasattr(sring.schur, name)


def test_binding_through_the_old_path_reaches_callers_in_the_home(monkeypatch):
    from sring.automorphisms import canonical_generators, close_automorphisms, named_automorphism

    calls = []

    def spy(gens):
        calls.append(gens)
        return close_automorphisms(gens)

    group = sring.groups.GroupDescriptor(0, 3)
    members = close_automorphisms([named_automorphism("xi", group)])
    monkeypatch.setattr(sring.groups, "close_automorphisms", spy)
    assert canonical_generators(members) == (named_automorphism("xi", group),)
    assert calls
    monkeypatch.undo()
    assert module("automorphisms").close_automorphisms is close_automorphisms

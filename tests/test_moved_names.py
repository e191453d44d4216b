"""Names that left ``sring.groups`` and ``sring.schur`` still resolve there.

Automorphisms, subgroups and the lemma code live in their own modules, so
that ``verify`` compiles none of them.  The old module paths keep every moved
public name: reading one gives the object of its home, and binding one binds
it at its home too, so that callers inside the home see the replacement.
"""

import importlib

import pytest

import sring.groups
import sring.schur

# old module -> home module -> the public names that moved there
MOVED = {
    "groups": {
        "automorphisms": ["Automorphism", "NAMED_AUTOMORPHISM_ORDER", "all_automorphisms",
                          "automorphism_from_json", "automorphism_sort_key",
                          "canonical_generators", "close_automorphisms", "named_automorphism",
                          "orbit"],
        "subgroups": ["QuotientMap", "Subgroup", "SubgroupCoords", "all_subgroups"],
    },
    "schur": {
        "automorphisms": ["class_stabilizer"],
        "lemmas": ["MIN_FIND_H_WINDOW", "class_shape_holds", "find_H", "frobenius_closure_holds",
                   "multiplier_set", "multiplier_set_congruence", "multiplier_sets_hold",
                   "power_in_subgroup_holds", "quotient", "restrict", "torsion_is_ssubgroup",
                   "torsion_subgroup_holds"],
    },
}
TRIPLES = [(old, home, name) for old, homes in MOVED.items()
           for home, names in homes.items() for name in names]


def module(short: str):
    return importlib.import_module(f"sring.{short}")


@pytest.mark.parametrize("old,home,name", TRIPLES, ids=[f"{o}.{n}" for o, _, n in TRIPLES])
def test_old_path_is_the_home_object(old, home, name):
    assert getattr(module(old), name) is getattr(module(home), name)


@pytest.mark.parametrize("old", MOVED)
def test_the_old_module_lists_exactly_these_names(old):
    moved = vars(module(old))["_MOVED"]
    assert moved == {name: home for home, names in MOVED[old].items() for name in names}


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

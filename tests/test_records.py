"""The immutable records keep the semantics of frozen dataclasses.

Equality needs the same class and equal fields, the hash is the hash of the
field tuple (so sets of records iterate in the same order as before), the
repr names every field, and no field can be set or added after construction.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from sring import (
    Automorphism,
    CoeffFn,
    GroupDescriptor,
    GroupElement,
    Recipe,
    Subgroup,
    VerificationReport,
    Witness,
    discrete,
    named_automorphism,
    recipe_to_json,
    trivial,
)

G = GroupDescriptor(0, 3)
Z2xZ3 = GroupDescriptor(2, 3)
PSI = named_automorphism("psi", G)
H = Subgroup.generated_by(Z2xZ3, [GroupElement(0, 1)])
WITNESS = Witness("star-closure", (GroupElement(0, 1),), None, "detail")

RECORDS = [
    (GroupDescriptor(0, 3), "GroupDescriptor(free_order=0, torsion_order=3)"),
    (PSI, "Automorphism(group=GroupDescriptor(free_order=0, torsion_order=3), "
          "twist=1, unit=1, torsion_unit=2)"),
    (Subgroup.generated_by(Z2xZ3, [GroupElement(1, 1)]),
     "Subgroup(group=GroupDescriptor(free_order=2, torsion_order=3), "
     "free_step=1, twist=0, torsion_step=1)"),
    (CoeffFn.level(2),
     "CoeffFn(table=((Fraction(2, 1), Fraction(1, 1)),), default=Fraction(0, 1))"),
    (WITNESS, "Witness(kind='star-closure', left=(GroupElement(z_exp=0, a_exp=1),), "
              "right=None, detail='detail')"),
    (VerificationReport("invalid", 0, witness=WITNESS),
     "VerificationReport(verdict='invalid', checked_pairs=0, effective_window=None, "
     "witness=Witness(kind='star-closure', left=(GroupElement(z_exp=0, a_exp=1),), "
     "right=None, detail='detail'))"),
    (Recipe("wedge", subgroups=(H, H), parts=(Recipe("trivial"), Recipe("orbit", (PSI,)))),
     "Recipe(kind='wedge', generators=(), subgroups=(Subgroup(group="
     "GroupDescriptor(free_order=2, torsion_order=3), free_step=2, twist=0, torsion_step=1), "
     "Subgroup(group=GroupDescriptor(free_order=2, torsion_order=3), free_step=2, twist=0, "
     "torsion_step=1)), parts=(Recipe(kind='trivial', generators=(), "
     "subgroups=None, parts=None), Recipe(kind='orbit', generators=(Automorphism(group="
     "GroupDescriptor(free_order=0, torsion_order=3), twist=1, unit=1, torsion_unit=2),), "
     "subgroups=None, parts=None)))"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_repr_names_every_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_fields_cannot_change(record, text):
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        object.__setattr__(record, "extra", 1)  # no __dict__: the fields are all there is
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(record, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == text and twin == record


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_hash_is_the_hash_of_the_fields(record):
    fields = tuple(getattr(record, name) for name in type(record).__slots__)
    assert hash(record) == hash(fields)


def test_equality_needs_the_same_class_and_fields():
    assert GroupDescriptor(0, 3) == GroupDescriptor(0, 3)
    assert GroupDescriptor(0, 3) != GroupDescriptor(1, 3)
    assert {GroupDescriptor(0, 3), GroupDescriptor(0, 3)} == {GroupDescriptor(0, 3)}
    # a descriptor is never equal to the element, or the tuple, with the same pair
    assert GroupDescriptor(1, 2) != GroupElement(1, 2)
    assert GroupDescriptor(1, 2) != (1, 2)
    assert Automorphism(G, 4, 1, 5) == PSI  # parameters are reduced before they are stored
    assert Recipe("no") == Recipe("no")
    assert not Recipe("no")


def test_constructor_defaults_and_normalisation():
    assert GroupDescriptor() == GroupDescriptor(0, 1)
    table = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(1)))
    assert CoeffFn(((3, 1), (1, 2))).table == table  # sorted, as Fractions
    assert CoeffFn().default == Fraction(0)
    assert VerificationReport("valid", 3).witness is None
    full = {"variant": "full", "window": 0, "symmetric": False}
    assert recipe_to_json(Recipe("orbit"), 0) == full


def test_presentation_repr_names_the_group_kind_and_class_count():
    # a presentation is not a record: its repr is a summary, not its fields
    assert repr(trivial(GroupDescriptor(1, 3))) == "<SchurPresentation finite classes=2>"
    assert repr(discrete(G, 2)) == "<SchurPresentation window=2 classes=15>"

"""The package's records are immutable slotted classes on core.Frozen: equal
fields give equal records with equal hashes, a record's repr names its
fields, copy, deepcopy and pickle rebuild it, and core.replace runs the
constructor's checks again."""

import copy
import pickle

import pytest

from resflat.core import FrozenInstanceError, PrimitiveRay, QQi, StratumSignature, replace
from resflat.decide import REASON_MIXED, Verdict
from resflat.graphs import CylinderComponent, CylinderConfig
from resflat.verify import (
    BlowUpZero,
    ConstructionCertificate,
    FlatSurface,
    PolarPart,
    Polygon,
    Profile,
    SimplePolePart,
)

CHAIN = [(1, 0), (0, 1), (-1, -1)]


def _surface():
    return FlatSurface([Polygon([(1, 0), (-1, 0)])], [((0, 0), (0, 1))], 2, 3)


def _profile():
    return Profile(0, (2, 1), ((-1, QQi(1, -1)), (-1, QQi(-1, 1))))


# Each record class, a factory of one instance, and its fields in order.
RECORDS = {
    StratumSignature: (
        lambda: StratumSignature(0, (2,), (), 4),
        ("genus", "zeros", "higher_poles", "simple_poles"),
    ),
    PrimitiveRay: (lambda: PrimitiveRay(QQi(1, 2), (2, -1, -1)), ("direction", "integers")),
    Verdict: (
        lambda: Verdict("non-collinear", "residual-polygon"),
        ("reason", "certificate_hint", "ray"),
    ),
    CylinderComponent: (lambda: CylinderComponent(1, (0, 2)), ("genus", "zero_indices")),
    CylinderConfig: (
        lambda: CylinderConfig((CylinderComponent(1, (0,)),), ((0, 0, QQi(1)),)),
        ("components", "edges"),
    ),
    Polygon: (lambda: Polygon(CHAIN), ("edges",)),
    PolarPart: (
        lambda: PolarPart(2, 1, [(1, 0)], [(1, 0), (0, 1)]),
        ("order", "pole_type", "top", "bottom"),
    ),
    SimplePolePart: (lambda: SimplePolePart(CHAIN), ("vectors",)),
    FlatSurface: (_surface, ("pieces", "pairings", "d", "n")),
    Profile: (_profile, ("genus", "zero_orders", "poles")),
    BlowUpZero: (lambda: BlowUpZero(0, (1, 1)), ("zero_index", "parts")),
    ConstructionCertificate: (
        lambda: ConstructionCertificate(_surface(), (BlowUpZero(0, (1, 1)),), _profile(), None),
        ("surface", "surgeries", "claimed", "claimed_rotation"),
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@CLASSES
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = RECORDS[cls][0]()
    for name in (*RECORDS[cls][1], "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert issubclass(FrozenInstanceError, AttributeError)
    assert record == RECORDS[cls][0]()


@CLASSES
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = RECORDS[cls][0](), RECORDS[cls][0]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != tuple(getattr(a, name) for name in RECORDS[cls][1])


def test_records_of_different_classes_are_unequal():
    assert Polygon(CHAIN) != SimplePolePart(CHAIN)
    assert CylinderComponent(0, (1,)) != BlowUpZero(0, (1,))
    assert PrimitiveRay(QQi(1), (1, -1)) != PrimitiveRay(QQi(2), (1, -1))


def test_verdict_equality_ignores_the_ray():
    ray = PrimitiveRay(QQi(0, 1), (1, -1))
    with_ray = Verdict(REASON_MIXED, "collinear-anchor-chain", ray=ray)
    without = Verdict(REASON_MIXED, "collinear-anchor-chain")
    assert with_ray == without and hash(with_ray) == hash(without)
    assert with_ray != Verdict(REASON_MIXED)


@CLASSES
def test_repr_names_each_field(cls):
    record = RECORDS[cls][0]()
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORDS[cls][1])
    assert repr(record) == f"{cls.__name__}({fields})"


def test_repr_keeps_the_dataclass_form():
    assert repr(BlowUpZero(0, (1, 1))) == "BlowUpZero(zero_index=0, parts=(1, 1))"
    assert repr(Verdict("excluded-primitive-ray")) == (
        "Verdict(reason='excluded-primitive-ray', certificate_hint=None, ray=None)"
    )
    assert repr(PrimitiveRay(QQi(1, 2), (1, -1))) == (
        "PrimitiveRay(direction=QQi(1, 2), integers=(1, -1))"
    )


@CLASSES
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(cls, clone):
    record = RECORDS[cls][0]()
    again = clone(record)
    assert type(again) is cls and again == record
    assert all(getattr(again, name) == getattr(record, name) for name in RECORDS[cls][1])


def test_replace_changes_fields_through_the_constructor():
    cert = RECORDS[ConstructionCertificate][0]()
    rotated = replace(cert, claimed_rotation=2)
    assert rotated.claimed_rotation == 2 and rotated.surface == cert.surface
    assert replace(SimplePolePart(CHAIN), vectors=[(2, 0)]).vectors == ((2, 0),)
    with pytest.raises(TypeError):
        replace(cert, rotation=2)


def test_replace_runs_the_constructor_checks():
    ray = PrimitiveRay(QQi(1), (2, -1, -1))
    with pytest.raises(ValueError, match="ray integers must sum to zero"):
        replace(ray, integers=(2, -1, 1))
    with pytest.raises(ValueError, match="unknown verdict reason 'bogus'"):
        replace(Verdict("non-collinear"), reason="bogus")

"""The value records compare, hash, copy and refuse assignment as the
frozen and plain dataclasses they replace did: equal when of one class
with equal fields, a frozen record hashable and immutable, a plain one
mutable and unhashable, and a copy or pickle equal to its original."""

import copy
import pickle

import pytest

from quarterwalks import (
    CLOSED_FORMS,
    KREWERAS,
    AnsatzTemplate,
    Bounds,
    Box,
    Certificate,
    Degrees,
    EqualityVerdict,
    LinearSystem,
    trivial_operator,
)
from quarterwalks.certify import BaseCheck
from quarterwalks.cli import PipelineConfig
from quarterwalks.guess import PointPlan

BOX = Box((0, 0), (0, 1), (0, 1))
TEMPLATE = AnsatzTemplate(((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0)), "full")

# (record, a field, another value for it)
FROZEN = [
    (Bounds(deg_n=1, total_poly_deg=3), "deg_n", 2),
    (BOX, "n_range", (0, 1)),
    (KREWERAS, "steps", frozenset({(1, 0)})),
    (Degrees(False, 1, 2, 3, 4, 5, 6, 7), "ord_sn", 0),
    (TEMPLATE, "shape", "custom"),
    (PointPlan(((1, 0, 0),), ((2, 0, 0),)), "points", ()),
    (CLOSED_FORMS["gessel"][1], "period", 3),
]
MUTABLE = [
    (BaseCheck(0, BOX, True), "all_zero", False),
    (Certificate(trivial_operator(KREWERAS), "certified", [], [BaseCheck(0, BOX, True)]),
     "detail", "changed"),
    (LinearSystem([[1, 0]], [(1, 0, 0)], TEMPLATE), "matrix", [[0, 1]]),
    (EqualityVerdict("PROVED", 3, 1), "failing_index", 2),
    (PipelineConfig("W,S,NE", bounds=["ord_sn=1"]), "margin", 5),
]


def _ids(cases):
    return [type(record).__name__ for record, _, _ in cases]


@pytest.mark.parametrize("record, name, other", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_by_value_and_refuse_assignment(record, name, other):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)
    assert len({record, copy.copy(record)}) == 1
    with pytest.raises(AttributeError):
        setattr(record, name, other)
    assert getattr(record, name) != other


@pytest.mark.parametrize("record, name, other", MUTABLE, ids=_ids(MUTABLE))
def test_plain_records_are_mutable_and_unhashable(record, name, other):
    with pytest.raises(TypeError):
        hash(record)
    twin = copy.deepcopy(record)
    assert twin == record and pickle.loads(pickle.dumps(record)) == record
    setattr(twin, name, other)
    assert twin != record and getattr(twin, name) == other


def test_records_equal_only_within_their_class_and_keep_defaults():
    assert Bounds() == Bounds(0, 0, 0, 0, 0, 0, None)
    assert Bounds(deg_n=1) != Bounds(deg_i=1)
    assert Bounds() != Degrees(True) and Bounds() != (0, 0, 0, 0, 0, 0, None)
    assert Degrees(True) == Degrees(True, None, None, None, None, None, None, None)
    assert EqualityVerdict("PROVED") == EqualityVerdict("PROVED", 0, -1, None)
    assert BaseCheck(1, BOX, False).counterexample is None
    cert = Certificate(trivial_operator(KREWERAS), "refuted", [], [])
    assert (cert.counterexample, cert.detail, cert.certified) == (None, "", False)
    # each config gets its own bounds list
    first, second = PipelineConfig("W,S,NE"), PipelineConfig("W,S,NE")
    assert first.bounds == [] and first.bounds is not second.bounds
    assert (first.shape, first.margin, first.diag_limit) == ("full", 20, 500)
    assert (first.multiplier_bound, first.closed_form) == (None, None)

"""The value records keep their contracts: validation, repr, immutability, hashing."""

import pytest

from omtutte.expansions import SpecializationReport
from omtutte.matroid import BasisActivity, Digraph, MatroidError
from omtutte.oriented import ActivityRecord, SignedSubset
from omtutte.perspective import ValidationReport
from omtutte.poly import Monomial, ONE


def _records():
    """One instance of each record, with the name of one of its fields."""
    a, b = frozenset({1}), frozenset({2})
    return [
        (Monomial((1, 0, 0, 0, 0)), "exps"),
        (SignedSubset(a, b), "positive"),
        (Digraph(("a", "b"), ((1, "a", "b"),)), "arcs"),
        (BasisActivity(a, b), "internal"),
        (ActivityRecord(a, a, b, frozenset(), a, b, frozenset(), Monomial((1, 0, 0, 1, 0))),
         "monomial"),
        (ValidationReport(True, True), "weak"),
        (SpecializationReport(ONE, ONE, ONE, ONE, 1, 1, 1), "tutte"),
    ]


NAMES = [type(record).__name__ for record, _ in _records()]


@pytest.mark.parametrize("build, error", [
    (lambda: SignedSubset.make([1], [1]), MatroidError),
    (lambda: Monomial((1, 0, 0, 0)), ValueError),
    (lambda: Monomial((0, -1, 0, 0, 0)), ValueError),
])
def test_invalid_records_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_reprs():
    assert (repr(SignedSubset.make([1], [2]))
            == "SignedSubset(positive=frozenset({1}), negative=frozenset({2}))")
    assert repr(Monomial((1, 0, 0, 0, 0))) == "Monomial(exps=(1, 0, 0, 0, 0))"
    assert repr(BasisActivity(frozenset(), frozenset({3}))) == (
        "BasisActivity(internal=frozenset(), external=frozenset({3}))")


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_fields_are_read_only(index):
    record, field = _records()[index]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_equal_records_hash_equal(index):
    (one, _), (other, _) = _records()[index], _records()[index]
    assert one is not other
    assert one == other
    assert hash(one) == hash(other)

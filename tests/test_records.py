"""The library's records: value semantics over their fields, as the frozen
dataclasses they replace had, with copy and pickle."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from quasiperm.balance import BalanceCertificate, balance_certificate
from quasiperm.construct import (DiscrepancySample, InversionDistribution,
                                 inversion_distribution, mc_discrepancy_stats)
from quasiperm.core import (CyclicInterval, InputError, IntervalFlags, Permutation,
                            ZnSubset, classify_interval)
from quasiperm.patterns import PatternMatrix, ProfileVector, build_pattern_matrices, profile
from quasiperm.permdisc import PermDiscrepancyReport, perm_discrepancy
from quasiperm.symmetry import SymmetrySearchResult, search_perfect

SIGMA = Permutation((3, 6, 0, 7, 2, 5, 1, 4))
SUBSET = ZnSubset.from_elements(10, [0, 2, 4, 6, 8])

RECORDS = {
    CyclicInterval: lambda: CyclicInterval(10, 9, 2),
    ZnSubset: lambda: SUBSET,
    Permutation: lambda: SIGMA,
    IntervalFlags: lambda: classify_interval(CyclicInterval(10, 9, 2)),
    PermDiscrepancyReport: lambda: perm_discrepancy(SIGMA),
    ProfileVector: lambda: profile(SIGMA, 3),
    PatternMatrix: lambda: build_pattern_matrices(2),
    InversionDistribution: lambda: inversion_distribution(5),
    DiscrepancySample: lambda: mc_discrepancy_stats(8, 3, seed=1),
    SymmetrySearchResult: lambda: search_perfect(5, 2),
    BalanceCertificate: lambda: balance_certificate(SUBSET),
}


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def same(a, b) -> bool:
    """Field-wise equality that compares numpy arrays by their entries."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(fields(a), fields(b)))


def as_frozen_dataclass(record):
    cls = type(record)
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)(*fields(record))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    record = RECORDS[cls]()
    assert type(record) is cls
    values = fields(record)
    # the constructor takes the fields by position and by keyword
    for twin in (cls(*values), cls(**dict(zip(cls.__slots__, values)))):
        assert same(twin, record)
        if cls is not PatternMatrix:  # == on arrays has no truth value
            assert twin == record and not twin != record
    assert record != values
    assert repr(record) == repr(as_frozen_dataclass(record))
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(as_frozen_dataclass(record))
    for name in (cls.__slots__[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, cls.__slots__[0])
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert same(twin, record)


def test_constructor_refuses_missing_repeated_and_unknown_fields():
    for args, kwargs in [((), {}), ((1, 0, 1), {}), ((True,), {"contiguous": True}),
                         ((True, True, True), {"other": True}),
                         ((True,) * 5, {})]:
        with pytest.raises(TypeError):
            IntervalFlags(*args, **kwargs)


def test_dataclasses_replace_rebuilds_a_record_through_its_constructor():
    iv = CyclicInterval(10, 1, 2)
    assert dataclasses.replace(iv, length=3) == CyclicInterval(10, 1, 3)
    with pytest.raises(InputError, match="outside"):
        dataclasses.replace(iv, length=11)


def test_sets_of_records_keep_the_dataclass_order():
    perms = [Permutation(p) for p in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (0, 1, 2)]]
    assert [p.images for p in set(perms)] == [
        p.images for p in set(map(as_frozen_dataclass, perms))]

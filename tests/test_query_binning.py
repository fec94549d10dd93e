"""Tests for quantitative bin codes, and for the reference's grouping.

``compute_codes`` is the library's; ``dimension_codes`` and
``group_rows`` are the sort-based reference of ``reference_kernels.py``
the compiled kernels are held to, checked here on their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.errors import QueryError
from repro.query.binning import compute_codes
from repro.query.model import BinDimension, BinKind

from reference_kernels import dimension_codes, group_rows


class TestComputeCodes:
    def test_quantitative_floor_semantics(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=10.0, reference=0.0)
        values = np.array([-10.0, -0.1, 0.0, 9.99, 10.0, 25.0])
        codes = compute_codes(dim, values)
        assert list(codes) == [-1, -1, 0, 0, 1, 2]

    def test_quantitative_reference_shift(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=5.0, reference=2.0)
        codes = compute_codes(dim, np.array([2.0, 6.9, 7.0]))
        assert list(codes) == [0, 0, 1]

    def test_quantitative_decode_is_identity(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=1.0)
        codes = compute_codes(dim, np.array([3.5]))
        assert codes.dtype == np.int64 and codes.tolist() == [3]
        codes, decode = dimension_codes(dim, np.array([3.5]))
        assert decode(codes[0]) == 3 and type(decode(codes[0])) is int

    def test_unresolved_dimension_rejected(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, bin_count=10)
        with pytest.raises(QueryError, match="unresolved"):
            compute_codes(dim, np.array([1.0]))

    def test_quantitative_on_strings_rejected(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=1.0)
        with pytest.raises(QueryError):
            compute_codes(dim, np.array(["a"]))

    def test_nominal_codes_and_decode(self):
        dim = BinDimension("c", BinKind.NOMINAL)
        codes, decode = dimension_codes(dim, np.array(["b", "a", "b"]))
        assert codes.tolist() == [1, 0, 1]
        assert [decode(code) for code in codes] == ["b", "a", "b"]


class TestGroupRows:
    def test_1d_grouping(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=10.0)
        grouped = group_rows([dim], [np.array([5.0, 15.0, 5.0, 25.0])])
        assert grouped.num_groups == 3
        assert set(grouped.keys) == {(0,), (1,), (2,)}
        # inverse maps every row to its key
        for row, g in enumerate(grouped.inverse):
            assert grouped.keys[g] in {(0,), (1,), (2,)}

    def test_2d_grouping_mixed_kinds(self):
        dims = [
            BinDimension("v", BinKind.QUANTITATIVE, width=10.0),
            BinDimension("c", BinKind.NOMINAL),
        ]
        grouped = group_rows(
            dims,
            [np.array([5.0, 5.0, 15.0]), np.array(["x", "y", "x"])],
        )
        assert set(grouped.keys) == {(0, "x"), (0, "y"), (1, "x")}

    def test_negative_codes_pack_correctly(self):
        dims = [
            BinDimension("a", BinKind.QUANTITATIVE, width=1.0),
            BinDimension("b", BinKind.QUANTITATIVE, width=1.0),
        ]
        grouped = group_rows(
            dims,
            [np.array([-5.0, -5.0, 3.0]), np.array([-2.0, 7.0, -2.0])],
        )
        assert set(grouped.keys) == {(-5, -2), (-5, 7), (3, -2)}

    def test_2d_extreme_codes_do_not_wrap(self):
        # NaN codes sit at the int64 minimum; grouping 2-D codes as rows
        # packs nothing, so they key as they are, in either dimension.
        dims = [
            BinDimension("a", BinKind.QUANTITATIVE, width=1.0),
            BinDimension("b", BinKind.QUANTITATIVE, width=1.0),
        ]
        lowest = int(np.iinfo(np.int64).min)
        with np.errstate(invalid="ignore"):
            grouped = group_rows(
                dims, [np.array([np.nan, 0.0, 3.0]), np.array([1.0, np.nan, 1.0])]
            )
        assert grouped.keys == [(lowest, 1), (0, lowest), (3, 1)]
        assert grouped.inverse.tolist() == [0, 1, 2]

    def test_empty_rows(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=1.0)
        grouped = group_rows([dim], [np.array([])])
        assert grouped.num_groups == 0
        assert len(grouped.inverse) == 0

    def test_dimension_count_mismatch(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=1.0)
        with pytest.raises(QueryError):
            group_rows([dim, dim], [np.array([1.0])])


@hyp_settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(-1000, 1000), min_size=1, max_size=80),
    width=st.floats(0.5, 100),
    reference=st.floats(-50, 50),
)
def test_partition_invariant(values, width, reference):
    """Property: binning partitions rows — every row in exactly one bin,
    and the bin's interval contains the value."""
    dim = BinDimension("v", BinKind.QUANTITATIVE, width=width, reference=reference)
    array = np.array(values)
    grouped = group_rows([dim], [array])
    assert len(grouped.inverse) == len(values)
    counts = np.bincount(grouped.inverse, minlength=grouped.num_groups)
    assert counts.sum() == len(values)
    for value, g in zip(values, grouped.inverse):
        index = grouped.keys[g][0]
        low, high = dim.bin_interval(index)
        # Allow float rounding on both interval edges: floor((x-ref)/w) can
        # land a boundary value in either adjacent bin.
        epsilon = 1e-9 * max(1.0, abs(low), abs(high), abs(value))
        assert low - epsilon <= value < high + epsilon


@hyp_settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=60)
)
def test_nominal_group_counts_match_value_counts(labels):
    """Property: nominal grouping reproduces value_counts exactly."""
    dim = BinDimension("c", BinKind.NOMINAL)
    array = np.array(labels)
    grouped = group_rows([dim], [array])
    counts = np.bincount(grouped.inverse, minlength=grouped.num_groups)
    for key, count in zip(grouped.keys, counts):
        assert count == sum(1 for label in labels if label == key[0])

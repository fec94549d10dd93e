"""Narrow value columns fold to the bytes of a ``float64`` cast.

A table stores each integer column at the narrowest signed type holding
its ``[min, max]`` (the ``Table`` constructor's rule, read through
``Dataset.value_column``), and a fold widens only the rows it gathers. An
integer's ``float64`` is the same double whether it is cast before or
after the gather, so every fold must be **bitwise** what the same fold
returns over the whole column cast to ``float64`` up front. Each case
compiles one kernel and runs it twice: once over the dataset's narrow
column and once, on a copy, over that ``float64`` cast.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.errors import DataGenerationError
from repro.data.storage import Dataset, ForeignKey, Table, int_dtype
from repro.query.filters import RangePredicate
from repro.query.kernels import CompiledQueryKernel, PrefixKernelRun
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

from test_kernels_differential import assert_exact_equal, assert_stats_equal

#: Each boundary of the rule and one past it, on both sides of zero.
HIGHS = (0, 1, 127, 128, 32_767, 32_768, 2**31 - 1, 2**31, 2**53 + 1, 2**62)
LOWS = (0, -1, -128, -129, -32_768, -32_769, -(2**31), -(2**31) - 1, -(2**62))
AGGREGATES = tuple(
    Aggregate(func, "V")
    for func in (AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX)
)


def _expected_dtype(low: int, high: int) -> np.dtype:
    for dtype in (np.int8, np.int16, np.int32):
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


@st.composite
def int_columns(draw):
    """Integers spanning ``[low, high]`` (both present), shuffled."""
    low, high = draw(st.sampled_from(LOWS)), draw(st.sampled_from(HIGHS))
    size = draw(st.integers(2, 60))
    inner = draw(st.lists(st.integers(low, high), min_size=size - 2, max_size=size - 2))
    values = np.array([low, high] + inner, dtype=np.int64)
    return values[np.random.default_rng(size).permutation(size)]


def _dataset(values: np.ndarray, seed: int, star: bool) -> Dataset:
    """``V`` (the aggregated column) beside a group column ``G`` and a
    filter column ``H``; in the star form ``V`` lives in a dimension
    table that the fact rows reach through a key."""
    rng = np.random.default_rng(seed)
    rows = len(values)
    fact = {"G": rng.integers(0, 4, rows), "H": rng.random(rows)}
    if not star:
        return Dataset.from_table(Table("t", {**fact, "V": values}))
    # Dimension rows in a shuffled order, some referenced twice, one never.
    order = rng.permutation(rows)
    dim = Table("dim", {"k": np.arange(rows + 1), "v": np.append(values[order], 0)})
    keys = np.argsort(order)
    fact_table = Table("f", {**fact, "K": keys})
    edge = ForeignKey("K", "dim", "k", (("V", "v"),))
    return Dataset({"f": fact_table, "dim": dim}, "f", [edge])


def _query(filtered: bool) -> AggQuery:
    return AggQuery(
        table="t",
        bins=(BinDimension("G", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.COUNT),) + AGGREGATES,
        filter=RangePredicate("H", 0.2, 0.9) if filtered else None,
    )


def _over(kernel: CompiledQueryKernel, values: np.ndarray) -> CompiledQueryKernel:
    """A copy of ``kernel`` whose aggregates fold ``values``."""
    twin = copy.copy(kernel)
    twin._agg_values = {j: values for j in kernel._agg_values}
    return twin


def _float64_cast(dataset: Dataset, field: str) -> np.ndarray:
    """What the dataset's aggregates folded before: the column as float64."""
    return dataset.gather_column(field).astype(np.float64)


def _assert_grids_equal(fast, slow):
    assert fast.keys == slow.keys
    assert fast.counts.tobytes() == slow.counts.tobytes()
    for name in ("sums", "sumsqs", "mins", "maxs"):
        fast_dict, slow_dict = getattr(fast, name), getattr(slow, name)
        assert sorted(fast_dict) == sorted(slow_dict)
        for j in slow_dict:
            assert fast_dict[j].dtype == slow_dict[j].dtype == np.float64
            assert fast_dict[j].tobytes() == slow_dict[j].tobytes(), (name, j)


def _assert_every_fold_equal(kernel, reference, seed: int) -> None:
    rows = kernel.num_rows
    rng = np.random.default_rng(seed)
    assert_stats_equal(kernel.evaluate(), reference.evaluate())
    assert_exact_equal(kernel.exact_stats(), reference.exact_stats())
    sample = rng.integers(0, max(rows, 1), size=rows // 2 + 1) if rows else np.arange(0)
    assert_stats_equal(kernel.evaluate(sample), reference.evaluate(sample))
    strata = rng.integers(0, 3, len(sample))
    _assert_grids_equal(
        kernel.evaluate_strata(sample, strata, 3),
        reference.evaluate_strata(sample, strata, 3),
    )
    # Growing polls that wrap past the permutation's end, then a shrink.
    permutation = rng.permutation(rows)
    offset = rows - 1 if rows else 0
    runs = [PrefixKernelRun(k, permutation, offset) for k in (kernel, reference)]
    for n in (1, rows // 3 + 1, rows, rows // 2, rows):
        fast, slow = (run.poll(n) for run in runs)
        assert_stats_equal(fast, slow)
    assert runs[0].rebuilds == runs[1].rebuilds == (1 if rows else 0)


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("low", LOWS)
@pytest.mark.parametrize("high", HIGHS)
def test_int_dtype_is_the_narrowest_holding_the_span(low, high):
    assert int_dtype(low, high) == _expected_dtype(low, high)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_a_column_no_wider_than_its_rule_is_stored_uncopied(dtype):
    info = np.iinfo(dtype)
    column = np.array([info.min, info.max], dtype=dtype)
    assert np.shares_memory(Table("t", {"V": column})["V"], column)


@pytest.mark.parametrize(
    "values, dtype",
    [
        (np.array([0, 200], dtype=np.uint16), np.int16),
        (np.array([0, 200], dtype=np.uint32), np.int16),
        (np.array([0, 70_000], dtype=np.uint64), np.int32),
        (np.array([5, 2**31], dtype=np.uint64), np.int64),
        (np.array([True, False]), np.int8),
        (np.array([0.5, np.nan]), np.float64),
        (np.array([], dtype=np.int64), np.int8),
    ],
)
def test_uint_bool_float_and_empty_columns(values, dtype):
    stored = Table("t", {"V": values})["V"]
    assert stored.dtype == dtype
    assert stored.astype(np.float64).tobytes() == values.astype(np.float64).tobytes()


def test_an_integer_column_past_int64_is_rejected():
    with pytest.raises(DataGenerationError, match="past int64"):
        Table("t", {"V": np.array([0, 2**63], dtype=np.uint64)})


@hyp_settings(max_examples=120, deadline=None)
@given(values=int_columns(), star=st.booleans())
def test_value_column_holds_the_exact_values_at_the_rule(values, star):
    dataset = _dataset(values, len(values), star)
    narrow = dataset.value_column("V")
    gathered = dataset.gather_column("V")
    assert narrow.dtype == _expected_dtype(int(values.min()), int(values.max()))
    assert np.array_equal(narrow, gathered)
    assert not narrow.flags.writeable
    if not star:  # the table's own column, no copy
        assert narrow is dataset.fact["V"] is dataset.value_column("V")


# ----------------------------------------------------------------------
# The folds: bitwise the parent's float64 cast
# ----------------------------------------------------------------------
@hyp_settings(max_examples=80, deadline=None)
@given(values=int_columns(), star=st.booleans(), filtered=st.booleans())
def test_folds_over_narrow_ints_equal_folds_over_the_float64_cast(
    values, star, filtered
):
    dataset = _dataset(values, len(values), star)
    kernel = CompiledQueryKernel(dataset, _query(filtered))
    assert kernel._agg_values[1].dtype.kind == "i"
    reference = _over(kernel, _float64_cast(dataset, "V"))
    _assert_every_fold_equal(kernel, reference, len(values))


@pytest.mark.parametrize(
    "raw",
    [
        np.array([0, 255, 3, 128, 7, 9], dtype=np.uint8),
        np.array([0, 60_000, 40_000, 1, 2, 3], dtype=np.uint16),
        np.array([2**63 - 1, 2**53 + 1, 0, 5, 2**62, 1], dtype=np.uint64),
        np.array([True, False, True, True, False, False]),
        np.array([0.1, -2.5, np.nan, 1e12, -0.0, 3.0]),
    ],
    ids=lambda raw: raw.dtype.name,
)
@pytest.mark.parametrize("filtered", [False, True])
def test_folds_over_uint_bool_and_float_columns(raw, filtered):
    """Columns a ``Table`` coerces, folded as it stores them."""
    dataset = _dataset(raw, 3, star=False)
    kernel = CompiledQueryKernel(dataset, _query(filtered))
    _assert_every_fold_equal(kernel, _over(kernel, raw.astype(np.float64)), 3)


def test_folds_over_an_empty_column():
    dataset = _dataset(np.array([], dtype=np.int64), 0, star=False)
    assert dataset.value_column("V").dtype == np.int8
    kernel = CompiledQueryKernel(dataset, _query(filtered=False))
    _assert_every_fold_equal(kernel, _over(kernel, _float64_cast(dataset, "V")), 0)


def test_flights_folds_equal_the_float64_cast(flights_table, flights_dataset):
    """The nine flights columns, narrow, through every fold."""
    fields = [name for name in flights_table.column_names if flights_table.is_numeric(name)]
    assert len(fields) == 9
    for field in fields:
        query = AggQuery(
            table="flights",
            bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.COUNT),)
            + tuple(Aggregate(a.func, field) for a in AGGREGATES),
            filter=RangePredicate("DEP_DELAY", -5.0, 45.0),
        )
        kernel = CompiledQueryKernel(flights_dataset, query)
        assert kernel._agg_values[1].itemsize < 8
        reference = _over(kernel, _float64_cast(flights_dataset, field))
        _assert_every_fold_equal(kernel, reference, 11)

"""Footprint guard: base tables and row-sized index arrays stay narrow.

A table stores every integer column at the narrowest type holding its
values and every nominal column as narrow codes plus its categories, so
the flights table takes ~21 bytes a row (it took 120 with ``int64`` and
unicode columns), and building it holds no second copy of the output.
Every row-sized array that indexes groups or categories — a table's
dictionary codes, a binning plan's group ids, a grouping's filtered ids
and an empty grouping's ``-1`` array — takes the narrowest signed integer
type whose maximum is at least its group or category count
(:func:`repro.data.storage.index_dtype`), and every integer column an
aggregate reads is the table's narrow column
(:meth:`repro.data.storage.Dataset.value_column`). A poll gathers one of
each per sampled row, so each byte of width is a byte of cache traffic
per row; these assertions fail if a later change widens any of them
again.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bench.experiments import ExperimentContext
from repro.common.config import BenchmarkSettings
from repro.data.generator import _APPLY_ROWS, CopulaScaler
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.data.storage import index_dtype, int_dtype
from repro.query.filters import RangePredicate
from repro.query.kernels import CompiledQueryKernel
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind


def rule_itemsize(count: int) -> int:
    """Bytes per row the rule allows for ``count`` groups or categories."""
    return 1 if count <= 127 else 2 if count <= 32_767 else 4


def _nominal_names(table):
    return [name for name in table.column_names if not table.is_numeric(name)]


def _query(bins, filter_expr=None):
    return AggQuery(
        table="flights",
        bins=bins,
        aggregates=(Aggregate(AggFunc.COUNT), Aggregate(AggFunc.SUM, "DISTANCE")),
        filter=filter_expr,
    )


def _nominal(field):
    return BinDimension(field, BinKind.NOMINAL)


def _quant(field, width):
    return BinDimension(field, BinKind.QUANTITATIVE, width=width, reference=0.0)


#: 1-D nominal, 1-D quantitative on both sides of the int8 boundary
#: (12 months; 2,362 one-mile distance bins), and 2-D packs (396 and 827
#: groups on the 6,000-row fixture).
PLAN_BINS = (
    (_nominal("UNIQUE_CARRIER"),),
    (_nominal("ORIGIN"),),
    (_quant("MONTH", 1.0),),
    (_quant("DISTANCE", 1.0),),
    (_nominal("ORIGIN_STATE"), _quant("MONTH", 1.0)),
    (_quant("DEP_DELAY", 5.0), _nominal("DEST")),
)
BRUSH = RangePredicate("DEP_DELAY", -5.0, 45.0)
NOTHING = RangePredicate("DISTANCE", 1e9, None)


@pytest.mark.parametrize("count", [0, 1, 127, 128, 32_767, 32_768, 2**31 - 1])
def test_index_dtype_is_the_rule(count):
    dtype = index_dtype(count)
    assert dtype.kind == "i" and dtype.itemsize == rule_itemsize(count)
    assert np.iinfo(dtype).max >= count


def test_dictionary_codes_are_narrow(flights_table, flights_dataset):
    names = _nominal_names(flights_table)
    assert names
    for name in names:
        categories, codes = flights_dataset.encoded_column(name)
        assert codes.dtype.kind == "i"
        assert codes.itemsize == rule_itemsize(len(categories)) == 1, name


def test_fk_reachable_codes_are_narrow(flights_table):
    star = normalize(flights_table, FLIGHTS_STAR_SPEC)
    fk_columns = [
        name for fk in star.foreign_keys for name in fk.denormalized_columns()
    ]
    assert "ORIGIN_STATE" in fk_columns
    for name in fk_columns:
        assert star.resolve_column(name)[2] is not None
        categories, codes = star.encoded_column(name)
        assert len(codes) == star.num_fact_rows
        assert codes.itemsize == rule_itemsize(len(categories)) == 1, name
    kernel = CompiledQueryKernel(star, _query((_nominal("ORIGIN_STATE"),), BRUSH))
    assert kernel._row_gid.itemsize == rule_itemsize(kernel.num_groups) == 1


@pytest.mark.parametrize("bins", PLAN_BINS, ids=lambda bins: "x".join(d.field for d in bins))
def test_plans_and_groupings_are_narrow(flights_dataset, bins):
    whole = CompiledQueryKernel(flights_dataset, _query(bins))
    brushed = CompiledQueryKernel(flights_dataset, _query(bins, BRUSH))
    assert whole.all_rows_pass and not brushed.all_rows_pass
    plan = brushed._grouping.plan
    assert whole._grouping.plan is plan
    itemsize = rule_itemsize(whole.num_groups)
    for ids in (plan.gid, whole._row_gid, brushed._row_gid):
        assert ids.dtype.kind == "i"
        assert ids.itemsize == itemsize, (ids.dtype, whole.num_groups)
    assert brushed._row_gid.min() == -1


def test_empty_grouping_is_int8(flights_dataset):
    kernel = CompiledQueryKernel(flights_dataset, _query(PLAN_BINS[3], NOTHING))
    assert kernel.num_groups == 0
    assert kernel._row_gid.dtype == np.int8
    assert len(kernel._row_gid) == flights_dataset.num_fact_rows
    assert (kernel._row_gid == -1).all()


#: Bytes a row of each flights value column takes on the 6,000-row
#: fixture: its span fits int8 (MONTH 1-12, DAY_OF_WEEK 1-7) or int16.
VALUE_ITEMSIZES = {
    "MONTH": 1, "DAY_OF_WEEK": 1, "DEP_TIME": 2, "ARR_TIME": 2, "DEP_DELAY": 2,
    "ARR_DELAY": 2, "AIR_TIME": 2, "DISTANCE": 2, "ELAPSED_TIME": 2,
}


def test_flights_value_columns_are_narrow(flights_table, flights_dataset):
    numeric = [name for name in flights_table.column_names if flights_table.is_numeric(name)]
    assert sorted(numeric) == sorted(VALUE_ITEMSIZES)
    star = normalize(flights_table, FLIGHTS_STAR_SPEC)
    for name, itemsize in VALUE_ITEMSIZES.items():
        column = flights_table[name]
        assert column.dtype.kind == "i" and column.itemsize == itemsize, name
        for dataset in (flights_dataset, star):
            values = dataset.value_column(name)
            assert values.dtype == column.dtype, name
            assert np.array_equal(values, column)
    kernel = CompiledQueryKernel(flights_dataset, _query(PLAN_BINS[0], BRUSH))
    assert kernel._agg_values[1] is flights_table["DISTANCE"]


#: Every flights column's stored type, on the 6,000-row fixture and on a
#: scaled table: 2 bytes for the seven wider integer columns, 1 for the
#: two calendar columns and for the codes of each ≤ 60-category column.
STORED_DTYPES = {
    **{name: np.dtype(f"i{size}") for name, size in VALUE_ITEMSIZES.items()},
    **dict.fromkeys(
        ("UNIQUE_CARRIER", "ORIGIN", "ORIGIN_STATE", "DEST", "DEST_STATE"),
        np.dtype(np.int8),
    ),
}


@pytest.fixture(scope="module")
def scaled_flights(flights_table):
    return CopulaScaler.fit(flights_table, seed_value=5).generate(20_000, stream="S")


def test_flights_tables_are_stored_narrow(flights_table, scaled_flights):
    for table in (flights_table, scaled_flights):
        assert {name: table._columns[name].dtype for name in table.column_names} == (
            STORED_DTYPES
        )
        # codes plus categories: 21 bytes a row, and the categories' few kB
        assert table.memory_bytes() <= 24 * table.num_rows


def test_generate_holds_no_second_copy_of_its_output(flights_table):
    """Above its output, a three-batch build peaks at one batch's
    (rows × columns) float64 buffer, one (columns × ``_APPLY_ROWS``)
    buffer of uniforms and the inverse CDFs' chunk-sized temporaries
    (6.5 float64 arrays of a chunk's length): the normals are correlated
    in place, and every batch is written into the preallocated output,
    which a concatenation of kept batches would hold twice. The batch is
    several chunks long, so a second batch-sized buffer cannot hide in
    the allowance."""
    scaler = CopulaScaler.fit(flights_table, fit_sample=2_000, seed_value=5)
    columns = len(scaler.column_names)
    batch = 4 * _APPLY_ROWS
    allowance = 8 * _APPLY_ROWS * 8
    bound = (batch + _APPLY_ROWS) * columns * 8 + allowance
    tracemalloc.start()
    try:
        table = scaler.generate(3 * batch, batch_rows=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.memory_bytes() < bound


def _array_bytes(obj, seen) -> int:
    """Bytes of every ndarray reachable from ``obj``'s attributes."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(value, seen) for value in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(value, seen) for value in obj)
    return _array_bytes(vars(obj), seen) if hasattr(obj, "__dict__") else 0


def test_flights_scaler_is_narrow():
    """The scaler each population-workload unit fits (60,000 seed rows, a
    20,000-row sample): integer samples at their range's type, 0.37 MB of
    arrays in all (1.45 MB with ``float64`` samples)."""
    scaler = ExperimentContext(BenchmarkSettings(seed=5)).scaler
    for name, cdf in scaler.numeric_cdfs.items():
        low, high = cdf.sorted_values[[0, -1]].tolist()
        assert cdf.sorted_values.dtype == int_dtype(low, high), name
        assert cdf.sorted_values.itemsize == VALUE_ITEMSIZES[name], name
    assert _array_bytes(scaler, set()) <= 400_000

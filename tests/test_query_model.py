"""Tests for the query model (AggQuery, BinDimension, Aggregate, results)."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from repro.common.errors import EngineError, QueryError
from repro.data.schema import profile_table
from repro.query.filters import RangePredicate
from repro.query import model
from repro.query.model import (
    AggFunc,
    Aggregate,
    AggQuery,
    BinColumns,
    BinDimension,
    BinKind,
    QueryResult,
    make_count_query,
    resolve_query,
)


class TestBinDimension:
    def test_width_based_is_resolved(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, width=10.0, reference=5.0)
        assert dim.is_resolved
        assert dim.bin_interval(0) == (5.0, 15.0)
        assert dim.bin_interval(-1) == (-5.0, 5.0)

    def test_bin_count_is_unresolved(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, bin_count=10)
        assert not dim.is_resolved

    def test_resolution(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, bin_count=10)
        resolved = dim.resolved(0.0, 100.0)
        assert resolved.width == pytest.approx(10.0)
        assert resolved.reference == 0.0
        assert resolved.is_resolved

    def test_resolution_of_degenerate_range(self):
        dim = BinDimension("v", BinKind.QUANTITATIVE, bin_count=4)
        resolved = dim.resolved(5.0, 5.0)
        assert resolved.width > 0

    def test_nominal_is_always_resolved(self):
        dim = BinDimension("c", BinKind.NOMINAL)
        assert dim.is_resolved

    def test_nominal_has_no_intervals(self):
        with pytest.raises(QueryError):
            BinDimension("c", BinKind.NOMINAL).bin_interval(0)

    @pytest.mark.parametrize("kwargs", [
        dict(kind=BinKind.QUANTITATIVE),                      # no width/count
        dict(kind=BinKind.QUANTITATIVE, width=0.0),           # zero width
        dict(kind=BinKind.QUANTITATIVE, width=-1.0),          # negative width
        dict(kind=BinKind.QUANTITATIVE, bin_count=0),         # zero bins
        dict(kind=BinKind.NOMINAL, width=1.0),                # nominal + width
        dict(kind=BinKind.NOMINAL, bin_count=5),              # nominal + count
    ])
    def test_validation(self, kwargs):
        with pytest.raises(QueryError):
            BinDimension("v", **kwargs)

    def test_dict_round_trip(self):
        for dim in (
            BinDimension("v", BinKind.QUANTITATIVE, width=2.5, reference=-10.0),
            BinDimension("v", BinKind.QUANTITATIVE, bin_count=25),
            BinDimension("c", BinKind.NOMINAL),
        ):
            assert BinDimension.from_dict(dim.to_dict()) == dim


class TestAggregate:
    def test_count_takes_no_field(self):
        assert Aggregate(AggFunc.COUNT).label == "count"
        with pytest.raises(QueryError):
            Aggregate(AggFunc.COUNT, "v")

    def test_others_require_field(self):
        assert Aggregate(AggFunc.AVG, "x").label == "avg_x"
        with pytest.raises(QueryError):
            Aggregate(AggFunc.SUM)

    def test_dict_round_trip(self):
        for agg in (Aggregate(AggFunc.COUNT), Aggregate(AggFunc.MAX, "v")):
            assert Aggregate.from_dict(agg.to_dict()) == agg


class TestAggQuery:
    def test_basic_properties(self, carrier_count_query):
        assert carrier_count_query.num_bin_dims == 1
        assert carrier_count_query.agg_type == "count"
        assert carrier_count_query.binning_types == ("nominal",)
        assert carrier_count_query.is_resolved

    def test_referenced_columns_deduplicated(self):
        query = AggQuery(
            "t",
            bins=(BinDimension("a", BinKind.QUANTITATIVE, width=1.0),),
            aggregates=(Aggregate(AggFunc.AVG, "a"), Aggregate(AggFunc.COUNT)),
            filter=RangePredicate("b", 0, 1),
        )
        assert query.referenced_columns() == ("a", "b")

    def test_requires_bins_and_aggregates(self):
        with pytest.raises(QueryError):
            AggQuery("t", bins=(), aggregates=(Aggregate(AggFunc.COUNT),))
        with pytest.raises(QueryError):
            AggQuery(
                "t",
                bins=(BinDimension("c", BinKind.NOMINAL),),
                aggregates=(),
            )

    def test_rejects_three_dimensions(self):
        dims = tuple(
            BinDimension(name, BinKind.QUANTITATIVE, width=1.0)
            for name in "abc"
        )
        with pytest.raises(QueryError):
            AggQuery("t", bins=dims, aggregates=(Aggregate(AggFunc.COUNT),))

    def test_rejects_duplicate_bin_fields(self):
        dims = (
            BinDimension("a", BinKind.QUANTITATIVE, width=1.0),
            BinDimension("a", BinKind.QUANTITATIVE, width=2.0),
        )
        with pytest.raises(QueryError):
            AggQuery("t", bins=dims, aggregates=(Aggregate(AggFunc.COUNT),))

    def test_hashable_and_json_round_trip(self, delay_avg_query):
        payload = json.dumps(delay_avg_query.to_dict())
        assert AggQuery.from_dict(json.loads(payload)) == delay_avg_query
        assert hash(delay_avg_query) == hash(AggQuery.from_dict(json.loads(payload)))

    def test_make_count_query(self):
        query = make_count_query("t", BinDimension("c", BinKind.NOMINAL))
        assert query.aggregates == (Aggregate(AggFunc.COUNT),)


class TestResolveQuery:
    def test_resolves_bin_count_against_profiles(self, flights_table):
        profiles = profile_table(flights_table)
        query = AggQuery(
            "flights",
            bins=(BinDimension("DISTANCE", BinKind.QUANTITATIVE, bin_count=20),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        resolved = resolve_query(query, profiles)
        assert resolved.is_resolved
        dim = resolved.bins[0]
        assert dim.reference == profiles["DISTANCE"].minimum
        assert dim.width == pytest.approx(profiles["DISTANCE"].span / 20)

    def test_resolved_query_passes_through(self, carrier_count_query):
        assert resolve_query(carrier_count_query, {}) is carrier_count_query

    def test_missing_profile_rejected(self):
        query = AggQuery(
            "t",
            bins=(BinDimension("ghost", BinKind.QUANTITATIVE, bin_count=5),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        with pytest.raises(QueryError):
            resolve_query(query, {})


@pytest.fixture
def two_aggregate_query():
    return AggQuery(
        "flights",
        bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "DEP_DELAY")),
    )


class TestQueryResult:
    def test_accessors(self, carrier_count_query):
        result = QueryResult(
            query=carrier_count_query,
            values={("AA",): (10.0,), ("BB",): (5.0,)},
            rows_processed=100,
            fraction=0.5,
        )
        assert result.num_bins == 2
        assert result.value_of(("AA",)) == 10.0
        with pytest.raises(KeyError):
            result.value_of(("ZZ",))

    def test_dict_inputs_round_trip_through_columns(self, two_aggregate_query):
        # Adapters hand over whatever their DBMS driver returns: ints too.
        values = {("AA",): (10, 2.5), ("BB",): (5.0, 4)}
        margins = {("AA",): (1, None), ("BB",): (float("nan"), 0.5)}
        result = QueryResult(two_aggregate_query, values, margins, 100, 0.5)
        columns = result.columns
        assert columns.keys == [("AA",), ("BB",)]
        assert [row.dtype for row in columns.values] == [np.float64] * 2
        assert [row.tolist() for row in columns.values] == [[10.0, 5.0], [2.5, 4.0]]
        assert [row.tolist() for row in columns.bounded] == [[True, True], [False, True]]
        assert columns.margins[0][0] == 1.0 and np.isnan(columns.margins[0][1])
        assert columns.margins[1][1] == 0.5
        # The views are the dicts that came in, ints and all.
        assert result.values is values and result.margins is margins
        assert tuple(columns) == (values, margins)

    def test_column_inputs_read_as_the_dict_form(self, two_aggregate_query):
        columns = BinColumns(
            [("BB",), ("AA",)],
            [np.array([5.0, 10.0]), np.array([4.0, 2.5])],
            [np.array([0.25, 1.0]), np.array([9.9, math.nan])],
            [np.array([True, True]), np.array([False, True])],
        )
        result = QueryResult(two_aggregate_query, columns=columns, rows_processed=7)
        assert list(result.values) == [("BB",), ("AA",)]  # the engine's order
        assert result.values == {("BB",): (5.0, 4.0), ("AA",): (10.0, 2.5)}
        assert result.margins[("BB",)] == (0.25, None)  # unbounded, whatever the cell
        assert result.margins[("AA",)][0] == 1.0 and math.isnan(result.margins[("AA",)][1])
        assert all(
            type(cell) is float
            for row in (*result.values.values(), *result.margins.values())
            for cell in row if cell is not None
        )
        assert result.values is result.values  # built once
        values, margins = columns
        assert values is result.values and margins is result.margins
        exact = QueryResult(
            two_aggregate_query, columns=BinColumns(columns.keys, columns.values),
            exact=True,
        )
        assert exact.margins == {} and exact.values == result.values

    def test_equality_is_by_value(self, two_aggregate_query):
        values = {("AA",): (10.0, 2.5)}
        margins = {("AA",): (1.0, None)}
        from_dicts = QueryResult(two_aggregate_query, values, margins, 3, 0.5)
        from_columns = QueryResult(
            two_aggregate_query,
            columns=BinColumns(
                [("AA",)], [np.array([10.0]), np.array([2.5])],
                [np.array([1.0]), np.array([0.0])],
                [np.array([True]), np.array([False])],
            ),
            rows_processed=3, fraction=0.5,
        )
        assert from_dicts == from_columns and not from_dicts != from_columns
        assert from_dicts == QueryResult(
            two_aggregate_query, {("AA",): (10, 2.5)}, margins, 3, 0.5
        )
        assert from_dicts != QueryResult(two_aggregate_query, values, margins, 4, 0.5)
        assert from_dicts != QueryResult(two_aggregate_query, values, {}, 3, 0.5)
        assert from_dicts != "QueryResult"
        with pytest.raises(TypeError):
            hash(from_dicts)

    def test_pickles_keep_the_dataclass_layout(self, two_aggregate_query, monkeypatch):
        """Store artifacts stay byte-equal and older ones load: the state
        is the six fields the dataclass pickled, in its order."""

        @dataclasses.dataclass
        class Parent:  # QueryResult as it was declared before columns
            query: AggQuery
            values: dict
            margins: dict = dataclasses.field(default_factory=dict)
            rows_processed: int = 0
            fraction: float = 1.0
            exact: bool = False

        # (the very str object: pickle memoizes the module name by identity)
        Parent.__module__, Parent.__qualname__ = QueryResult.__module__, "QueryResult"
        keys = [("AA",), ("BB",), ("CC",)]
        rows = [np.array([10.0, 5.0, 0.5]), np.array([2.5, math.inf, -0.0])]
        approx = BinColumns(
            keys, rows, [row / 8 for row in rows],
            [np.array([True] * 3), np.array([True, False, True])],
        )
        for columns, exact in ((approx, False), (BinColumns(keys, rows), True)):
            result = QueryResult(
                two_aggregate_query, columns=columns, rows_processed=9,
                fraction=0.25, exact=exact,
            )
            fresh = copy.copy(result)
            fresh.columns = BinColumns(
                columns.keys, columns.values, columns.margins, columns.bounded
            )
            parent = Parent(
                two_aggregate_query, dict(result.values), dict(result.margins),
                9, 0.25, exact,
            )
            for protocol in (2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
                with monkeypatch.context() as patch:
                    patch.setattr(model, "QueryResult", Parent)
                    parent_bytes = pickle.dumps(parent, protocol=protocol)
                # ...whether or not the views had been read before.
                assert "by_key" not in vars(fresh.columns)
                assert pickle.dumps(fresh, protocol=protocol) == parent_bytes
                assert pickle.dumps(result, protocol=protocol) == parent_bytes
                loaded = pickle.loads(parent_bytes)
                assert type(loaded) is QueryResult and loaded == result
                assert [row.tolist() for row in loaded.columns.values] == [
                    row.tolist() for row in rows
                ]
                fresh.columns.__dict__.pop("by_key")


class TestBinColumns:
    def test_rows_must_match_the_keys(self):
        keys = [("a",), ("b",)]
        ok = np.zeros(2)
        with pytest.raises(EngineError, match="one cell per bin"):
            BinColumns(keys, [ok, np.zeros(3)])
        with pytest.raises(EngineError, match="one cell per bin"):
            BinColumns(keys, [ok], [np.zeros(1)], [np.ones(2, dtype=bool)])
        with pytest.raises(EngineError, match="one cell per bin"):
            BinColumns(keys, [ok], [ok], [np.ones(3, dtype=bool)])

    def test_margins_need_their_bounded_mask(self):
        with pytest.raises(EngineError, match="come together"):
            BinColumns([("a",)], [np.zeros(1)], margins=[np.zeros(1)])
        with pytest.raises(EngineError, match="come together"):
            BinColumns([("a",)], [np.zeros(1)], bounded=[np.ones(1, dtype=bool)])

    def test_memos_are_lazy_and_never_pickled(self, two_aggregate_query):
        columns = BinColumns(
            [("a",), ("b",)], [np.array([3.0, 4.0]), np.array([0.0, 0.0])]
        )
        assert not {"index", "norms", "by_key"} & set(vars(columns))
        assert columns.index == {("a",): 0, ("b",): 1}
        assert columns.norms == (5.0, 0.0)
        result = QueryResult(two_aggregate_query, columns=columns, exact=True)
        restored = pickle.loads(pickle.dumps(result))
        assert not {"index", "norms"} & set(vars(restored.columns))
        assert restored.columns.norms == (5.0, 0.0)

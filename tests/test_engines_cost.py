"""Tests for the engine cost models and the data-preparation model (§5.2)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.data.storage import Dataset
from repro.engines.cost import (
    COLUMNSTORE_COST,
    COLUMNSTORE_PREP,
    EngineCostModel,
    ONLINEAGG_PREP,
    PROGRESSIVE_PREP,
    PreparationModel,
    SAMPLING_PREP,
)
from repro.engines.joins import num_joins, required_foreign_keys
from repro.query.filters import RangePredicate, SetPredicate
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind


def _query(bins=None, aggs=None, filter_expr=None):
    return AggQuery(
        "flights",
        bins=bins or (BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=10.0),),
        aggregates=aggs or (Aggregate(AggFunc.COUNT),),
        filter=filter_expr,
    )


class TestPreparationModel:
    """§5.2: 19 / 130 / 3 / 27 minutes at 500 M rows."""

    ROWS_500M = 500_000_000

    def test_monetdb_19_minutes(self):
        minutes = COLUMNSTORE_PREP.preparation_time(self.ROWS_500M) / 60
        assert minutes == pytest.approx(19, rel=0.05)

    def test_xdb_130_minutes(self):
        minutes = ONLINEAGG_PREP.preparation_time(self.ROWS_500M) / 60
        assert minutes == pytest.approx(130, rel=0.05)

    def test_idea_3_minutes_size_independent(self):
        assert PROGRESSIVE_PREP.preparation_time(self.ROWS_500M) == 180.0
        assert PROGRESSIVE_PREP.preparation_time(10) == 180.0

    def test_system_x_27_minutes(self):
        minutes = SAMPLING_PREP.preparation_time(self.ROWS_500M) / 60
        assert minutes == pytest.approx(27, rel=0.1)

    def test_prep_grows_with_size(self):
        for model in (COLUMNSTORE_PREP, ONLINEAGG_PREP, SAMPLING_PREP):
            assert model.preparation_time(10**9) > model.preparation_time(10**8)


class TestEngineCostModel:
    def test_rejects_nonpositive_throughput(self):
        with pytest.raises(ConfigurationError):
            EngineCostModel(scan_throughput=0.0)

    def test_more_columns_cost_more(self, flights_dataset):
        cheap = _query()
        expensive = _query(
            aggs=(Aggregate(AggFunc.AVG, "ARR_DELAY"),),
            filter_expr=RangePredicate("DISTANCE", 0, 100),
        )
        model = COLUMNSTORE_COST
        assert model.scan_column_cost(flights_dataset, expensive) > (
            model.scan_column_cost(flights_dataset, cheap)
        )

    def test_string_columns_cost_more_than_numeric(self, flights_dataset):
        numeric = _query()
        nominal = _query(bins=(BinDimension("ORIGIN", BinKind.NOMINAL),))
        model = COLUMNSTORE_COST
        assert model.scan_column_cost(flights_dataset, nominal) > (
            model.scan_column_cost(flights_dataset, numeric)
        )

    def test_selectivity_reduces_blocking_demand(self, flights_dataset):
        model = COLUMNSTORE_COST
        query = _query()
        broad = model.blocking_service_demand(
            query, flights_dataset, 10**8, 1000, qualifying_fraction=1.0
        )
        narrow = model.blocking_service_demand(
            query, flights_dataset, 10**8, 1000, qualifying_fraction=0.01
        )
        assert narrow < broad

    def test_demand_scales_linearly_with_virtual_rows(self, flights_dataset):
        model = COLUMNSTORE_COST
        query = _query()
        small = model.blocking_service_demand(query, flights_dataset, 10**8, 1000, 1.0)
        large = model.blocking_service_demand(query, flights_dataset, 10**9, 1000, 1.0)
        assert (large - model.startup_latency) == pytest.approx(
            10 * (small - model.startup_latency), rel=1e-6
        )

    def test_scale_preserves_time_ratios(self, flights_dataset):
        """The honesty rule (docs/architecture.md, "Simulated engines"): scaling rows
        and throughput by the same factor leaves service demands
        unchanged."""
        model = COLUMNSTORE_COST
        query = _query()
        demands = [
            model.blocking_service_demand(
                query, flights_dataset, 500_000_000, scale, 0.5
            )
            for scale in (100, 1000, 10_000)
        ]
        assert demands[0] == pytest.approx(demands[1], rel=1e-6)
        assert demands[1] == pytest.approx(demands[2], rel=1e-6)

    def test_sampling_rate_positive_and_join_sensitive(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        flat = Dataset.from_table(flights_table)
        model = EngineCostModel(scan_throughput=1e8, sample_throughput=1e6)
        join_query = _query(bins=(BinDimension("ORIGIN", BinKind.NOMINAL),))
        rate_flat = model.sampling_service_rate(join_query, flat, 1000)
        rate_star = model.sampling_service_rate(join_query, star, 1000)
        assert rate_flat > rate_star > 0  # FK dereference costs extra

    def test_sampling_without_sample_path_rejected(self, flights_dataset):
        model = EngineCostModel(scan_throughput=1e8)
        with pytest.raises(ConfigurationError):
            model.sampling_service_rate(_query(), flights_dataset, 1000)

    def test_normalized_string_query_cheaper(self, flights_table):
        """The §5.3 finding: star schema slightly better for string scans."""
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        flat = Dataset.from_table(flights_table)
        model = COLUMNSTORE_COST
        query = _query(
            bins=(BinDimension("ORIGIN_STATE", BinKind.NOMINAL),),
            aggs=(Aggregate(AggFunc.AVG, "ARR_DELAY"),),
        )
        demand_flat = model.blocking_service_demand(query, flat, 10**8, 1000, 0.5)
        demand_star = model.blocking_service_demand(query, star, 10**8, 1000, 0.5)
        assert demand_star < demand_flat


class TestJoins:
    def test_denormalized_needs_no_joins(self, flights_dataset):
        query = _query(bins=(BinDimension("ORIGIN", BinKind.NOMINAL),))
        assert num_joins(flights_dataset, query) == 0

    def test_normalized_counts_distinct_fks(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        query = _query(
            bins=(BinDimension("ORIGIN", BinKind.NOMINAL),),
            filter_expr=SetPredicate("ORIGIN_STATE", frozenset(["CA"])),
        )
        # ORIGIN and ORIGIN_STATE share one FK.
        assert num_joins(star, query) == 1
        fks = required_foreign_keys(star, query)
        assert fks[0].fact_column == "ORIGIN_KEY"

    def test_two_roles_are_two_joins(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        query = _query(
            bins=(BinDimension("ORIGIN", BinKind.NOMINAL),
                  BinDimension("DEST", BinKind.NOMINAL)),
        )
        assert num_joins(star, query) == 2

    def test_fact_only_query_normalized(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        assert num_joins(star, _query()) == 0

"""Tests for the shape of the generated SQL (paper Fig. 4).

What the statements compute is checked by running them in SQLite, in
``tests/test_query_sql_exec.py``.
"""

import pytest

from repro.common.errors import QueryError
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.query.filters import And, Comparison, RangePredicate, SetPredicate
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.query.sql import query_to_sql


def _mixed_query(filter_expr=None):
    return AggQuery(
        "flights",
        bins=(
            BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=10.0),
            BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),
        ),
        aggregates=(Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "ARR_DELAY")),
        filter=filter_expr,
    )


class TestGeneration:
    def test_basic_shape(self):
        sql = query_to_sql(_mixed_query())
        assert sql.startswith("SELECT ")
        assert "FLOOR((DEP_DELAY - 0) / 10.0) AS bin_0" in sql
        assert "UNIQUE_CARRIER AS bin_1" in sql
        assert "COUNT(*) AS count" in sql
        assert "AVG(ARR_DELAY) AS avg_ARR_DELAY" in sql
        assert sql.rstrip().endswith("GROUP BY bin_0, bin_1")
        assert "WHERE" not in sql

    def test_filter_rendering(self):
        sql = query_to_sql(
            _mixed_query(
                And(
                    RangePredicate("DISTANCE", 100, 500),
                    SetPredicate("ORIGIN_STATE", frozenset(["CA", "NY"])),
                    Comparison("MONTH", "!=", 6),
                )
            )
        )
        assert "(DISTANCE >= 100 AND DISTANCE < 500)" in sql
        assert "ORIGIN_STATE IN ('CA', 'NY')" in sql
        assert "MONTH != 6" in sql

    def test_string_literal_escaping(self):
        query = AggQuery(
            "t",
            bins=(BinDimension("c", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.COUNT),),
            filter=Comparison("c", "=", "O'Hare"),
        )
        sql = query_to_sql(query)
        assert "'O''Hare'" in sql

    def test_unresolved_query_rejected(self):
        query = AggQuery(
            "t",
            bins=(BinDimension("v", BinKind.QUANTITATIVE, bin_count=5),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        with pytest.raises(QueryError):
            query_to_sql(query)

    def test_normalized_emits_joins(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        sql = query_to_sql(_mixed_query(), star)
        assert "FROM flights_fact" in sql
        assert "JOIN carriers AS t_carrier_key" in sql
        assert "t_carrier_key.code AS bin_1" in sql

    def test_normalized_without_dim_columns_has_no_joins(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        query = AggQuery(
            "flights",
            bins=(BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=10.0),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        assert "JOIN" not in query_to_sql(query, star)

"""The SQL of paper Fig. 4, checked by running it.

``query_to_sql`` is what an SQL-speaking system under test receives
(§4.4). This module loads the 6,000-row flights fixture into stdlib
:mod:`sqlite3` twice, flat and as the ``FLIGHTS_STAR_SPEC`` star schema,
executes the emitted statements and compares each answer with
:func:`~repro.query.groundtruth.evaluate_exact` on the same layout:

* bin keys, COUNT, MIN and MAX must be equal;
* SUM and AVG must agree to a relative tolerance of ``REL_TOL`` (absolute
  ``ABS_TOL`` near zero), since SQLite and numpy add in different orders.

Each column is declared ``INTEGER``, ``REAL`` or ``TEXT`` from its dtype,
so comparisons follow numeric affinity as in a typed DBMS. The queries
come from a generated workflow suite and from a hypothesis stream.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.data.storage import Dataset
from repro.query.filters import And, Comparison, Or, RangePredicate, SetPredicate
from repro.query.groundtruth import evaluate_exact
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.query.sql import query_to_sql
from repro.workflow.generator import WorkflowGenerator
from repro.workflow.graph import VizGraph
from repro.workflow.spec import WorkflowType

#: Relative and absolute tolerance of SUM and AVG.
REL_TOL = 1e-9
ABS_TOL = 1e-9

QUANT_FIELDS = (
    "MONTH", "DAY_OF_WEEK", "DEP_TIME", "ARR_TIME", "DEP_DELAY",
    "ARR_DELAY", "AIR_TIME", "DISTANCE", "ELAPSED_TIME",
)
NOMINAL_FIELDS = ("UNIQUE_CARRIER", "ORIGIN", "ORIGIN_STATE", "DEST", "DEST_STATE")


def _sql_type(values) -> str:
    return {"i": "INTEGER", "u": "INTEGER", "f": "REAL"}.get(values.dtype.kind, "TEXT")


def _register_python_floor(conn: sqlite3.Connection) -> None:
    conn.create_function("FLOOR", 1, math.floor, deterministic=True)


def _connect(dataset: Dataset) -> sqlite3.Connection:
    """An in-memory SQLite database holding ``dataset``'s tables.

    SQLite builds without math functions lack ``FLOOR``; a Python one
    stands in for it there.
    """
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("SELECT FLOOR(1.5)")
    except sqlite3.OperationalError:
        _register_python_floor(conn)
    for name, table in dataset.tables.items():
        columns = table.column_names
        arrays = [table[column] for column in columns]
        declared = ", ".join(
            f"{column} {_sql_type(values)}" for column, values in zip(columns, arrays)
        )
        conn.execute(f"CREATE TABLE {name} ({declared})")
        conn.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*[values.tolist() for values in arrays]),
        )
    return conn


@pytest.fixture(scope="module")
def layouts(flights_table):
    """``[(name, dataset, connection)]`` for the flat and star layouts."""
    flat = Dataset.from_table(flights_table)
    star = normalize(flights_table, FLIGHTS_STAR_SPEC)
    built = [(name, ds, _connect(ds)) for name, ds in (("flat", flat), ("star", star))]
    yield built
    for _, _, conn in built:
        conn.close()


def _sql_answer(conn: sqlite3.Connection, sql: str, query: AggQuery):
    """``{bin key: row}`` of ``sql``, the statement emitted for ``query``."""
    quantitative = [dim.kind is BinKind.QUANTITATIVE for dim in query.bins]
    answer = {}
    for row in conn.execute(sql):
        key = tuple(
            int(coord) if is_quant else coord
            for coord, is_quant in zip(row, quantitative)
        )
        answer[key] = row[len(quantitative):]
    return answer


def assert_sql_matches_oracle(query: AggQuery, layouts) -> None:
    for name, dataset, conn in layouts:
        sql = query_to_sql(query, dataset)
        got = _sql_answer(conn, sql, query)
        expected = evaluate_exact(dataset, query).values
        context = f"{name} layout:\n{sql}"
        assert got.keys() == expected.keys(), context
        for key, row in expected.items():
            for agg, want, have in zip(query.aggregates, row, got[key]):
                where = f"{context}\nbin {key} {agg.label}: {have} != {want}"
                if agg.func.reads_sums:
                    assert math.isclose(have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), where
                else:
                    assert have == want, where


def _generated_queries(flights_table, flights_profiles):
    """Every distinct query a generated suite submits (3 workflows a type)."""
    generator = WorkflowGenerator(flights_profiles, table=flights_table.name, seed=99)
    queries = []
    for workflow_type in WorkflowType:
        if workflow_type is WorkflowType.CUSTOM:
            continue
        for workflow in generator.generate_suite(workflow_type, 3):
            graph = VizGraph()
            for interaction in workflow.interactions:
                affected = graph.apply(interaction).affected
                queries.extend(graph.query_for(viz_name) for viz_name in affected)
    return list(dict.fromkeys(queries))


def test_generated_suite(flights_table, flights_profiles, layouts):
    queries = _generated_queries(flights_table, flights_profiles)
    assert len(queries) > 100
    for query in queries:
        assert_sql_matches_oracle(query, layouts)


def _delay_histogram(width=10, reference=0):
    return AggQuery(
        "flights",
        bins=(
            BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=width, reference=reference),
        ),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )


def test_negative_bins_divide_in_floating_point(layouts):
    """An integer column over an integer width truncates toward zero in
    SQLite, moving bin -1's rows into bin 0; the width is a float literal."""
    query = _delay_histogram()
    assert min(key for key, in evaluate_exact(layouts[0][1], query).values) < -1
    assert_sql_matches_oracle(query, layouts)


def test_python_floor_stands_in(flights_table):
    """The fallback for SQLite builds without math functions."""
    dataset = Dataset.from_table(flights_table)
    conn = _connect(dataset)
    _register_python_floor(conn)
    try:
        assert_sql_matches_oracle(_delay_histogram(7, 3), [("flat", dataset, conn)])
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Fixed queries: one of each filter shape and aggregate function
# ----------------------------------------------------------------------
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


class TestFixedQueries:
    @pytest.mark.parametrize("filter_expr", [
        pytest.param(None, id="unfiltered"),
        pytest.param(RangePredicate("DISTANCE", 100.0, 500.0), id="range"),
        pytest.param(RangePredicate("DEP_DELAY", -5.0, 60.0), id="negative-range"),
        pytest.param(RangePredicate("DISTANCE", None, 300.0), id="open-low"),
        pytest.param(SetPredicate("ORIGIN_STATE", frozenset(["CA", "NY", "TX"])), id="in-list"),
        pytest.param(Comparison("MONTH", "=", 6.0), id="numeric-equal"),
        pytest.param(Comparison("UNIQUE_CARRIER", "!=", "AA"), id="string-not-equal"),
        pytest.param(
            And(RangePredicate("DISTANCE", 0.0, 10.0), SetPredicate("ORIGIN", frozenset(["AAA"]))),
            id="and-selects-nothing",
        ),
        pytest.param(
            And(RangePredicate("DISTANCE", 200.0, 900.0),
                SetPredicate("DEST_STATE", frozenset(["CA", "WA"]))),
            id="and",
        ),
        pytest.param(
            Or(Comparison("MONTH", "=", 1.0), Comparison("MONTH", "=", 2.0)), id="or"
        ),
        pytest.param(
            And(Or(Comparison("MONTH", "=", 1.0), Comparison("MONTH", "=", 2.0)),
                RangePredicate("DISTANCE", 5.0, 600.0)),
            id="or-inside-and",
        ),
    ])
    def test_filter(self, filter_expr, layouts):
        assert_sql_matches_oracle(_mixed_query(filter_expr), layouts)

    @pytest.mark.parametrize("func", [AggFunc.SUM, AggFunc.MIN, AggFunc.MAX, AggFunc.AVG],
                             ids=lambda func: func.name)
    def test_single_aggregate(self, func, layouts):
        query = AggQuery(
            "flights",
            bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
            aggregates=(Aggregate(func, "DISTANCE"),),
        )
        assert_sql_matches_oracle(query, layouts)


@hyp_settings(max_examples=20, deadline=None)
@given(
    width=st.floats(0.5, 1000),
    reference=st.floats(-1000, 1000),
    low=st.floats(-100, 100),
    span=st.floats(0.1, 100),
)
def test_full_precision_literals(width, reference, low, span, layouts):
    """Widths, references and bounds keep every digit in the SQL text: the
    stream below rounds its numbers, this property does not."""
    query = AggQuery(
        "flights",
        bins=(BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=width, reference=reference),),
        aggregates=(Aggregate(AggFunc.COUNT),),
        filter=RangePredicate("ARR_DELAY", low, low + span),
    )
    assert_sql_matches_oracle(query, layouts)


# ----------------------------------------------------------------------
# A hypothesis stream of random queries over the fixture
# ----------------------------------------------------------------------
#: Categories that occur in the fixture and ones that do not, one quoted.
CATEGORIES = ("AA", "AD", "CA", "NM", "TX", "AAA", "GWL", "O'Hare", "zz")

_numbers = st.one_of(
    st.integers(-200, 3000),
    st.floats(-200, 3000, allow_nan=False).map(lambda x: round(x, 3)),
)
_widths = st.one_of(
    st.integers(1, 500),
    st.floats(0.25, 500, allow_nan=False).map(lambda x: round(x, 2)),
)


@st.composite
def _range(draw):
    field = draw(st.sampled_from(QUANT_FIELDS))
    low, high = sorted([draw(_numbers), draw(_numbers)])
    side = draw(st.sampled_from(["both", "low", "high"]))
    return RangePredicate(
        field, None if side == "high" else low, None if side == "low" else high
    )


_leaves = st.one_of(
    _range(),
    st.builds(
        Comparison,
        st.sampled_from(QUANT_FIELDS),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        _numbers,
    ),
    st.builds(
        Comparison,
        st.sampled_from(NOMINAL_FIELDS),
        st.sampled_from(["=", "!="]),
        st.sampled_from(CATEGORIES),
    ),
    st.builds(
        SetPredicate,
        st.sampled_from(NOMINAL_FIELDS),
        st.frozensets(st.sampled_from(CATEGORIES), min_size=1, max_size=4),
    ),
)
_filters = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda parts: And(*parts)),
        st.lists(children, min_size=2, max_size=3).map(lambda parts: Or(*parts)),
    ),
    max_leaves=6,
)
_quantitative_bins = st.builds(
    BinDimension,
    st.sampled_from(QUANT_FIELDS),
    st.just(BinKind.QUANTITATIVE),
    width=_widths,
    reference=_numbers,
)
_nominal_bins = st.sampled_from(NOMINAL_FIELDS).map(
    lambda field: BinDimension(field, BinKind.NOMINAL)
)
_aggregates = st.builds(
    Aggregate,
    st.sampled_from([AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX]),
    st.sampled_from(QUANT_FIELDS),
)


@st.composite
def _queries(draw):
    bins = draw(
        st.lists(
            st.one_of(_quantitative_bins, _nominal_bins),
            min_size=1, max_size=2, unique_by=lambda dim: dim.field,
        )
    )
    extra = draw(st.lists(_aggregates, max_size=3, unique_by=lambda agg: agg.label))
    return AggQuery(
        "flights",
        bins=tuple(bins),
        aggregates=(Aggregate(AggFunc.COUNT), *extra),
        filter=draw(st.one_of(st.none(), _filters)),
    )


@hyp_settings(max_examples=30, deadline=None)
@given(query=_queries())
def test_random_queries(query, layouts):
    assert_sql_matches_oracle(query, layouts)

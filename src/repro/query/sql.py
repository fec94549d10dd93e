"""Translation of :class:`AggQuery` to SQL (paper Fig. 4).

The benchmark driver "automatically translates queries to SQL, or
alternatively, lets the system driver translate queries into a language
compatible with the system being evaluated" (§4.4). The engine simulators
in this repository consume :class:`AggQuery` directly, but SQL-speaking
adapters (and readers of workflow traces) get the same statements the
original IDEBench would emit:

* quantitative bins become ``FLOOR((col - reference) / width) AS bin_i``,
* nominal bins select the column itself,
* the star-schema layout adds one ``JOIN`` per foreign key whose
  attributes the query touches.

Dialect contract: the statements use only standard SQL plus ``FLOOR``,
and the bin width is always a floating-point literal (``/ 10.0``), so
the bin division is a floating-point one in every dialect. SQLite and
Postgres truncate an integer divided by an integer toward zero, which
would move each negative value inside a bin one bin up (bin -1's rows
into bin 0). ``tests/test_query_sql_exec.py``
checks the contract by running the statements in SQLite, flat and as the
star schema, against :func:`~repro.query.groundtruth.evaluate_exact`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import QueryError
from repro.data.storage import Dataset, ForeignKey
from repro.query.filters import And, Comparison, Filter, Or, RangePredicate, SetPredicate
from repro.query.model import AggFunc, AggQuery, BinKind


def _format_number(value: float) -> str:
    """Render a numeric literal (integers without trailing ``.0``)."""
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _quote_string(value: str) -> str:
    """Single-quote a string literal, doubling embedded quotes."""
    return "'" + value.replace("'", "''") + "'"


def filter_to_sql(filter_expr: Filter, column_sql: Dict[str, str]) -> str:
    """Render a predicate tree as a SQL boolean expression."""
    if isinstance(filter_expr, RangePredicate):
        column = column_sql[filter_expr.field]
        parts = []
        if filter_expr.low is not None:
            parts.append(f"{column} >= {_format_number(filter_expr.low)}")
        if filter_expr.high is not None:
            parts.append(f"{column} < {_format_number(filter_expr.high)}")
        return "(" + " AND ".join(parts) + ")" if len(parts) > 1 else parts[0]
    if isinstance(filter_expr, SetPredicate):
        column = column_sql[filter_expr.field]
        values = ", ".join(_quote_string(v) for v in sorted(filter_expr.values))
        return f"{column} IN ({values})"
    if isinstance(filter_expr, Comparison):
        column = column_sql[filter_expr.field]
        if isinstance(filter_expr.value, str):
            literal = _quote_string(filter_expr.value)
        else:
            literal = _format_number(filter_expr.value)
        return f"{column} {filter_expr.op} {literal}"
    if isinstance(filter_expr, And):
        return "(" + " AND ".join(filter_to_sql(c, column_sql) for c in filter_expr.children) + ")"
    if isinstance(filter_expr, Or):
        return "(" + " OR ".join(filter_to_sql(c, column_sql) for c in filter_expr.children) + ")"
    raise QueryError(f"cannot translate filter node {type(filter_expr).__name__}")


def _column_sql_map(
    query: AggQuery, dataset: Optional[Dataset]
) -> Tuple[Dict[str, str], List[str]]:
    """Map each referenced logical column to its SQL expression.

    For a de-normalized dataset (or none) this is the identity. For a star
    schema, columns living in dimension tables are qualified with a
    deterministic per-FK alias and the necessary JOIN clauses are returned.
    """
    columns = query.referenced_columns()
    if dataset is None or not dataset.is_normalized:
        return {name: name for name in columns}, []

    column_sql: Dict[str, str] = {}
    joins: List[str] = []
    used_fks: List[ForeignKey] = []
    for name in columns:
        table_name, physical, fk = dataset.resolve_column(name)
        if fk is None:
            column_sql[name] = f"{dataset.fact_table}.{physical}"
            continue
        alias = _fk_alias(fk)
        column_sql[name] = f"{alias}.{physical}"
        if fk not in used_fks:
            used_fks.append(fk)
            joins.append(
                f"JOIN {fk.dim_table} AS {alias} "
                f"ON {dataset.fact_table}.{fk.fact_column} = {alias}.{fk.dim_key}"
            )
    return column_sql, joins


def _fk_alias(fk: ForeignKey) -> str:
    """Deterministic join alias for a foreign key (e.g. ``t_origin_key``)."""
    return "t_" + fk.fact_column.lower()


def query_to_sql(query: AggQuery, dataset: Optional[Dataset] = None) -> str:
    """Render ``query`` as a SQL statement.

    ``dataset`` controls the physical layout: pass a normalized dataset to
    get the JOIN form, or ``None``/de-normalized for single-table SQL.
    """
    if not query.is_resolved:
        raise QueryError("cannot translate an unresolved query to SQL")
    column_sql, joins = _column_sql_map(query, dataset)

    select_items: List[str] = []
    group_by: List[str] = []
    for i, dim in enumerate(query.bins):
        label = f"bin_{i}"
        if dim.kind is BinKind.QUANTITATIVE:
            expression = (
                f"FLOOR(({column_sql[dim.field]} - {_format_number(dim.reference)})"
                f" / {float(dim.width)!r})"
            )
        else:
            expression = column_sql[dim.field]
        select_items.append(f"{expression} AS {label}")
        group_by.append(label)

    for agg in query.aggregates:
        if agg.func is AggFunc.COUNT:
            select_items.append("COUNT(*) AS count")
        else:
            select_items.append(
                f"{agg.func.value.upper()}({column_sql[agg.field]}) AS {agg.label}"
            )

    table = dataset.fact_table if dataset is not None and dataset.is_normalized else query.table
    lines = [
        "SELECT " + ", ".join(select_items),
        f"FROM {table}",
    ]
    lines.extend(joins)
    if query.filter is not None:
        lines.append("WHERE " + filter_to_sql(query.filter, column_sql))
    lines.append("GROUP BY " + ", ".join(group_by))
    return "\n".join(lines)

"""Query model: binned aggregation queries, filters, ground truth and SQL.

IDE workloads are dominated by *binned* OLAP-style aggregation queries
(§2.2). This subpackage defines their in-memory form and everything needed
to evaluate them:

* :mod:`repro.query.model` — :class:`AggQuery` (bin dimensions, aggregate
  functions, filter) and :class:`QueryResult` over its ``BinColumns``;
* :mod:`repro.query.filters` — predicate trees and their vectorized
  evaluation to boolean masks;
* :mod:`repro.query.binning` — 1-D/2-D, nominal/quantitative binning;
* :mod:`repro.query.groundtruth` — the exact grouped-statistics kernel
  shared by the ground-truth oracle and every engine simulator;
* :mod:`repro.query.sql` / :mod:`repro.query.sql_parser` — translation of
  queries to the SQL of the paper's Fig. 4, and a round-trip parser.
"""

from repro.query.filters import (
    And,
    Comparison,
    Filter,
    Or,
    RangePredicate,
    SetPredicate,
    evaluate_filter,
    filter_from_dict,
)
from repro.query.model import (
    AggFunc,
    Aggregate,
    AggQuery,
    BinDimension,
    BinKind,
    QueryResult,
)
from repro.query.groundtruth import GroundTruthOracle, compute_grouped_stats, evaluate_exact
from repro.query.kernels import CompiledQueryKernel, KernelAccumulator, PrefixKernelRun
from repro.query.sql import query_to_sql
from repro.query.sql_parser import parse_sql

__all__ = [
    "AggFunc",
    "Aggregate",
    "AggQuery",
    "And",
    "BinDimension",
    "BinKind",
    "Comparison",
    "CompiledQueryKernel",
    "Filter",
    "GroundTruthOracle",
    "KernelAccumulator",
    "Or",
    "PrefixKernelRun",
    "QueryResult",
    "RangePredicate",
    "SetPredicate",
    "compute_grouped_stats",
    "evaluate_exact",
    "evaluate_filter",
    "filter_from_dict",
    "parse_sql",
    "query_to_sql",
]

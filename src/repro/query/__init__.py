"""Query model: binned aggregation queries, filters, ground truth and SQL.

IDE workloads are dominated by *binned* OLAP-style aggregation queries
(§2.2). This subpackage defines their in-memory form and everything needed
to evaluate them:

* :mod:`repro.query.model` — :class:`AggQuery` (bin dimensions, aggregate
  functions, filter) and :class:`QueryResult` over its ``BinColumns``;
* :mod:`repro.query.filters` — predicate trees and their vectorized
  evaluation to boolean masks;
* :mod:`repro.query.binning` — quantitative bin codes;
* :mod:`repro.query.kernels` — compiled queries: 1-D/2-D grouping and
  the grouped statistics every engine simulator reads;
* :mod:`repro.query.groundtruth` — exact answers and the ground-truth
  oracle;
* :mod:`repro.query.sql` — translation of queries to the SQL of the
  paper's Fig. 4, checked by running it in SQLite against the exact
  answers.
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
from repro.query.groundtruth import GroundTruthOracle, evaluate_exact
from repro.query.kernels import CompiledQueryKernel, KernelAccumulator, PrefixKernelRun
from repro.query.sql import query_to_sql

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
    "evaluate_exact",
    "evaluate_filter",
    "filter_from_dict",
    "query_to_sql",
]

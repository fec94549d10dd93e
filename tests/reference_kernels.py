"""The sort-based differential reference compiled kernels are held to.

``repro.query.kernels`` compiles every query: one grouping over all rows,
built by counting, and folds by ``ufunc.at``. This module evaluates the
same query the other way round, and nothing in ``src/`` calls it:

* :func:`group_rows` groups only the rows it is given, with
  ``np.unique`` — nominal values read as strings, 2-D codes as rows of a
  ``(rows, 2)`` array, so nothing is packed and nothing can wrap;
* :func:`compute_grouped_stats` gathers, filters and groups one row
  subset and folds its moments with ``np.bincount`` (MIN/MAX with
  ``ufunc.at``), always carrying an estimate's moments;
* :func:`grid_from_stats` lays per-stratum statistics out on one
  ``StrataGrid``, over the union of their keys in first-seen order.

The differential suites compare every compiled answer against these bit
for bit, and the ``fallback_kernels`` fixture of ``conftest.py`` routes a
kernel's folds through them, so whole drives replay through the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import QueryError
from repro.query.binning import compute_codes
from repro.query.filters import evaluate_filter
from repro.query.groundtruth import GroupedStats, StrataGrid, identity_moments
from repro.query.model import (
    AggFunc, AggQuery, BinCoord, BinDimension, BinKey, BinKind,
)


def dimension_codes(
    dim: BinDimension, values: np.ndarray
) -> Tuple[np.ndarray, Callable[[int], BinCoord]]:
    """``values``' int64 bin codes under ``dim`` and the decoder back to
    key coordinates: a quantitative code is its own bin index, a nominal
    one indexes the distinct strings among ``values``."""
    if dim.kind is BinKind.QUANTITATIVE:
        return compute_codes(dim, values), int
    categories, codes = np.unique(values.astype(str), return_inverse=True)
    return codes.astype(np.int64), lambda code: str(categories[code])


@dataclass
class GroupedRows:
    """Outcome of grouping: distinct keys and per-row group indices."""

    keys: List[BinKey]
    inverse: np.ndarray  # shape (num_rows,), values in [0, len(keys))

    @property
    def num_groups(self) -> int:
        return len(self.keys)


def group_rows(
    dims: Sequence[BinDimension], value_columns: Sequence[np.ndarray]
) -> GroupedRows:
    """Group rows by their combined bin key over ``dims``, keys ascending
    (lexicographic in 2-D). ``value_columns`` holds one array per
    dimension; zero rows group into zero groups."""
    if len(dims) != len(value_columns):
        raise QueryError(
            f"got {len(dims)} dimensions but {len(value_columns)} value columns"
        )
    if not len(value_columns[0]):
        return GroupedRows(keys=[], inverse=np.empty(0, dtype=np.int64))
    codes, decoders = zip(
        *(dimension_codes(dim, values) for dim, values in zip(dims, value_columns))
    )
    if len(codes) == 1:
        unique, inverse = np.unique(codes[0], return_inverse=True)
        unique = unique[:, None]
    else:
        unique, inverse = np.unique(
            np.column_stack(codes), axis=0, return_inverse=True
        )
    keys = [
        tuple(decode(code) for decode, code in zip(decoders, row))
        for row in unique.tolist()
    ]
    return GroupedRows(keys=keys, inverse=inverse.reshape(-1).astype(np.int64))


def compute_grouped_stats(
    dataset, query: AggQuery, row_indices: Optional[np.ndarray] = None
) -> GroupedStats:
    """Aggregate ``query`` over ``row_indices`` of ``dataset`` (``None``:
    every row, exact)."""
    if not query.is_resolved:
        raise QueryError(
            "query has unresolved bin dimensions; call resolve_query first"
        )
    # One gather per distinct column, however often the query names it.
    resolved: Dict[str, np.ndarray] = {}

    def get_column(name: str) -> np.ndarray:
        column = resolved.get(name)
        if column is None:
            column = dataset.gather_column(name)
            if row_indices is not None:
                column = column[row_indices]
            resolved[name] = column
        return column

    num_rows = (
        len(row_indices) if row_indices is not None else dataset.num_fact_rows
    )
    mask = evaluate_filter(query.filter, get_column, num_rows)
    grouped = group_rows(
        query.bins, [get_column(dim.field)[mask] for dim in query.bins]
    )
    num_groups = grouped.num_groups
    counts = np.bincount(grouped.inverse, minlength=num_groups).astype(np.int64)

    sums, sumsqs, mins, maxs = identity_moments(query, num_groups)
    with np.errstate(invalid="ignore"):  # NaN cells propagate by design
        for j, agg in enumerate(query.aggregates):
            if agg.func is AggFunc.COUNT or not num_groups:
                continue
            values = get_column(agg.field)[mask].astype(np.float64)
            if agg.func.reads_sums:
                sums[j] = np.bincount(
                    grouped.inverse, weights=values, minlength=num_groups
                )
                sumsqs[j] = np.bincount(
                    grouped.inverse, weights=values * values, minlength=num_groups
                )
            elif agg.func is AggFunc.MIN:
                np.minimum.at(mins[j], grouped.inverse, values)
            else:
                np.maximum.at(maxs[j], grouped.inverse, values)

    return GroupedStats(
        query=query,
        keys=grouped.keys,
        counts=counts,
        sums=sums,
        sumsqs=sumsqs,
        mins=mins,
        maxs=maxs,
        rows_aggregated=int(mask.sum()),
        rows_scanned=num_rows,
    )


def grid_from_stats(query: AggQuery, strata: Sequence[GroupedStats]) -> StrataGrid:
    """Lay per-stratum statistics out on the union of their keys
    (first-seen order), absent cells zero / ``±inf``."""
    column: Dict[BinKey, int] = {}
    for stats in strata:
        for key in stats.keys:
            column.setdefault(key, len(column))
    shape = (len(strata), len(column))
    grid = StrataGrid(
        list(column), np.zeros(shape, dtype=np.int64), *identity_moments(query, shape)
    )
    for h, stats in enumerate(strata):
        columns = [column[key] for key in stats.keys]
        grid.counts[h, columns] = stats.counts
        for cells, held in (
            (grid.sums, stats.sums),
            (grid.sumsqs, stats.sumsqs),
            (grid.mins, stats.mins),
            (grid.maxs, stats.maxs),
        ):
            for j, values in held.items():
                cells[j][h, columns] = values
    return grid

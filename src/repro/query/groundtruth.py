"""Exact query evaluation and the reference grouped statistics.

* the **ground-truth oracle** — every metric of §4.7 compares an engine's
  answer against the exact answer on the full dataset; the oracle caches
  those exact answers per query (workloads re-issue many identical
  queries, e.g. when a filter is cleared);
* the **sufficient statistics** engines estimate from — per bin, the
  count and the moments each aggregate reads (:class:`GroupedStats`, or a
  :class:`StrataGrid` of them for a stratified sample), which library
  code gets from a compiled kernel (:mod:`repro.query.kernels`);
* :func:`compute_grouped_stats` — the uncompiled, sort-based evaluation
  of one query over one row subset, in one library role: what a
  fallback-mode kernel runs. That makes it the differential reference
  the kernel tests hold every compiled answer to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import QueryError
from repro.data.storage import Dataset
from repro.obs.profile import STAGE_BINNING, STAGE_PREDICATE_EVAL, get_profiler
from repro.query.binning import GroupedRows, group_rows
from repro.query.filters import evaluate_filter
from repro.query.model import AggFunc, AggQuery, BinColumns, BinKey, QueryResult


def query_cache_key(query: AggQuery) -> str:
    """Stable, process-portable store key for ``query``.

    The key is a SHA-256 digest of the query's canonical JSON form
    (:meth:`AggQuery.to_dict`), so structurally equal queries key
    identically in every process — unlike ``hash(query)``, which is salted
    per interpreter (``PYTHONHASHSEED``) and therefore useless for on-disk
    caches or cross-worker sharing. It is computed only where a key leaves
    the process (the oracle's :class:`~repro.runtime.store.ArtifactStore`
    lookups); in-memory caches key on the query value itself.
    """
    return query.digest


@dataclass
class GroupedStats:
    """Sufficient statistics of one query over one set of rows.

    ``counts[g]`` is the number of aggregated rows in group ``g``. The
    per-column dictionaries hold, for aggregate ``j``, exactly the
    within-group moments its reader reads (:func:`identity_moments`):
    ``sums[j]`` and, unless exact, ``sumsqs[j]`` for SUM and AVG,
    ``mins[j]`` for MIN, ``maxs[j]`` for MAX, nothing for COUNT.
    """

    query: AggQuery
    keys: List[BinKey]
    counts: np.ndarray
    sums: Dict[int, np.ndarray]
    sumsqs: Dict[int, np.ndarray]
    mins: Dict[int, np.ndarray]
    maxs: Dict[int, np.ndarray]
    rows_aggregated: int
    rows_scanned: int

    @property
    def num_groups(self) -> int:
        return len(self.keys)


@dataclass
class StrataGrid:
    """The :class:`GroupedStats` of several row strata on one grid.

    Every array has shape ``(strata, len(keys))``: row ``h`` holds what
    stratum ``h`` contributes to each group, under the same
    moments-on-demand rule. A group the stratum holds no row of is an
    exact zero (``+inf`` / ``-inf`` for ``mins`` / ``maxs``).
    """

    keys: List[BinKey]
    counts: np.ndarray
    sums: Dict[int, np.ndarray]
    sumsqs: Dict[int, np.ndarray]
    mins: Dict[int, np.ndarray]
    maxs: Dict[int, np.ndarray]

    @classmethod
    def from_stats(
        cls, query: AggQuery, strata: Sequence[GroupedStats]
    ) -> "StrataGrid":
        """Lay per-stratum statistics out on the union of their keys
        (first-seen order), absent cells zero / ``±inf``."""
        column: Dict[BinKey, int] = {}
        for stats in strata:
            for key in stats.keys:
                column.setdefault(key, len(column))
        shape = (len(strata), len(column))
        grid = cls(
            list(column),
            np.zeros(shape, dtype=np.int64),
            *identity_moments(query, shape),
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


def identity_moments(query: AggQuery, shape, exact: bool = False) -> Tuple[
    Dict[int, np.ndarray], Dict[int, np.ndarray],
    Dict[int, np.ndarray], Dict[int, np.ndarray],
]:
    """``(sums, sumsqs, mins, maxs)`` of ``query`` before any row is
    folded in: per aggregate, only the arrays its reader reads (``exact``:
    no ``sumsqs``), of ``shape``, at their fold's identity (``0.0``, ``±inf``).
    """
    sums: Dict[int, np.ndarray] = {}
    sumsqs: Dict[int, np.ndarray] = {}
    mins: Dict[int, np.ndarray] = {}
    maxs: Dict[int, np.ndarray] = {}
    for j, agg in enumerate(query.aggregates):
        if agg.func.reads_sums:
            sums[j] = np.zeros(shape)
            if not exact:
                sumsqs[j] = np.zeros(shape)
        elif agg.func is AggFunc.MIN:
            mins[j] = np.full(shape, np.inf)
        elif agg.func is AggFunc.MAX:
            maxs[j] = np.full(shape, -np.inf)
    return sums, sumsqs, mins, maxs


def compute_grouped_stats(
    dataset: Dataset,
    query: AggQuery,
    row_indices: Optional[np.ndarray] = None,
) -> GroupedStats:
    """Aggregate ``query`` over ``dataset`` (optionally only ``row_indices``).

    The uncompiled reference: a fallback-mode kernel runs it, and the
    differential tests hold every compiled answer to it bit for bit.
    ``None`` aggregates every row (exact).
    """
    if not query.is_resolved:
        raise QueryError(
            "query has unresolved bin dimensions; call resolve_query first"
        )

    # One gather per distinct column, not per use: a field that appears
    # as both bin and aggregate (or in several predicates) used to pay
    # the full gather — an FK dereference on normalized schemas — twice
    # per poll.
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
    profiler = get_profiler()
    with profiler.stage(STAGE_PREDICATE_EVAL):
        mask = evaluate_filter(query.filter, get_column, num_rows)
    with profiler.stage(STAGE_BINNING):
        bin_columns = [get_column(dim.field)[mask] for dim in query.bins]
        grouped: GroupedRows = group_rows(query.bins, bin_columns)

    counts = (
        np.bincount(grouped.inverse, minlength=grouped.num_groups).astype(np.int64)
        if grouped.num_groups
        else np.zeros(0, dtype=np.int64)
    )

    sums: Dict[int, np.ndarray] = {}
    sumsqs: Dict[int, np.ndarray] = {}
    mins: Dict[int, np.ndarray] = {}
    maxs: Dict[int, np.ndarray] = {}
    with np.errstate(invalid="ignore"):  # NaN cells propagate by design
        for j, agg in enumerate(query.aggregates):
            if agg.func is AggFunc.COUNT:
                continue
            values = get_column(agg.field)[mask].astype(np.float64)
            if agg.func.reads_sums:
                if grouped.num_groups == 0:
                    sums[j] = np.zeros(0)
                    sumsqs[j] = np.zeros(0)
                    continue
                sums[j] = np.bincount(
                    grouped.inverse, weights=values, minlength=grouped.num_groups
                )
                sumsqs[j] = np.bincount(
                    grouped.inverse,
                    weights=values * values,
                    minlength=grouped.num_groups,
                )
            elif agg.func is AggFunc.MIN:
                mins[j] = np.full(grouped.num_groups, np.inf)
                np.minimum.at(mins[j], grouped.inverse, values)
            else:
                maxs[j] = np.full(grouped.num_groups, -np.inf)
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


def stats_to_exact_values(stats: GroupedStats) -> BinColumns:
    """Turn sufficient statistics into exact per-bin aggregate values."""
    rows: List[np.ndarray] = []
    for j, agg in enumerate(stats.query.aggregates):
        if agg.func is AggFunc.COUNT:
            row = stats.counts
        elif agg.func is AggFunc.SUM:
            row = stats.sums[j]
        elif agg.func is AggFunc.AVG:
            row = stats.sums[j] / stats.counts
        elif agg.func is AggFunc.MIN:
            row = stats.mins[j]
        else:
            row = stats.maxs[j]
        rows.append(np.asarray(row, dtype=np.float64))
    return BinColumns(stats.keys, rows)


def evaluate_exact(dataset: Dataset, query: AggQuery) -> QueryResult:
    """Exact (blocking-engine / ground-truth) evaluation of a query.

    Routed through the compiled-kernel cache and memoized on the kernel:
    while it is cached, every oracle and blocking engine in the process
    shares one evaluation and one answer object per query.
    """
    from repro.engines.kernel_cache import get_kernel  # deferred: layering

    kernel = get_kernel(dataset, query)
    if kernel.exact_answer is None:
        stats = kernel.exact_stats()
        kernel.exact_answer = QueryResult(
            query=kernel.query,
            columns=stats_to_exact_values(stats),
            rows_processed=stats.rows_scanned,
            fraction=1.0,
            exact=True,
        )
    return kernel.exact_answer


class GroundTruthOracle:
    """Caches exact answers; the reference all metrics compare against.

    Workloads re-issue structurally identical queries (clearing a filter
    restores a previous query; linked updates repeat on every selection
    change), so caching exact answers speeds benchmark runs up considerably
    without changing any measured quantity — ground truth is computed
    outside the simulated clock.

    The in-memory map is keyed on the query value (``hash`` + ``==``), like
    the kernel cache. When ``store`` (an
    :class:`repro.runtime.store.ArtifactStore`-compatible object) is given,
    answers additionally persist on disk under the dataset's content
    fingerprint and the stable digest of :func:`query_cache_key` — computed
    only after an in-memory miss — so a cell computed by one worker warms
    every other worker and every later run.
    """

    def __init__(self, dataset: Dataset, store=None, dataset_key: Optional[str] = None):
        self._dataset = dataset
        self._cache: Dict[AggQuery, QueryResult] = {}
        self._store = store
        self._dataset_key = dataset_key
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def dataset_key(self) -> Optional[str]:
        """Key namespacing persisted answers (content fingerprint by default)."""
        if self._dataset_key is None and self._store is not None:
            self._dataset_key = self._dataset.fingerprint()
        return self._dataset_key

    def _store_key(self, query: AggQuery) -> tuple:
        return ("ground-truth", self.dataset_key, query_cache_key(query))

    def answer(self, query: AggQuery) -> QueryResult:
        """Exact result for ``query`` (cached in memory, then on disk)."""
        cached = self._cache.get(query)
        if cached is not None:
            self.hits += 1
            return cached
        store_key = None
        if self._store is not None:
            store_key = self._store_key(query)
            persisted = self._store.get(store_key)
            if persisted is not None:
                self.hits += 1
                self.store_hits += 1
                self._cache[query] = persisted
                return persisted
        self.misses += 1
        result = evaluate_exact(self._dataset, query)
        self._cache[query] = result
        if store_key is not None:
            self._store.put(store_key, result)
        return result

    def clear(self) -> None:
        """Drop all in-memory cached answers (e.g. after switching datasets)."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

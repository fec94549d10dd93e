"""Exact query evaluation and the grouped statistics it reads.

* the **ground-truth oracle** — every metric of §4.7 compares an engine's
  answer against the exact answer on the full dataset, memoized on its
  compiled kernel (workloads re-issue many identical queries, e.g. when
  a filter is cleared);
* the **sufficient statistics** engines estimate from — per bin, the
  count and the moments each aggregate reads (:class:`GroupedStats`, or a
  :class:`StrataGrid` of them for a stratified sample), which every
  caller gets from a compiled kernel (:mod:`repro.query.kernels`), exact
  answers included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.storage import Dataset
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


def _exact_answer(kernel) -> QueryResult:
    """``kernel``'s exact answer, computed once and memoized on it."""
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


def evaluate_exact(dataset: Dataset, query: AggQuery) -> QueryResult:
    """Exact (blocking-engine / ground-truth) evaluation of a query.

    Routed through the compiled-kernel cache and memoized on the kernel:
    while it is cached, every oracle and blocking engine in the process
    shares one evaluation and one answer object per query.
    """
    from repro.engines.kernel_cache import get_kernel  # deferred: layering

    return _exact_answer(get_kernel(dataset, query))


class GroundTruthOracle:
    """Serves exact answers; the reference all metrics compare against.

    The oracle holds no answer itself: each lives on its compiled kernel
    (:func:`evaluate_exact`), so the kernel cache bounds them, and
    :meth:`answer` finds them by query value without counting a kernel hit
    or reordering the LRU. With ``store`` (an ``ArtifactStore``-compatible
    object) the answers it computes also persist on disk under the
    dataset's content fingerprint and :func:`query_cache_key` — computed
    only after an in-memory miss — so a cell computed by one worker warms
    every other worker and every later run.
    """

    def __init__(self, dataset: Dataset, store=None, dataset_key: Optional[str] = None):
        self._dataset = dataset
        self._store = store
        self._dataset_key = dataset_key
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    @property
    def dataset_key(self) -> Optional[str]:
        """Key namespacing persisted answers (content fingerprint by default)."""
        if self._dataset_key is None and self._store is not None:
            self._dataset_key = self._dataset.fingerprint()
        return self._dataset_key

    def answer(self, query: AggQuery) -> QueryResult:
        """Exact result for ``query`` (memoized on its kernel, then on disk)."""
        from repro.engines.kernel_cache import kernel_cache  # deferred: layering

        kernel = kernel_cache().peek(self._dataset, query)
        if kernel is not None and kernel.exact_answer is not None:
            self.hits += 1
            return kernel.exact_answer
        store_key = None
        if self._store is not None:
            store_key = ("ground-truth", self.dataset_key, query_cache_key(query))
            persisted = self._store.get(store_key)
            if persisted is not None:
                self.hits += 1
                self.store_hits += 1
                if kernel is not None:
                    kernel.exact_answer = persisted
                return persisted
        self.misses += 1
        if kernel is None:
            result = evaluate_exact(self._dataset, query)
        else:
            result = _exact_answer(kernel)
        if store_key is not None:
            self._store.put(store_key, result)
        return result

    def clear(self) -> None:
        """Reset the counters; ``clear_kernel_cache()`` drops the answers."""
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

"""Compiled query kernels: plan once, aggregate many prefixes cheaply.

Progressive engines (§5's IDEA/XDB stand-ins) poll estimates "at any
point in time", and every poll used to re-run the full
predicate→bin→moments pipeline of
:func:`repro.query.groundtruth.compute_grouped_stats` over the whole
sample prefix, so a progressively polled query cost O(n²) row-touches per
session. Compiling an :class:`~repro.query.model.AggQuery` against a
dataset hoists everything that does not depend on the polled row subset
out of the poll loop:

* every referenced logical column is gathered **once** (FK dereference on
  normalized schemas included);
* the filter mask is evaluated once over the full table — predicates are
  pointwise, so the mask of any row subset is a gather of the full mask;
* bin codes and the group structure are built once over all rows (a
  :class:`BinningPlan`) and restricted to the filter-passing ones (a
  :class:`Grouping`), yielding a per-row *global group id* and the
  decoded keys in canonical order (sorted codes / lexicographic for
  2-D), of which every subset's naive grouping is a restriction;
* aggregate columns are read as ``float64`` through the dataset's shared
  cast.

IDE queries are built incrementally (§2.2, §4.3): a brush re-issues many
queries whose bins are unchanged and one filter lands on many vizs. So a
compile builds only what no live kernel of the dataset already holds —
one plan per ``bins``, one mask per ``filter``, one grouping per pair —
and none of it sorts: nominal codes and string predicates come from the
dataset's memoized dictionary encoding
(:meth:`repro.data.storage.Dataset.encoded_column`) and the distinct
codes are found by counting (:func:`unique_inverse`).

A poll then reduces to one gather plus the scatters its aggregates need:
the group ids are gathered once, counts take one ``np.add.at``, and each
aggregate scatters only the moments its function reads (sum and sum of
squares for SUM/AVG, ``np.minimum.at`` for MIN, ``np.maximum.at`` for
MAX). A kernel whose filter passes every row also skips the compress of
rows without a group. :class:`PrefixKernelRun` makes polls over growing
sample prefixes **incremental**: only the delta rows since the last poll
are aggregated, turning per-session cost into O(n). A stratified sample
is aggregated in **one pass** too — :meth:`CompiledQueryKernel.evaluate_strata`
scatters every stratum's rows into cells ``stratum * num_groups + gid``.

Determinism contract (pinned by ``tests/test_kernels_differential.py``):
compiled results are **bitwise identical** to the uncompiled path, which
survives in one library role — a kernel whose 2-D packing overflows
compiles in **fallback mode** and runs it behind the same interface —
and is therefore the differential reference. The accumulators use
unbuffered ``ufunc.at`` scatters, which apply updates sequentially in row
order — exactly the fold ``np.bincount(weights=...)`` performs — so
continuing a running sum over delta rows reproduces the from-scratch
IEEE-754 operation sequence bit for bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import QueryError
from repro.query.binning import compute_codes
from repro.query.filters import evaluate_filter
from repro.query.groundtruth import (
    GroupedStats,
    StrataGrid,
    compute_grouped_stats,
    identity_moments,
)
from repro.query.model import AggFunc, AggQuery, BinDimension, BinKey, BinKind

#: Mixed-radix packing of 2-D bin codes must stay inside int64; spans
#: beyond this bound (degenerate bin widths, NaN-poisoned codes) compile
#: in fallback mode, which delegates to the uncompiled path verbatim.
_PACK_LIMIT = 2 ** 62

#: :func:`unique_inverse` counts while the code span is at most this many
#: slots per row (or this many slots outright); measured against the sort
#: it replaces, counting wins up to ~4 slots per row at every size from
#: 10 to 160k rows and loses beyond.
_COUNTING_SLOTS_PER_ROW = 4
_COUNTING_MIN_SLOTS = 1024


class _PackingOverflow(Exception):
    """2-D code packing would overflow int64; compile falls back."""


def unique_inverse(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-free ``np.unique(codes, return_inverse=True)``.

    ``codes`` is a non-empty ``int64`` array. Bin codes are dense small
    integers, so the distinct ones are read off a presence bitmap over
    ``[min, max]`` in O(rows + span) and each row's rank is a table
    lookup. Spans that do not fit the bound above (NaN-poisoned or
    degenerate-width codes reach the int64 extremes) take the sort.
    """
    lowest = int(codes.min())
    span = int(codes.max()) - lowest + 1
    if span > max(_COUNTING_MIN_SLOTS, _COUNTING_SLOTS_PER_ROW * codes.size):
        return np.unique(codes, return_inverse=True)
    shifted = codes - lowest
    present = np.zeros(span, dtype=bool)
    present[shifted] = True
    unique = np.flatnonzero(present)
    rank = np.empty(span, dtype=np.int64)
    rank[unique] = np.arange(len(unique))
    return unique + lowest, rank[shifted]


@dataclass(eq=False)
class BinningPlan:
    """``query.bins`` run over every row of a dataset: the decoded keys in
    canonical order and each row's group id among them."""

    keys: List[BinKey]
    gid: np.ndarray


@dataclass(eq=False)
class Grouping:
    """What a (bins, filter) pair compiles to, whatever is aggregated.

    ``keys`` are the plan's keys some passing row reaches and ``row_gid``
    each row's index among them (``-1`` for rows failing the filter). It
    holds the parts it was derived from, so they live as long as it does.
    """

    mask: np.ndarray
    plan: Optional[BinningPlan]
    keys: List[BinKey]
    row_gid: np.ndarray
    num_passing: int
    fallback: bool


#: dataset -> the parts its live kernels are made of: plans by
#: ("plans", bins), full-table masks by ("masks", filter), groupings by
#: ("groupings", bins, filter). Weak both ways — a part dies with the
#: last kernel holding it, so the kernel cache's capacity bounds these
#: too. Their arrays are read-only: many kernels poll through each.
_PARTS = weakref.WeakKeyDictionary()
#: Parts built since import (none was alive to share), by kind.
PART_BUILDS = {"plans": 0, "masks": 0, "groupings": 0}


def _shared(dataset, key: tuple, build: Callable[[], object]):
    """The dataset's live part under ``key``; built, and only then
    registered, if there is none — a build that raises leaves nothing."""
    parts = _PARTS.get(dataset)
    if parts is None:
        parts = _PARTS[dataset] = weakref.WeakValueDictionary()
    part = parts.get(key)
    if part is None:
        part = parts[key] = build()
        PART_BUILDS[key[0]] += 1
    return part


def _dimension_codes(
    dataset,
    dim: BinDimension,
    columns: Dict[str, np.ndarray],
    rows: Optional[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Bin codes of ``rows`` (``None``: every row) under ``dim``, and the
    categories they index (``None``: a quantitative code is its own key).

    Nominal codes are a gather from the dataset's dictionary: they index
    *all* of the column's sorted categories rather than those present
    among ``rows``, which numbers the groups identically because both are
    monotone in the category order.
    """
    if dim.kind is BinKind.NOMINAL:
        categories, codes = dataset.encoded_column(dim.field)
        return (codes if rows is None else codes[rows]), categories
    values = columns[dim.field]
    return compute_codes(dim, values if rows is None else values[rows]).codes, None


def _decoded(codes: np.ndarray, categories: Optional[np.ndarray]) -> list:
    """Key coordinates of ``codes``: Python ``int`` bin indices or ``str``
    categories, as :class:`~repro.query.binning.DimensionCodes` decodes."""
    return (codes if categories is None else categories[codes]).tolist()


def _build_groups(
    dataset,
    bins: Tuple[BinDimension, ...],
    columns: Dict[str, np.ndarray],
    rows: Optional[np.ndarray],
) -> Tuple[List[BinKey], np.ndarray]:
    """Group structure of ``rows`` (``None``: every row) under ``bins``.

    Mirrors :func:`repro.query.binning.group_rows` exactly, except the
    grouping is computed once over every candidate row instead of per
    subset and without sorting: distinct codes in ascending order for
    1-D, mixed-radix packing (monotone lexicographic, so subset
    orderings are restrictions) for 2-D.
    """
    per_dim = [_dimension_codes(dataset, dim, columns, rows) for dim in bins]
    if len(per_dim) == 1:
        unique_codes, gid = unique_inverse(per_dim[0][0])
        return list(zip(_decoded(unique_codes, per_dim[0][1]))), gid
    (first, first_categories), (second, second_categories) = per_dim
    first_min = int(first.min())
    first_max = int(first.max())
    second_min = int(second.min())
    second_span = int(second.max()) - second_min + 1
    if (first_max - first_min) * second_span + (second_span - 1) > _PACK_LIMIT:
        raise _PackingOverflow
    unique_packed, gid = unique_inverse(
        (first - first_min) * second_span + (second - second_min)
    )
    first_codes, second_codes = np.divmod(unique_packed, second_span)
    keys = zip(
        _decoded(first_codes + first_min, first_categories),
        _decoded(second_codes + second_min, second_categories),
    )
    return list(keys), gid


def _build_grouping(
    dataset, query: AggQuery, columns: Dict[str, np.ndarray]
) -> Grouping:
    """Restrict the binning plan of ``query.bins`` to the rows its filter
    passes: keys no passing row reaches drop out and the rest renumber."""
    num_rows = dataset.num_fact_rows

    def build_mask() -> np.ndarray:
        mask = evaluate_filter(
            query.filter, columns.__getitem__, num_rows, dataset.encoded_column
        )
        mask.setflags(write=False)
        return mask

    def build_plan() -> BinningPlan:
        # A plan covers rows no query may have asked about: their NaNs
        # cast to the int64 extremes (see unique_inverse) unwarned.
        with np.errstate(invalid="ignore"):
            keys, gid = _build_groups(dataset, query.bins, columns, None)
        gid.setflags(write=False)
        return BinningPlan(keys, gid)

    mask = _shared(dataset, ("masks", query.filter), build_mask)
    rows = np.flatnonzero(mask)
    plan, keys, fallback = None, [], False
    row_gid = np.full(num_rows, -1, dtype=np.int64)
    if rows.size:
        try:
            plan = _shared(dataset, ("plans", query.bins), build_plan)
        except _PackingOverflow:
            # No plan to share: group the passing rows alone, whose
            # narrower code spans a filter may have brought back in range.
            try:
                keys, row_gid[rows] = _build_groups(
                    dataset, query.bins, columns, rows
                )
            except _PackingOverflow:
                fallback = True
        else:
            if rows.size == num_rows:
                keys, row_gid = plan.keys, plan.gid
            else:
                kept, row_gid[rows] = unique_inverse(plan.gid[rows])
                keys = plan.keys
                if len(kept) < len(keys):
                    keys = [keys[g] for g in kept.tolist()]
    row_gid.setflags(write=False)
    return Grouping(mask, plan, keys, row_gid, rows.size, fallback)


class CompiledQueryKernel:
    """One query compiled against one dataset.

    Holds the full-table filter mask, the per-row global group id (``-1``
    for rows failing the filter) and the decoded bin keys in canonical
    order — the :class:`Grouping` it shares with every live kernel of the
    same bins and filter — plus the aggregated columns. ``evaluate``
    aggregates any row subset from scratch; ``new_accumulator`` starts an
    incremental running aggregation over a growing row stream.
    """

    def __init__(self, dataset, query: AggQuery):
        if not query.is_resolved:
            raise QueryError(
                "query has unresolved bin dimensions; call resolve_query first"
            )
        self.query = query
        self._dataset = dataset
        self.num_rows = dataset.num_fact_rows
        columns: Dict[str, np.ndarray] = {
            name: dataset.gather_column(name)
            for name in query.referenced_columns()
        }
        self._grouping = grouping = _shared(
            dataset,
            ("groupings", query.bins, query.filter),
            lambda: _build_grouping(dataset, query, columns),
        )
        self._mask = grouping.mask
        # Equal to ``mask.mean()``: both divide the exact count once.
        self.qualifying_fraction = (
            grouping.num_passing / self.num_rows if self.num_rows else 0.0
        )
        self._keys = grouping.keys
        self._row_gid = grouping.row_gid
        self._fallback = grouping.fallback
        #: The filter passes every row, so every row has a group id and
        #: accumulating needs no compress (never in fallback mode, where
        #: no row has one).
        self.all_rows_pass = (
            not self._fallback and grouping.num_passing == self.num_rows
        )

        #: aggregate index -> full-table float64 value array, shared with
        #: every other kernel aggregating the same column of the dataset.
        self._agg_values: Dict[int, np.ndarray] = {}
        if not self._fallback:
            for j, agg in enumerate(query.aggregates):
                if agg.func is not AggFunc.COUNT:
                    self._agg_values[j] = dataset.float64_column(agg.field)
        self._exact_stats: Optional[GroupedStats] = None

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return len(self._keys)

    @property
    def supports_incremental(self) -> bool:
        """Whether running accumulators are available (False in fallback)."""
        return not self._fallback

    @property
    def full_mask(self) -> np.ndarray:
        """The full-table boolean filter mask (read-only)."""
        return self._mask

    # ------------------------------------------------------------------
    def new_accumulator(self, num_strata: int = 1) -> "KernelAccumulator":
        """A fresh running aggregation (raises in fallback mode)."""
        if self._fallback:
            raise QueryError(
                "kernel compiled in fallback mode has no incremental path"
            )
        return KernelAccumulator(self, num_strata)

    def evaluate(self, row_indices: Optional[np.ndarray] = None) -> GroupedStats:
        """Aggregate ``row_indices`` (or everything) from scratch.

        Bitwise identical to ``compute_grouped_stats(dataset, query,
        row_indices)`` — the differential suite pins this.
        """
        if self._fallback:
            return compute_grouped_stats(self._dataset, self.query, row_indices)
        accumulator = self.new_accumulator()
        accumulator.update(row_indices)
        return accumulator.stats()

    def evaluate_strata(
        self, rows: np.ndarray, stratum_of_row: np.ndarray, num_strata: int
    ) -> StrataGrid:
        """Aggregate a stratified row sample in one pass.

        ``rows`` concatenates the strata and ``stratum_of_row[i]`` names
        the stratum of ``rows[i]``. Row ``h`` of the result is bitwise
        what ``evaluate`` returns for stratum ``h``'s rows alone, spread
        over all of the kernel's groups — in fallback mode, over the
        groups some stratum holds, one uncompiled pass per stratum.
        """
        if self._fallback:
            return StrataGrid.from_stats(
                self.query,
                [
                    compute_grouped_stats(
                        self._dataset, self.query, rows[stratum_of_row == h]
                    )
                    for h in range(num_strata)
                ],
            )
        accumulator = self.new_accumulator(num_strata)
        accumulator.update(rows, stratum_of_row)
        return accumulator.grid()

    def exact_stats(self) -> GroupedStats:
        """Full-table stats, computed once and memoized on the kernel."""
        if self._exact_stats is None:
            self._exact_stats = self.evaluate(None)
        return self._exact_stats


def _taken(
    moments: Dict[int, np.ndarray], cells: np.ndarray
) -> Dict[int, np.ndarray]:
    # Polls of tiny tables are all call overhead, and most dicts are empty.
    return {j: array[cells] for j, array in moments.items()} if moments else {}


class KernelAccumulator:
    """Running :class:`GroupedStats` over an append-only row stream.

    ``update`` folds new rows into per-group counts and moment arrays
    spanning *all* global groups; ``stats`` snapshots the groups seen so
    far, in canonical key order. Because ``ufunc.at`` applies its updates
    sequentially in row order, feeding rows in one call or split across
    many calls produces bitwise-identical accumulator state — the property
    that makes incremental prefix polling byte-equivalent to from-scratch
    evaluation.

    With ``num_strata`` > 1 the same arrays hold one block of groups per
    stratum (cell ``stratum * num_groups + gid``); a cell still folds its
    rows in stream order, so each block equals the single-stratum
    accumulator fed that stratum's rows. ``grid`` reads the blocks out.
    """

    def __init__(self, kernel: CompiledQueryKernel, num_strata: int = 1):
        self._kernel = kernel
        self._num_strata = num_strata
        num_cells = num_strata * kernel.num_groups
        self._counts = np.zeros(num_cells, dtype=np.int64)
        self._sums, self._sumsqs, self._mins, self._maxs = identity_moments(
            kernel.query, num_cells
        )
        self.rows_aggregated = 0
        self.rows_scanned = 0

    def update(
        self,
        row_indices: Optional[np.ndarray],
        stratum_of_row: Optional[np.ndarray] = None,
    ) -> None:
        """Fold more rows in (``None`` = the whole table, once).

        ``stratum_of_row`` (parallel to ``row_indices``) routes each row
        to its stratum's block of a multi-stratum accumulator.
        """
        kernel = self._kernel
        if row_indices is None:
            cells = kernel._row_gid
            self.rows_scanned += kernel.num_rows
        else:
            cells = kernel._row_gid[row_indices]
            self.rows_scanned += len(row_indices)
        # Rows with a group id are exactly the filter-passing rows
        # (AggQuery guarantees >= 1 bin dimension, so every masked row
        # grouped at compile time); when the filter passes all of them
        # there is nothing to compress away.
        if not kernel.all_rows_pass:
            valid = cells >= 0
            cells = cells[valid]
            if stratum_of_row is not None:
                stratum_of_row = stratum_of_row[valid]
            if kernel._agg_values:
                # From here on: what selects the aggregated rows' values.
                row_indices = valid if row_indices is None else row_indices[valid]
        self.rows_aggregated += len(cells)
        if not len(cells):
            return
        if stratum_of_row is not None:
            cells = stratum_of_row * kernel.num_groups + cells
        np.add.at(self._counts, cells, 1)
        with np.errstate(invalid="ignore"):  # NaN cells propagate by design
            for j, values in kernel._agg_values.items():
                if row_indices is not None:
                    values = values[row_indices]
                if j in self._sums:
                    np.add.at(self._sums[j], cells, values)
                    np.add.at(self._sumsqs[j], cells, values * values)
                elif j in self._mins:
                    np.minimum.at(self._mins[j], cells, values)
                else:
                    np.maximum.at(self._maxs[j], cells, values)

    def stats(self) -> GroupedStats:
        """Snapshot the groups seen so far as a :class:`GroupedStats`."""
        present = np.flatnonzero(self._counts > 0)
        return GroupedStats(
            query=self._kernel.query,
            keys=[self._kernel._keys[g] for g in present],
            counts=self._counts[present],
            sums=_taken(self._sums, present),
            sumsqs=_taken(self._sumsqs, present),
            mins=_taken(self._mins, present),
            maxs=_taken(self._maxs, present),
            rows_aggregated=self.rows_aggregated,
            rows_scanned=self.rows_scanned,
        )

    def grid(self) -> StrataGrid:
        """The accumulator as ``(strata, groups)`` arrays (views)."""
        shape = (self._num_strata, self._kernel.num_groups)

        def blocks(moments: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
            return {j: cells.reshape(shape) for j, cells in moments.items()}

        return StrataGrid(
            keys=self._kernel._keys,
            counts=self._counts.reshape(shape),
            sums=blocks(self._sums),
            sumsqs=blocks(self._sumsqs),
            mins=blocks(self._mins),
            maxs=blocks(self._maxs),
        )


class PrefixKernelRun:
    """Incremental aggregation of one query over a rotated sample prefix.

    Progressive engines poll growing prefixes of a rotation
    ``permutation[offset:offset+n]`` (wrapping around). A run keeps the
    accumulator for the largest prefix polled so far and, on the next
    poll, folds in only the delta rows. Scratch rebuilds happen when the
    prefix shrinks (cancel/reissue races) and the first time the prefix
    wraps past the end of the permutation; both fallbacks are
    bitwise-equivalent to the incremental path, just slower.
    """

    def __init__(
        self, kernel: CompiledQueryKernel, permutation: np.ndarray, offset: int
    ):
        self._kernel = kernel
        self._permutation = permutation
        self._rows = len(permutation)
        self._offset = int(offset) % max(1, self._rows)
        self._accumulator: Optional[KernelAccumulator] = None
        self._n = 0
        self.rebuilds = 0

    @property
    def polled_n(self) -> int:
        """The prefix length of the last poll."""
        return self._n

    def poll(self, n: int) -> GroupedStats:
        """Stats of the first ``n`` prefix rows (``0 <= n <= rows``)."""
        n = min(n, self._rows)
        if not self._kernel.supports_incremental:
            self._n = n
            return self._kernel.evaluate(self._slice(0, n))
        if (
            self._accumulator is None
            or n < self._n
            or self._delta_wraps(self._n, n)
        ):
            self._accumulator = self._kernel.new_accumulator()
            self._accumulator.update(self._slice(0, n))
            if self._n:
                self.rebuilds += 1
        elif n > self._n:
            self._accumulator.update(self._slice(self._n, n))
        self._n = n
        return self._accumulator.stats()

    def _delta_wraps(self, last_n: int, n: int) -> bool:
        """Whether the delta segment crosses the permutation boundary."""
        return self._offset + last_n < self._rows < self._offset + n

    def _slice(self, start_n: int, end_n: int) -> np.ndarray:
        """Prefix positions ``[start_n, end_n)`` of the rotation, in order."""
        start = self._offset + start_n
        end = self._offset + end_n
        if start >= self._rows:
            start -= self._rows
            end -= self._rows
        if end <= self._rows:
            return self._permutation[start:end]
        return np.concatenate(
            [self._permutation[start:], self._permutation[: end - self._rows]]
        )

"""Compiled query kernels: plan once, aggregate many prefixes cheaply.

Progressive engines (§5's IDEA/XDB stand-ins) poll estimates "at any
point in time", and every poll used to re-run the full
predicate→bin→moments pipeline over the whole sample prefix, so a
progressively polled query cost O(n²) row-touches per session. Compiling
an :class:`~repro.query.model.AggQuery` against a dataset hoists
everything that does not depend on the polled row subset out of the poll
loop:

* columns are read as the dataset's tables store them — nominal ones as
  dictionary codes, numeric ones at their narrowest exact type — with no
  per-kernel copy (an FK-reachable column is taken through its key);
* the filter mask is evaluated once over the full table — predicates are
  pointwise, so the mask of any row subset is a gather of the full mask;
* bin codes and the group structure are built once over all rows (a
  :class:`BinningPlan`) and ``-1`` marks the rows the filter fails (a
  :class:`Grouping`), yielding a per-row *global group id* and the
  decoded keys in canonical order (sorted codes / lexicographic for
  2-D, whatever the codes span), of which every subset's grouping is a
  restriction;
* aggregate columns are the dataset's stored value columns, and a fold
  widens to ``float64`` only the rows it gathers.

IDE queries are built incrementally (§2.2, §4.3): a brush re-issues many
queries whose bins are unchanged and one filter lands on many vizs. So a
compile builds only what no live kernel of the dataset already holds —
one plan per ``bins``, one mask per ``filter``, one grouping per pair —
and none of it sorts: nominal codes and string predicates come from the
tables' stored dictionary encoding
(:meth:`repro.data.storage.Dataset.encoded_column`) and the distinct
codes are found by counting (:func:`unique_inverse`, from ``repro.data``).

A poll then reduces to one gather plus the scatters its aggregates need:
the group ids are taken once (``take``, cast to ``np.intp`` once for
every ``ufunc.at``), counts take one ``np.add.at``, and each aggregate
scatters only the moments its reader reads (sum, and sum of squares for
an estimate, for SUM/AVG; ``np.minimum.at`` for MIN, ``np.maximum.at`` for
MAX). A kernel whose filter passes every row also skips the compress of
rows without a group. :class:`PrefixKernelRun` makes polls over growing
sample prefixes **incremental**: only the delta rows since the last poll
are aggregated, turning per-session cost into O(n). Runs live on their
kernel, one per sampling identity (:meth:`CompiledQueryKernel.prefix_run`),
so every engine that samples a query the same way continues one fold and
the kernel cache bounds runs as it bounds kernels. A stratified sample
is aggregated in **one pass** too — :meth:`CompiledQueryKernel.evaluate_strata`
scatters every stratum's rows into cells ``stratum * num_groups + gid``.

Every query compiles; there is no other path. Determinism contract
(pinned by ``tests/test_kernels_differential.py``): compiled results are
**bitwise identical** to a sort-based evaluation that groups only the
rows it is given, kept in the test tree as the differential reference.
The accumulators use unbuffered ``ufunc.at`` scatters, which apply
updates sequentially in row order — exactly the fold
``np.bincount(weights=...)`` performs — so continuing a running sum over
delta rows reproduces the from-scratch IEEE-754 operation sequence bit
for bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import QueryError
from repro.common.rng import derive_seed
from repro.data.storage import index_dtype, unique_inverse
from repro.query.binning import compute_codes
from repro.query.filters import evaluate_filter
from repro.query.groundtruth import GroupedStats, StrataGrid, identity_moments
from repro.query.model import (
    AggFunc, AggQuery, BinDimension, BinKey, BinKind, QueryResult,
)


@dataclass(eq=False)
class BinningPlan:
    """``query.bins`` run over every row of a dataset: the decoded keys in
    canonical order and each row's group id among them."""

    keys: List[BinKey]
    gid: np.ndarray


@dataclass(eq=False)
class Grouping:
    """What a (bins, filter) pair compiles to, whatever is aggregated.

    ``keys`` are the plan's keys and ``row_gid`` each row's index among
    them (``-1`` for rows failing the filter; the plan's own array when
    every row passes). It holds the parts it was derived from, so they
    live as long as it does.
    """

    mask: np.ndarray
    plan: Optional[BinningPlan]
    keys: List[BinKey]
    row_gid: np.ndarray
    num_passing: int


#: dataset -> the parts its live kernels are made of: plans by
#: ("plans", bins), full-table masks by ("masks", filter), groupings by
#: ("groupings", bins, filter). Weak both ways — a part dies with the
#: last kernel holding it, so the kernel cache's capacity bounds these
#: too. Their arrays are read-only: many kernels poll through each.
_PARTS = weakref.WeakKeyDictionary()


def _shared(dataset, key: tuple, build: Callable[[], object]):
    """The dataset's live part under ``key``; built, and only then
    registered, if there is none — a build that raises leaves nothing."""
    parts = _PARTS.get(dataset)
    if parts is None:
        parts = _PARTS[dataset] = weakref.WeakValueDictionary()
    part = parts.get(key)
    if part is None:
        part = parts[key] = build()
    return part


def _dimension_codes(
    dataset, dim: BinDimension
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Every row's bin code under ``dim``, and the categories they index
    (``None``: a quantitative code is its own key).

    Nominal codes are the dataset's dictionary codes: they index *all* of
    the column's sorted categories rather than those some passing row
    holds, which numbers the groups identically because both are monotone
    in the category order.
    """
    if dim.kind is BinKind.NOMINAL:
        categories, codes = dataset.encoded_column(dim.field)
        return codes, categories
    return compute_codes(dim, dataset.gather_column(dim.field)), None


def _decoded(codes: np.ndarray, categories: Optional[np.ndarray]) -> list:
    """Key coordinates of ``codes``: Python ``int`` bin indices or ``str``
    categories."""
    return (codes if categories is None else categories[codes]).tolist()


def _build_groups(
    dataset, bins: Tuple[BinDimension, ...]
) -> Tuple[List[BinKey], np.ndarray]:
    """Group structure of every row under ``bins``: the keys in canonical
    order (ascending codes; lexicographic in 2-D) and each row's index
    among them.

    Computed without sorting, and may hold groups no row reaches: in 1-D
    the codes themselves number the groups (every category; every
    quantitative code in ``[min, max]`` unless that span outnumbers the
    rows, where the distinct codes do). In 2-D each dimension's codes are
    dense-ranked and the ranks packed as ``r1 * n2 + r2``: ranks are below
    the row count, so the packing fits int64 whatever the codes span
    (NaN codes sit at the int64 extremes), and rank order is code order.
    Group ids take :func:`index_dtype` of the group count, built so in
    the pass that makes them (a nominal plan adopts the dataset's codes).
    """
    per_dim = [_dimension_codes(dataset, dim) for dim in bins]
    if len(per_dim) == 1:
        codes, categories = per_dim[0]
        if categories is not None:
            return list(zip(categories.tolist())), codes
        lowest = int(codes.min())
        span = int(codes.max()) - lowest + 1
        if span <= codes.size:
            gid = (codes - lowest).astype(index_dtype(span))
            return list(zip(range(lowest, lowest + span))), gid
        unique_codes, gid = unique_inverse(codes)
        return list(zip(unique_codes.tolist())), gid
    (first, first_categories), (second, second_categories) = per_dim
    first_codes, first_rank = unique_inverse(first)
    second_codes, second_rank = unique_inverse(second)
    num_second = len(second_codes)
    unique_packed, gid = unique_inverse(
        first_rank.astype(np.int64) * num_second + second_rank
    )
    first_index, second_index = np.divmod(unique_packed, num_second)
    keys = zip(
        _decoded(first_codes[first_index], first_categories),
        _decoded(second_codes[second_index], second_categories),
    )
    return list(keys), gid


def _build_grouping(dataset, query: AggQuery) -> Grouping:
    """The binning plan of ``query.bins`` with the rows its filter fails
    set to ``-1``: its keys stay, and a group no passing row reaches is
    an empty group, like one a sample prefix has not reached yet."""
    num_rows = dataset.num_fact_rows

    def build_mask() -> np.ndarray:
        mask = evaluate_filter(
            query.filter, dataset.gather_column, num_rows, dataset.encoded_column
        )
        mask.setflags(write=False)
        return mask

    def build_plan() -> BinningPlan:
        # A plan covers rows no query may have asked about: their NaNs
        # cast to the int64 extremes (see unique_inverse) unwarned.
        with np.errstate(invalid="ignore"):
            keys, gid = _build_groups(dataset, query.bins)
        gid.setflags(write=False)
        return BinningPlan(keys, gid)

    mask = _shared(dataset, ("masks", query.filter), build_mask)
    num_passing = int(np.count_nonzero(mask))
    if not num_passing:
        # No plan: a dimension error no passing row reaches stays unraised.
        plan, keys = None, []
        row_gid = np.full(num_rows, -1, dtype=np.int8)
    else:
        plan = _shared(dataset, ("plans", query.bins), build_plan)
        keys, row_gid = plan.keys, plan.gid
        if num_passing < num_rows:
            # (gid + 1) * mask - 1, not np.where, which mispredicts on
            # a random mask; the plan's dtype holds the group count, so
            # the + 1 fits.
            row_gid = plan.gid + 1
            row_gid *= mask
            row_gid -= 1
    row_gid.setflags(write=False)
    return Grouping(mask, plan, keys, row_gid, num_passing)


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
        self._grouping = grouping = _shared(
            dataset,
            ("groupings", query.bins, query.filter),
            lambda: _build_grouping(dataset, query),
        )
        # Equal to ``mask.mean()``: both divide the exact count once.
        self.qualifying_fraction = (
            grouping.num_passing / self.num_rows if self.num_rows else 0.0
        )
        self._keys = grouping.keys
        self._row_gid = grouping.row_gid
        #: The filter passes every row, so every row has a group id and
        #: accumulating needs no compress.
        self.all_rows_pass = grouping.num_passing == self.num_rows

        #: aggregate index -> the dataset's full-table value column
        #: (narrowest exact type), shared with every kernel aggregating it.
        self._agg_values: Dict[int, np.ndarray] = {
            j: dataset.value_column(agg.field)
            for j, agg in enumerate(query.aggregates)
            if agg.func is not AggFunc.COUNT
        }
        #: ``evaluate_exact``'s memo: the exact answer, built from
        #: ``exact_stats()`` on first use.
        self.exact_answer: Optional[QueryResult] = None
        #: System X's memo: (its sample's key plus confidence level, answer).
        self.sample_answer: Optional[Tuple[tuple, QueryResult]] = None
        #: (seed, engine name) -> the prefix run of that sampling identity.
        self._runs: Dict[Tuple[int, str], PrefixKernelRun] = {}

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return len(self._keys)

    @property
    def full_mask(self) -> np.ndarray:
        """The full-table boolean filter mask (read-only)."""
        return self._grouping.mask

    # ------------------------------------------------------------------
    def prefix_run(
        self, permutation: np.ndarray, seed: int, name: str
    ) -> "PrefixKernelRun":
        """The run over ``permutation`` rotated as engine ``name`` at
        ``seed`` rotates this query, shared by every engine sampling it so:
        the seed and name fix both the permutation and the rotation
        offset, which is hashed once, here."""
        run = self._runs.get((seed, name))
        if run is None:
            offset = derive_seed(seed, name, "rotation", self.query)
            run = self._runs[seed, name] = PrefixKernelRun(self, permutation, offset)
        return run

    def new_accumulator(self, num_strata: int = 1) -> "KernelAccumulator":
        """A fresh running aggregation."""
        return KernelAccumulator(self, num_strata)

    def evaluate(self, row_indices: Optional[np.ndarray] = None) -> GroupedStats:
        """Aggregate ``row_indices`` (or everything) from scratch."""
        return self._fold(_positions(row_indices))

    def evaluate_strata(
        self, rows: np.ndarray, stratum_of_row: np.ndarray, num_strata: int
    ) -> StrataGrid:
        """Aggregate a stratified row sample in one pass.

        ``rows`` concatenates the strata and ``stratum_of_row[i]`` names
        the stratum of ``rows[i]``. Row ``h`` of the result is bitwise
        what ``evaluate`` returns for stratum ``h``'s rows alone, spread
        over all of the kernel's groups.
        """
        accumulator = self.new_accumulator(num_strata)
        accumulator.update(_positions(rows), stratum_of_row)
        return accumulator.grid()

    def exact_stats(self) -> GroupedStats:
        """The full-table stats an exact answer reads (no ``sumsqs``)."""
        return self._fold(None, exact=True)

    def _fold(self, rows: Optional[np.ndarray], exact=False) -> GroupedStats:
        """``rows`` (``None``: every row) from scratch."""
        accumulator = KernelAccumulator(self, exact=exact)
        accumulator.update(rows)
        return accumulator.stats()


def _positions(rows) -> Optional[np.ndarray]:
    """Integer row positions (``take`` reads a boolean mask as 0 and 1)."""
    if rows is not None:
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":
            raise QueryError(f"row positions must be integers, not {rows.dtype}")
    return rows


def _taken(
    moments: Dict[int, np.ndarray], cells: np.ndarray
) -> Dict[int, np.ndarray]:
    # Polls of tiny tables are all call overhead, and most dicts are empty.
    return {j: array.take(cells) for j, array in moments.items()} if moments else {}


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

    def __init__(self, kernel: CompiledQueryKernel, num_strata: int = 1, exact=False):
        self._kernel = kernel
        self._num_strata = num_strata
        num_cells = num_strata * kernel.num_groups
        self._counts = np.zeros(num_cells, dtype=np.int64)
        self._sums, self._sumsqs, self._mins, self._maxs = identity_moments(
            kernel.query, num_cells, exact
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
            cells = kernel._row_gid.take(row_indices)
            self.rows_scanned += len(row_indices)
        # Rows with a group id are exactly the filter-passing rows
        # (AggQuery guarantees >= 1 bin dimension, so every masked row
        # grouped at compile time); when the filter passes all of them
        # there is nothing to compress away. Compress by index: a random
        # boolean mask costs several times ``nonzero`` plus the gathers.
        if not kernel.all_rows_pass:
            keep = (cells >= 0).nonzero()[0]
            cells = cells.take(keep)
            if stratum_of_row is not None:
                stratum_of_row = stratum_of_row.take(keep)
            if kernel._agg_values:
                # From here on: what selects the aggregated rows' values.
                row_indices = keep if row_indices is None else row_indices.take(keep)
        self.rows_aggregated += len(cells)
        if not len(cells):
            return
        if stratum_of_row is not None:
            cells = stratum_of_row * kernel.num_groups + cells
        cells = cells.astype(np.intp, copy=False)
        np.add.at(self._counts, cells, 1)
        with np.errstate(invalid="ignore"):  # NaN cells propagate by design
            for j, values in kernel._agg_values.items():
                if row_indices is not None:
                    values = values.take(row_indices)
                # Gather narrow, widen once: the same doubles, and a
                # ufunc.at that casts per element is ~25x slower.
                values = values.astype(np.float64, copy=False)
                if j in self._sums:
                    np.add.at(self._sums[j], cells, values)
                    if j in self._sumsqs:  # an exact answer reads none
                        np.add.at(self._sumsqs[j], cells, values * values)
                elif j in self._mins:
                    np.minimum.at(self._mins[j], cells, values)
                else:
                    np.maximum.at(self._maxs[j], cells, values)

    def stats(self) -> GroupedStats:
        """Snapshot the groups seen so far as a :class:`GroupedStats`."""
        present = (self._counts > 0).nonzero()[0]
        keys = self._kernel._keys
        return GroupedStats(
            query=self._kernel.query,
            keys=[keys[g] for g in present.tolist()],
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
    poll, folds in only the delta rows — a delta that wraps past the end
    of the permutation included. A poll below that prefix (another engine
    sharing the run, a later workflow, a cancel/reissue race) is folded
    into a scratch accumulator, continued while such polls grow, and the
    longest prefix is kept: bitwise the same answers, as continuing a
    fold equals starting it from scratch.

    The run reaches its kernel through a weak proxy: the kernel holds its
    runs, and a strong reference back would keep an evicted kernel alive
    until a cyclic collection.
    """

    def __init__(
        self, kernel: CompiledQueryKernel, permutation: np.ndarray, offset: int
    ):
        self._kernel = weakref.proxy(kernel)
        self._permutation = permutation
        self._rows = len(permutation)
        self._offset = int(offset) % max(1, self._rows)
        self._accumulator: Optional[KernelAccumulator] = None
        self._n = 0
        self._scratch: Optional[KernelAccumulator] = None
        self._scratch_n = 0
        self._polled_n = 0
        self.rebuilds = 0

    @property
    def polled_n(self) -> int:
        """The prefix length of the last poll."""
        return self._polled_n

    def poll(self, n: int) -> GroupedStats:
        """Stats of the first ``n`` prefix rows (``0 <= n <= rows``)."""
        self._polled_n = n = min(n, self._rows)
        if n < self._n:
            if self._scratch is None or n < self._scratch_n:
                self._scratch = KernelAccumulator(self._kernel)
                self._scratch_n = 0
                self.rebuilds += 1
            if n > self._scratch_n:
                self._scratch.update(self._slice(self._scratch_n, n))
                self._scratch_n = n
            return self._scratch.stats()
        if self._accumulator is None:
            self._accumulator = KernelAccumulator(self._kernel)
        if n > self._n:
            self._accumulator.update(self._slice(self._n, n))
        self._n = n
        return self._accumulator.stats()

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

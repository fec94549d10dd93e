"""Engine interface and shared simulator machinery.

All five systems under test implement this interface. The driver contract
is event-driven and clock-agnostic:

1. ``prepare()`` once per (engine, dataset) — builds samples/shuffles and
   returns the modeled *data preparation time* (§5.2; reported, not slept);
2. ``submit(query)`` at the current clock time — returns a handle; the
   scheduler starts sharing capacity among all running queries;
3. the driver advances the shared clock and calls ``advance_to(t)``;
4. ``result_at(handle, t)`` — the answer that was *visible* at time ``t``
   (None if none was available: that is a TR violation when ``t`` is the
   deadline); deterministic for any settled past ``t``;
5. ``cancel(handle)`` — queries whose TR expired are cancelled (§4.7:
   "queries whose run-time exceed TR are cancelled").

Engines never sleep and never look at wall time; determinism comes from
the scheduler's service histories plus seeded sampling permutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.clock import Clock, VirtualClock
from repro.common.config import BenchmarkSettings
from repro.common.errors import EngineError
from repro.common.rng import derive_rng, derive_seed
from repro.data.storage import Dataset
from repro.engines.cost import EngineCostModel, PreparationModel
from repro.engines.estimators import srs_estimate
from repro.engines.kernel_cache import get_kernel
from repro.engines.scheduler import ProcessorSharingScheduler
from repro.query.filters import Filter
from repro.query.kernels import PrefixKernelRun
from repro.query.model import AggQuery, QueryResult


@dataclass(frozen=True)
class PreparationReport:
    """Modeled data-preparation time (§5.2) with a component breakdown."""

    engine: str
    virtual_rows: int
    seconds: float
    components: Tuple[Tuple[str, float], ...] = ()

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine supports — drives experiment eligibility.

    Mirrors the paper: IDEA does not support joins (excluded from the
    normalized-schema experiment), System X only works on de-normalized
    data, XDB executes only single COUNT/SUM aggregates online.
    """

    supports_joins: bool
    progressive: bool
    returns_margins: bool


@dataclass
class _HandleState:
    """Book-keeping of one submitted query inside an engine."""

    handle: int
    query: AggQuery
    task_id: int
    submitted_at: float
    cancelled_at: Optional[float] = None
    extra: dict = field(default_factory=dict)


class Engine:
    """Base class of all engine simulators."""

    #: Stable engine identifier (also the ``driver`` column of Table 1).
    name: str = "engine"
    capabilities = EngineCapabilities(
        supports_joins=False, progressive=False, returns_margins=False
    )

    def __init__(
        self,
        dataset: Dataset,
        settings: BenchmarkSettings,
        clock: Optional[Clock] = None,
        cost_model: Optional[EngineCostModel] = None,
        prep_model: Optional[PreparationModel] = None,
    ):
        self.dataset = dataset
        self.settings = settings
        self.clock = clock if clock is not None else VirtualClock()
        self.scheduler = ProcessorSharingScheduler(self.clock)
        self.cost_model = cost_model if cost_model is not None else self._default_cost()
        self.prep_model = prep_model if prep_model is not None else self._default_prep()
        self._handles: Dict[int, _HandleState] = {}
        self._next_handle = 0
        self._prepared = False
        self._fraction_cache: Dict[Optional[Filter], float] = {}

    # -- hooks for subclasses -------------------------------------------
    def _default_cost(self) -> EngineCostModel:
        raise NotImplementedError

    def _default_prep(self) -> PreparationModel:
        raise NotImplementedError

    def _do_prepare(self) -> List[Tuple[str, float]]:
        """Build engine-side structures; returns extra prep components."""
        return []

    def _do_submit(self, state: _HandleState) -> None:
        """Create the scheduler task(s) for ``state`` (sets task_id)."""
        raise NotImplementedError

    def _result_at(self, state: _HandleState, time: float) -> Optional[QueryResult]:
        raise NotImplementedError

    # -- common API --------------------------------------------------------
    @property
    def actual_rows(self) -> int:
        """Rows physically present (the population all answers refer to)."""
        return self.dataset.num_fact_rows

    @property
    def is_prepared(self) -> bool:
        """Whether :meth:`prepare` has run (it may run only once)."""
        return self._prepared

    def prepare(self) -> PreparationReport:
        """Prepare the engine; returns the modeled preparation time."""
        if self._prepared:
            raise EngineError(f"engine {self.name!r} is already prepared")
        extra = self._do_prepare()
        self._prepared = True
        base_seconds = self.prep_model.preparation_time(self.settings.virtual_rows)
        components = [("load_and_preprocess", base_seconds)] + list(extra)
        return PreparationReport(
            engine=self.name,
            virtual_rows=self.settings.virtual_rows,
            seconds=sum(seconds for _, seconds in components),
            components=tuple(components),
        )

    def submit(self, query: AggQuery) -> int:
        """Submit ``query`` at the current clock time; returns a handle."""
        if not self._prepared:
            raise EngineError(f"engine {self.name!r} used before prepare()")
        if not query.is_resolved:
            raise EngineError("engines require resolved bin dimensions")
        state = _HandleState(
            handle=self._next_handle,
            query=query,
            task_id=-1,
            submitted_at=self.clock.now(),
        )
        self._next_handle += 1
        self._do_submit(state)
        if state.task_id < 0:
            raise EngineError(f"{self.name!r} did not create a scheduler task")
        self._handles[state.handle] = state
        return state.handle

    def advance_to(self, time: float) -> None:
        """Settle the engine's scheduler up to ``time``."""
        self.scheduler.advance_to(time)

    def result_at(self, handle: int, time: float) -> Optional[QueryResult]:
        """The answer visible at ``time`` (None = nothing available)."""
        state = self._get(handle)
        if time < state.submitted_at - 1e-9:
            raise EngineError("cannot ask for a result before submission")
        return self._result_at(state, time)

    def cancel(self, handle: int) -> None:
        """Cancel a query (idempotent)."""
        state = self._get(handle)
        if state.cancelled_at is None:
            # Under a wall clock real time has moved since the last settle;
            # bring the scheduler up to date before hooks query it.
            self.scheduler.advance_to(self.clock.now())
            self._before_cancel(state)
            self.scheduler.cancel(state.task_id)
            state.cancelled_at = self.clock.now()

    def _before_cancel(self, state: _HandleState) -> None:
        """Subclass hook invoked right before a task is cancelled."""

    def finished_at(self, handle: int) -> Optional[float]:
        """Completion time of the query's execution, if it completed."""
        return self.scheduler.finished_at(self._get(handle).task_id)

    def completion_time(self, handle: int, deadline: float) -> float:
        """End timestamp for reporting: completion or cancellation time."""
        finished = self.finished_at(handle)
        if finished is not None and finished <= deadline:
            return finished
        return deadline

    # -- workflow lifecycle (Listing 1's workflow_start/workflow_end) ----
    def workflow_start(self) -> None:
        """Called by the driver before each workflow begins."""

    def workflow_end(self) -> None:
        """Called by the driver after each workflow completes."""

    def link_vizs(self, speculative_queries: Sequence[AggQuery]) -> None:
        """Hint: these queries may be asked next (speculation; default no-op).

        Mirrors ``link_vizs`` of the paper's adapter stub (Listing 1):
        "use the logical links as hint for speculative query execution,
        if applicable".
        """

    def delete_vizs(self, queries: Sequence[AggQuery]) -> None:
        """Hint: these queries' visualizations were discarded.

        Mirrors ``delete_vizs`` of Listing 1 ("free memory, if
        applicable"). Default no-op; cache-holding engines drop per-query
        state.
        """

    # -- memory reclamation (population-scale serving) -------------------
    def _retained_task_ids(self) -> set:
        """Scheduler task ids a subclass still needs after settlement.

        Engines that read *completed* tasks' service histories later —
        the progressive engine's result-reuse map — return those ids so
        :meth:`release_settled` keeps them. Default: nothing is retained.
        """
        return set()

    def release_settled(self, group: Optional[str]) -> int:
        """Drop book-keeping of a retired session's queries.

        A long-lived shared engine otherwise accumulates one handle state
        and one scheduler task (with its full service history) per query
        ever submitted — memory proportional to *total* load, not current
        load. The session server calls this when a session retires from a
        constant-memory serving run: every handle of that session's
        scheduler ``group`` whose task is settled (finished or cancelled)
        and not retained by the engine subclass is forgotten, in both the
        engine and its scheduler. Returns the number of handles released.
        Other groups are never touched — a live session's finished query
        still has a deadline to be evaluated at. The caller promises not
        to query the released handles again; in the serving stack that
        holds because a retired session's records are already final.
        """
        retained = self._retained_task_ids()
        released = 0
        for handle, state in list(self._handles.items()):
            if state.task_id in retained:
                continue
            if self.scheduler.task_group(state.task_id) != group:
                continue
            settled = self.scheduler.finished_at(
                state.task_id
            ) is not None or self.scheduler.is_cancelled(state.task_id)
            if not settled:
                continue
            del self._handles[handle]
            self.scheduler.release_task(state.task_id)
            self._released(state)
            released += 1
        return released

    def _released(self, state: _HandleState) -> None:
        """Subclass hook: a handle was just released (drop cross-refs)."""

    # -- shared helpers ----------------------------------------------------
    def qualifying_fraction(self, query: AggQuery) -> float:
        """Fraction of rows satisfying the query's filter (cost input).

        Cached per filter tree: dashboards re-evaluate the same effective
        predicate across many linked queries. The fraction comes from the
        kernel's full-table mask, so the predicate is never evaluated a
        second time for cost modeling.
        """
        fraction = self._fraction_cache.get(query.filter)
        if fraction is None:
            fraction = get_kernel(self.dataset, query).qualifying_fraction
            self._fraction_cache[query.filter] = fraction
        return fraction

    def _shuffled_indices(self, stream: object = "shuffle") -> np.ndarray:
        """A seeded random permutation of all row indices (sampling order)."""
        rng = derive_rng(self.settings.seed, self.name, stream)
        return rng.permutation(self.actual_rows)

    def _get(self, handle: int) -> _HandleState:
        try:
            return self._handles[handle]
        except KeyError:
            raise EngineError(
                f"unknown handle {handle} for engine {self.name!r}"
            ) from None


class PrefixSamplingEngine(Engine):
    """Base of the engines whose sample is a growing prefix.

    Every distinct query starts at its own deterministic rotation of one
    seeded whole-table permutation, so concurrent samples are
    decorrelated while re-executions of the *same* query extend the
    *same* sample, and any prefix is an SRS of the table. One
    :class:`PrefixKernelRun` per query aggregates it incrementally.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._permutation: Optional[np.ndarray] = None
        #: query → incremental aggregation of its rotated prefix.
        self._kernel_runs: Dict[AggQuery, PrefixKernelRun] = {}

    def _do_prepare(self) -> List[Tuple[str, float]]:
        self._permutation = self._shuffled_indices()
        return []

    def workflow_start(self) -> None:
        """New workflow: the next polls re-aggregate from scratch
        (bitwise-equivalent to continuing)."""
        self._kernel_runs.clear()

    def _kernel_run(self, query: AggQuery) -> PrefixKernelRun:
        """The query's run; its rotation offset is hashed once, here."""
        run = self._kernel_runs.get(query)
        if run is None:
            offset = derive_seed(self.settings.seed, self.name, "rotation", query)
            run = self._kernel_runs[query] = PrefixKernelRun(
                get_kernel(self.dataset, query),
                self._permutation,
                offset % self.actual_rows,
            )
        return run

    def _result_of(self, state: _HandleState, n: int) -> QueryResult:
        """The handle's estimate from ``n`` rows (the last one is kept:
        polls between two sampling steps repeat ``n``)."""
        cache = state.extra.get("result_cache")
        if cache is not None and cache[0] == n:
            return cache[1]
        result = self._estimate(state.query, n)
        state.extra["result_cache"] = (n, result)
        return result

    def _estimate(self, query: AggQuery, n: int) -> QueryResult:
        """The SRS estimate from the first ``n`` rows of the query's prefix."""
        stats = self._kernel_run(query).poll(n)
        columns = srs_estimate(
            stats, n, self.actual_rows, self.settings.confidence_level
        )
        return QueryResult(
            query=query,
            columns=columns,
            rows_processed=n,
            fraction=n / self.actual_rows,
            exact=(n >= self.actual_rows),
        )

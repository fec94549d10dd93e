"""Progressive engine with result reuse and speculation — the IDEA stand-in.

§5: *"A system that supports online aggregation and has a fully
progressive computation model where, after initiating a query, results can
be polled at any point in time."* Plus two defining IDEA behaviours from
the literature the paper cites:

* **result reuse** ([16], "Revisiting reuse for approximate query
  processing"): partial results of earlier queries seed identical later
  queries, so re-issued queries resume instead of restarting;
* **speculative execution** (§5.4's "experimental extension"): when two
  visualizations are linked, the engine pre-executes the queries that
  every possible single-bin selection on the source would trigger, using
  idle think time; if the user then selects one of those bins, the
  already-accumulated sample answers immediately. Fig. 6f measures exactly
  this: missing bins fall as think time grows.

Samples are prefixes of a seeded whole-table permutation (each distinct
query gets its own deterministic rotation), so a prefix of size *n* is an
SRS of the table and polls are reproducible. Once the prefix covers the
table the answer is exact. No join support — the paper excludes IDEA from
the normalized-schema experiment (§5.3).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.common.errors import EngineError
from repro.engines.base import (
    EngineCapabilities,
    PrefixSamplingEngine,
    _HandleState,
)
from repro.engines.cost import (
    EngineCostModel,
    PreparationModel,
    PROGRESSIVE_COST,
    PROGRESSIVE_FIRST_QUERY_PENALTY,
    PROGRESSIVE_PREP,
)
from repro.obs import timed_stage
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.query.model import AggQuery, QueryResult

#: Relative scheduler weight of speculative background tasks while the
#: engine is idle (between interactions, i.e. during think time).
_SPECULATIVE_WEIGHT = 0.1
#: Weight while foreground queries are active: speculation is effectively
#: paused so it cannot starve the query the user is waiting on.
_SPECULATIVE_WEIGHT_PAUSED = 1e-4
#: Cap on concurrently tracked speculative queries.
_MAX_SPECULATIVE = 40


class ProgressiveEngine(PrefixSamplingEngine):
    """IDEA-like progressive online aggregation."""

    name = "idea-sim"
    capabilities = EngineCapabilities(
        supports_joins=False, progressive=True, returns_margins=True
    )

    def __init__(self, *args, speculation: bool = False, reuse: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        if self.dataset.is_normalized:
            raise EngineError(f"{self.name} does not support joins (§5.3)")
        self.speculation = speculation
        #: Result reuse (à la [16]) can be disabled for ablation studies.
        self.reuse_enabled = reuse
        #: query → tuples already processed in some earlier execution.
        self._reuse: Dict[AggQuery, int] = {}
        #: query → (task_id, rate) of a running speculative execution.
        self._speculative: Dict[AggQuery, Tuple[int, float]] = {}
        #: handles of foreground queries that have not been cancelled yet;
        #: speculation pauses while this is non-empty.
        self._foreground: set = set()
        self._first_query_pending = True

    @property
    def speculates(self) -> bool:
        return self.speculation

    def _retained_task_ids(self) -> set:
        # Parked speculative executions are read back (work_done) when the
        # speculated query is finally submitted — their tasks must survive
        # release_settled() even if a group sweep already cancelled them.
        return {task_id for task_id, _ in self._speculative.values()}

    def _released(self, state) -> None:
        # A handle cancelled by a scheduler group sweep (departed session)
        # never went through _before_cancel; un-count it as foreground so
        # a churned-out user cannot keep speculation paused forever.
        self._foreground.discard(state.handle)
        if not self._foreground:
            self._set_speculation_paused(False)

    def _default_cost(self) -> EngineCostModel:
        return PROGRESSIVE_COST

    def _default_prep(self) -> PreparationModel:
        return PROGRESSIVE_PREP

    # ------------------------------------------------------------------
    # Submission / polling
    # ------------------------------------------------------------------
    def _sampling_rate(self, query: AggQuery) -> float:
        """Actual sampled tuples per second of exclusive service."""
        return self.cost_model.sampling_service_rate(
            query, self.dataset, self.settings.scale
        )

    def _do_submit(self, state: _HandleState) -> None:
        rate = self._sampling_rate(state.query)
        penalty = 0.0
        if self._first_query_pending:
            # Warm-up of the first query after a restart (§5.2: "a slightly
            # higher overhead for the first query after a restart").
            penalty = PROGRESSIVE_FIRST_QUERY_PENALTY
            self._first_query_pending = False

        # Result reuse: resume from the best earlier run of this query —
        # either a cached partial result or a speculative execution. The
        # reused tuples are a *head start* independent of the scheduler's
        # service accounting, so the warm-up penalty cannot eat them.
        head_start = self._reuse.get(state.query, 0) if self.reuse_enabled else 0
        speculative = self._speculative.pop(state.query, None)
        if speculative is not None:
            spec_task, spec_rate = speculative
            spec_tuples = int(self.scheduler.work_done(spec_task) * spec_rate)
            self.scheduler.cancel(spec_task)
            head_start = max(head_start, spec_tuples)
        head_start = min(head_start, self.actual_rows)

        work_total = penalty + (self.actual_rows - head_start) / rate
        state.task_id = self.scheduler.add_task(work_total)
        state.extra["rate"] = rate
        state.extra["penalty"] = penalty
        state.extra["head_start"] = head_start
        self._foreground.add(state.handle)
        self._set_speculation_paused(True)

    def _tuples_at(self, state: _HandleState, time: float) -> int:
        work = self.scheduler.work_at(state.task_id, time)
        effective = max(0.0, work - state.extra["penalty"])
        sampled = state.extra["head_start"] + int(effective * state.extra["rate"])
        return min(self.actual_rows, sampled)

    def _result_at(self, state: _HandleState, time: float) -> Optional[QueryResult]:
        n = self._tuples_at(state, time)
        if n <= 0:
            return None
        self._remember(state.query, n)
        return self._result_of(state, n)

    def _estimate(self, query: AggQuery, n: int) -> QueryResult:
        # The engine-step kernel: one sample-prefix estimate. Wall time
        # lands in the engine_step stage; the trace event carries only
        # deterministic fields (virtual now + sample size).
        tracer = get_tracer()
        if not tracer.enabled:
            return super()._estimate(query, n)
        tracer.event("engine.estimate", self.clock.now(), n=n)
        get_metrics().counter(
            "repro_engine_estimates_total",
            labels={"engine": self.name},
            help="Progressive estimate kernels executed.",
        ).inc()
        with timed_stage("engine_step"):
            return super()._estimate(query, n)

    def _remember(self, query: AggQuery, n: int) -> None:
        if n > self._reuse.get(query, 0):
            self._reuse[query] = n

    def _before_cancel(self, state: _HandleState) -> None:
        # Keep the partial sample for reuse by identical future queries.
        # (Clamp to the scheduler's settled time: under a wall clock, real
        # time keeps moving between the settle and this hook.)
        snapshot_time = min(self.clock.now(), self.scheduler.settled_until)
        self._remember(state.query, self._tuples_at(state, snapshot_time))
        self._foreground.discard(state.handle)
        if not self._foreground:
            self._set_speculation_paused(False)

    def _set_speculation_paused(self, paused: bool) -> None:
        """Demote/restore speculative task weights around foreground work."""
        weight = _SPECULATIVE_WEIGHT_PAUSED if paused else _SPECULATIVE_WEIGHT
        for task_id, _rate in self._speculative.values():
            if self.scheduler.finished_at(task_id) is None and not (
                self.scheduler.is_cancelled(task_id)
            ):
                self.scheduler.set_weight(task_id, weight)

    # ------------------------------------------------------------------
    # Speculation (Exp. 3 extension)
    # ------------------------------------------------------------------
    def link_vizs(self, speculative_queries: Sequence[AggQuery]) -> None:
        """Start background executions for likely next queries.

        The driver enumerates the queries every single-bin selection on the
        source viz would trigger (§5.4) and passes them here; they run at
        low scheduler weight, i.e. essentially only during think time.
        """
        if not self.speculation:
            return
        initial_weight = (
            _SPECULATIVE_WEIGHT_PAUSED if self._foreground else _SPECULATIVE_WEIGHT
        )
        for query in speculative_queries:
            if query in self._speculative:
                continue
            if len(self._speculative) >= _MAX_SPECULATIVE:
                break
            rate = self._sampling_rate(query)
            work_total = self.actual_rows / rate
            task_id = self.scheduler.add_task(work_total, weight=initial_weight)
            # Seed with any reusable partial result.
            reuse_tuples = self._reuse.get(query, 0)
            if reuse_tuples > 0:
                self.scheduler.credit_work(task_id, reuse_tuples / rate)
            self._speculative[query] = (task_id, rate)

    def delete_vizs(self, queries: Sequence[AggQuery]) -> None:
        """Free per-query state of discarded visualizations (Listing 1)."""
        for query in queries:
            self._reuse.pop(query, None)
            self._kernel_runs.pop(query, None)
            speculative = self._speculative.pop(query, None)
            if speculative is not None:
                self.scheduler.cancel(speculative[0])

    def speculative_tuples(self, query: AggQuery) -> int:
        """Tuples a speculative execution of ``query`` has accumulated."""
        entry = self._speculative.get(query)
        if entry is None:
            return 0
        task_id, rate = entry
        return int(self.scheduler.work_done(task_id) * rate)

    # ------------------------------------------------------------------
    # Workflow lifecycle
    # ------------------------------------------------------------------
    def workflow_start(self) -> None:
        """New workflow: clear caches.

        The warm-up penalty is *not* re-armed here — it models a system
        (re)start, which happens once per benchmark run (§5.2: IDEA
        violated ≈1 % of TR=0.5 s queries, "the first query after a
        restart of the system").
        """
        for task_id, _rate in self._speculative.values():
            self.scheduler.cancel(task_id)
        self._speculative.clear()
        self._reuse.clear()
        super().workflow_start()

    def workflow_end(self) -> None:
        for task_id, _rate in self._speculative.values():
            self.scheduler.cancel(task_id)
        self._speculative.clear()

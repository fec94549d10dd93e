"""Online aggregation with report intervals — the approXimateDB/XDB stand-in.

§5: *"A PostgreSQL-based DBMS that supports online aggregation using the
wander join algorithm. It allows for a maximum run-time to be set when
initiating a query. It additionally supports a 'report interval', so that
intermediate results can be retrieved at fixed time intervals. XDB has
some limitations in terms of query support …: while approXimateDB supports
online aggregation for COUNT and SUM, it does not provide online support
for AVG nor for multiple aggregates in a single query. We therefore set up
approXimateDB so that any query that cannot be executed online will fall
back to a regular Postgres query."*

This simulator reproduces those semantics:

* **online path** — single-aggregate COUNT/SUM queries sample tuples via
  wander-join-style random access (slow per-tuple rate, FK dereference per
  join) and publish an estimate at every report-interval tick;
* **fallback path** — every other query (AVG, multi-aggregate) runs as a
  blocking scan at PostgreSQL row-store speed, which at the paper's data
  sizes exceeds every TR: this is what pins XDB's violation ratio at the
  workload's ≈66 % non-online fraction, for *any* TR (Fig. 5);
* **online joins** — wander join samples fact rows and dereferences their
  FKs, so normalized schemas only raise the per-sample cost; TR violations
  stay flat as normalized data grows (Fig. 6e), unlike blocking joins.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import EngineError
from repro.common.rng import derive_seed
from repro.engines.base import Engine, EngineCapabilities, _HandleState
from repro.engines.cost import (
    EngineCostModel,
    ONLINEAGG_COST,
    ONLINEAGG_PREP,
    PreparationModel,
)
from repro.engines.estimators import srs_estimate
from repro.engines.kernel_cache import get_kernel
from repro.query.groundtruth import compute_grouped_stats, evaluate_exact
from repro.query.kernels import PrefixKernelRun
from repro.query.model import AggFunc, AggQuery, QueryResult


class OnlineAggEngine(Engine):
    """XDB-like online aggregation with a blocking fallback."""

    name = "xdb-sim"
    capabilities = EngineCapabilities(
        supports_joins=True, progressive=True, returns_margins=True
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._permutation: Optional[np.ndarray] = None
        #: query → incremental prefix aggregation (compiled-kernel path).
        self._kernel_runs: Dict[AggQuery, PrefixKernelRun] = {}

    def _default_cost(self) -> EngineCostModel:
        return ONLINEAGG_COST

    def _default_prep(self) -> PreparationModel:
        return ONLINEAGG_PREP

    def _do_prepare(self) -> List[Tuple[str, float]]:
        self._permutation = self._shuffled_indices()
        return []

    # ------------------------------------------------------------------
    @staticmethod
    def supports_online(query: AggQuery) -> bool:
        """Whether XDB can run ``query`` online (COUNT/SUM, single agg)."""
        return len(query.aggregates) == 1 and query.aggregates[0].func in (
            AggFunc.COUNT,
            AggFunc.SUM,
        )

    def _do_submit(self, state: _HandleState) -> None:
        if self.supports_online(state.query):
            rate = self.cost_model.sampling_service_rate(
                state.query, self.dataset, self.settings.scale
            )
            work_total = self.actual_rows / rate
            state.task_id = self.scheduler.add_task(work_total)
            state.extra["kind"] = "online"
            state.extra["rate"] = rate
        else:
            demand = self.cost_model.blocking_service_demand(
                query=state.query,
                dataset=self.dataset,
                virtual_rows=self.settings.virtual_rows,
                scale=self.settings.scale,
                qualifying_fraction=self.qualifying_fraction(state.query),
            )
            state.task_id = self.scheduler.add_task(demand)
            state.extra["kind"] = "fallback"

    def _result_at(self, state: _HandleState, time: float) -> Optional[QueryResult]:
        if state.extra["kind"] == "fallback":
            finished = self.scheduler.finished_at(state.task_id)
            if finished is None or finished > time + 1e-12:
                return None
            if "result" not in state.extra:
                state.extra["result"] = evaluate_exact(self.dataset, state.query)
            return state.extra["result"]
        return self._online_result(state, time)

    def _online_result(
        self, state: _HandleState, time: float
    ) -> Optional[QueryResult]:
        # Results materialize only at report-interval ticks (§5: "so that
        # intermediate results can be retrieved at fixed time intervals").
        interval = self.settings.report_interval
        elapsed = time - state.submitted_at
        ticks = math.floor(elapsed / interval + 1e-9)
        if ticks < 1:
            return None
        report_time = state.submitted_at + ticks * interval
        finished = self.scheduler.finished_at(state.task_id)
        if finished is not None and finished <= report_time:
            report_time = min(report_time, time)
        n = min(
            self.actual_rows,
            int(self.scheduler.work_at(state.task_id, report_time) * state.extra["rate"]),
        )
        if n <= 0:
            return None
        cache = state.extra.get("result_cache")
        if cache is not None and cache[0] == n:
            return cache[1]
        result = self._estimate(state.query, n)
        state.extra["result_cache"] = (n, result)
        return result

    def workflow_start(self) -> None:
        """New workflow: drop incremental state (queries will not repeat)."""
        self._kernel_runs.clear()

    def _estimate(self, query: AggQuery, n: int) -> QueryResult:
        if self._permutation is None:
            raise EngineError("engine not prepared")
        offset = derive_seed(self.settings.seed, self.name, "rotation", query) % self.actual_rows
        run = self._kernel_runs.get(query)
        if run is None:
            kernel = get_kernel(self.dataset, query)
            if kernel is not None:
                run = PrefixKernelRun(kernel, self._permutation, offset)
                self._kernel_runs[query] = run
        if run is not None:
            stats = run.poll(n)
        else:
            end = offset + n
            if end <= self.actual_rows:
                indices = self._permutation[offset:end]
            else:
                indices = np.concatenate(
                    [self._permutation[offset:], self._permutation[: end - self.actual_rows]]
                )
            stats = compute_grouped_stats(self.dataset, query, indices)
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

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
from typing import Optional

from repro.engines.base import (
    EngineCapabilities,
    PrefixSamplingEngine,
    _HandleState,
)
from repro.engines.cost import (
    EngineCostModel,
    ONLINEAGG_COST,
    ONLINEAGG_PREP,
    PreparationModel,
)
from repro.query.groundtruth import evaluate_exact
from repro.query.model import AggFunc, AggQuery, QueryResult


class OnlineAggEngine(PrefixSamplingEngine):
    """XDB-like online aggregation with a blocking fallback."""

    name = "xdb-sim"
    capabilities = EngineCapabilities(
        supports_joins=True, progressive=True, returns_margins=True
    )

    def _default_cost(self) -> EngineCostModel:
        return ONLINEAGG_COST

    def _default_prep(self) -> PreparationModel:
        return ONLINEAGG_PREP

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
        return self._result_of(state, n)

"""IDE frontend layer over a backend engine — the System Y stand-in.

§5.6: *"System Y renders and updates the visualizations in the workload
roughly at the same speed as when one uses MonetDB directly, with an added
delay of about 1-2s per query. This is likely to be the rendering overhead
to draw the visualizations. … we were interested to see if System Y uses
an intermediate layer that pre-fetches/computes results … However, we did
not find this to be the case."*

:class:`FrontendEngine` therefore wraps any backend engine and delays the
*visibility* of every result by a per-query rendering overhead drawn
uniformly from 1–2 s (seeded, deterministic). It adds no prefetching — by
design, matching the paper's finding.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.common.errors import EngineError
from repro.common.rng import derive_rng
from repro.engines.base import Engine, PreparationReport
from repro.engines.cost import FRONTEND_RENDER_OVERHEAD
from repro.query.model import AggQuery, QueryResult


class FrontendEngine:
    """System Y-like rendering layer over a backend :class:`Engine`.

    Implements the same driver-facing interface as :class:`Engine` by
    delegation; it is intentionally *not* an ``Engine`` subclass because it
    owns no scheduler or cost model of its own.
    """

    name = "system-y-sim"

    def __init__(
        self,
        backend: Engine,
        render_overhead: Tuple[float, float] = FRONTEND_RENDER_OVERHEAD,
    ):
        low, high = render_overhead
        if not 0 <= low <= high:
            raise EngineError(
                f"render overhead bounds must satisfy 0 <= low <= high, got "
                f"({low}, {high})"
            )
        self.backend = backend
        self.render_overhead = (float(low), float(high))
        self._overheads: Dict[int, float] = {}

    # -- delegated properties ------------------------------------------
    @property
    def capabilities(self):
        return self.backend.capabilities

    @property
    def dataset(self):
        return self.backend.dataset

    @property
    def settings(self):
        return self.backend.settings

    @property
    def clock(self):
        return self.backend.clock

    @property
    def actual_rows(self) -> int:
        return self.backend.actual_rows

    @property
    def scheduler(self):
        """The backend's scheduler (the frontend adds no execution of
        its own, so session grouping/policies apply to the backend)."""
        return self.backend.scheduler

    @property
    def is_prepared(self) -> bool:
        return self.backend.is_prepared

    # -- lifecycle ---------------------------------------------------------
    def prepare(self) -> PreparationReport:
        report = self.backend.prepare()
        return PreparationReport(
            engine=self.name,
            virtual_rows=report.virtual_rows,
            seconds=report.seconds,
            components=report.components + (("frontend_connect", 0.0),),
        )

    def workflow_start(self) -> None:
        self.backend.workflow_start()

    def workflow_end(self) -> None:
        self.backend.workflow_end()

    def link_vizs(self, speculative_queries: Sequence[AggQuery]) -> None:
        # §5.6: no prefetch layer was found — the hint is dropped.
        return None

    def delete_vizs(self, queries: Sequence[AggQuery]) -> None:
        self.backend.delete_vizs(queries)

    # -- query path ----------------------------------------------------------
    def submit(self, query: AggQuery) -> int:
        handle = self.backend.submit(query)
        rng = derive_rng(self.settings.seed, self.name, "render", handle)
        low, high = self.render_overhead
        self._overheads[handle] = float(rng.uniform(low, high))
        return handle

    def advance_to(self, time: float) -> None:
        self.backend.advance_to(time)

    def result_at(self, handle: int, time: float) -> Optional[QueryResult]:
        overhead = self._overhead(handle)
        visible_time = time - overhead
        state = self.backend._get(handle)  # noqa: SLF001 — deliberate delegation
        if visible_time < state.submitted_at:
            return None
        return self.backend.result_at(handle, visible_time)

    def cancel(self, handle: int) -> None:
        self.backend.cancel(handle)

    def finished_at(self, handle: int) -> Optional[float]:
        finished = self.backend.finished_at(handle)
        if finished is None:
            return None
        return finished + self._overhead(handle)

    def completion_time(self, handle: int, deadline: float) -> float:
        finished = self.finished_at(handle)
        if finished is not None and finished <= deadline:
            return finished
        return deadline

    def qualifying_fraction(self, query: AggQuery) -> float:
        return self.backend.qualifying_fraction(query)

    def _overhead(self, handle: int) -> float:
        try:
            return self._overheads[handle]
        except KeyError:
            raise EngineError(
                f"unknown handle {handle} for engine {self.name!r}"
            ) from None

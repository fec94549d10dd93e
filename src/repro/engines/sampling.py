"""Offline stratified-sampling AQP — the System X stand-in.

§5: *"A commercial in-memory AQP system that operates on stratified sample
tables (offline sampling). The run time of queries cannot be set
explicitly, but must be specified by means of setting the size of samples
tables, i.e. the sampling rate."*

Behavioural consequences this simulator reproduces:

* queries execute **blocking over the sample** — fast, but with a fixed
  per-query overhead, so very tight TRs (0.5 s) are still violated while
  TR ≥ 3 s never is;
* result **quality is constant with respect to TR** — the sample is fixed
  offline, so waiting longer buys nothing (the paper's argument for online
  sampling in §6);
* estimates carry stratified margins of error at the configured
  confidence level;
* only de-normalized data is supported ("System X only works on
  de-normalized data", §5.3).

The sample is stratified on the lowest-cardinality nominal column
(carriers for the flights data) with proportional allocation and a minimum
per-stratum quota — the point of stratification being that rare strata
stay represented.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import EngineError
from repro.common.rng import derive_rng
from repro.engines.base import Engine, EngineCapabilities, _HandleState
from repro.engines.cost import (
    EngineCostModel,
    PreparationModel,
    SAMPLING_COST,
    SAMPLING_DEFAULT_RATE,
    SAMPLING_PREP,
)
from repro.engines.estimators import StrataMoments, stratified_estimate
from repro.engines.kernel_cache import get_kernel
from repro.query.model import AggQuery, BinColumns, QueryResult

#: Strata with more categories than this are unusable for stratification.
_MAX_STRATA = 64
#: Minimum rows sampled from every stratum.
_MIN_PER_STRATUM = 2


class StratifiedSamplingEngine(Engine):
    """System X-like offline-sample AQP."""

    name = "system-x-sim"
    capabilities = EngineCapabilities(
        supports_joins=False, progressive=False, returns_margins=True
    )

    def __init__(
        self,
        *args,
        sampling_rate: float = SAMPLING_DEFAULT_RATE,
        stratify: bool = True,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if not 0.0 < sampling_rate <= 1.0:
            raise EngineError(
                f"sampling rate must be in (0, 1], got {sampling_rate!r}"
            )
        if self.dataset.is_normalized:
            raise EngineError(
                f"{self.name} only works on de-normalized data (§5.3)"
            )
        self.sampling_rate = sampling_rate
        #: Stratification can be disabled (plain uniform sample) to ablate
        #: the design choice the paper's §6 discussion credits for System
        #: X's rare-group coverage.
        self.stratify = stratify
        #: Every input the sample's draw reads besides the dataset: (seed,
        #: engine name, sampling_rate, stratify).
        self._sample_key = (self.settings.seed, self.name, sampling_rate, stratify)
        #: The sample: every stratum's row indices back to back, the
        #: stratum of each, and the per-stratum (indices, weight) views.
        self._sample_index = np.empty(0, dtype=np.int64)
        self._stratum_of_row = np.empty(0, dtype=np.int64)
        self._strata: Tuple[Tuple[np.ndarray, float], ...] = ()
        self._sample_rows = 0

    def _default_cost(self) -> EngineCostModel:
        return SAMPLING_COST

    def _default_prep(self) -> PreparationModel:
        return SAMPLING_PREP

    # ------------------------------------------------------------------
    def _do_prepare(self) -> List[Tuple[str, float]]:
        """Fetch the stratified sample (the §5.2 offline step), drawn once per
        live dataset and ``_sample_key`` and shared read-only."""
        sample = self._prepared_sample(self._sample_key, self._draw_sample)
        self._sample_index, self._stratum_of_row, self._strata, self._sample_rows = sample
        return []

    def _draw_sample(self) -> tuple:
        """Draw the sample: its index, each row's stratum, the per-stratum
        ``(indices, weight)`` views and its row count, all read-only."""
        column = self._stratification_column() if self.stratify else None
        rng = derive_rng(self.settings.seed, self.name, "sample")
        if column is None:
            indices = rng.choice(
                self.actual_rows,
                size=max(1, int(self.actual_rows * self.sampling_rate)),
                replace=False,
            )
            samples = [np.sort(indices)]
            weights = [self.actual_rows / len(indices)]
        else:
            # One stable pass cuts every stratum: rows ordered by code
            # (int8 codes, as _MAX_STRATA keeps them, take numpy's radix
            # sort) stay ascending within each code, as flatnonzero gave
            # them.
            categories, codes = self.dataset.encoded_column(column)
            by_stratum = np.argsort(codes, kind="stable")
            sizes = np.bincount(codes, minlength=len(categories))
            samples, weights = [], []
            for stratum_rows in np.split(by_stratum, np.cumsum(sizes)[:-1]):
                quota = max(
                    _MIN_PER_STRATUM,
                    int(round(len(stratum_rows) * self.sampling_rate)),
                )
                quota = min(quota, len(stratum_rows))
                chosen = rng.choice(stratum_rows, size=quota, replace=False)
                samples.append(np.sort(chosen))
                weights.append(len(stratum_rows) / quota)
        quotas = [len(sample) for sample in samples]
        sample_index = np.concatenate(samples)
        sample_index.setflags(write=False)  # before the views are cut
        stratum_of_row = np.repeat(np.arange(len(samples)), quotas)
        stratum_of_row.setflags(write=False)
        strata = tuple(zip(np.split(sample_index, np.cumsum(quotas)[:-1]), weights))
        return sample_index, stratum_of_row, strata, len(sample_index)

    def _stratification_column(self) -> Optional[str]:
        """Lowest-cardinality nominal column usable for stratification."""
        best: Optional[Tuple[int, str]] = None
        for name in self.dataset.fact.column_names:
            if self.dataset.fact.is_numeric(name):
                continue
            cardinality = len(self.dataset.encoded_column(name)[0])
            if cardinality > _MAX_STRATA:
                continue
            if best is None or cardinality < best[0]:
                best = (cardinality, name)
        return best[1] if best else None

    # ------------------------------------------------------------------
    def _do_submit(self, state: _HandleState) -> None:
        # Blocking scan over the sample table. Demand scales with the
        # sample size; a seeded lognormal jitter models plan/cache
        # variance, giving the latency tail behind ">50 % violations at
        # TR=0.5 s but only ≈5 % at 1 s".
        from repro.engines.joins import num_joins

        joins = num_joins(self.dataset, state.query)
        multiplier = self.cost_model.scan_multiplier(
            state.query,
            # Approximated by the full-data fraction (cached engine-wide).
            self.qualifying_fraction(state.query),
            joins,
            column_cost=self.cost_model.scan_column_cost(self.dataset, state.query),
        )
        # The sample has ``sample_rows * scale`` virtual tuples; a blocking
        # scan over it at the engine's virtual throughput takes:
        virtual_sample_rows = self._sample_rows * self.settings.scale
        base = virtual_sample_rows * multiplier / self.cost_model.scan_throughput
        rng = derive_rng(self.settings.seed, self.name, "jitter", state.handle)
        jitter = float(np.exp(rng.normal(0.0, 0.12)))
        demand = self.cost_model.startup_latency + base * jitter
        state.task_id = self.scheduler.add_task(demand)

    def _result_at(self, state: _HandleState, time: float) -> Optional[QueryResult]:
        finished = self.scheduler.finished_at(state.task_id)
        if finished is None or finished > time + 1e-12:
            return None
        if "result" not in state.extra:
            state.extra["result"] = self._estimate(state)
        return state.extra["result"]

    def _estimate(self, state: _HandleState) -> QueryResult:
        """The sample's answer, memoized on the kernel for every TR."""
        kernel = get_kernel(self.dataset, state.query)
        key = self._sample_key + (self.settings.confidence_level,)
        if kernel.sample_answer is None or kernel.sample_answer[0] != key:
            kernel.sample_answer = (key, self._answer(kernel, state.query))
        return kernel.sample_answer[1]

    def _answer(self, kernel, query: AggQuery) -> QueryResult:
        # One kernel pass over the sample aggregates every stratum.
        grid = kernel.evaluate_strata(
            self._sample_index, self._stratum_of_row, len(self._strata)
        )
        if grid.counts.any():
            strata = StrataMoments(
                grid,
                weights=[weight for _, weight in self._strata],
                sample_sizes=[len(indices) for indices, _ in self._strata],
            )
            columns = stratified_estimate(
                query, strata, self.settings.confidence_level
            )
        else:  # no qualifying sample row, nothing to estimate
            columns = BinColumns([], [np.zeros(0)] * len(query.aggregates))
        return QueryResult(
            query=query,
            columns=columns,
            rows_processed=self._sample_rows,
            fraction=self._sample_rows / self.actual_rows,
            exact=False,
        )

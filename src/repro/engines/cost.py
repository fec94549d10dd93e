"""Cost models: the calibrated time behaviour of the simulated systems.

The reproduction's honesty rule (docs/architecture.md, "Simulated
engines"): query *answers* are computed for real; query *time* is
modeled. This module concentrates every timing constant so the
calibration is reviewable in one place.

Throughput constants are expressed in **virtual tuples per second of
exclusive capacity** on the paper's testbed (2× Intel E5-2660, 256 GB RAM)
and divided by ``BenchmarkSettings.scale`` at runtime, preserving all time
ratios while the benchmark runs over 1/scale as many actual rows.

Calibration sources (paper §5.2–§5.3):

* **MonetDB** — violations fall roughly linearly over TR ∈ [0.5 s, 10 s]
  at 500 M rows, so typical query times must span that bracket:
  ``scan_throughput = 1.2e8`` with per-query multipliers of ≈0.4–3.5 gives
  ≈1.7–15 s. Loading 500 M CSV rows takes 19 min → ``load_rate ≈ 4.4e5``.
* **XDB** — online-capable queries answer from samples at every report
  interval; the PostgreSQL-based blocking fallback is far slower than
  MonetDB (row store): ``scan_throughput = 1.6e7`` → fallback queries need
  ≈25–110 s at 500 M and violate every TR up to 10 s, pinning the overall
  violation ratio at the ≈66 % fallback fraction. Wander-join sampling is
  index-driven random access: ``sample_throughput = 2e6`` tuples/s. Data
  prep (COPY + primary key) takes 130 min at 500 M → ``load_rate ≈ 6.4e4``.
* **IDEA** — progressive in-memory scans over a pre-shuffled table:
  ``sample_throughput = 5e7`` tuples/s; results can be polled at any time;
  a ≈0.6 s warm-up penalty on the first query after a (re)start reproduces
  the paper's "1 % of queries violate TR=0.5 s". Start-up load of a fixed
  tuple budget takes 3 min regardless of size.
* **System X** — blocking scans over an offline 1 % stratified sample plus
  a per-query overhead of ≈0.15–0.45 s: >50 % violations at TR=0.5 s, ≈5 %
  at 1 s, none at ≥3 s. Prep (load + sample build + warm-up queries) takes
  27 min at 500 M.
* **System Y** — a frontend layer over a backend DBMS that adds ≈1–2 s of
  rendering overhead per query (§5.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.data.storage import Dataset
from repro.engines.joins import num_joins
from repro.query.model import AggQuery


@dataclass(frozen=True)
class EngineCostModel:
    """Time model of one engine (virtual tuples/sec and multipliers).

    A query's *service demand* in seconds of exclusive capacity is::

        startup + rows * multiplier(query) / (scan_throughput / scale)

    with ``multiplier`` composed of a per-referenced-column scan term and a
    qualifying-fraction-proportional processing term — which makes filter
    specificity the dominant performance factor, matching §5.5.
    """

    #: Virtual tuples/sec for sequential scans (blocking execution).
    scan_throughput: float
    #: Virtual tuples/sec for sampled access (progressive/online engines).
    sample_throughput: float = 0.0
    #: Fixed per-query latency (parsing, planning, dispatch), seconds.
    startup_latency: float = 0.02
    #: Scan cost per referenced numeric column (column-store column read).
    column_scan_cost: float = 0.35
    #: Scan-cost factor of string columns relative to numeric ones. This
    #: is what makes the normalized schema slightly *cheaper* overall
    #: (§5.3): normalization replaces wide string columns in the fact
    #: table by int FK columns, shrinking the bytes scanned.
    string_scan_factor: float = 2.4
    #: Processing cost of qualifying rows: base term.
    process_base_cost: float = 0.8
    #: Extra processing per additional bin dimension.
    extra_dim_cost: float = 0.5
    #: Extra processing per additional aggregate.
    extra_agg_cost: float = 0.35
    #: Extra cost per FK join, applied to all scanned rows (radix hash
    #: join probe into a cache-resident dimension table).
    join_scan_cost: float = 0.1
    #: Extra cost per FK join per *sampled* row (wander-join dereference).
    join_sample_cost: float = 0.6

    def __post_init__(self):
        if self.scan_throughput <= 0:
            raise ConfigurationError("scan_throughput must be positive")

    # ------------------------------------------------------------------
    def scan_column_cost(self, dataset: Dataset, query: AggQuery) -> float:
        """Summed per-column scan cost of a query on a physical layout.

        A column reached through a foreign key is scanned as the fact
        table's *int key column* (cost 1×) — the dimension itself is tiny;
        a string column stored de-normalized in the fact table costs
        ``string_scan_factor``×. This is the §5.3 size effect.
        """
        total = 0.0
        charged_fks = set()
        for name in query.referenced_columns():
            _table, _physical, fk = dataset.resolve_column(name)
            if fk is not None:
                # One key-column scan per FK, however many of its
                # attributes the query touches.
                if fk.fact_column not in charged_fks:
                    charged_fks.add(fk.fact_column)
                    total += self.column_scan_cost
            elif dataset.column_is_numeric(name):
                total += self.column_scan_cost
            else:
                total += self.column_scan_cost * self.string_scan_factor
        return total

    def scan_multiplier(
        self,
        query: AggQuery,
        qualifying_fraction: float,
        joins: int,
        column_cost: Optional[float] = None,
    ) -> float:
        """Cost multiplier of a full blocking scan for ``query``.

        ``column_cost`` is the layout-aware per-column term from
        :meth:`scan_column_cost`; when omitted, every referenced column is
        charged the numeric rate (layout-agnostic approximation).
        """
        if column_cost is None:
            column_cost = self.column_scan_cost * len(query.referenced_columns())
        processing = (
            self.process_base_cost
            + self.extra_dim_cost * (query.num_bin_dims - 1)
            + self.extra_agg_cost * (len(query.aggregates) - 1)
        )
        return (
            column_cost
            + qualifying_fraction * processing
            + self.join_scan_cost * joins
        )

    def sample_multiplier(self, query: AggQuery, joins: int) -> float:
        """Cost multiplier per sampled tuple (progressive/online access)."""
        columns = len(query.referenced_columns())
        return (
            1.0
            + 0.1 * (columns - 1)
            + 0.15 * (query.num_bin_dims - 1)
            + 0.1 * (len(query.aggregates) - 1)
            + self.join_sample_cost * joins
        )

    def blocking_service_demand(
        self,
        query: AggQuery,
        dataset: Dataset,
        virtual_rows: int,
        scale: int,
        qualifying_fraction: float,
    ) -> float:
        """Seconds of exclusive service a blocking execution needs."""
        joins = num_joins(dataset, query)
        multiplier = self.scan_multiplier(
            query,
            qualifying_fraction,
            joins,
            column_cost=self.scan_column_cost(dataset, query),
        )
        effective_throughput = self.scan_throughput / scale
        actual_rows = max(1, virtual_rows // scale)
        return self.startup_latency + actual_rows * multiplier / effective_throughput

    def sampling_service_rate(
        self, query: AggQuery, dataset: Dataset, scale: int
    ) -> float:
        """Actual sampled tuples per second of exclusive service."""
        if self.sample_throughput <= 0:
            raise ConfigurationError("engine has no sampling path configured")
        joins = num_joins(dataset, query)
        multiplier = self.sample_multiplier(query, joins)
        return (self.sample_throughput / scale) / multiplier


@dataclass(frozen=True)
class PreparationModel:
    """Data-preparation-time model (§5.2: "data preparation time").

    ``preparation_time`` answers: how long from pointing the system at a
    CSV until the first workload interaction can run? Components:

    * loading (``load_rate`` virtual tuples/sec; 0 = fixed-cost load),
    * fixed pre-processing (index builds counted in the rate for XDB,
      warm-up queries, server start),
    * sample construction (System X's offline stratified tables).
    """

    #: Virtual tuples/sec for the bulk load (0 → size-independent load).
    load_rate: float = 0.0
    #: Fixed preparation seconds regardless of size.
    fixed_seconds: float = 0.0
    #: Virtual tuples/sec for offline sample construction (0 = none).
    sample_build_rate: float = 0.0

    def preparation_time(self, virtual_rows: int) -> float:
        """Modeled preparation seconds for a dataset of ``virtual_rows``."""
        total = self.fixed_seconds
        if self.load_rate > 0:
            total += virtual_rows / self.load_rate
        if self.sample_build_rate > 0:
            total += virtual_rows / self.sample_build_rate
        return total


# ----------------------------------------------------------------------
# Default calibrations (constants derived in the module docstring)
# ----------------------------------------------------------------------

#: MonetDB-like blocking column store. The qualifying-fraction term
#: (``process_base_cost``) deliberately dominates the per-column scan
#: term: §5.5 found predicate *selectivity* to be "by far the most crucial
#: factor in terms of query performance", and in a scan-parallel column
#: store the per-group aggregation work indeed dwarfs the sequential
#: column reads.
COLUMNSTORE_COST = EngineCostModel(
    scan_throughput=5.0e8,
    startup_latency=0.03,
    column_scan_cost=0.07,
    process_base_cost=1.05,
    extra_dim_cost=0.1,
    extra_agg_cost=0.1,
    join_scan_cost=0.05,
)
COLUMNSTORE_PREP = PreparationModel(load_rate=4.4e5, fixed_seconds=5.0)

#: approXimateDB/XDB-like online aggregation over PostgreSQL.
ONLINEAGG_COST = EngineCostModel(
    scan_throughput=1.6e7,  # row-store fallback scans
    sample_throughput=5.0e5,  # wander-join random access (index walks)
    startup_latency=0.05,
)
ONLINEAGG_PREP = PreparationModel(load_rate=6.4e4, fixed_seconds=10.0)

#: IDEA-like progressive engine.
PROGRESSIVE_COST = EngineCostModel(
    scan_throughput=8.0e7,  # only used if a query must run to completion
    sample_throughput=5.0e7,
    startup_latency=0.01,
)
PROGRESSIVE_PREP = PreparationModel(fixed_seconds=180.0)
#: Warm-up penalty of the first query after a restart (seconds of service).
PROGRESSIVE_FIRST_QUERY_PENALTY = 0.6

#: System X-like offline stratified sampling AQP (1 % sample).
SAMPLING_COST = EngineCostModel(
    scan_throughput=9.0e7,  # blocking scan over the (small) sample table
    startup_latency=0.45,  # per-query dispatch dominates at small samples
)
SAMPLING_PREP = PreparationModel(
    load_rate=4.4e5, fixed_seconds=60.0, sample_build_rate=1.1e6
)
#: Default offline sampling rate (fraction of the data, §5.2: "1% of the
#: data size").
SAMPLING_DEFAULT_RATE = 0.01

#: System Y-like IDE frontend rendering overhead, seconds (§5.6: ≈1–2 s).
FRONTEND_RENDER_OVERHEAD = (1.0, 2.0)

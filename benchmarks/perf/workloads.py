"""The six workloads of the perf ledger, and the only file that names
the program's entry points.

Every name imported below is exported by a package ``__init__`` or used
by ``examples/``; no private attribute and no ``REPRO_*`` switch is
touched, so the benchmark drives the program the way its users do and a
later refactor of internals cannot break it.

Two kinds of workload:

*population* (``open_scripted``, ``open_markov``, ``tcp_scripted``) —
``--seed`` draws the users: every unit builds its own small dataset and
serves its own seeded population of sessions, so one run averages
hundreds to thousands of independent sessions and two seeds differ by
sampling noise only.

*suite* (``serial_mixed``, ``matrix_serial``, ``shared_closed``) — like
the paper's fixed benchmark suite: fixture datasets (data seeds 5, 6, 7,
...) with fixed workflow suites; ``--seed`` only orders the units. A few
dozen long workflows cannot average out their own mix (``serial_mixed``
moved 450–630 q/s between data seeds when tried), so drawing them from
the seed would put the seed's luck, not the program's speed, into the
number.

All workloads are closed loops in host time — the harness is a batch
simulator, so each reports work per host second at the stated size. The
virtual-time arrival shape is stated per workload.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench.experiments import MAIN_ENGINES, ExperimentContext
from repro.common.config import BenchmarkSettings, DataSize
from repro.engines.kernel_cache import clear_kernel_cache, kernel_cache
from repro.net import (
    ServerThread,
    TcpSessionServer,
    fetch_scripted_session,
)
from repro.net.client import records_csv_text
from repro.runtime import (
    ArtifactStore,
    MatrixExecutor,
    RunSpec,
    WorkflowSelector,
    current_revision,  # noqa: F401 - run.py stamps the ledger with it
    matrix_csv_text,
)
from repro.server import (
    ArrivalProcess,
    OpenSystemManager,
    RecordSpool,
    SessionManager,
    iter_spool,
    serial_baseline,
    session_specs,
)
from repro.workflow import WorkflowType

#: Data seed of the suite workloads' first fixture (the repo's convention).
DATA_SEED = 5
#: Sessions whose bytes are compared with the serial driver's.
REFERENCE_SESSIONS = 4
SIZE = DataSize.S


def sub_seed(seed: int, workload: str, index: int) -> int:
    """The seed of one unit's population: a pure function of its arguments."""
    text = f"{seed}/{workload}/{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def _sha(chunks: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def cache_counters() -> Dict[str, int]:
    """The process-wide kernel cache's counters, from its public stats()."""
    stats = kernel_cache().stats()
    return {
        "kernel_hits": stats["hits"],
        "kernel_misses": stats["misses"],
        "kernel_evictions": stats["evictions"],
    }


def _cold_caches(ctx: ExperimentContext) -> None:
    """Every unit starts with an empty kernel cache and oracle, so a unit
    costs the same the first and the second time it runs."""
    clear_kernel_cache()
    ctx.oracle(SIZE).clear()


def _violations(record_lists) -> int:
    return sum(1 for records in record_lists for r in records if r.tr_violated)


def _against_serial(ctx, engine: str, per_session: int, compare) -> List[str]:
    """The first sessions against the serial driver's run of the same specs.

    ``compare(session_id, expected)`` returns what is wrong, or ``""``.
    """
    specs = session_specs(ctx, REFERENCE_SESSIONS, per_session=per_session)
    problems = []
    for spec, expected in zip(specs, serial_baseline(ctx, engine, specs)):
        problem = compare(spec.session_id, expected)
        if problem:
            problems.append(f"{spec.session_id}: {problem}")
    return problems


def _build_context(settings: BenchmarkSettings, store=None) -> ExperimentContext:
    """What every serving path needs before its first query."""
    ctx = ExperimentContext(settings, store=store)
    ctx.dataset(SIZE)
    ctx.profiles(SIZE)
    ctx.oracle(SIZE)
    return ctx


@dataclass
class Unit:
    """One timed slice of a run; ``fixture`` names the set-up it runs on."""

    fixture: int
    index: int
    payload: dict = field(default_factory=dict)


@dataclass
class Plan:
    units: List[Unit]
    warmup: Unit


@dataclass
class UnitOutput:
    """What one unit produced, read after its clock has stopped."""

    queries: int
    sessions: int
    #: sha256 over the unit's output bytes (CSVs, spool file, matrix CSV).
    digest: str
    #: Sessions the unit had to serve, and those missing or short.
    attempted: int
    failed: int
    counters: Dict[str, float] = field(default_factory=dict)
    samples_ms: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


class Workload:
    """Set-up, one timed unit, and the checks on what it produced."""

    name = ""
    why = ""
    #: Suite workloads keep their three fixtures for the whole run;
    #: population workloads build one per unit and drop it afterwards.
    keep_fixtures = False
    #: Units per measured second at the full size (sizes the plan).
    units_per_second = 1.0

    def __init__(self, work_dir: Path, tiny: bool = False):
        self.work_dir = work_dir
        self.tiny = tiny

    def count_units(self, seconds: float) -> int:
        return max(3, round(seconds * self.units_per_second))

    def plan(self, seed: int, seconds: float) -> Plan:
        count = self.count_units(seconds)
        units = [Unit(i, i, {"seed": sub_seed(seed, self.name, i)})
                 for i in range(count)]
        warmup = Unit(-1, -1, {"seed": sub_seed(seed, self.name, -1)})
        return Plan(units, warmup)

    def expected_sessions(self, unit: Unit) -> int:
        """Sessions the unit must serve (all failed if it raises)."""
        raise NotImplementedError

    # The four steps; only ``setup`` and ``run`` are on the clock.
    def setup(self, unit: Unit):
        raise NotImplementedError

    def prepare(self, fixture, unit: Unit):
        return None

    def run(self, fixture, unit: Unit, state):
        raise NotImplementedError

    def summarize(self, fixture, unit: Unit, state, raw) -> UnitOutput:
        raise NotImplementedError

    def reference_check(self, fixture, unit: Unit, state, raw) -> List[str]:
        """Compare the unit's bytes with the serial driver's (untimed)."""
        return []

    def trace_extras(self, fixture, unit: Unit) -> Dict[str, float]:
        """Extra untimed passes whose numbers only the traced run reports."""
        return {}

    def cleanup(self, state) -> None:
        pass

    def teardown(self, fixture) -> None:
        pass

    def _scratch(self, label: str) -> Path:
        return self.work_dir / f"{self.name}-{label}"


# ----------------------------------------------------------------------
# Suite workloads
# ----------------------------------------------------------------------

class _SuiteWorkload(Workload):
    """Fixed fixtures (data seeds 5, 6, 7, ...), each cut into equal slots;
    a unit is one slot of one fixture and ``--seed`` shuffles their order."""

    keep_fixtures = True
    #: Fixtures per run; ``None`` gives every unit a fixture of its own.
    fixtures: Optional[int] = 3
    full_scale = 1
    #: 100 rows for ``--selfcheck`` and for the warm-up unit.
    small_scale = 1_000_000
    time_requirement = 3.0

    def plan(self, seed: int, seconds: float) -> Plan:
        count = self.count_units(seconds)
        fixtures = self.fixtures or count
        per_fixture = -(-count // fixtures)
        units = [
            Unit(k, 0, {"slot": slot, "slots": per_fixture})
            for k in range(fixtures)
            for slot in range(per_fixture)
        ]
        random.Random(sub_seed(seed, self.name, 0)).shuffle(units)
        for index, unit in enumerate(units):
            unit.index = index
        return Plan(units, Unit(-1, -1, {"slot": 0, "slots": 1}))

    def settings(self, unit: Unit) -> BenchmarkSettings:
        small = self.tiny or unit.fixture < 0
        return BenchmarkSettings(
            data_size=SIZE,
            scale=self.small_scale if small else self.full_scale,
            seed=DATA_SEED + unit.fixture,
            time_requirement=self.time_requirement,
        )


class SerialMixed(_SuiteWorkload):
    name = "serial_mixed"
    why = (
        "`repro run`: ctx.run for the 4 main engines on 160k rows, caches "
        "cold per unit - engine estimate, kernel compile/poll and the exact "
        "oracle do the work; calendar, spool, codec and store do none"
    )
    units_per_second = 1.2
    workflows_per_unit = 2
    full_scale = 625

    def setup(self, unit: Unit):
        ctx = _build_context(self.settings(unit))
        count = unit.payload["slots"] * self.workflows_per_unit
        return ctx, ctx.workflows(WorkflowType.MIXED, count)

    def run(self, fixture, unit: Unit, state):
        ctx, workflows = fixture
        first = unit.payload["slot"] * self.workflows_per_unit
        chosen = workflows[first:first + self.workflows_per_unit]
        _cold_caches(ctx)
        return [ctx.run(engine, chosen) for engine in MAIN_ENGINES]

    def expected_sessions(self, unit: Unit) -> int:
        return len(MAIN_ENGINES) * self.workflows_per_unit

    def summarize(self, fixture, unit, state, raw) -> UnitOutput:
        per_engine = [len(records) for records in raw]
        sessions = self.expected_sessions(unit)
        # Which queries a workflow triggers never depends on the engine,
        # so all four engines must hand back the same number of records.
        short = sum(1 for n in per_engine if n != per_engine[0] or n == 0)
        return UnitOutput(
            queries=sum(per_engine),
            sessions=sessions,
            digest=_sha([records_csv_text(r).encode("utf-8") for r in raw]),
            attempted=sessions,
            failed=short * self.workflows_per_unit,
            counters={
                "records": sum(per_engine),
                "tr_violations": _violations(raw),
                "sessions": sessions,
            },
        )


class MatrixSerial(_SuiteWorkload):
    name = "matrix_serial"
    why = (
        "`repro run-matrix --jobs 1`: 4 engines x 5 TRs per unit on 20k "
        "rows, store holding only the shared artifacts - the store's write "
        "path and planner/executor overhead, which no serving path touches"
    )
    units_per_second = 2.2
    time_requirements = (0.5, 1.0, 3.0, 5.0, 10.0)
    full_scale = 5000

    def setup(self, unit: Unit):
        settings = self.settings(unit)
        template = self._scratch(f"template-{unit.fixture}")
        ctx = _build_context(settings, store=ArtifactStore(template))
        # Shared artifacts only: the scaled table and the workflow suite.
        ctx.workflows(WorkflowType.MIXED, unit.payload["slots"], size=SIZE)
        return settings, template

    def _specs(self, fixture, unit: Unit):
        settings, _ = fixture
        slot = unit.payload["slot"]
        # plan_overall's cells (engines x TRs on the mixed suite), each cut
        # to one workflow of the fixture's suite with WorkflowSelector's own
        # start/stop slice, the way plan_detailed_table cuts its cell.
        return [
            RunSpec(
                engine=engine,
                settings=settings.with_(time_requirement=tr, data_size=SIZE),
                workflows=WorkflowSelector(
                    workflow_type="mixed",
                    count=unit.payload["slots"],
                    start=slot,
                    stop=slot + 1,
                ),
                label=f"overall/{engine}/tr{tr}/w{slot}",
            )
            for engine in MAIN_ENGINES
            for tr in self.time_requirements
        ]

    def expected_sessions(self, unit: Unit) -> int:
        return len(MAIN_ENGINES) * len(self.time_requirements)

    def _fresh_store(self, fixture, label: str) -> Path:
        _, template = fixture
        root = self._scratch(label)
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(template, root)
        return root

    def prepare(self, fixture, unit: Unit):
        root = self._fresh_store(fixture, f"store-{unit.index}")
        return {"root": root, "specs": self._specs(fixture, unit)}

    def run(self, fixture, unit: Unit, state):
        clear_kernel_cache()
        store = ArtifactStore(state["root"])
        state["store"] = store
        return MatrixExecutor(jobs=1, store=store).run(state["specs"])

    def summarize(self, fixture, unit, state, raw) -> UnitOutput:
        cells = len(raw)
        stats = state["store"].stats()
        problems = []
        if any(result.from_cache for result in raw):
            problems.append("a cold run restored a cell from the store")
        empty = sum(1 for result in raw if not result.records)
        return UnitOutput(
            queries=sum(len(result.records) for result in raw),
            sessions=cells,
            digest=_sha([matrix_csv_text(raw).encode("utf-8")]),
            attempted=cells,
            failed=empty,
            counters={
                "records": sum(len(result.records) for result in raw),
                "tr_violations": _violations(r.records for r in raw),
                "sessions": cells,
                "cells": cells,
                "store_hits": stats["hits"],
                "store_misses": stats["misses"],
            },
            problems=problems,
        )

    def reference_check(self, fixture, unit, state, raw) -> List[str]:
        """The cached re-run must restore every cell and equal the cold run."""
        again = MatrixExecutor(
            jobs=1, store=ArtifactStore(state["root"])
        ).run(state["specs"])
        problems = []
        if not all(result.from_cache for result in again):
            problems.append("cached re-run executed a cell again")
        if matrix_csv_text(again) != matrix_csv_text(raw):
            problems.append("cached re-run's matrix CSV differs from the cold run's")
        return problems

    def trace_extras(self, fixture, unit: Unit) -> Dict[str, float]:
        """Read path (filled store) and the jobs=nproc ratio, once a run."""
        specs = self._specs(fixture, unit)
        walls = {}
        for label, jobs in (("serial", 1), ("parallel", os.cpu_count() or 1)):
            root = self._fresh_store(fixture, f"extra-{label}")
            started = time.perf_counter()
            MatrixExecutor(jobs=jobs, store=ArtifactStore(root)).run(specs)
            walls[label] = time.perf_counter() - started
            if label == "serial":
                started = time.perf_counter()
                MatrixExecutor(jobs=1, store=ArtifactStore(root)).run(specs)
                walls["cached"] = time.perf_counter() - started
            shutil.rmtree(root, ignore_errors=True)
        return {
            "cached_rerun_s": walls["cached"],
            "jobs_serial_s": walls["serial"],
            "jobs_parallel_s": walls["parallel"],
        }

    def cleanup(self, state) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)

    def teardown(self, fixture) -> None:
        shutil.rmtree(fixture[1], ignore_errors=True)


class SharedClosed(_SuiteWorkload):
    name = "shared_closed"
    why = (
        "closed `repro serve --share-engine`: 14 sessions x 2 workflows on "
        "ONE engine, 20k rows, kernel working set ~1.7x the cache - "
        "scheduler arbitration and cache eviction matter only here"
    )
    engine = "idea-sim"
    sessions = 14
    per_session = 2
    units_per_second = 0.7
    full_scale = 5000
    time_requirement = 1.0
    # One closed population per fixture: 28 long workflows cannot average
    # out their own mix (ten seeds spread 9 % when the seed drew them).
    fixtures = None

    @property
    def population(self) -> int:
        return 6 if self.tiny else self.sessions

    def expected_sessions(self, unit: Unit) -> int:
        return self.population

    def setup(self, unit: Unit):
        return _build_context(self.settings(unit))

    def run(self, fixture, unit: Unit, state):
        _cold_caches(fixture)
        manager = SessionManager.for_engine(
            fixture, self.engine, self.population,
            per_session=self.per_session, share_engine=True,
        )
        return manager.run()

    def summarize(self, fixture, unit, state, raw) -> UnitOutput:
        total = self.population
        queries = sum(result.num_queries for result in raw)
        return UnitOutput(
            queries=queries,
            sessions=len(raw),
            digest=_sha([r.csv_text().encode("utf-8") for r in raw]),
            attempted=total,
            failed=(total - len(raw))
            + sum(1 for result in raw if not result.records),
            counters={
                "records": queries,
                "tr_violations": _violations(r.records for r in raw),
                "sessions": len(raw),
                "peak_active": total,
                "interactions_fired": sum(
                    sum(result.interaction_counts.values()) for result in raw
                ),
            },
        )

    def reference_check(self, fixture, unit, state, raw) -> List[str]:
        by_id = {result.session_id: result for result in raw}

        def compare(session_id, expected):
            # Contention moves every timestamp, never which queries run.
            got = by_id[session_id].num_queries
            if got != expected.num_queries:
                return f"{got} records, the serial driver made {expected.num_queries}"
            return ""

        return _against_serial(
            fixture, self.engine, self.per_session, compare
        )


# ----------------------------------------------------------------------
# Population workloads
# ----------------------------------------------------------------------

class _PopulationWorkload(Workload):
    """Every unit builds its own dataset and serves its own sessions."""

    engine = "idea-sim"
    #: 100 actual rows: the serving stack, not the engine, is under test.
    full_scale = 1_000_000
    sessions = 1
    tiny_sessions = 1

    @property
    def population(self) -> int:
        return self.tiny_sessions if self.tiny else self.sessions

    def expected_sessions(self, unit: Unit) -> int:
        return self.population

    def setup(self, unit: Unit):
        settings = BenchmarkSettings(
            data_size=SIZE,
            scale=1_000_000 if self.tiny else self.full_scale,
            seed=unit.payload["seed"],
            time_requirement=1.0,
        )
        return _build_context(settings)



class _OpenWorkload(_PopulationWorkload):
    """Open system: Poisson arrivals 50/s, mean residence 2 s (virtual)."""

    policy: Optional[str] = None
    per_session = 1
    rate = 50.0
    residence = 2.0

    def prepare(self, fixture, unit: Unit):
        return {"spill": self._scratch(f"spill-{unit.index}.jsonl")}

    def run(self, fixture, unit: Unit, state):
        _cold_caches(fixture)
        total = self.population
        arrivals = ArrivalProcess(
            self.rate, 1.5 * total / self.rate, seed=unit.payload["seed"],
            mean_residence=self.residence, max_sessions=total,
        )
        manager = OpenSystemManager.for_engine(
            fixture, self.engine, arrivals, policy=self.policy,
            per_session=self.per_session, spool=RecordSpool(state["spill"]),
        )
        manager.run()
        manager.spool.close()
        return manager

    def summarize(self, fixture, unit, state, raw) -> UnitOutput:
        aggregate = raw.aggregate
        total = self.population
        spilled = state["spill"].read_bytes()
        problems = []
        if raw.spool.count != aggregate.num_queries:
            problems.append(
                f"spool holds {raw.spool.count} records, the aggregate "
                f"counted {aggregate.num_queries}"
            )
        return UnitOutput(
            queries=aggregate.num_queries,
            sessions=aggregate.sessions_served,
            digest=_sha([spilled]),
            attempted=total,
            failed=total - aggregate.sessions_served,
            counters={
                "records": aggregate.num_queries,
                "tr_violations": aggregate.tr_violations,
                "sessions": aggregate.sessions_served,
                "peak_active": aggregate.peak_active,
                "interactions_fired": aggregate.total_interactions,
                "spool_records": raw.spool.count,
                "spool_bytes": len(spilled),
            },
            problems=problems,
        )

    def cleanup(self, state) -> None:
        state["spill"].unlink(missing_ok=True)


class OpenScripted(_OpenWorkload):
    name = "open_scripted"
    why = (
        "open-system `repro serve`, scripted sessions, 100 rows, spooled - "
        "engines do almost nothing, so per-session set-up (generate_suite), "
        "digesting, compute_metrics and spool serialization own the wall"
    )
    sessions = 250
    tiny_sessions = 40
    units_per_second = 1.15

    def reference_check(self, fixture, unit, state, raw) -> List[str]:
        spilled: Dict[str, list] = {}
        for session_id, record in iter_spool(state["spill"]):
            spilled.setdefault(session_id, []).append(record)

        arrived = {
            f"session-{arrival.index}": arrival.arrival_time
            for arrival in raw.schedule[:REFERENCE_SESSIONS]
        }

        def identity(record, offset):
            return (
                record.query_id, record.interaction_id, record.viz_name,
                record.workflow, record.bin_dims, record.binning_type,
                record.agg_type, record.metrics.bins_in_gt,
                round(record.qualifying_fraction, 9),
                round(record.start_time - offset, 6),
                round(record.end_time - offset, 6),
            )

        def compare(session_id, expected):
            # A session that departs mid-run leaves a prefix of its serial
            # records, later by its arrival time. Which queries ran, when,
            # and their ground truth must match; how many rows the engine
            # reached by a deadline may not, because adding the arrival
            # offset moves deadlines by float dust (39 vs 40 rows seen).
            got = spilled.get(session_id, [])
            want = expected.records[:len(got)]
            if [identity(r, arrived[session_id]) for r in got] != [
                identity(r, 0.0) for r in want
            ]:
                return "spooled records are not the serial driver's queries"
            return ""

        return _against_serial(
            fixture, self.engine, self.per_session, compare
        )


class OpenMarkov(_OpenWorkload):
    name = "open_markov"
    why = (
        "same arrivals and data, policy=markov: interactions chosen online, "
        "nothing built up front - lazy workflow materialization must move "
        "open_scripted and not this; a slower shared sampler shows here"
    )
    policy = "markov"
    sessions = 500
    tiny_sessions = 40
    units_per_second = 0.9


class TcpScripted(_PopulationWorkload):
    name = "tcp_scripted"
    why = (
        "`repro serve --tcp`: one server thread, one blocking client, one "
        "connection per scripted session, 100 rows - the only workload with "
        "frame encode/decode and loopback sockets on the blocking path"
    )
    sessions = 40
    tiny_sessions = 6
    per_session = 1
    units_per_second = 0.95

    def setup(self, unit: Unit):
        ctx = super().setup(unit)
        thread = ServerThread(TcpSessionServer(ctx, self.engine))
        host, port = thread.__enter__()
        return ctx, thread, host, port

    def teardown(self, fixture) -> None:
        fixture[1].__exit__(None, None, None)

    def prepare(self, fixture, unit: Unit):
        return {"served_before": fixture[1].server.sessions_served}

    def run(self, fixture, unit: Unit, state):
        ctx, _, host, port = fixture
        _cold_caches(ctx)
        fetched = []
        for index in range(self.population):
            started = time.perf_counter()
            session_id, records, summary = fetch_scripted_session(
                host, port, index, per_session=self.per_session
            )
            elapsed = time.perf_counter() - started
            fetched.append((session_id, records, summary, elapsed))
        return fetched

    def summarize(self, fixture, unit, state, raw) -> UnitOutput:
        total = self.population
        queries = sum(len(records) for _, records, _, _ in raw)
        # The server books a session after its DETACH has left, so the
        # last one may still be in flight when the client is done.
        server = fixture[1].server
        deadline = time.monotonic() + 1.0
        while (
            server.sessions_served - state["served_before"] < len(raw)
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        return UnitOutput(
            queries=queries,
            sessions=len(raw),
            digest=_sha([
                records_csv_text(records).encode("utf-8")
                for _, records, _, _ in raw
            ]),
            attempted=total,
            failed=(total - len(raw))
            + sum(1 for _, records, _, _ in raw if not records),
            counters={
                "records": queries,
                "tr_violations": _violations(r for _, r, _, _ in raw),
                "sessions": len(raw),
                "peak_active": 1,
                "net_server_sessions": server.sessions_served
                - state["served_before"],
            },
            samples_ms=[elapsed * 1e3 for _, _, _, elapsed in raw],
        )

    def reference_check(self, fixture, unit, state, raw) -> List[str]:
        by_id = {session_id: records for session_id, records, _, _ in raw}

        def compare(session_id, expected):
            if records_csv_text(by_id[session_id]) != expected.csv_text():
                return "CSV over TCP differs from the serial driver's"
            return ""

        return _against_serial(
            fixture[0], self.engine, self.per_session, compare
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        SerialMixed, OpenScripted, OpenMarkov, SharedClosed, TcpScripted,
        MatrixSerial,
    )
}

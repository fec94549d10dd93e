#!/usr/bin/env python3
"""Regenerate the golden-report corpus under ``tests/golden/``.

The corpus pins the exact bytes of four end-to-end reports — a serial
run, a shared-engine server run, an adaptive (markov) run and an
open-system churn run — plus wire transcripts, virtual-time traces, a
windowed series, one SHA-256 per further serving configuration
(``scheduler_pins.txt``), one per generated workflow
(``workflow_pins.txt``), one per System X estimate
(``estimator_pins.txt``), one per scored answer (``metrics_pins.txt``)
and the §4.2 data generator's output at three seeds × three scales
(``data_pins.txt``), so any change to generator, engines, driver,
server, policies or report rendering that shifts output is caught as a
diff, not discovered downstream. ``tests/test_golden_reports.py``
re-executes the same builders in-process and asserts byte identity
against the checked-in files.

After an *intentional* behavior change, refresh the corpus with::

    PYTHONPATH=src python tools/regen_golden.py

and commit the updated files together with the change that caused them.
The configuration is deliberately tiny (S size at scale 50 000 → ~2 000
actual rows, TR 1 s) so regeneration and the test both run in seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

if str(REPO_ROOT / "src") not in sys.path:  # direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))


def build_context():
    """The corpus configuration: identical to the tests' ``server_ctx``."""
    from repro.bench.experiments import ExperimentContext
    from repro.common.config import BenchmarkSettings, DataSize

    return ExperimentContext(
        BenchmarkSettings(
            data_size=DataSize.S,
            scale=50_000,
            seed=5,
            time_requirement=1.0,
        )
    )


def _session_text(results) -> str:
    """Concatenate per-session detailed CSVs under stable banners."""
    parts = []
    for result in results:
        departed = (
            f" departed_at={result.departed_at:.6f}"
            if result.departed_at is not None
            else ""
        )
        parts.append(f"== {result.session_id}{departed} ==\n")
        parts.append(result.csv_text())
    return "".join(parts)


def case_serial_run(ctx) -> str:
    """The ``repro run`` path: two mixed workflows on idea-sim, serially."""
    import io

    from repro.bench.report import DetailedReport
    from repro.workflow.spec import WorkflowType

    records = ctx.run("idea-sim", ctx.workflows(WorkflowType.MIXED, 2))
    buffer = io.StringIO()
    DetailedReport(records).to_csv(buffer)
    return buffer.getvalue()


def case_server_shared(ctx) -> str:
    """Two sessions contending on one idea-sim engine (fair scheduling)."""
    from repro.server import SessionManager

    results = SessionManager.for_engine(
        ctx, "idea-sim", 2, per_session=1, share_engine=True
    ).run()
    return _session_text(results)


def case_adaptive_markov(ctx) -> str:
    """Two adaptive (markov) sessions on isolated idea-sim engines."""
    from repro.server import SessionManager

    results = SessionManager.for_engine(
        ctx, "idea-sim", 2, per_session=1, policy="markov"
    ).run()
    return _session_text(results)


def case_open_churn(ctx) -> str:
    """Open system: Poisson arrivals churning on a shared engine."""
    from repro.server import ArrivalProcess, OpenSystemManager

    arrivals = ArrivalProcess(
        0.2, 40.0, seed=ctx.settings.seed, mean_residence=25.0, max_sessions=4
    )
    results = OpenSystemManager.for_engine(
        ctx, "idea-sim", arrivals, policy="uncertainty",
        per_session=1, share_engine=True,
    ).run()
    return _session_text(results)


def case_tcp_session(ctx) -> str:
    """One scripted TCP session's server→client frames, newline-joined.

    The network front-end's determinism contract (docs/protocol.md):
    message bodies are canonical JSON, so the entire wire conversation
    for a fixed configuration is reproducible byte-for-byte. Length
    prefixes are derivable from the bodies and therefore not pinned.
    """
    from repro.net.client import NetClient
    from repro.net.server import ServerThread, TcpSessionServer

    server = TcpSessionServer(ctx, "idea-sim", max_sessions=1)
    with ServerThread(server) as (host, port):
        with NetClient(host, port, log_frames=True) as client:
            client.hello()
            client.attach_scripted(0, per_session=1, workflow_type="mixed")
            client.collect()
            frames = list(client.frame_log)
    return "\n".join(frames) + "\n"


def case_tcp_shared(ctx) -> str:
    """Slot 0's frames of a 2-session shared-engine TCP run.

    Pins the v2 turn protocol byte-for-byte: HELLO (with the
    shared-engine capability), PROGRESS(attached), BARRIER, then the
    deterministic TURN_GRANT/RECORD interleave of the global virtual
    timeline, closed by the DETACH summary. TURN_DONE acknowledgements
    are client→server and therefore not part of the pinned stream.
    """
    import threading

    from repro.net.client import NetClient, fetch_scripted_session
    from repro.net.server import ServerThread, TcpSessionServer

    server = TcpSessionServer(
        ctx, "idea-sim", share_engine=True, max_sessions=2, per_session=1
    )
    with ServerThread(server) as (host, port):
        peer = threading.Thread(
            target=fetch_scripted_session,
            args=(host, port, 1),
            kwargs={"per_session": 1},
            daemon=True,
        )
        peer.start()
        with NetClient(host, port, log_frames=True) as client:
            client.hello()
            client.attach_scripted(0, per_session=1, workflow_type="mixed")
            client.collect()
            frames = list(client.frame_log)
        peer.join(120)
    return "\n".join(frames) + "\n"


def case_trace_serial(ctx) -> str:
    """Virtual-time trace of the serial run (two-axis contract pin).

    Only the deterministic projection of each entry is pinned
    (``virtual_view``): span/event kinds, names, sequence numbers,
    sessions, attrs and virtual timestamps. Wall-time measurements live
    under the segregated ``"wall"`` key and are stripped, so this file's
    bytes are machine-independent (docs/observability.md).
    """
    from repro.obs import observed
    from repro.obs.sink import entry_line
    from repro.workflow.spec import WorkflowType

    with observed(enabled=True) as tracer:
        ctx.run("idea-sim", ctx.workflows(WorkflowType.MIXED, 2))
        lines = [
            entry_line(entry, virtual_only=True)
            for entry in tracer.entries()
        ]
    return "\n".join(lines) + "\n"


def case_trace_tcp_shared(ctx) -> str:
    """Virtual-time trace of a 2-session shared-engine TCP run.

    The server-side instruments observe the same deterministic timeline
    the wire transcript (``tcp_shared.txt``) pins, so the virtual-only
    trace is reproducible even though every frame crosses a real socket.
    """
    from repro.net.client import fetch_scripted_session
    from repro.net.server import ServerThread, TcpSessionServer
    from repro.obs import observed
    from repro.obs.sink import entry_line

    with observed(enabled=True) as tracer:
        server = TcpSessionServer(
            ctx, "idea-sim", share_engine=True, max_sessions=2, per_session=1
        )
        with ServerThread(server) as (host, port):
            import threading

            peer = threading.Thread(
                target=fetch_scripted_session,
                args=(host, port, 1),
                kwargs={"per_session": 1},
                daemon=True,
            )
            peer.start()
            fetch_scripted_session(host, port, 0, per_session=1)
            peer.join(120)
        lines = [
            entry_line(entry, virtual_only=True)
            for entry in tracer.entries()
        ]
    return "\n".join(lines) + "\n"


def case_timeseries_serial(ctx) -> str:
    """Windowed virtual-time telemetry of a shared-engine server run.

    Pins the incremental time-series fold (docs/observability.md): a
    fresh :class:`TimeSeries` is installed for the run, the session
    manager feeds it lifecycle/turn/record events in global virtual-time
    order, and each flushed window's canonical JSON is pinned. Every
    field is virtual-axis (no wall keys), so the bytes are
    machine-independent and must equal a from-scratch recompute.
    """
    from repro.engines.kernel_cache import clear_kernel_cache
    from repro.obs.timeseries import TimeSeries, set_timeseries
    from repro.server import SessionManager

    def shared_run():
        SessionManager.for_engine(
            ctx, "idea-sim", 2, per_session=1, share_engine=True
        ).run()

    # The kernel hit/miss deltas depend on process state: the context's
    # lazy computations (oracle, scaled tables) touch the cache on first
    # use. One throwaway run warms all of it; measuring then starts from
    # a cleared cache — the same two steps a rebuild in any process must
    # take to reproduce these bytes.
    shared_run()
    clear_kernel_cache()
    series = TimeSeries(window=5.0)
    previous = set_timeseries(series)
    try:
        shared_run()
    finally:
        set_timeseries(previous)
    return series.text()


# ----------------------------------------------------------------------
# Scheduler pins: outputs frozen from the deleted task-per-session path
# ----------------------------------------------------------------------

def _pin_text(manager, results) -> str:
    """Everything a pin covers: per-session CSVs with departure banners,
    then the captured ``manager.trace`` marks (step and ``"arrival"``)."""
    marks = "".join(f"{time!r} {label}\n" for time, label in manager.trace)
    return _session_text(results) + marks


def _closed_pin(sessions=3, engine="idea-sim", **kwargs):
    def build(ctx) -> str:
        from repro.server import SessionManager

        manager = SessionManager.for_engine(ctx, engine, sessions, **kwargs)
        return _pin_text(manager, manager.run())

    return build


def _open_pin(rate=0.2, horizon=40.0, residence=25.0, cap=4, seed_offset=0,
              **kwargs):
    def build(ctx) -> str:
        from repro.server import ArrivalProcess, OpenSystemManager

        arrivals = ArrivalProcess(
            rate, horizon, seed=ctx.settings.seed + seed_offset,
            mean_residence=residence, max_sessions=cap,
        )
        manager = OpenSystemManager.for_engine(
            ctx, "idea-sim", arrivals, **kwargs
        )
        return _pin_text(manager, manager.run())

    return build


#: Pin name → builder. One entry per configuration the calendar ↔ tasks
#: equivalence suite compared before the task-per-session scheduler was
#: deleted; the hashes in ``scheduler_pins.txt`` were generated by that
#: scheduler, so reproducing them proves the calendar loop still emits
#: the bytes (and the grant order) both implementations agreed on. The
#: four ``churn_fuzz_*`` rows are the suite's ``random.Random(1000+i)``
#: draws (rate, residence, cap, policy, topology), written out.
SCHEDULER_PIN_CASES = {
    "closed_scripted_isolated": _closed_pin(per_session=2),
    "closed_scripted_shared": _closed_pin(per_session=2, share_engine=True),
    "closed_markov_monetdb_shared": _closed_pin(
        engine="monetdb-sim", per_session=1, policy="markov",
        share_engine=True,
    ),
    "closed_uncertainty_monetdb_shared": _closed_pin(
        engine="monetdb-sim", per_session=1, policy="uncertainty",
        share_engine=True,
    ),
    "closed_isolated_trace": _closed_pin(per_session=1, trace_capture=True),
    "closed_isolated_1": _closed_pin(sessions=1, per_session=1),
    "closed_isolated_10": _closed_pin(sessions=10, per_session=1),
    "closed_isolated_100": _closed_pin(sessions=100, per_session=1),
    "open_markov_churn_isolated": _open_pin(
        policy="markov", trace_capture=True
    ),
    "open_markov_churn_shared": _open_pin(
        policy="markov", share_engine=True, trace_capture=True
    ),
    "churn_fuzz_1000": _open_pin(
        0.488678321350282, 35.0, 22.73616231030349, 2, 0,
        policy="markov", share_engine=True,
    ),
    "churn_fuzz_1001": _open_pin(
        0.4983254839799852, 35.0, 9.28977712045676, 3, 1, policy="replay",
    ),
    "churn_fuzz_1002": _open_pin(
        0.3604742035109544, 35.0, 17.267504422252408, 3, 2,
        policy="replay", share_engine=True,
    ),
    "churn_fuzz_1003": _open_pin(
        0.3486707104699016, 35.0, 15.919790050925648, 5, 3, policy="markov",
    ),
}


def scheduler_pin(ctx, name: str) -> str:
    """The ``name sha256`` line of one pinned configuration."""
    import hashlib

    text = SCHEDULER_PIN_CASES[name](ctx)
    return f"{name} {hashlib.sha256(text.encode('utf-8')).hexdigest()}\n"


def case_scheduler_pins(ctx) -> str:
    """SHA-256 per serving configuration, frozen from the tasks scheduler."""
    return "".join(scheduler_pin(ctx, name) for name in SCHEDULER_PIN_CASES)


def case_workflow_pins(ctx) -> str:
    """SHA-256 of every generated workflow's canonical JSON.

    Five workflow types × indexes 0–19 × seeds {42, 7}, frozen from the
    eager generator before workflows became lazily materialized: a full
    read of a lazy workflow must reproduce the tuple the eager fill
    built, interaction for interaction.
    """
    from repro.common.fingerprint import stable_digest
    from repro.workflow.generator import WorkflowGenerator
    from repro.workflow.spec import WorkflowType

    profiles = ctx.profiles(ctx.settings.data_size)
    lines = []
    for seed in (42, 7):
        generator = WorkflowGenerator(profiles, "flights", seed=seed)
        for workflow_type in WorkflowType:
            if workflow_type is WorkflowType.CUSTOM:  # loaded, never generated
                continue
            for workflow in generator.generate_suite(workflow_type, 20):
                digest = stable_digest(workflow.to_dict(), length=None)
                lines.append(f"seed{seed}_{workflow.name} {digest}\n")
    return "".join(lines)


# ----------------------------------------------------------------------
# Estimator pins: System X estimates frozen from the per-stratum scalar
# combiner, before it became one pass over a (stratum × bin) grid
# ----------------------------------------------------------------------

def estimator_pin_queries():
    """Pin-name suffix → query: 6 aggregate sets × 3 bin shapes × 3 filters.

    ``UNIQUE_CARRIER`` is the column the engine stratifies on, so its
    bins each live in exactly one stratum; the other shapes spread every
    bin over many strata. The selective filter leaves whole strata
    without a qualifying sample row at the low sampling rate.
    """
    from repro.query.filters import RangePredicate
    from repro.query.model import (
        AggFunc, Aggregate, AggQuery, BinDimension, BinKind,
    )

    delay = "ARR_DELAY"
    aggregate_sets = {
        "count": (Aggregate(AggFunc.COUNT),),
        "sum": (Aggregate(AggFunc.SUM, delay),),
        "avg": (Aggregate(AggFunc.AVG, delay),),
        "count+avg": (Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, delay)),
        "min": (Aggregate(AggFunc.MIN, delay),),
        "max": (Aggregate(AggFunc.MAX, delay),),
    }
    bin_shapes = {
        "nominal": (BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        "quantitative": (
            BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=20.0),
        ),
        "2d": (
            BinDimension("ORIGIN_STATE", BinKind.NOMINAL),
            BinDimension("DISTANCE", BinKind.QUANTITATIVE, width=500.0),
        ),
    }
    filters = {
        "all": None,
        "selective": RangePredicate("DEP_DELAY", 30.0, None),
        "nothing": RangePredicate("DISTANCE", None, -1.0),
    }
    return {
        f"{bins_name}_{aggs_name}_{filter_name}": AggQuery(
            "flights", bins=bins, aggregates=aggregates, filter=filter_expr
        )
        for bins_name, bins in bin_shapes.items()
        for aggs_name, aggregates in aggregate_sets.items()
        for filter_name, filter_expr in filters.items()
    }


def estimate_digest(result) -> str:
    """SHA-256 over a result's keys, value bits and margin bits, in dict
    order (``<d`` patterns, so NaN payloads and ±0 count; ``N`` = None)."""
    import hashlib
    import struct

    digest = hashlib.sha256()
    for mapping in (result.values, result.margins):
        for key, row in mapping.items():
            digest.update(repr(key).encode("utf-8"))
            for cell in row:
                digest.update(
                    b"N" if cell is None else struct.pack("<d", float(cell))
                )
        digest.update(b"|")
    return digest.hexdigest()


def estimator_pin_results():
    """``(pin name, dataset, query, result)`` per pinned System X estimate.

    Every query of :func:`estimator_pin_queries` × ``stratify`` on/off ×
    sampling rates {0.02, 0.2}, driven through submit → result_at on the
    6 000-row seed table of ``tests/conftest.py`` (not the corpus
    configuration).
    """
    from repro.common.clock import VirtualClock
    from repro.common.config import BenchmarkSettings, DataSize
    from repro.data.seed import generate_flights_seed
    from repro.data.storage import Dataset
    from repro.engines.sampling import StratifiedSamplingEngine

    dataset = Dataset.from_table(generate_flights_seed(6_000, seed=11))
    settings = BenchmarkSettings(
        data_size=DataSize.S, scale=100_000_000 // 6_000, seed=11
    )
    queries = estimator_pin_queries()
    for stratify in (True, False):
        for rate in (0.02, 0.2):
            engine = StratifiedSamplingEngine(
                dataset, settings, VirtualClock(),
                sampling_rate=rate, stratify=stratify,
            )
            engine.prepare()
            prefix = f"{'stratified' if stratify else 'uniform'}_{rate}"
            for name, query in queries.items():
                handle = engine.submit(query)
                time = engine.clock.now() + 60.0
                engine.clock.advance_to(time)
                engine.advance_to(time)
                yield (
                    f"{prefix}_{name}", dataset, query,
                    engine.result_at(handle, time),
                )


def case_estimator_pins(ctx) -> str:
    """SHA-256 per System X estimate on the tests' flights fixture.

    The hashes were generated by the per-stratum ``kernel.evaluate`` loop
    and the scalar ``stratified_estimate``; the one-pass grid must
    reproduce them bit for bit. ``ctx`` is unused
    (:func:`estimator_pin_results`).
    """
    return "".join(
        f"{name} {estimate_digest(result)}\n"
        for name, _dataset, _query, result in estimator_pin_results()
    )


# ----------------------------------------------------------------------
# Metrics pins: §4.7 metrics frozen from the dict-walking compute_metrics,
# before answers became columns
# ----------------------------------------------------------------------

def metrics_digest(metrics) -> str:
    """SHA-256 over all twelve ``QueryMetrics`` fields in declaration
    order: ``<d`` bits for floats (so NaN and ±0 count), ``<q`` for the
    bool and the ints."""
    import dataclasses
    import hashlib
    import struct

    digest = hashlib.sha256()
    for spec in dataclasses.fields(metrics):
        cell = getattr(metrics, spec.name)
        if isinstance(cell, float):
            digest.update(struct.pack("<d", cell))
        else:
            digest.update(struct.pack("<q", int(cell)))
    return digest.hexdigest()


def metrics_pin_cases():
    """Pin name → ``(result, ground_truth)`` for the shapes the estimator
    corpus does not reach, built through the dict-taking constructor."""
    from repro.query.model import (
        AggFunc, Aggregate, AggQuery, BinDimension, BinKind, QueryResult,
    )

    nan = float("nan")
    one = (Aggregate(AggFunc.COUNT),)
    two = (Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "v"))

    def case(truth, values, margins=None, aggregates=one):
        query = AggQuery(
            "t", bins=(BinDimension("g", BinKind.NOMINAL),), aggregates=aggregates
        )
        return (
            QueryResult(
                query=query, values=values, margins=margins or {},
                rows_processed=10, fraction=0.1,
            ),
            QueryResult(query=query, values=truth, exact=True),
        )

    a, b, c, d = ("a",), ("b",), ("c",), ("d",)
    return {
        # 0.0 / -8.0 is -0.0, and the mean over aggregates reads +0.0.
        "zero_estimate_sum_negative_truth_sum": case(
            {a: (-5.0,), b: (-3.0,)}, {a: (2.0,), b: (-2.0,)},
            {a: (1.0,), b: (1.0,)},
        ),
        "delivered_bin_absent_from_truth": case(
            {a: (10.0,), b: (20.0,)}, {a: (9.0,), c: (4.0,), b: (22.0,)},
            {a: (2.0,), c: (1.0,), b: (1.0,)},
        ),
        "none_margin_beside_nan_margin": case(
            {a: (10.0,), b: (20.0,), c: (30.0,)},
            {a: (9.0,), b: (22.0,), c: (33.0,)},
            {a: (None,), b: (nan,), c: (1.0,)},
        ),
        "tiny_estimates_zero_and_positive_margin": case(
            {a: (0.0,), b: (0.5,), c: (3.0,)},
            {a: (1e-13,), b: (0.0,), c: (-1e-12,)},
            {a: (0.0,), b: (0.25,), c: (0.0,)},
        ),
        "permuted_key_order": case(
            {a: (1.0, 0.5), b: (2.0, 0.25), c: (3.0, 0.125), d: (4.0, 7.0)},
            {c: (3.5, 0.1), a: (0.75, 0.6), d: (4.25, 6.0), b: (1.5, 0.3)},
            {c: (0.4, 0.2), a: (0.3, None), d: (0.2, 0.5), b: (0.6, 0.01)},
            aggregates=two,
        ),
        "empty_result": case({a: (10.0,), b: (20.0,)}, {}),
        "empty_result_empty_truth": case({}, {}),
        "delivered_bins_empty_truth": case({}, {a: (1.0,)}, {a: (0.5,)}),
        "truths_cancel_to_zero": case(
            {a: (5.0,), b: (-5.0,)}, {a: (4.0,), b: (-6.0,)},
            {a: (2.0,), b: (0.5,)},
        ),
        "all_truths_zero": case(
            {a: (0.0,), b: (0.0,)}, {a: (0.0,), b: (1.0,)},
            {a: (0.0,), b: (2.0,)},
        ),
        "different_bounded_masks_per_aggregate": case(
            {a: (10.0, 1.0), b: (20.0, 2.0), c: (30.0, 3.0)},
            {a: (11.0, 1.5), b: (18.0, 2.5), c: (30.0, 2.0)},
            {a: (0.5, None), b: (None, 0.1), c: (3.0, nan)},
            aggregates=two,
        ),
        "margin_row_absent_for_a_delivered_bin": case(
            {a: (10.0,), b: (20.0,)}, {a: (9.0,), b: (25.0,)}, {b: (1.0,)},
        ),
        "partial_delivery_negative_margin": case(
            {a: (10.0,), b: (20.0,), c: (0.0,)}, {c: (2.0,), a: (12.0,)},
            {c: (-3.0,), a: (-0.5,)},
        ),
        "nan_estimate": case(
            {a: (10.0,), b: (20.0,)}, {a: (nan,), b: (21.0,)},
            {a: (1.0,), b: (0.0,)},
        ),
        "exact_answer_without_margins": case(
            {a: (10.0, 1.0), b: (20.0, 2.0)}, {a: (10.0, 1.0), b: (20.0, 2.0)},
            aggregates=two,
        ),
    }


def case_metrics_pins(ctx) -> str:
    """SHA-256 per scored answer: the §4.7 metrics of every
    :func:`estimator_pin_results` estimate against its exact answer,
    then the hand-built :func:`metrics_pin_cases`. Generated by the
    per-bin dict walk of ``compute_metrics``; the columnar one must
    reproduce it bit for bit. ``ctx`` is unused.
    """
    from repro.bench.metrics import compute_metrics
    from repro.query.groundtruth import evaluate_exact

    lines = [
        f"{name} "
        f"{metrics_digest(compute_metrics(result, evaluate_exact(dataset, query)))}\n"
        for name, dataset, query, result in estimator_pin_results()
    ]
    lines += [
        f"hand_{name} {metrics_digest(compute_metrics(result, truth))}\n"
        for name, (result, truth) in metrics_pin_cases().items()
    ]
    return "".join(lines)


# ----------------------------------------------------------------------
# Data pins: §4.2 generator output frozen from the scipy.stats-based
# scaler, before it worked in place on scipy.special
# ----------------------------------------------------------------------

#: Scales pinned per seed: S at 100, 20 000 and 160 000 actual rows —
#: the three data sizes ``BENCHMARK.json``'s workloads set up.
DATA_PIN_SCALES = (1_000_000, 5_000, 625)


def scaler_digest(scaler) -> str:
    """SHA-256 over a fitted scaler's Cholesky factor and every CDF
    array, in column order (dtype, then raw bytes)."""
    import hashlib

    import numpy as np

    arrays = [scaler.cholesky]
    for name in scaler.column_names:
        if name in scaler.numeric_cdfs:
            arrays.append(scaler.numeric_cdfs[name].sorted_values)
        else:
            cdf = scaler.nominal_cdfs[name]
            arrays += [cdf.categories, cdf.cumulative]
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.dtype.str.encode("utf-8"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def profiles_digest(profiles) -> str:
    """SHA-256 over every :class:`ColumnProfile` field (float ``repr``
    round-trips, so a one-ulp shift in a quantile changes the digest)."""
    import hashlib

    text = repr([
        (p.name, p.kind.value, p.minimum, p.maximum, p.std, p.categories,
         p.quantiles)
        for p in profiles.values()
    ])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_data_pins(ctx) -> str:
    """Digests of everything between a seed and a profiled dataset.

    Seeds 5–7: the 60 000-row seed table, the fitted scaler, and per
    :data:`DATA_PIN_SCALES` scale the scaled table, its star-schema
    normalization and its column profiles; then one multi-batch
    generation and the normal critical values the engines' margins use.
    ``ctx`` is unused: every pin builds its own context.
    """
    from repro.bench.experiments import SEED_ROWS, ExperimentContext
    from repro.common.config import BenchmarkSettings, DataSize
    from repro.data.seed import generate_flights_seed
    from repro.engines.estimators import z_value

    size = DataSize.S
    lines = []
    for seed in (5, 6, 7):
        seed_table = generate_flights_seed(SEED_ROWS, seed=seed)
        lines.append(f"seed{seed}_seed_table {seed_table.fingerprint()}\n")
        scaler = ExperimentContext(BenchmarkSettings(seed=seed)).scaler
        lines.append(f"seed{seed}_scaler {scaler_digest(scaler)}\n")
        for scale in DATA_PIN_SCALES:
            data = ExperimentContext(
                BenchmarkSettings(data_size=size, scale=scale, seed=seed)
            )
            prefix = f"seed{seed}_scale{scale}"
            lines += [
                f"{prefix}_table {data.table(size).fingerprint()}\n",
                f"{prefix}_normalized "
                f"{data.dataset(size, normalized=True).fingerprint()}\n",
                f"{prefix}_profiles {profiles_digest(data.profiles(size))}\n",
            ]
    # The last seed's scaler, three batches from one generator stream.
    batched = scaler.generate(450_000, batch_rows=200_000)
    lines.append(f"seed{seed}_generate_450000_in_3_batches {batched.fingerprint()}\n")
    lines += [
        f"z_value_{level} {float.hex(z_value(level))}\n"
        for level in (0.5, 0.8, 0.9, 0.95, 0.99)
    ]
    return "".join(lines)


#: File name → builder. Each builder gets a fresh-or-shared context and
#: returns the complete file content as text.
GOLDEN_CASES = {
    "serial_run.csv": case_serial_run,
    "server_shared.txt": case_server_shared,
    "adaptive_markov.txt": case_adaptive_markov,
    "open_churn.txt": case_open_churn,
    "tcp_session.txt": case_tcp_session,
    "tcp_shared.txt": case_tcp_shared,
    "trace_serial.jsonl": case_trace_serial,
    "trace_tcp_shared.jsonl": case_trace_tcp_shared,
    "timeseries_serial.jsonl": case_timeseries_serial,
    "scheduler_pins.txt": case_scheduler_pins,
    "workflow_pins.txt": case_workflow_pins,
    "estimator_pins.txt": case_estimator_pins,
    "metrics_pins.txt": case_metrics_pins,
    "data_pins.txt": case_data_pins,
}

#: Cases that run no query: rebuilding them through fallback kernels
#: would repeat the plain rebuild and compare nothing new.
KERNEL_FREE_CASES = frozenset({"data_pins.txt"})


def main() -> int:
    ctx = build_context()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, builder in GOLDEN_CASES.items():
        path = GOLDEN_DIR / name
        # Binary I/O end to end: the corpus pins exact bytes, so no
        # platform newline translation may touch it.
        data = builder(ctx).encode("utf-8")
        changed = not path.exists() or path.read_bytes() != data
        path.write_bytes(data)
        status = "updated" if changed else "unchanged"
        print(f"{status}: {path.relative_to(REPO_ROOT)} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Constant-memory serving: record spooling, incremental aggregation,
rate-limited --follow output (docs/server.md's population-scale section).

The contract under test: a spooled run produces *the same information*
as a retained run — every record lands in the spill file in global
virtual-time order, the incremental aggregate matches what a full record
list would yield, bit for bit the aggregate a retained run folds — while
the manager returns no results and per-session state is freed as
sessions retire.
"""

import io
import math

import pytest

from repro.bench.codec import record_to_dict
from repro.bench.driver import QueryRecord
from repro.bench.metrics import QueryMetrics
from repro.common.errors import BenchmarkError, ProtocolError
from repro.common.fingerprint import canonical_json
from repro.query.model import QueryResult
from repro.server import (
    ArrivalProcess,
    FollowPrinter,
    OpenSystemManager,
    RecordSpool,
    ServingAggregate,
    SessionManager,
    iter_spool,
    render_aggregate_report,
)
from repro.server.manager import ArrivalProcess as _AP
from repro.server.session import SessionStream


def _record_keys(results):
    return [
        (result.session_id, record.query_id, record.end_time)
        for result in results
        for record in result.records
    ]


def _arrivals(server_ctx):
    return ArrivalProcess(
        0.2, 40.0, seed=server_ctx.settings.seed,
        mean_residence=25.0, max_sessions=4,
    )


def _open_manager(server_ctx, **kwargs):
    return OpenSystemManager.for_engine(
        server_ctx, "idea-sim", _arrivals(server_ctx), policy="markov",
        **kwargs
    )


class TestRecordSpool:
    def test_spooled_closed_run_matches_retained(self, server_ctx, tmp_path):
        reference = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1
        ).run()
        path = tmp_path / "records.jsonl"
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1,
            spool=RecordSpool(path),
        )
        assert manager.run() == []  # nothing retained
        manager.spool.close()
        spooled = [
            (sid, rec.query_id, rec.end_time)
            for sid, rec in iter_spool(path)
        ]
        retained = [
            (r.session_id, rec.query_id, rec.end_time)
            for r in reference for rec in r.records
        ]
        # Same multiset of records; spool order is global virtual-time
        # order (the grant order), retained order groups by session.
        assert sorted(spooled) == sorted(retained)
        assert manager.spool.count == len(retained)
        times = [t for _, _, t in spooled]
        assert times == sorted(times)

    def test_spill_bytes_deterministic(self, server_ctx, tmp_path):
        def run(path):
            manager = _open_manager(server_ctx, spool=RecordSpool(path))
            manager.run()
            manager.spool.close()
            return path.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")

    def test_pathless_spool_counts_only(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, spool=RecordSpool()
        )
        manager.run()
        assert manager.spool.count > 0
        assert manager.spool.path is None

    def test_closed_spool_rejects_appends(self, tmp_path):
        spool = RecordSpool(tmp_path / "s.jsonl")
        spool.close()
        with pytest.raises(BenchmarkError):
            spool.append("session-0", object())

    @pytest.mark.parametrize("violated", [False, True])
    def test_spool_line_is_canonical_json(self, tmp_path, violated):
        """The spool serializes without canonicalize; its bytes must still
        be canonical_json's, NaN metrics of a TR-violated record included."""
        if violated:
            metrics = QueryMetrics.violated(bins_in_gt=10)
            assert math.isnan(metrics.rel_error_avg)
        else:
            metrics = QueryMetrics(
                tr_violated=False, bins_delivered=8, bins_in_gt=10,
                missing_bins=0.2, rel_error_avg=0.1, rel_error_stdev=0.05,
                smape=0.05, cosine_distance=0.01, margin_avg=0.05,
                margin_stdev=0.025, bins_out_of_margin=0, bias=1.0,
            )
        record = QueryRecord(
            query_id=3, interaction_id=2, viz_name="viz_1", driver="idea-sim",
            data_size="S", think_time=1.0, time_requirement=0.5,
            workflow="mixed_0", workflow_type="mixed", start_time=1.0 / 3,
            end_time=0.1 + 0.2, metrics=metrics, bin_dims=2,
            binning_type="quantitative", agg_type="avg", rows_processed=1000,
            fraction=0.1, num_concurrent=1, qualifying_fraction=0.5,
        )
        path = tmp_path / "s.jsonl"
        with RecordSpool(path) as spool:
            spool.append("session-7", record)
        expected = canonical_json(
            {"record": record_to_dict(record), "session": "session-7"}
        )
        assert path.read_bytes() == expected.encode("utf-8") + b"\n"

    def test_iter_spool_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"not": "a record line"}\n')
        with pytest.raises(BenchmarkError):
            list(iter_spool(path))

    def test_iter_spool_rejects_malformed_record(self, tmp_path):
        """Well-formed JSON, wrong record shape: same typed error, with
        the file and line — never a wire-protocol error."""
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"record":{"metrics":{}},"session":"s"}\n')
        with pytest.raises(BenchmarkError, match=r"bad\.jsonl:1: not a record-spool line") as info:
            list(iter_spool(path))
        assert not isinstance(info.value, ProtocolError)


class TestServingAggregate:
    def test_open_system_aggregate_matches_retained(self, server_ctx):
        reference = _open_manager(server_ctx)
        results = reference.run()
        manager = _open_manager(server_ctx, spool=RecordSpool())
        manager.run()
        agg = manager.aggregate
        records = [rec for r in results for rec in r.records]
        assert agg.num_queries == len(records)
        assert agg.tr_violations == sum(r.tr_violated for r in records)
        assert agg.sessions_served == len(results)
        assert agg.sessions_departed == sum(
            r.departed_at is not None for r in results
        )
        assert agg.total_steps == sum(r.steps for r in results)
        counts = {}
        for result in results:
            for kind, count in result.interaction_counts.items():
                counts[kind] = counts.get(kind, 0) + count
        assert agg.interaction_counts == counts
        assert agg.virtual_makespan == max(r.end_time for r in records)
        assert agg.active_sessions == 0
        assert 1 <= agg.peak_active <= len(results)

    def test_streams_freed_as_sessions_retire(self, server_ctx):
        manager = _open_manager(server_ctx, spool=RecordSpool())
        manager.run()
        assert manager.streams == {}

    def test_shared_engine_sheds_settled_state(self, server_ctx):
        spooled = _open_manager(
            server_ctx, spool=RecordSpool(), share_engine=True
        )
        spooled.run()
        retained = _open_manager(server_ctx, share_engine=True)
        retained.run()
        # Retained runs keep every handle for reporting; spooled runs
        # release settled handles/tasks as each session retires.
        assert len(spooled._shared_engine._handles) < len(
            retained._shared_engine._handles
        )
        assert spooled.aggregate.num_queries == sum(
            len(s.records) for s in retained.streams.values()
        )

    @pytest.mark.parametrize("engine", ["monetdb-sim", "idea-sim"])
    def test_release_never_touches_live_sessions(self, server_ctx, engine):
        """Retiring one session must not drop a live session's handles.

        On monetdb-sim queries finish before their deadline is
        evaluated; releasing every settled handle (instead of the
        retiring session's own) used to crash the run with
        ``EngineError: unknown handle``.
        """
        spooled = OpenSystemManager.for_engine(
            server_ctx, engine, _arrivals(server_ctx), per_session=1,
            share_engine=True, spool=RecordSpool(),
        )
        spooled.run()
        retained = OpenSystemManager.for_engine(
            server_ctx, engine, _arrivals(server_ctx), per_session=1,
            share_engine=True,
        )
        results = retained.run()
        assert spooled.aggregate.num_queries == sum(
            len(r.records) for r in results
        )

    def test_retained_runs_fold_the_live_aggregate_too(self, server_ctx):
        """One fold order: a retained run's live aggregate is the spooled
        run's, float sums bit for bit."""
        retained = _open_manager(server_ctx)
        assert retained.run()
        spooled = _open_manager(server_ctx, spool=RecordSpool())
        spooled.run()
        live, folded = retained.aggregate, spooled.aggregate
        assert live.num_queries == folded.num_queries > 0
        assert live.latency_sum == folded.latency_sum
        assert live.missing_bins_sum == folded.missing_bins_sum
        assert live.tr_violations == folded.tr_violations
        assert live.sessions_departed == folded.sessions_departed
        assert live.interaction_counts == folded.interaction_counts
        assert live.peak_active >= 1 and live.active_sessions == 0

    def test_empty_aggregate_renders(self):
        agg = ServingAggregate()
        text = render_aggregate_report(agg)
        assert "queries evaluated    : 0" in text
        assert "—" in text

    def test_render_mentions_spill_path(self):
        agg = ServingAggregate()
        text = render_aggregate_report(agg, spill_path="/tmp/x.jsonl")
        assert "/tmp/x.jsonl" in text


@pytest.fixture(scope="module")
def scale_ctx():
    """100 actual rows (S at scale 10⁶): queries are tiny, so the
    calendar, the spool and per-session state are what is measured."""
    from repro.bench.experiments import ExperimentContext
    from repro.common.config import BenchmarkSettings, DataSize

    return ExperimentContext(BenchmarkSettings(
        data_size=DataSize.S, scale=1_000_000, seed=5, time_requirement=1.0,
    ))


def _steady_arrivals(total):
    """Rate 50/s × residence 2 s; the horizon runs 50% past the expected
    fill time, so the Poisson draw always reaches the session cap."""
    return ArrivalProcess(
        50.0, 1.5 * total / 50.0, seed=5, mean_residence=2.0,
        max_sessions=total,
    )


def _serve_population(ctx, arrivals, share_engine=False):
    manager = OpenSystemManager.for_engine(
        ctx, "idea-sim", arrivals, per_session=1,
        share_engine=share_engine, spool=RecordSpool(),
    )
    manager.run()
    return manager.aggregate


class TestPopulationScale:
    """docs/server.md's population-scale claims, at tier-1 size."""

    #: Peak growth allowed when the total population doubles at the same
    #: steady active population (rate 50/s × residence 2 s ≈ 100).
    MEMORY_RATIO_CAP = 1.35

    def test_peak_memory_follows_active_not_total_sessions(self, scale_ctx):
        import gc
        import tracemalloc

        from repro.engines.kernel_cache import clear_kernel_cache

        # Below ~250 sessions the smaller run ends before the active
        # population reaches its steady ~90, and the ratio measures that
        # ramp instead of the total population.
        sessions = 250
        # The untraced warm-up pays for first-use state (the context's
        # lazy tables, filling the kernel cache) outside the traced runs.
        # Cold, the smaller run's peak holds that state too, the ratio
        # drops below 1, and it says nothing about O(active).
        clear_kernel_cache()
        _serve_population(scale_ctx, _steady_arrivals(2 * sessions))

        def traced_peak(total):
            gc.collect()
            tracemalloc.start()
            try:
                aggregate = _serve_population(scale_ctx, _steady_arrivals(total))
                return tracemalloc.get_traced_memory()[1], aggregate
            finally:
                tracemalloc.stop()

        small_peak, small = traced_peak(sessions)
        large_peak, large = traced_peak(2 * sessions)
        assert small.sessions_served == sessions
        assert large.sessions_served == 2 * sessions
        assert small.peak_active == large.peak_active
        assert large_peak / small_peak <= self.MEMORY_RATIO_CAP

    def test_exact_answers_stay_within_the_kernel_cache(self, scale_ctx):
        """Ground truth lives only on compiled kernels: however many new
        queries a growing population asks, the exact answers left alive
        number at most the kernel cache's capacity."""
        import gc

        from repro.engines.kernel_cache import clear_kernel_cache, kernel_cache

        def live_exact_answers():
            gc.collect()
            return sum(
                1 for obj in gc.get_objects()
                if isinstance(obj, QueryResult) and obj.exact
            )

        clear_kernel_cache()
        held_elsewhere = live_exact_answers()  # by earlier tests' objects
        for total in (500, 1000):
            _serve_population(scale_ctx, _steady_arrivals(total))
            resident = live_exact_answers() - held_elsewhere
            assert resident <= kernel_cache().capacity

    def test_shared_engine_kernels_stay_within_the_kernel_cache(self, server_ctx):
        """A shared engine's prefix runs live on their kernels and it holds
        them weakly, so after 200 sessions, none of them still active, the
        kernels left alive while the engine is number at most the kernel
        cache's capacity (ROADMAP item 11)."""
        import gc

        from repro.engines.kernel_cache import clear_kernel_cache, kernel_cache
        from repro.query.kernels import CompiledQueryKernel

        def live_kernels():
            gc.collect()
            # Exact type: a run's weak proxy of its kernel passes isinstance.
            return sum(
                1 for obj in gc.get_objects() if type(obj) is CompiledQueryKernel
            )

        clear_kernel_cache()
        held_elsewhere = live_kernels()
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 200, per_session=1, share_engine=True,
            spool=RecordSpool(),
        )
        manager.run()
        assert manager.aggregate.sessions_served == 200
        assert kernel_cache().evictions  # the engine polled past the capacity
        assert live_kernels() - held_elsewhere <= kernel_cache().capacity

    def test_tr_violations_bend_as_shared_engine_saturates(self, scale_ctx):
        pct_violated = []
        for rate in (5.0, 15.0, 40.0):
            aggregate = _serve_population(
                scale_ctx,
                ArrivalProcess(
                    rate, 10.0, seed=5, mean_residence=2.0,
                    max_sessions=10 ** 6,
                ),
                share_engine=True,
            )
            pct_violated.append(
                100.0 * aggregate.tr_violations / aggregate.num_queries
            )
        assert pct_violated == sorted(pct_violated)
        assert pct_violated[-1] > 5.0 > pct_violated[0]


class TestSessionStreamRetention:
    def test_retain_false_drops_records_after_subscribers(self):
        stream = SessionStream("session-0", retain=False)
        seen = []
        stream.subscribe(lambda sid, rec: seen.append((sid, rec)))
        marker = object()
        stream.push(marker)
        assert seen == [("session-0", marker)]
        assert stream.records == []
        assert len(stream) == 0


class TestLazyArrivalSchedule:
    def test_iter_schedule_matches_schedule(self, server_ctx):
        def process():
            return _AP(
                0.3, 60.0, seed=7, mean_residence=20.0, max_sessions=50
            )

        assert list(process().iter_schedule()) == process().schedule()


class TestIncrementalBench:
    """Every serving-sweep cell runs spooled and folds incrementally."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_report_csv_bytes_pinned(self, server_ctx, tmp_path, cached):
        """Both reports, fresh and cache-restored: the bytes the pre-merge
        cell builders produced (hashed at the last commit that had them,
        on both their retained and their incremental fold). The adaptive
        report's two markov rows were re-hashed when the markov policy
        began walking the workflow generator's fills; its scripted and
        uncertainty rows are still the pre-merge bytes."""
        import hashlib

        from repro.runtime import (
            ArtifactStore,
            MatrixExecutor,
            plan_adaptive,
            plan_sessions,
        )
        from repro.server import (
            ADAPTIVE_COLUMNS,
            BENCH_COLUMNS,
            serving_csv_text,
        )

        sessions = plan_sessions(
            server_ctx.settings, ["idea-sim", "monetdb-sim"], [1, 3],
            per_session=1,
        )
        adaptive = plan_adaptive(
            server_ctx.settings, "idea-sim",
            ["scripted", "markov", "uncertainty"], [3], per_session=1,
            arrival_rate=0.2, horizon=40.0, residence=25.0, share_engine=True,
        )
        store = ArtifactStore(tmp_path / "cache")

        def run():
            return MatrixExecutor(store=store, local_context=server_ctx).run(
                sessions + adaptive
            )

        results = run()
        if cached:
            results = run()
        assert all(result.from_cache == cached for result in results)
        texts = (
            serving_csv_text(results[:len(sessions)], BENCH_COLUMNS),
            serving_csv_text(results[len(sessions):], ADAPTIVE_COLUMNS),
        )
        digests = [
            hashlib.sha256(text.encode("utf-8")).hexdigest() for text in texts
        ]
        assert digests == [
            "dd55180e0df0874eab70dc32778480a9c0d9d425ab803d858cb80ff9ab86a9ef",
            "a82aa04d5725e86482402a08d6edabc847c82571b166c9e5c7ae7ab3b919e7cb",
        ]


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Record:
    def __init__(self, query_id, end_time, tr_violated=False):
        self.query_id = query_id
        self.end_time = end_time
        self.start_time = end_time - 1.0
        self.viz_name = f"viz_{query_id}"
        self.tr_violated = tr_violated


class TestFollowPrinter:
    def test_detail_mode_prints_every_record(self):
        out = io.StringIO()
        printer = FollowPrinter(2, out=out)
        printer("session-0", _Record(0, 3.0))
        printer("session-1", _Record(1, 4.0, tr_violated=True))
        printer.close()
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert "session-0 q0 viz_0: ok" in lines[0]
        assert "session-1 q1 viz_1: VIOLATED" in lines[1]

    def test_aggregate_mode_rate_limits(self):
        out = io.StringIO()
        clock = _FakeClock()
        printer = FollowPrinter(
            100, threshold=10, interval=1.0, out=out, clock=clock
        )
        assert printer.aggregate_mode
        for i in range(50):
            clock.now = i * 0.01  # 50 records inside half a second
            printer("session-0", _Record(i, float(i)))
        assert printer.lines_emitted == 1  # only the first record's line
        clock.now = 2.0
        printer("session-0", _Record(50, 50.0))
        assert printer.lines_emitted == 2
        printer.close()
        lines = out.getvalue().splitlines()
        assert lines[-1] == (
            "  [follow] 51 queries (0 TR violated) through t=50.0s virtual"
        )

    def test_aggregate_mode_counts_violations(self):
        out = io.StringIO()
        printer = FollowPrinter(
            100, threshold=10, out=out, clock=_FakeClock()
        )
        printer("s", _Record(0, 1.0, tr_violated=True))
        printer("s", _Record(1, 2.0))
        printer.close()
        assert printer.tr_violations == 1
        assert "(1 TR violated)" in out.getvalue().splitlines()[-1]

    def test_close_without_records_is_silent(self):
        out = io.StringIO()
        printer = FollowPrinter(100, threshold=10, out=out)
        printer.close()
        assert out.getvalue() == ""

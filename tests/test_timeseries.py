"""Streaming telemetry: windowed series, SLO watchdog, push protocol.

The load-bearing guarantees (docs/observability.md):

* the incremental window fold is **bitwise-equal** to a from-scratch
  recompute of the same event stream — fuzzed over seeded random
  streams with growing, shrinking and empty windows;
* a STATS_SUBSCRIBE probe on a shared-engine TCP run receives a pushed
  window stream whose virtual payloads are byte-identical across
  repeated runs *and* identical to the in-process series of the same
  configuration (backlog replay makes subscription timing irrelevant);
* SLO alerts are pure functions of the windows, ride the trace as typed
  ``slo.alert`` events, and ride the pushed frames' ``alerts`` field;
* ``repro trace merge`` output is byte-deterministic and globally
  ordered by virtual time (host, then seq, break ties);
* the ``repro top`` renderer throttles on the wall clock only — the
  payloads it consumes stay the deterministic pushed bytes.
"""

import random
import threading

import pytest

from repro.common.clock import perf_seconds
from repro.common.errors import BenchmarkError, ProtocolError
from repro.common.fingerprint import canonical_json
from repro.net.protocol import (
    Hello,
    StatsPush,
    StatsSubscribe,
    StatsUnsubscribe,
    decode_body,
    encode_message,
)
from repro.obs.sink import entry_line, filter_entries, merge_traces, write_jsonl
from repro.obs.slo import SloRule, SloWatchdog, parse_rule
from repro.obs.timeseries import (
    TimeSeries,
    get_timeseries,
    recompute,
    replay,
    series_lines,
    set_timeseries,
)
from repro.obs.tracer import Tracer, set_tracer
from serve_cells import serve_cell


# ----------------------------------------------------------------------
# Windowed fold semantics
# ----------------------------------------------------------------------

class TestTimeSeries:
    def test_window_boundary_is_half_open(self):
        # Window w covers [w*width, (w+1)*width): an event at exactly the
        # boundary falls into the NEXT window.
        series = TimeSeries(window=2.0)
        series.observe_record(1.9, False, latency=0.5)
        series.observe_record(2.0, True)
        series.finalize()
        assert [w["records"] for w in series.windows] == [1, 1]
        assert series.windows[0]["tr_violations"] == 0
        assert series.windows[1]["tr_violations"] == 1

    def test_gap_flushes_empty_windows(self):
        series = TimeSeries(window=1.0)
        series.observe_turn(0.5)
        series.observe_turn(4.5, queue_depth=3)
        series.finalize()
        assert len(series) == 5
        assert [w["turns"] for w in series.windows] == [1, 0, 0, 0, 1]
        assert series.windows[4]["queue_depth"] == 3

    def test_active_sessions_is_a_gauge_deltas_are_windowed(self):
        series = TimeSeries(window=1.0)
        series.session_started(0.0)
        series.session_started(0.0)
        series.session_finished(2.5)
        series.finalize()
        active = [w["active_sessions"] for w in series.windows]
        assert active == [2, 2, 1]
        assert series.windows[0]["sessions_started"] == 2
        assert series.windows[2]["sessions_finished"] == 1

    def test_kernel_counters_are_cumulative_samples(self):
        series = TimeSeries(window=1.0)
        series.observe_kernel(0.2, 1, 1)
        series.observe_kernel(1.5, 4, 2)
        series.finalize()
        first, second = series.windows
        # The first sample is the baseline (cumulative process-global
        # counters), so window 0 shows no activity of its own.
        assert (first["kernel_hits"], first["kernel_misses"]) == (0, 0)
        assert first["kernel_hit_rate"] == 0.0
        assert (second["kernel_hits"], second["kernel_misses"]) == (3, 1)
        assert second["kernel_hit_rate"] == pytest.approx(0.75)

    def test_violated_records_do_not_contribute_latency(self):
        series = TimeSeries(window=10.0)
        series.observe_record(1.0, False, latency=2.0)
        series.observe_record(2.0, True, latency=99.0)
        series.finalize()
        (window,) = series.windows
        assert window["mean_latency"] == pytest.approx(2.0)
        assert window["pct_tr_violated"] == pytest.approx(50.0)

    def test_listener_sees_every_flush_in_order(self):
        seen = []
        series = TimeSeries(window=1.0)
        series.add_listener(lambda w: seen.append(w["w"]))
        series.observe_turn(3.5)
        series.finalize()
        assert seen == [0, 1, 2, 3]
        assert seen == [w["w"] for w in series.windows]

    def test_finalize_is_idempotent_and_freezes(self):
        series = TimeSeries(window=1.0)
        series.finalize()
        series.finalize()
        assert len(series) == 1
        with pytest.raises(BenchmarkError):
            series.observe_turn(1.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(BenchmarkError):
            TimeSeries(window=0.0)
        with pytest.raises(BenchmarkError):
            recompute([], window=-1.0)

    def test_global_series_disabled_by_default(self):
        series = get_timeseries()
        assert not series.enabled

    def test_set_timeseries_swaps_and_returns_previous(self):
        fresh = TimeSeries(window=1.0)
        previous = set_timeseries(fresh)
        try:
            assert get_timeseries() is fresh
        finally:
            assert set_timeseries(previous) is fresh


# ----------------------------------------------------------------------
# The fuzz pin: incremental fold == from-scratch recompute, bitwise
# ----------------------------------------------------------------------

def _random_stream(rng: random.Random):
    """A random nondecreasing-vt event stream with bursts and gaps."""
    events = []
    vt = 0.0
    active = 0
    hits = misses = 0
    for _ in range(rng.randrange(0, 120)):
        # Bursts (vt unchanged), dense steps, and long gaps that leave
        # whole windows empty.
        vt += rng.choice([0.0, 0.0, rng.uniform(0.0, 0.4), rng.uniform(2.0, 9.0)])
        kind = rng.choice(["record", "turn", "kernel", "start", "finish"])
        if kind == "record":
            events.append(
                ("record", vt, rng.random() < 0.3, rng.uniform(0.0, 3.0))
            )
        elif kind == "turn":
            events.append(("turn", vt, rng.randrange(0, 5)))
        elif kind == "kernel":
            hits += rng.randrange(0, 3)
            misses += rng.randrange(0, 2)
            events.append(("kernel", vt, hits, misses))
        elif kind == "start":
            active += 1
            events.append(("start", vt))
        elif active > 0:
            active -= 1
            events.append(("finish", vt))
    return events


class TestFoldEqualsRecompute:
    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_bitwise_equality(self, seed):
        rng = random.Random(seed)
        events = _random_stream(rng)
        # Growing and shrinking widths exercise few-huge-windows and
        # many-tiny-windows (plenty of empties) on the same stream.
        for window in (0.25, 1.0, 3.0, 7.5):
            incremental = replay(events, window=window)
            reference = recompute(events, window=window)
            assert series_lines(incremental.windows) == series_lines(reference)

    def test_empty_stream_pins_one_empty_window(self):
        incremental = replay([], window=1.0)
        reference = recompute([], window=1.0)
        assert series_lines(incremental.windows) == series_lines(reference)
        assert len(incremental) == 1
        assert incremental.windows[0]["records"] == 0

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(BenchmarkError):
            replay([("explode", 1.0)])
        with pytest.raises(BenchmarkError):
            recompute([("explode", 1.0)])

    def test_windows_are_wall_free(self):
        # Two-axis contract: no window field may carry wall readings.
        series = replay(_random_stream(random.Random(3)), window=2.0)
        for window in series.windows:
            assert "wall" not in window


# ----------------------------------------------------------------------
# SLO watchdog
# ----------------------------------------------------------------------

class TestSlo:
    def test_parse_rule_roundtrip(self):
        rule = parse_rule("pct_tr_violated>25")
        assert rule == SloRule("pct_tr_violated", ">", 25.0)
        assert rule.label == "pct_tr_violated>25"
        assert parse_rule("kernel_hit_rate<0.5").op == "<"

    @pytest.mark.parametrize("text", ["", "latency", "latency=3", "x>y"])
    def test_parse_rule_rejects_malformed(self, text):
        with pytest.raises(BenchmarkError):
            parse_rule(text)

    def test_check_fires_typed_alert(self):
        rule = parse_rule("pct_tr_violated>50")
        window = {"w": 7, "vt_end": 8.0, "pct_tr_violated": 75.0}
        alert = rule.check(window)
        assert alert == {
            "rule": "pct_tr_violated>50",
            "metric": "pct_tr_violated",
            "op": ">",
            "threshold": 50.0,
            "value": 75.0,
            "w": 7,
            "vt": 8.0,
        }
        assert rule.check({"w": 8, "vt_end": 9.0, "pct_tr_violated": 50.0}) is None
        assert rule.check({"w": 9, "vt_end": 10.0}) is None  # metric absent

    def test_watchdog_attaches_and_traces_alerts(self):
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            watchdog = SloWatchdog(["records>2", "mean_latency>99"])
            series = TimeSeries(window=1.0)
            fired = []
            series.add_listener(
                lambda w: fired.extend(watchdog.evaluate(w))
            )
            for vt in (0.1, 0.2, 0.3, 0.4):
                series.observe_record(vt, False, latency=0.5)
            series.finalize()
        finally:
            set_tracer(previous)
        assert [alert["rule"] for alert in fired] == ["records>2"]
        assert watchdog.alerts == fired
        events = [e for e in tracer.entries() if e["name"] == "slo.alert"]
        assert len(events) == 1
        assert events[0]["vt"] == 1.0
        assert events[0]["attrs"]["rule"] == "records>2"

    def test_alerts_are_deterministic_across_replays(self):
        events = _random_stream(random.Random(11))
        runs = []
        for _ in range(2):
            watchdog = SloWatchdog(["records>1", "queue_depth>2"])
            for window in replay(events, window=2.0).windows:
                watchdog.evaluate(window)
            runs.append([canonical_json(a) for a in watchdog.alerts])
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Wire protocol: subscribe / push / unsubscribe, HELLO correlation
# ----------------------------------------------------------------------

class TestStreamProtocol:
    def test_subscribe_unsubscribe_roundtrip(self):
        for message in (StatsSubscribe(), StatsUnsubscribe()):
            decoded = decode_body(encode_message(message)[4:])
            assert type(decoded) is type(message)
            assert decoded.TYPE == message.TYPE

    def test_stats_push_roundtrip(self):
        push = StatsPush(
            seq=3,
            window={"w": 3, "records": 5},
            alerts=({"rule": "records>2", "value": 5},),
        )
        decoded = decode_body(encode_message(push)[4:])
        assert decoded == push
        final = decode_body(encode_message(StatsPush(seq=9, final=True))[4:])
        assert final.final and final.window is None and final.alerts == ()

    def test_stats_push_rejects_malformed(self):
        with pytest.raises(ProtocolError):
            decode_body(
                encode_message(StatsPush(seq=0))[4:].replace(
                    b'"seq":0', b'"seq":"x"'
                )
            )

    def test_hello_omits_empty_correlation_fields(self):
        plain = encode_message(Hello(role="server"))
        assert b'"run"' not in plain and b'"host"' not in plain
        stamped = decode_body(
            encode_message(Hello(role="server", run="r1", host="server"))[4:]
        )
        assert (stamped.run, stamped.host) == ("r1", "server")


# ----------------------------------------------------------------------
# Trace correlation: merge + filters
# ----------------------------------------------------------------------

def _entry(vt, host, seq, kind="event", session=None, name="x"):
    entry = {"kind": kind, "name": name, "seq": seq, "vt": vt, "host": host}
    if session is not None:
        entry["session"] = session
    return entry


class TestMergeAndFilter:
    def test_merge_orders_by_vt_then_host_then_seq(self, tmp_path):
        server = [
            _entry(0.0, "server", 0),
            _entry(2.0, "server", 1),
        ]
        client = [
            _entry(2.0, "client-0", 0),
            _entry(1.0, "client-0", 1),
        ]
        a, b = tmp_path / "server.jsonl", tmp_path / "client.jsonl"
        write_jsonl(a, server)
        write_jsonl(b, client)
        merged = merge_traces([a, b])
        assert [(e["vt"], e["host"], e["seq"]) for e in merged] == [
            (0.0, "server", 0),
            (1.0, "client-0", 1),
            (2.0, "client-0", 0),
            (2.0, "server", 1),
        ]
        # Byte determinism: input file order must not matter.
        again = merge_traces([b, a])
        assert [entry_line(e) for e in again] == [entry_line(e) for e in merged]

    def test_filter_entries_composes_session_and_kind(self):
        entries = [
            _entry(0.0, "h", 0, kind="span", session="s-0"),
            _entry(1.0, "h", 1, kind="event", session="s-0"),
            _entry(2.0, "h", 2, kind="event", session="s-1"),
        ]
        assert len(list(filter_entries(entries))) == 3
        assert [
            e["seq"] for e in filter_entries(entries, session="s-0")
        ] == [0, 1]
        assert [
            e["seq"] for e in filter_entries(entries, kind="event")
        ] == [1, 2]
        assert [
            e["seq"]
            for e in filter_entries(entries, session="s-0", kind="event")
        ] == [1]

    def test_cli_trace_merge_is_deterministic(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, [_entry(1.0, "server", 0), _entry(3.0, "server", 1)])
        write_jsonl(b, [_entry(2.0, "client-0", 0)])
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        assert main(["trace", "merge", str(a), str(b), "--out", str(out1)]) == 0
        assert main(["trace", "merge", str(b), str(a), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        hosts = [
            entry["host"]
            for entry in merge_traces([out1])
        ]
        assert hosts == ["server", "client-0", "server"]

    def test_cli_summary_rejects_multiple_files(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, [_entry(1.0, "h", 0)])
        write_jsonl(b, [_entry(2.0, "h", 0)])
        assert main(["trace", "summary", str(a), str(b)]) == 1
        assert "merge" in capsys.readouterr().err


# ----------------------------------------------------------------------
# End to end: pushed stream == in-process series, byte for byte
# ----------------------------------------------------------------------

STREAM_WINDOW = 2.0


@pytest.fixture(scope="module")
def primed_ctx(server_ctx):
    """The shared context with every lazy computation already done.

    Kernel hit/miss deltas are only a pure function of the run once the
    context's first-use work (oracle, scaled tables) is out of the way;
    one throwaway run of the compared workload warms all of it.
    """
    from repro.server import SessionManager

    SessionManager.for_engine(
        server_ctx, "idea-sim", 2, per_session=1, share_engine=True
    ).run()
    return server_ctx


def _reference_run(server_ctx):
    """In-process shared run of the same config, fresh series installed:
    ``(windows, session 0's detailed CSV)``."""
    from repro.engines.kernel_cache import clear_kernel_cache
    from repro.server import SessionManager

    # Cold kernel cache: the windows' hit/miss deltas depend on what is
    # already compiled, so every compared run starts from the same state.
    clear_kernel_cache()
    series = TimeSeries(window=STREAM_WINDOW)
    previous = set_timeseries(series)
    try:
        results = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, share_engine=True
        ).run()
    finally:
        set_timeseries(previous)
    return series.windows, results[0].csv_text()


def _streamed_run(server_ctx, slo_rules=(), probe=None):
    """One shared TCP run with a probe subscribed before the population:
    ``(what the probe returned, slot 0's detailed CSV)``. The probe is
    ``probe(host, port)``, by default :func:`stream_server_stats`."""
    from repro.engines.kernel_cache import clear_kernel_cache
    from repro.net.client import (
        fetch_scripted_session,
        records_csv_text,
        stream_server_stats,
    )
    from repro.net.server import ServerThread, TcpSessionServer

    probe = probe or stream_server_stats

    clear_kernel_cache()
    server = TcpSessionServer(
        server_ctx,
        serve_cell(server_ctx, 2, share_engine=True),
        stats_window=STREAM_WINDOW,
        slo_rules=slo_rules,
    )
    pushes = []
    with ServerThread(server) as (host, port):
        prober = threading.Thread(
            target=lambda: pushes.extend(probe(host, port)), daemon=True
        )
        prober.start()
        peer = threading.Thread(
            target=fetch_scripted_session,
            args=(host, port, 1),
            kwargs={"per_session": 1},
            daemon=True,
        )
        peer.start()
        _, records, _ = fetch_scripted_session(host, port, 0, per_session=1)
        peer.join(120)
        prober.join(120)
    assert not prober.is_alive(), "probe never saw the final frame"
    return pushes, records_csv_text(records)


class TestStreamingEndToEnd:
    def test_pushed_stream_matches_in_process_series(self, primed_ctx):
        windows, in_process_csv = _reference_run(primed_ctx)
        reference = series_lines(windows)
        first = _streamed_run(primed_ctx)
        second = _streamed_run(primed_ctx)
        for pushes, csv_text in (first, second):
            assert pushes, "no frames pushed"
            # iter_stats consumes the final=True closing frame itself,
            # so every returned push carries a window.
            payload = [canonical_json(p.window) for p in pushes]
            assert payload == reference
            assert [p.seq for p in pushes] == list(range(len(pushes)))
            # Streaming is byte-neutral: the subscribed run's workload
            # bytes are the in-process shared session's.
            assert csv_text == in_process_csv

    def test_slo_alerts_ride_the_pushed_frames(self, primed_ctx):
        # records>0 must fire on every non-empty window of this config.
        pushes, _ = _streamed_run(primed_ctx, slo_rules=("records>0",))
        fired = [p for p in pushes if p.alerts]
        assert fired, "rule never fired"
        for push in fired:
            (alert,) = [a for a in push.alerts if a["rule"] == "records>0"]
            assert alert["w"] == push.window["w"]
            assert alert["value"] == push.window["records"]

    def test_late_probe_replays_backlog(self, primed_ctx):
        # Subscribe AFTER the run completed: backlog replay must deliver
        # the identical stream (subscription timing is not observable).
        # The probe connects up front (the server stops accepting once
        # the population is served) but sends STATS_SUBSCRIBE only after
        # the last session's records are in.
        from repro.engines.kernel_cache import clear_kernel_cache
        from repro.net.client import NetClient, fetch_scripted_session
        from repro.net.server import ServerThread, TcpSessionServer

        reference = series_lines(_reference_run(primed_ctx)[0])
        clear_kernel_cache()
        server = TcpSessionServer(
            primed_ctx,
            serve_cell(primed_ctx, 2, share_engine=True),
            stats_window=STREAM_WINDOW,
        )
        with ServerThread(server) as (host, port):
            with NetClient(host, port) as probe:
                probe.hello()
                peer = threading.Thread(
                    target=fetch_scripted_session,
                    args=(host, port, 1),
                    kwargs={"per_session": 1},
                    daemon=True,
                )
                peer.start()
                fetch_scripted_session(host, port, 0, per_session=1)
                peer.join(120)
                probe.subscribe_stats()
                pushes = list(probe.iter_stats())
        assert [canonical_json(p.window) for p in pushes] == reference

    def test_subscribe_rejected_when_streaming_off(self, server_ctx):
        from repro.net.client import stream_server_stats
        from repro.net.server import ServerThread, TcpSessionServer

        server = TcpSessionServer(
            server_ctx, serve_cell(server_ctx, 2, share_engine=True)
        )
        with ServerThread(server) as (host, port):
            with pytest.raises(ProtocolError, match="stats-window"):
                stream_server_stats(host, port)
            server.request_stop()

    def test_stats_window_requires_share_engine(self, server_ctx):
        from repro.net.server import TcpSessionServer

        with pytest.raises(BenchmarkError, match="shared-"):
            TcpSessionServer(
                server_ctx, serve_cell(server_ctx, 1), stats_window=1.0
            )

    def test_slo_rules_require_a_window(self, server_ctx):
        from repro.common.errors import ConfigurationError
        from repro.net.server import TcpSessionServer

        # Rules without a window used to be dropped without a word.
        with pytest.raises(ConfigurationError, match="telemetry window"):
            TcpSessionServer(
                server_ctx,
                serve_cell(server_ctx, 2, share_engine=True),
                slo_rules=("pct_tr_violated>25",),
            )


# ----------------------------------------------------------------------
# repro top: wall-throttled rendering over deterministic payloads
# ----------------------------------------------------------------------

class TestRunTop:
    def test_renders_the_pushed_stream_of_a_shared_run(self, primed_ctx):
        """``run_top`` against a live shared-engine server returns the
        in-process series' windows byte for byte and renders every other
        one: a fake clock steps half the interval per frame."""
        import io

        from repro.net.top import _HEADER, format_window, run_top

        reference = series_lines(_reference_run(primed_ctx)[0])
        out = io.StringIO()
        ticks = iter(0.5 * i for i in range(10_000))
        windows, _ = _streamed_run(
            primed_ctx,
            probe=lambda host, port: run_top(
                host, port, interval=1.0, out=out, clock=lambda: next(ticks)
            ),
        )
        assert len(windows) > 2
        assert [canonical_json(window) for window in windows] == reference
        shown = windows[::2]
        if len(windows) % 2 == 0:  # the last window was dropped: close shows it
            shown.append(windows[-1])
        dropped = len(windows) // 2
        assert out.getvalue().splitlines() == [
            _HEADER,
            *(format_window(window) for window in shown),
            f"-- stream ended: {len(shown)} rendered, {dropped} dropped, 0 alerts --",
        ]


class TestTopView:
    def _view(self, interval=1.0):
        import io

        from repro.net.top import TopView

        ticks = iter(i * 0.1 for i in range(1000))
        out = io.StringIO()
        return TopView(
            interval=interval, out=out, clock=lambda: next(ticks)
        ), out

    def test_throttles_between_renders(self):
        view, out = self._view(interval=1.0)
        windows = [{"w": i, "vt_end": float(i + 1)} for i in range(12)]
        rendered = [view.observe(w) for w in windows]
        # Frame 0 renders (and prints the header); the clock advances
        # 0.1 per call, so only every 10th frame clears the interval.
        assert rendered[0] is True
        assert sum(rendered) < len(windows)
        assert view.dropped == len(windows) - view.rendered

    def test_alert_frames_always_render(self):
        view, out = self._view(interval=1e9)
        view.observe({"w": 0, "vt_end": 1.0})
        assert view.observe(
            {"w": 1, "vt_end": 2.0}, alerts=({"rule": "records>0"},)
        )
        assert "records>0" in out.getvalue()
        assert view.alerts_seen == 1

    def test_close_rerenders_last_dropped_window(self):
        view, out = self._view(interval=1e9)
        view.observe({"w": 0, "vt_end": 1.0})
        view.observe({"w": 1, "vt_end": 2.0})
        assert view.dropped == 1
        view.close()
        text = out.getvalue()
        assert "    2.0" in text
        assert "stream ended" in text

    def test_default_clock_is_swappable_perf_seconds(self):
        from repro.net import top as top_module

        assert top_module.TopView().interval == 1.0
        assert top_module.perf_seconds is perf_seconds


class TestFollowPrinterClock:
    def test_default_clock_is_perf_seconds(self):
        from repro.server.report import FollowPrinter

        assert FollowPrinter(1)._clock is perf_seconds

"""CLI tests for the network front-end and regression-tracking commands.

Covers ``repro serve --tcp`` + ``repro connect`` (scripted fetch, wire
replay, REPL, real client processes against one shared-engine server),
``repro serve --arrival-schedule``, and ``repro report
snapshot``/``diff``. Loopback servers run on a background thread via
:class:`~repro.net.server.ServerThread`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.net.server import ServerThread, TcpSessionServer

#: Small-but-honest configuration matching the server test fixtures.
COMMON = ["--size", "S", "--scale", "50000", "--seed", "5", "--tr", "1"]


@pytest.fixture()
def refuse_to_listen(monkeypatch):
    """A rejected ``serve --tcp`` must fail, not sit waiting for clients."""

    def run(self):
        pytest.fail("the server started instead of rejecting its flags")

    monkeypatch.setattr(TcpSessionServer, "run", run)


@pytest.fixture()
def tcp_server(server_ctx):
    """A loopback TCP server on an ephemeral port; yields HOST:PORT."""
    server = TcpSessionServer(server_ctx, "idea-sim")
    with ServerThread(server) as (host, port):
        yield f"{host}:{port}"


class TestServeTcp:
    def test_serves_n_sessions_then_exits(self, server_ctx, capsys):
        # Drive `repro serve --tcp` itself in a thread; connect from here.
        import re
        import threading

        from repro.net.client import scripted_csv_over_tcp

        ready = threading.Event()
        captured = {}

        def run_cli():
            import contextlib
            import io

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                captured["code"] = main(
                    ["serve", "--tcp", "127.0.0.1:0", "--sessions", "1",
                     "--engine", "idea-sim"] + COMMON
                )
            captured["out"] = out.getvalue()

        # Patch on_ready through the printed line: poll stdout text via
        # a wrapper is fragile — instead run and parse the port from the
        # "listening on" line written before serving starts.
        import repro.net.server as net_server

        original_init = net_server.TcpSessionServer.__init__

        def patched_init(self, *args, **kwargs):
            inner = kwargs.get("on_ready")

            def on_ready(host, port):
                captured["port"] = port
                if inner:
                    inner(host, port)
                ready.set()

            kwargs["on_ready"] = on_ready
            original_init(self, *args, **kwargs)

        net_server.TcpSessionServer.__init__ = patched_init
        try:
            thread = threading.Thread(target=run_cli, daemon=True)
            thread.start()
            assert ready.wait(30), "serve --tcp never started listening"
            _, csv_text = scripted_csv_over_tcp(
                "127.0.0.1", captured["port"], 0, per_session=1
            )
            thread.join(30)
        finally:
            net_server.TcpSessionServer.__init__ = original_init
        assert captured["code"] == 0
        assert "served 1 TCP sessions" in captured["out"]
        assert re.search(r"listening on 127\.0\.0\.1:\d+", captured["out"])
        assert csv_text.startswith("id,interaction")

    @pytest.mark.parametrize(
        "flag", [["--verify"], ["--follow"],
                 ["--arrivals", "0.2"], ["--policy", "markov"],
                 ["--accel", "2"], ["--per-session", "3"],
                 ["--arrival-schedule", "diurnal"], ["--horizon", "10"],
                 ["--stats-window", "5"], ["--slo", "pct_tr_violated>25"]]
    )
    def test_incompatible_flags_rejected(self, capsys, flag):
        code = main(
            ["serve", "--tcp", "127.0.0.1:0", "--sessions", "1"]
            + flag + COMMON
        )
        assert code == 1
        assert "cannot combine with --tcp" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--verify"], ["--follow"], ["--accel", "2"],
                 ["--arrivals", "0.2"], ["--out", "x"],
                 ["--slo", "pct_tr_violated>25"]]
    )
    def test_shared_mode_still_rejects_run_level_flags(
        self, capsys, refuse_to_listen, flag
    ):
        # --share-engine unblocks the workload flags (--per-session,
        # --workflow-type, --policy) but the run-level ones stay blocked.
        code = main(
            ["serve", "--tcp", "127.0.0.1:0", "--sessions", "2",
             "--share-engine"] + flag + COMMON
        )
        assert code == 1
        assert "cannot combine with --tcp" in capsys.readouterr().err

    def test_shared_mode_rejects_unknown_workflow_type(
        self, capsys, refuse_to_listen
    ):
        code = main(
            ["serve", "--tcp", "127.0.0.1:0", "--sessions", "1",
             "--share-engine", "--workflow-type", "bogus"] + COMMON
        )
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "unknown workflow type 'bogus'; expected one of (" in err

    def test_shared_mode_serves_one_run_then_exits(self, server_ctx):
        # End-to-end `repro serve --tcp --share-engine`: two concurrent
        # clients claim the two slots, the run completes, the server
        # exits, and both reports match in-process serve --share-engine.
        import contextlib
        import io
        import threading

        from repro.net.client import fetch_scripted_session, records_csv_text
        from repro.server import SessionManager

        ready = threading.Event()
        captured = {}

        import repro.net.server as net_server

        original_init = net_server.TcpSessionServer.__init__

        def patched_init(self, *args, **kwargs):
            inner = kwargs.get("on_ready")

            def on_ready(host, port):
                captured["port"] = port
                if inner:
                    inner(host, port)
                ready.set()

            kwargs["on_ready"] = on_ready
            original_init(self, *args, **kwargs)

        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                captured["code"] = main(
                    ["serve", "--tcp", "127.0.0.1:0", "--sessions", "2",
                     "--share-engine", "--per-session", "1",
                     "--engine", "idea-sim"] + COMMON
                )
            captured["out"] = out.getvalue()

        net_server.TcpSessionServer.__init__ = patched_init
        results = {}
        try:
            cli_thread = threading.Thread(target=run_cli, daemon=True)
            cli_thread.start()
            assert ready.wait(30), "serve --tcp --share-engine never listened"

            def fetch(index):
                _, records, _ = fetch_scripted_session(
                    "127.0.0.1", captured["port"], index, per_session=1
                )
                results[index] = records_csv_text(records)

            clients = [
                threading.Thread(target=fetch, args=(i,), daemon=True)
                for i in range(2)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(60)
            cli_thread.join(60)
        finally:
            net_server.TcpSessionServer.__init__ = original_init
        assert captured["code"] == 0
        assert "served 2 TCP sessions" in captured["out"]
        assert "ONE shared-engine run of 2 sessions" in captured["out"]
        reference = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, share_engine=True
        ).run()
        for index, expected in enumerate(reference):
            assert results[index] == expected.csv_text()

    def test_shared_mode_requires_fixed_session_count(self, capsys):
        code = main(
            ["serve", "--tcp", "127.0.0.1:0", "--sessions", "0",
             "--share-engine"] + COMMON
        )
        assert code == 1
        assert "--sessions" in capsys.readouterr().err

    def test_malformed_address_rejected(self, capsys):
        code = main(["serve", "--tcp", "nonsense"] + COMMON)
        assert code == 1
        assert "HOST:PORT" in capsys.readouterr().err


class TestConnect:
    def test_scripted_fetch_writes_byte_identical_csv(
        self, tcp_server, server_ctx, tmp_path, capsys
    ):
        from repro.server import SessionManager

        out = tmp_path / "session.csv"
        code = main(
            ["connect", tcp_server, "--session", "0", "--per-session", "1",
             "--out", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "fetched session 'session-0'" in captured
        reference = SessionManager.for_engine(
            server_ctx, "idea-sim", 1, per_session=1
        ).run()
        assert out.read_bytes() == reference[0].csv_text().encode("utf-8")

    def test_replay_over_wire(self, tcp_server, server_ctx, tmp_path, capsys):
        from repro.server import session_specs

        spec = session_specs(server_ctx, 1, per_session=1)[0]
        path = tmp_path / "wf.json"
        spec.workflows[0].to_json(path)
        code = main(["connect", tcp_server, "--replay", str(path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "replayed" in captured
        assert "queries" in captured

    def test_connection_refused_reported(self, capsys):
        code = main(["connect", "127.0.0.1:9", "--session", "0"])
        assert code == 1
        assert "connect failed" in capsys.readouterr().err

    def test_malformed_address_rejected(self, capsys):
        code = main(["connect", "nonsense"])
        assert code == 1
        assert "HOST:PORT" in capsys.readouterr().err


class TestRepl:
    def test_scripted_stdin_session(
        self, tcp_server, server_ctx, tmp_path, monkeypatch, capsys
    ):
        from repro.server import session_specs

        spec = session_specs(server_ctx, 1, per_session=1)[0]
        path = tmp_path / "wf.json"
        spec.workflows[0].to_json(path)
        lines = iter([
            "help",
            "status",
            "bogus",
            f"load {path}",
            "send 2",
            "records",
            "all",
            "detach",
        ])
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": next(lines)
        )
        code = main(["connect", tcp_server, "--repl"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "connected to idebench-repro" in captured
        assert "queued" in captured
        assert "unknown command 'bogus'" in captured
        assert "done:" in captured

    def test_eof_detaches_cleanly(self, tcp_server, server_ctx, monkeypatch,
                                  capsys):
        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        # Detaching with nothing sent is a legitimate no-op session: the
        # server answers with an empty summary.
        code = main(["connect", tcp_server, "--repl"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "0 queries" in captured

    def test_ctrl_c_sends_clean_detach(self, tcp_server, server_ctx,
                                       monkeypatch, capsys):
        # Regression: Ctrl-C used to tear the socket down without a
        # DETACH, so the server logged the session as a mid-run
        # disconnect/abandonment. An interactive quit must produce a
        # normal zero-or-partial summary — proven by the server's
        # DETACH answer ("done:") making it back before exit.
        lines = iter(["status"])

        def fake_input(prompt=""):
            try:
                return next(lines)
            except StopIteration:
                raise KeyboardInterrupt

        monkeypatch.setattr("builtins.input", fake_input)
        code = main(["connect", tcp_server, "--repl"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "interrupted — detaching" in captured
        assert "done:" in captured
        assert "0 queries" in captured

    def test_ctrl_c_detaches_after_partial_session(
        self, tcp_server, server_ctx, tmp_path, monkeypatch, capsys
    ):
        # Ctrl-C mid-session: the interactions already sent still drain
        # (deadline tail) and the summary reports the partial queries.
        from repro.server import session_specs

        spec = session_specs(server_ctx, 1, per_session=1)[0]
        path = tmp_path / "wf.json"
        spec.workflows[0].to_json(path)
        lines = iter([f"load {path}", "send 2"])

        def fake_input(prompt=""):
            try:
                return next(lines)
            except StopIteration:
                raise KeyboardInterrupt

        monkeypatch.setattr("builtins.input", fake_input)
        code = main(["connect", tcp_server, "--repl"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "interrupted — detaching" in captured
        assert "done:" in captured
        assert "0 queries" not in captured  # the sent prefix ran


class TestClientProcesses:
    def test_shared_run_served_to_two_client_processes(
        self, server_ctx, tmp_path
    ):
        """N x ``repro connect`` against ``serve --tcp --share-engine``:
        each process's CSV is the in-process shared run's session, under
        any hash seed, and ``repro trace merge`` of their traces does not
        depend on argument order."""
        from repro.server import SessionManager

        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = [tmp_path / f"session-{i}.csv" for i in range(2)]
        traces = [tmp_path / f"client-{i}.jsonl" for i in range(2)]
        server = TcpSessionServer(
            server_ctx, "idea-sim", share_engine=True, max_sessions=2,
            per_session=1, run_id="two-client-processes",
        )
        with ServerThread(server) as (host, port):
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "connect",
                     f"{host}:{port}", "--session", str(index),
                     "--per-session", "1", "--out", str(outs[index]),
                     "--trace", str(traces[index])],
                    env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True,
                )
                for index, seed in enumerate(["0", "4242"])
            ]
            try:
                for proc in procs:
                    output, _ = proc.communicate(timeout=120)
                    assert proc.returncode == 0, output
            finally:
                for proc in procs:
                    proc.kill()
        reference = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, share_engine=True
        ).run()
        for out, expected in zip(outs, reference):
            assert out.read_bytes() == expected.csv_text().encode("utf-8")
        merged = []
        for order in (traces, traces[::-1]):
            target = tmp_path / f"merged-{len(merged)}.jsonl"
            code = main(
                ["trace", "merge", *map(str, order), "--out", str(target)]
            )
            assert code == 0
            merged.append(target.read_bytes())
        assert merged[0] == merged[1]
        # Both clients took the run id from the server's HELLO.
        lines = merged[0].splitlines()
        assert lines
        assert all(b'"run":"two-client-processes"' in line for line in lines)


class TestArrivalSchedule:
    def test_flash_crowd_serve(self, capsys):
        code = main(
            ["serve", "--engine", "idea-sim", "--sessions", "4",
             "--arrivals", "0.2", "--horizon", "40",
             "--arrival-schedule", "flash:peak=6x,at=10,width=10"]
            + COMMON
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "flash" in captured and "schedule" in captured

    def test_schedule_without_arrivals_rejected(self, capsys):
        code = main(
            ["serve", "--sessions", "2",
             "--arrival-schedule", "diurnal"] + COMMON
        )
        assert code == 1
        assert "need --arrivals" in capsys.readouterr().err

    def test_malformed_schedule_rejected(self, capsys):
        code = main(
            ["serve", "--sessions", "2", "--arrivals", "0.2",
             "--arrival-schedule", "sideways"] + COMMON
        )
        assert code == 1
        assert "unknown arrival schedule" in capsys.readouterr().err


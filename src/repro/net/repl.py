"""The ``repro connect --repl`` interactive shell.

A minimal IDE stand-in: it attaches to a running
:class:`~repro.net.server.TcpSessionServer` as a *client-driven* session
and lets a human (or a scripted stdin) queue workflow interactions, send
them over the wire one at a time, and watch the metric records stream
back — the §3 interactive loop, with a real network hop in the middle.

I/O is injected (``input_fn``/``output_fn``) so the shell is fully
testable without a TTY. Commands::

    help                 show this command list
    load <workflow.json> queue a workflow file's interactions
    send [n]             send the next n queued interactions (default 1)
    all                  send every queued interaction
    records              show every record received so far
    status               queued / sent / received counters
    detach               end the session, print the summary, exit
    quit                 alias for detach

Received records print in the same ``[time] session qN viz: status``
shape as ``repro serve --follow``, so the live view reads identically
in-process and over TCP.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.bench.driver import QueryRecord
from repro.common.errors import BenchmarkError, ProtocolError
from repro.common.log import get_logger
from repro.net.client import NetClient
from repro.net.protocol import Detach, Progress, Record
from repro.workflow.spec import Interaction, Workflow

_log = get_logger("net.repl")

#: Longest drain wait after sending interactions (seconds).
DRAIN_TIMEOUT = 0.25


class Repl:
    """Interactive client-driven session over one :class:`NetClient`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        workflow_type: str = "custom",
        input_fn: Optional[Callable[[str], str]] = None,
        output_fn: Optional[Callable[[str], None]] = None,
        timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.name = name
        self.workflow_type = workflow_type
        # Late binding: resolve builtins at call time so a monkeypatched
        # stdin (tests, scripted sessions) is honored.
        self._input = input_fn or (lambda prompt: input(prompt))
        self._print = output_fn or (lambda text: print(text))
        self._timeout = timeout
        self._queue: List[Interaction] = []
        self._sent = 0
        self.records: List[QueryRecord] = []

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Connect, serve the command loop, return a process exit code."""
        with NetClient(self.host, self.port, timeout=self._timeout) as client:
            hello = client.hello()
            progress = client.attach_client(
                name=self.name, workflow_type=self.workflow_type
            )
            session_id = getattr(progress, "session_id", "?")
            self._print(
                f"connected to {hello.software} at {self.host}:{self.port} "
                f"(engine {hello.engine}) as session {session_id!r}"
            )
            self._print("type 'help' for commands")
            try:
                return self._loop(client, session_id)
            except KeyboardInterrupt:
                # An interactive quit is a *session end*, not a network
                # failure: send a clean DETACH (best-effort) so the
                # server drains the deadline tail and answers with a
                # normal zero-or-partial summary, instead of logging the
                # socket close as a mid-run disconnect/abandonment.
                self._print("interrupted — detaching")
                try:
                    return self._cmd_detach(client, session_id)
                except (ProtocolError, BenchmarkError, OSError) as error:
                    _log.warning("detach failed", error=str(error))
                    self._print(f"detach failed: {error}")
                    return 1
            except (ProtocolError, BenchmarkError) as error:
                _log.warning("session error", error=str(error))
                self._print(f"error: {error}")
                return 1

    def _loop(self, client: NetClient, session_id: str) -> int:
        while True:
            try:
                line = self._input("repro> ")
            except EOFError:
                line = "detach"
            parts = line.strip().split()
            if not parts:
                continue
            command, args = parts[0], parts[1:]
            if command == "help":
                self._print(__doc__.split("Commands::", 1)[1].split("\n\n")[1])
            elif command == "load":
                self._cmd_load(args)
            elif command == "send":
                self._cmd_send(client, args)
            elif command == "all":
                self._cmd_send(client, [str(len(self._queue))])
            elif command == "records":
                self._absorb(client.drain(DRAIN_TIMEOUT))
                self._show_records()
            elif command == "status":
                self._print(
                    f"queued {len(self._queue)}, sent {self._sent}, "
                    f"received {len(self.records)} records"
                )
            elif command in ("detach", "quit"):
                return self._cmd_detach(client, session_id)
            else:
                self._print(f"unknown command {command!r} (try 'help')")

    # ------------------------------------------------------------------
    def _cmd_load(self, args: List[str]) -> None:
        if len(args) != 1:
            self._print("usage: load <workflow.json>")
            return
        try:
            workflow = Workflow.from_json(args[0])
        except (OSError, BenchmarkError) as error:
            self._print(f"cannot load {args[0]}: {error}")
            return
        self._queue.extend(workflow.interactions)
        self._print(
            f"queued {len(workflow.interactions)} interactions from "
            f"{workflow.name!r} ({len(self._queue)} total)"
        )

    def _cmd_send(self, client: NetClient, args: List[str]) -> None:
        count = 1
        if args:
            try:
                count = int(args[0])
            except ValueError:
                self._print("usage: send [n]")
                return
        if not self._queue:
            self._print("nothing queued (use 'load <workflow.json>')")
            return
        count = max(0, min(count, len(self._queue)))
        for _ in range(count):
            client.send_interaction(self._queue.pop(0))
            self._sent += 1
        self._absorb(client.drain(DRAIN_TIMEOUT))
        self._print(
            f"sent {count} ({len(self._queue)} queued, "
            f"{len(self.records)} records so far)"
        )

    def _cmd_detach(self, client: NetClient, session_id: str) -> int:
        client.detach()
        records, summary = client.collect()
        self.records.extend(records)
        self._show_records()
        self._print(
            f"session {summary.session_id or session_id} done: "
            f"{summary.queries} queries, makespan {summary.makespan:.2f}s"
        )
        return 0

    # ------------------------------------------------------------------
    def _absorb(self, messages) -> None:
        for message in messages:
            if isinstance(message, Record):
                self.records.append(message.record)
            elif isinstance(message, (Progress, Detach)):
                pass  # lifecycle chatter; summaries print on detach

    def _show_records(self) -> None:
        if not self.records:
            self._print("no records yet")
            return
        for record in self.records:
            status = "VIOLATED" if record.tr_violated else "ok"
            self._print(
                f"  [{record.end_time:8.2f}s] q{record.query_id} "
                f"{record.viz_name}: {status}"
            )

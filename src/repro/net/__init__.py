"""Network front-end: TCP protocol server, client library, and REPL.

IDEBench's premise is an IDE *frontend* issuing unpredictable query
streams against an engine under think-time constraints (§3). Until this
package, the reproduction could only simulate that loop in-process; the
network front-end exposes the session server over a socket so real
frontends — or remote load generators — can drive simulated engines
interactively:

* :mod:`repro.net.protocol` — the versioned wire protocol: length-
  prefixed JSON frames carrying a typed message catalog (HELLO, ATTACH,
  SUBMIT_VIZ, INTERACT, RECORD, PROGRESS, DETACH, ERROR) that round-trips
  every :class:`~repro.workflow.spec.VizSpec`, interaction, and
  :class:`~repro.bench.driver.QueryRecord` through the existing
  ``to_dict``/``from_dict`` machinery;
* :mod:`repro.net.server` — :class:`TcpSessionServer`, the asyncio TCP
  server mapping each connection to a
  :class:`~repro.bench.driver.SessionDriver` (scripted, policy-driven, or
  client-driven via the
  :class:`~repro.workflow.policy.ExternalInteractionSource` adapter) and
  streaming per-viz :class:`~repro.net.protocol.Record` frames back, with
  :class:`~repro.server.clock.AsyncClock` wall pacing; plus
  :class:`ServerThread` for loopback embedding;
* :mod:`repro.net.client` — the blocking client library
  (:class:`NetClient`, :func:`fetch_scripted_session`,
  :func:`replay_workflow`) used by ``repro connect``, the benchmarks and
  the tests;
* :mod:`repro.net.repl` — the interactive ``repro connect --repl`` shell.

Determinism contract (docs/protocol.md): a scripted client over loopback
produces a session report **byte-identical** to the equivalent
in-process ``repro serve`` run — the subsystem's determinism guarantee
extended across the wire, enforced by ``tests/test_net_server.py``,
``tests/test_net_shared.py`` and the golden transcripts in
``tests/golden/``.
"""

from repro.net.client import (
    NetClient,
    fetch_scripted_session,
    replay_workflow,
    scripted_csv_over_tcp,
)
from repro.net.protocol import (
    CAP_SHARED_ENGINE,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Attach,
    Barrier,
    Detach,
    ErrorMessage,
    Hello,
    Interact,
    Progress,
    Record,
    SubmitViz,
    TurnDone,
    TurnGrant,
    decode_message,
    encode_message,
    record_from_dict,
    record_to_dict,
    version_error,
)
from repro.net.server import ServerThread, TcpSessionServer

__all__ = [
    "CAP_SHARED_ENGINE",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "Attach",
    "Barrier",
    "Detach",
    "ErrorMessage",
    "Hello",
    "Interact",
    "NetClient",
    "Progress",
    "Record",
    "ServerThread",
    "SubmitViz",
    "TcpSessionServer",
    "TurnDone",
    "TurnGrant",
    "decode_message",
    "encode_message",
    "fetch_scripted_session",
    "record_from_dict",
    "record_to_dict",
    "replay_workflow",
    "scripted_csv_over_tcp",
    "version_error",
]

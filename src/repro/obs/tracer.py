"""Structured trace spans and events with two segregated time axes.

Instruments the §4.4 discrete-event timeline. Every trace entry carries
up to two kinds of timestamps:

* **virtual time** (``vt``, ``vt_end``) — simulation time from the
  deterministic :class:`~repro.common.clock.VirtualClock`. These fields,
  plus ``kind``/``name``/``seq``/``session``/``attrs``, are a pure
  function of the run's configuration and seed, so they may be pinned in
  ``tests/golden/`` byte-for-byte;
* **wall time** (everything under the reserved ``wall`` key) — real
  measurements from :func:`repro.common.clock.perf_seconds`. These vary
  run to run and machine to machine, and are therefore *segregated*
  under one key that every golden-facing export strips
  (:func:`repro.obs.sink.virtual_view`).

That segregation is the **two-axis determinism contract**
(docs/observability.md): enabling tracing never changes any
golden-pinned byte, because deterministic output either omits trace data
entirely (the existing report corpus) or strips the wall axis (the
golden trace files).

The tracer defaults to *disabled* and costs one attribute check per
instrumented call site when off; ``span()`` returns a shared no-op
handle, so hot loops (engine estimate kernels, scheduler settles) are
unaffected until someone passes ``--trace``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.common.clock import perf_seconds
from repro.obs.sink import RingBuffer, entry_line

#: Bumped when the entry schema changes incompatibly.
TRACE_SCHEMA_VERSION = 1


class _NullSpan:
    """Shared no-op span handle returned while tracing is disabled."""

    __slots__ = ()

    def end(self, vt_end: float) -> None:
        return None

    def set(self, key: str, value) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class SpanHandle:
    """An open span: close it via ``with`` or an explicit :meth:`close`.

    ``vt_end`` defaults to the opening ``vt`` (a point span) unless the
    caller advances it with :meth:`end` — virtual durations must come
    from the simulation, never from wall measurements.
    """

    __slots__ = ("_tracer", "entry", "_wall_started", "_closed")

    def __init__(self, tracer: "Tracer", entry: dict):
        self._tracer = tracer
        self.entry = entry
        self._wall_started = perf_seconds()
        self._closed = False

    def end(self, vt_end: float) -> None:
        """Set the span's closing virtual timestamp."""
        self.entry["vt_end"] = float(vt_end)

    def set(self, key: str, value) -> None:
        """Attach a (deterministic!) attribute to the span."""
        self.entry.setdefault("attrs", {})[key] = value

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.entry["wall"] = {"dur": perf_seconds() - self._wall_started}
        self._tracer._record(self.entry)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Collects trace entries in memory (optionally bounded)."""

    def __init__(
        self,
        enabled: bool = True,
        capacity: Optional[int] = None,
    ):
        self.enabled = enabled
        self._entries: Union[List[dict], RingBuffer] = (
            RingBuffer(capacity) if capacity else []
        )
        self._seq = 0
        #: Correlation fields stamped onto every entry (e.g. ``run``,
        #: ``host``) — the cross-host axis ``repro trace merge`` stitches
        #: on. Empty by default, so single-host traces are byte-identical
        #: to pre-context ones.
        self.context: Dict[str, object] = {}

    def set_context(self, **fields) -> None:
        """Stamp ``fields`` (run id, host id, ...) onto future entries.

        Values must be deterministic: they land in the virtual view and
        therefore in golden-comparable bytes. ``None`` values clear keys.
        """
        for key, value in sorted(fields.items()):
            if value is None:
                self.context.pop(key, None)
            else:
                self.context[key] = value

    # -- recording ----------------------------------------------------

    def _base(self, kind: str, name: str, vt: float,
              session: Optional[str], attrs: Optional[dict]) -> dict:
        entry: Dict[str, object] = {
            "kind": kind,
            "name": name,
            "seq": self._seq,
            "vt": float(vt),
        }
        self._seq += 1
        if self.context:
            entry.update(self.context)
        if session is not None:
            entry["session"] = session
        if attrs:
            entry["attrs"] = attrs
        return entry

    def event(self, name: str, vt: float, session: Optional[str] = None,
              **attrs) -> None:
        """Record a point event at virtual time ``vt``."""
        if not self.enabled:
            return
        self._record(self._base("event", name, vt, session, attrs or None))

    def span(self, name: str, vt: float, session: Optional[str] = None,
             **attrs) -> Union[SpanHandle, _NullSpan]:
        """Open a span at virtual time ``vt``; wall duration is measured
        from this call until the handle closes."""
        if not self.enabled:
            return NULL_SPAN
        return SpanHandle(self, self._base("span", name, vt, session, attrs or None))

    def _record(self, entry: dict) -> None:
        self._entries.append(entry)

    # -- access -------------------------------------------------------

    def entries(self) -> Iterator[dict]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dropped(self) -> int:
        return getattr(self._entries, "dropped", 0)

    def lines(self, virtual_only: bool = False) -> Iterator[str]:
        """Canonical-JSON lines; ``virtual_only`` strips the wall axis."""
        for entry in self._entries:
            yield entry_line(entry, virtual_only=virtual_only)

    def clear(self) -> None:
        if isinstance(self._entries, RingBuffer):
            self._entries.clear()
        else:
            self._entries = []
        self._seq = 0


#: Process-wide tracer. Disabled by default: instrumented call sites do
#: ``t = get_tracer()`` + one ``.enabled`` check and nothing more.
_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests, per-run isolation); returns the old."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous

"""Trace sinks: bounded ring buffer, JSONL files, and CSV summaries.

The tracer (:mod:`repro.obs.tracer`, over the §4.4 timeline) produces a
stream of entry dicts.
This module holds the places such a stream can go:

* :class:`RingBuffer` — a bounded in-memory buffer that keeps the most
  recent ``capacity`` entries and counts what it dropped, so always-on
  tracing in a long-lived server cannot grow without bound;
* :func:`write_jsonl` / :func:`iter_jsonl` — the on-disk interchange
  format (one canonical-JSON object per line, ``--trace`` output);
* :func:`summarize` / :func:`csv_summary` — the deterministic per-span
  aggregation behind ``repro trace summary``: it reads *virtual-time
  fields only*, so two runs of the same seed summarize byte-identically
  (the two-axis contract, docs/observability.md).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.common.errors import BenchmarkError
from repro.common.fingerprint import canonical_json


class RingBuffer:
    """Keep the newest ``capacity`` entries; count evictions.

    A plain list with a moving start index — O(1) amortized append, and
    iteration yields entries oldest-first without re-sorting.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise BenchmarkError(f"ring buffer capacity must be positive, got {capacity!r}")
        self.capacity = int(capacity)
        self.dropped = 0
        self._entries: List[dict] = []
        self._start = 0

    def append(self, entry: dict) -> None:
        if len(self._entries) - self._start >= self.capacity:
            self._entries[self._start] = None  # release the reference
            self._start += 1
            self.dropped += 1
            # Compact occasionally so the backing list stays bounded.
            if self._start >= self.capacity:
                self._entries = self._entries[self._start:]
                self._start = 0
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries) - self._start

    def __iter__(self) -> Iterator[dict]:
        return iter(self._entries[self._start:])

    def clear(self) -> None:
        self._entries = []
        self._start = 0
        self.dropped = 0


#: Keys carrying wall-clock measurements. Everything else in an entry is
#: derived from virtual time / deterministic run state and may be pinned.
WALL_KEYS = ("wall",)


def virtual_view(entry: dict) -> dict:
    """The golden-pinnable projection of a trace entry (no wall fields)."""
    # repro: allow[DET003] -- order-preserving projection: every serialization of the result (entry_line -> canonical_json) sorts keys, so entry insertion order never reaches bytes
    return {k: v for k, v in entry.items() if k not in WALL_KEYS}


def entry_line(entry: dict, virtual_only: bool = False) -> str:
    """One canonical-JSON line for an entry (sorted keys, minimal seps)."""
    return canonical_json(virtual_view(entry) if virtual_only else entry)


def write_jsonl(
    path: Union[str, Path],
    entries: Iterable[dict],
    virtual_only: bool = False,
) -> int:
    """Write entries as JSONL; returns the number of lines written.

    Binary I/O end to end, like the golden corpus: no platform newline
    translation may touch a file whose bytes are compared.
    """
    count = 0
    with open(path, "wb") as handle:
        for entry in entries:
            handle.write(entry_line(entry, virtual_only=virtual_only).encode("utf-8"))
            handle.write(b"\n")
            count += 1
    return count


def iter_jsonl(path: Union[str, Path]) -> Iterator[dict]:
    """Parse a JSONL trace file back into entry dicts."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise BenchmarkError(f"{path}:{lineno}: not a JSONL trace line: {exc}")
            if not isinstance(entry, dict):
                raise BenchmarkError(f"{path}:{lineno}: trace entry is not an object")
            yield entry


def filter_entries(
    entries: Iterable[dict],
    session: Optional[str] = None,
    kind: Optional[str] = None,
) -> Iterator[dict]:
    """Yield entries matching the given ``session`` / ``kind`` (if set).

    The `repro trace summary|export --session/--kind` selection: at
    10⁵-session scale an unfiltered trace is noise. Filters compose
    (logical AND); ``None`` means "don't filter on this field".
    """
    for entry in entries:
        if session is not None and entry.get("session") != session:
            continue
        if kind is not None and entry.get("kind") != kind:
            continue
        yield entry


def merge_traces(paths: Iterable[Union[str, Path]]) -> List[dict]:
    """Stitch per-host trace files into one globally-ordered timeline.

    Entries sort by ``(vt, host, seq)`` — virtual time is the shared
    global axis (every host replays the same deterministic timeline), the
    ``host`` context field breaks cross-host ties deterministically, and
    ``seq`` preserves each host's own recording order. The result is a
    pure function of the input files, so merged output is
    byte-deterministic (``repro trace merge``).
    """
    merged: List[dict] = []
    for path in paths:
        merged.extend(iter_jsonl(path))
    merged.sort(
        key=lambda entry: (
            float(entry.get("vt", 0.0)),
            str(entry.get("host", "")),
            int(entry.get("seq", 0)),
        )
    )
    return merged


def summarize(entries: Iterable[dict]) -> List[Dict[str, object]]:
    """Aggregate entries per span/event name, virtual-time fields only.

    Returns rows sorted by name, each with: ``name``, ``kind``, ``count``,
    ``vt_total`` (summed span durations; 0 for point events), ``vt_first``
    and ``vt_last`` (earliest/latest virtual timestamps). Wall fields are
    ignored entirely, so the summary of a fixed-seed run is deterministic.
    """
    rows: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        name = str(entry.get("name", "?"))
        vt = float(entry.get("vt", 0.0))
        vt_end = float(entry.get("vt_end", vt))
        row = rows.get(name)
        if row is None:
            row = rows[name] = {
                "name": name,
                "kind": entry.get("kind", "event"),
                "count": 0,
                "vt_total": 0.0,
                "vt_first": vt,
                "vt_last": vt,
            }
        row["count"] = int(row["count"]) + 1
        row["vt_total"] = float(row["vt_total"]) + (vt_end - vt)
        row["vt_first"] = min(float(row["vt_first"]), vt)
        row["vt_last"] = max(float(row["vt_last"]), vt)
    return [rows[name] for name in sorted(rows)]


_SUMMARY_HEADER = "name,kind,count,vt_total,vt_first,vt_last"


def csv_summary(entries: Iterable[dict]) -> str:
    """The ``repro trace summary`` rendering: a deterministic CSV."""
    lines = [_SUMMARY_HEADER]
    for row in summarize(entries):
        lines.append(
            "{name},{kind},{count},{vt_total:.6f},{vt_first:.6f},{vt_last:.6f}".format(
                **row
            )
        )
    return "\n".join(lines) + "\n"


def render_summary_table(entries: Iterable[dict]) -> str:
    """Human-oriented fixed-width table of the same deterministic rows."""
    rows = summarize(entries)
    if not rows:
        return "(empty trace)\n"
    name_width = max(len("name"), max(len(str(r["name"])) for r in rows))
    lines = [
        f"{'name':<{name_width}}  {'kind':<5}  {'count':>7}  "
        f"{'vt_total':>12}  {'vt_first':>10}  {'vt_last':>10}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<{name_width}}  {row['kind']:<5}  {row['count']:>7}  "
            f"{row['vt_total']:>12.6f}  {row['vt_first']:>10.6f}  {row['vt_last']:>10.6f}"
        )
    return "\n".join(lines) + "\n"

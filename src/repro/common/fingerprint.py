"""Canonical fingerprints for cache keys (§1's reproducibility, on disk).

Python's built-in ``hash()`` is salted per process (``PYTHONHASHSEED``),
so it can never key an on-disk cache or compare cells across worker
processes. This module provides the stable alternative every cache in the
package uses:

* :func:`canonicalize` — reduce a value (settings, queries, specs, plain
  containers) to a canonical JSON-compatible structure;
* :func:`canonical_json` — its deterministic serialization (sorted keys,
  no whitespace);
* :func:`fmt_cell` — the fixed-format float-to-CSV-cell renderer every
  deterministic report shares (one definition, so "stable CSV bytes"
  means the same thing everywhere);
* :func:`stable_digest` — a SHA-256 hex digest of that serialization,
  identical across processes, machines and Python invocations.

Objects participate by exposing ``to_dict()`` (the package-wide JSON
convention: :class:`~repro.common.config.BenchmarkSettings`,
:class:`~repro.query.model.AggQuery`, filters, workflows, run specs all
have one), so a fingerprint covers exactly what the object would persist.
"""

from __future__ import annotations

import hashlib
import json
import math
from enum import Enum

#: Bump when the canonical representation of cached artifacts changes in a
#: way that would make previously stored entries unsafe to reuse.
CACHE_SCHEMA_VERSION = 1

#: Length of the short digests used in file names and cell ids.
DIGEST_LENGTH = 16


def canonicalize(value):
    """Reduce ``value`` to a canonical JSON-compatible structure.

    Supported inputs: ``None``, bools, ints, floats, strings, enums,
    lists/tuples, sets/frozensets (sorted by their canonical serialization)
    and dicts (keys coerced to strings), plus any object exposing a
    ``to_dict()`` method. Anything else raises ``TypeError`` loudly —
    silent fallbacks (e.g. ``repr``) would make digests depend on memory
    addresses.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # json round-trips floats through repr (shortest form) — stable
        # across platforms for IEEE-754 doubles.
        return value
    if isinstance(value, Enum):
        return [type(value).__name__, value.name]
    if isinstance(value, dict):
        return {str(key): canonicalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            (canonicalize(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return [type(value).__name__, canonicalize(to_dict())]
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting; "
        "give it a to_dict() or pass plain JSON-compatible data"
    )


def canonical_json(value) -> str:
    """Deterministic JSON serialization of :func:`canonicalize`'s output."""
    return json.dumps(
        canonicalize(value), sort_keys=True, separators=(",", ":")
    )


def stable_digest(value, length: int = DIGEST_LENGTH) -> str:
    """Stable SHA-256 hex digest of ``value`` (first ``length`` chars).

    ``length=None`` returns the full 64-character digest. Two values with
    equal canonical forms digest identically in every process — the
    property on-disk caches and cross-worker cache keys rely on.
    """
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest if length is None else digest[:length]


def fmt_cell(value) -> str:
    """Render a float for a deterministic CSV cell (NaN/None → empty).

    Shared by every report module that promises byte-stable CSVs
    (:mod:`repro.runtime.report`, :mod:`repro.server.report`,
    :mod:`repro.bench.report`): six fixed decimals, locale-independent.

    This function is **the** serialization boundary for non-finite
    values, and it canonicalizes them to exactly one token each so a
    byte-wise comparison of two reports (the golden corpus, a fresh cell
    against its cached copy) can never see a false change from
    formatting drift:

    * ``None`` and *any* NaN → the empty cell ``""`` — including NaN
      carried by a non-``float`` numeric type such as ``numpy.float32``,
      which ``isinstance(value, float)`` checks miss and a bare
      ``f"{value:.6f}"`` would have leaked as a platform-spelled
      ``"nan"``/``"-nan"`` token;
    * ``±inf`` → ``"inf"`` / ``"-inf"`` (never the locale/format
      dependent spellings ``Infinity``, ``1.#INF``, …).
    """
    if value is None:
        return ""
    number = float(value)
    if math.isnan(number):
        return ""
    if math.isinf(number):
        return "inf" if number > 0 else "-inf"
    return f"{number:.6f}"

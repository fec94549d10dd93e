"""Shared infrastructure: errors, clocks, RNG helpers and benchmark settings.

This subpackage holds everything that more than one part of the benchmark
depends on but that is not itself part of the paper's conceptual model:

* :mod:`repro.common.errors` — the exception hierarchy.
* :mod:`repro.common.clock` — virtual and wall clocks; the virtual clock is
  what makes benchmark runs deterministic and laptop-scale (see
  docs/architecture.md).
* :mod:`repro.common.rng` — seed-derivation utilities so that every
  component draws from an independent, reproducible stream.
* :mod:`repro.common.config` — the benchmark settings of paper §4.6.
* :mod:`repro.common.fingerprint` — canonical JSON and stable digests for
  process-portable cache keys (the parallel runtime's foundation).
"""

from repro.common.clock import Clock, VirtualClock, WallClock
from repro.common.config import BenchmarkSettings, DataSize, DEFAULT_TIME_REQUIREMENTS
from repro.common.errors import (
    BenchmarkError,
    ConfigurationError,
    DataGenerationError,
    EngineError,
    QueryError,
    WorkflowError,
)
from repro.common.fingerprint import canonical_json, canonicalize, stable_digest
from repro.common.rng import (
    derive_rng,
    derive_seed,
    derive_session_seed,
)

__all__ = [
    "BenchmarkError",
    "BenchmarkSettings",
    "Clock",
    "ConfigurationError",
    "DataGenerationError",
    "DataSize",
    "DEFAULT_TIME_REQUIREMENTS",
    "EngineError",
    "QueryError",
    "VirtualClock",
    "WallClock",
    "WorkflowError",
    "canonical_json",
    "canonicalize",
    "derive_rng",
    "derive_seed",
    "derive_session_seed",
    "stable_digest",
]

"""Benchmark settings (paper §4.6) and default configurations (§5.1).

The paper parameterizes a benchmark run by five settings:

==================  =========================================================
Time Requirement    maximum execution duration for a query (queries past the
(TR)                TR are cancelled; violation is recorded as a boolean)
Dataset and Size    which dataset, and how many tuples to scale it to
Think Time          delay between two consecutive user interactions
Using Joins         normalized (star schema) vs. de-normalized execution
Confidence Level    level at which AQP engines report margins of error
==================  =========================================================

:class:`BenchmarkSettings` is the in-memory form of those settings plus the
reproduction-specific knobs documented in docs/architecture.md,
"Simulated engines" (the virtual-to-actual ``scale`` factor and the root
random seed). Settings can be round-tripped through JSON, matching the
original IDEBench driver's configuration files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

from repro.common import codec
from repro.common.errors import ConfigurationError

#: TRs used throughout the paper's evaluation (§5.1): 0.5s, 1s, 3s, 5s, 10s.
DEFAULT_TIME_REQUIREMENTS = (0.5, 1.0, 3.0, 5.0, 10.0)

#: Think times used in Exp. 3 (§5.4): one to ten seconds.
DEFAULT_THINK_TIMES = tuple(float(t) for t in range(1, 11))

#: Confidence level at which AQP engines report margins of error (§4.6).
DEFAULT_CONFIDENCE_LEVEL = 0.95


class DataSize(Enum):
    """The three default dataset sizes of §5.1, in *virtual* tuple counts.

    The paper uses S=100 million, M=500 million and L=1 billion tuples in
    de-normalized form. The reproduction keeps these virtual sizes and maps
    them to actual row counts through ``BenchmarkSettings.scale``.
    """

    S = 100_000_000
    M = 500_000_000
    L = 1_000_000_000

    @property
    def virtual_rows(self) -> int:
        """Number of tuples this size denotes in the paper's terms."""
        return self.value

    @classmethod
    def parse(cls, text: Union[str, int, "DataSize"]) -> "DataSize":
        """Parse ``"S"``/``"M"``/``"L"`` / ``"500m"`` / row counts."""
        if isinstance(text, DataSize):
            return text
        if isinstance(text, int):
            for size in cls:
                if size.value == text:
                    return size
            raise ConfigurationError(f"no named data size has {text} rows")
        label = str(text).strip().upper()
        if label in cls.__members__:
            return cls[label]
        normalized = label.replace("_", "").replace(",", "")
        suffixes = {"M": 1_000_000, "B": 1_000_000_000}
        if normalized and normalized[-1] in suffixes and normalized[:-1].isdigit():
            return cls.parse(int(normalized[:-1]) * suffixes[normalized[-1]])
        raise ConfigurationError(f"cannot parse data size {text!r}")


@dataclass(frozen=True)
class BenchmarkSettings(codec.Codable, error=ConfigurationError, strict=True):
    """All knobs of a benchmark run; immutable so runs cannot drift.

    Use :meth:`with_` (a thin wrapper over :func:`dataclasses.replace`) to
    derive variations for parameter sweeps::

        base = BenchmarkSettings()
        for tr in DEFAULT_TIME_REQUIREMENTS:
            run(base.with_(time_requirement=tr))
    """

    #: Maximum execution duration for a query, seconds (§4.6).
    time_requirement: float = 3.0
    #: Dataset identifier; the default configuration uses the flights data.
    dataset: str = "flights"
    #: Virtual dataset size (S/M/L of §5.1).
    data_size: DataSize = DataSize.M
    #: Delay between two consecutive interactions, seconds.
    think_time: float = 1.0
    #: Whether engines run on the normalized star schema (True) or the
    #: de-normalized single table (False).
    use_joins: bool = False
    #: Confidence level for AQP margins of error.
    confidence_level: float = DEFAULT_CONFIDENCE_LEVEL
    #: Virtual-rows-per-actual-row factor (docs/architecture.md,
    #: "Simulated engines"). 1000 means the M=500M configuration is
    #: executed over 500k actual rows with engine throughputs scaled down
    #: by the same factor.
    scale: int = 1000
    #: Root seed from which all random streams are derived.
    seed: int = 42
    #: Interval at which report-interval engines (XDB) publish results, s.
    report_interval: float = 0.25
    #: Number of workflows per workflow type in the default configuration.
    workflows_per_type: int = 10

    def __post_init__(self):
        # Negated comparisons: NaN fails every one of them.
        if not 0 < self.time_requirement < math.inf:
            raise ConfigurationError(
                "time requirement must be positive and finite, "
                f"got {self.time_requirement!r}"
            )
        if not 0 <= self.think_time < math.inf:
            raise ConfigurationError(
                f"think time must be non-negative and finite, got {self.think_time!r}"
            )
        if not 0.5 <= self.confidence_level < 1.0:
            raise ConfigurationError(
                f"confidence level must be in [0.5, 1), got {self.confidence_level!r}"
            )
        if self.scale < 1:
            raise ConfigurationError(f"scale must be >= 1, got {self.scale!r}")
        if not 0 < self.report_interval < math.inf:
            raise ConfigurationError(
                "report interval must be positive and finite, "
                f"got {self.report_interval!r}"
            )
        if self.workflows_per_type < 1:
            raise ConfigurationError(
                f"workflows per type must be >= 1, got {self.workflows_per_type!r}"
            )

    @property
    def actual_rows(self) -> int:
        """Actual (materialized) row count for the configured data size."""
        return max(1, self.data_size.virtual_rows // self.scale)

    @property
    def virtual_rows(self) -> int:
        """Virtual row count the engines believe they are processing."""
        return self.data_size.virtual_rows

    def with_(self, **changes) -> "BenchmarkSettings":
        """Return a copy with ``changes`` applied (validates again)."""
        return replace(self, **changes)

    #: Settings files have always been written with sorted keys.
    _json_sort_keys = True

    # data_size is stored by name ("M"); DataSize.parse also reads "500m"
    # and row counts.
    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dictionary."""
        return {**super().to_dict(), "data_size": self.data_size.name}

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkSettings":
        """Inverse of :meth:`to_dict`; unknown keys are rejected loudly."""
        if isinstance(data, dict) and "data_size" in data:
            data = {**data, "data_size": DataSize.parse(data["data_size"])}
        return super().from_dict(data)

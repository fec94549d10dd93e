"""NaN canonicalization at the deterministic-CSV serialization boundary.

The golden corpus and the artifact cache compare report CSVs
**byte-wise**, so any formatting drift in how a NaN (an empty-latency
cell, a zero-record cell's percentage) reaches the CSV would surface as
a *false* behavior change. :func:`repro.common.fingerprint.fmt_cell` is
the single boundary: every NaN — whatever numeric type carries it —
serializes to exactly one token (the empty cell), infinities to
``inf``/``-inf``, and these tests pin that contract end to end: helper,
report CSVs and cache round trip.
"""

import math

import numpy as np
import pytest

from repro.common.config import BenchmarkSettings
from repro.common.fingerprint import fmt_cell
from repro.runtime import CellResult, plan_adaptive, plan_sessions
from repro.server.report import (
    ADAPTIVE_COLUMNS,
    BENCH_COLUMNS,
    render_adaptive_bench,
    render_session_bench,
    serving_csv_text,
)


class TestFmtCell:
    @pytest.mark.parametrize("value", [
        None,
        float("nan"),
        float("-nan"),
        np.float64("nan"),
        np.float32("nan"),  # not a `float` subclass: the historical leak
        np.float16("nan"),
    ])
    def test_every_nan_is_the_empty_cell(self, value):
        assert fmt_cell(value) == ""

    @pytest.mark.parametrize("value, expected", [
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (np.float32("inf"), "inf"),
        (np.float64("-inf"), "-inf"),
    ])
    def test_infinities_are_canonical_tokens(self, value, expected):
        assert fmt_cell(value) == expected

    @pytest.mark.parametrize("value, expected", [
        (0, "0.000000"),
        (1.5, "1.500000"),
        (np.float32(0.25), "0.250000"),
        (np.float64(-3.125), "-3.125000"),
    ])
    def test_finite_values_keep_six_decimals(self, value, expected):
        assert fmt_cell(value) == expected


def _empty_payload() -> dict:
    """A serve cell whose run produced zero records — every mean is NaN."""
    nan = float("nan")
    return {
        "sessions_served": 1, "sessions_departed": 1, "num_queries": 0,
        "pct_tr_violated": nan, "mean_missing_bins": nan,
        "mean_latency_answered": nan, "virtual_makespan": 0.0,
        "queries_per_virtual_second": nan, "mix": {}, "wall_seconds": 0.0,
    }


def _empty_session_cell(payload=None) -> CellResult:
    spec = plan_sessions(
        BenchmarkSettings(), ["idea-sim"], [1], per_session=1,
        modes=("shared",),
    )[0]
    return CellResult(spec=spec, serving=payload or _empty_payload())


def _empty_adaptive_cell() -> CellResult:
    spec = plan_adaptive(
        BenchmarkSettings(), "idea-sim", ["markov"], [1], churn_modes=("open",)
    )[0]
    return CellResult(spec=spec, serving=_empty_payload())


def _session_csv(cell: CellResult) -> str:
    return serving_csv_text([cell], BENCH_COLUMNS)


class TestReportCsvs:
    def test_session_bench_csv_has_no_nan_token(self):
        text = _session_csv(_empty_session_cell())
        assert "nan" not in text.lower()
        assert "inf" not in text.lower()
        # Empty-latency cell renders as an empty CSV field, not a token.
        assert ",,," in text

    def test_adaptive_csv_has_no_nan_token(self):
        text = serving_csv_text([_empty_adaptive_cell()], ADAPTIVE_COLUMNS)
        assert "nan" not in text.lower()

    def test_numpy_float32_cell_cannot_leak_nan(self):
        cell = _empty_session_cell()
        cell.serving["mean_latency_answered"] = np.float32("nan")
        text = _session_csv(cell)
        assert "nan" not in text.lower()

    def test_renders_show_dash_not_nan(self):
        session_table = render_session_bench([_empty_session_cell()])
        adaptive_table = render_adaptive_bench([_empty_adaptive_cell()])
        assert "nan" not in session_table.lower()
        assert "nan" not in adaptive_table.lower()
        assert "—" in session_table
        assert "—" in adaptive_table

    def test_cache_round_trip_is_byte_identical(self):
        # A cell restored from a payload that went through a serializer (NaN travels as a JSON `NaN`
        # token here) must re-render the exact same CSV bytes.
        import json

        cell = _empty_session_cell()
        payload = json.loads(json.dumps(cell.serving, allow_nan=True))
        restored = _empty_session_cell(payload)
        assert math.isnan(restored.serving["mean_latency_answered"])
        assert _session_csv(restored) == _session_csv(cell)

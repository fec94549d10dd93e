"""Record serialization: :class:`QueryRecord` ↔ plain JSON-able dict.

One detailed-report row (Table 1) with its §4.7 metrics, flattened to
JSON primitives and back without loss — floats round-trip exactly
(``repr``-based JSON encoding), including the NaN values a TR-violated
record carries. The wire protocol (``net/protocol.py``) and the
record spool (:mod:`repro.server.spool`) both serialize through here,
so a record on a socket, in a spill file and in a CSV is one vocabulary.
"""

from __future__ import annotations

from repro.bench.driver import QueryRecord
from repro.bench.metrics import QueryMetrics

#: QueryMetrics fields, in dataclass order (all JSON-primitive).
_METRIC_FIELDS = (
    "tr_violated",
    "bins_delivered",
    "bins_in_gt",
    "missing_bins",
    "rel_error_avg",
    "rel_error_stdev",
    "smape",
    "cosine_distance",
    "margin_avg",
    "margin_stdev",
    "bins_out_of_margin",
    "bias",
)

#: QueryRecord fields except ``metrics`` (all JSON-primitive).
_RECORD_FIELDS = (
    "query_id",
    "interaction_id",
    "viz_name",
    "driver",
    "data_size",
    "think_time",
    "time_requirement",
    "workflow",
    "workflow_type",
    "start_time",
    "end_time",
    "bin_dims",
    "binning_type",
    "agg_type",
    "rows_processed",
    "fraction",
    "num_concurrent",
    "qualifying_fraction",
)


def record_to_dict(record: QueryRecord) -> dict:
    """One detailed-report row as a plain dict (Table-1 fidelity)."""
    data = {name: getattr(record, name) for name in _RECORD_FIELDS}
    data["metrics"] = {
        name: getattr(record.metrics, name) for name in _METRIC_FIELDS
    }
    return data


def record_from_dict(data: dict) -> QueryRecord:
    """Rebuild the exact :class:`QueryRecord` that was serialized.

    A malformed payload raises ``KeyError``/``TypeError``; each boundary
    (wire frame, spill-file line) wraps those in its own typed error.
    """
    metrics = QueryMetrics(
        **{name: data["metrics"][name] for name in _METRIC_FIELDS}
    )
    return QueryRecord(
        metrics=metrics,
        **{name: data[name] for name in _RECORD_FIELDS},
    )

"""Record serialization: :class:`QueryRecord` ↔ plain JSON-able dict.

One detailed-report row (Table 1) with its §4.7 metrics, flattened to
JSON primitives and back without loss — floats round-trip exactly
(``repr``-based JSON encoding), including the NaN values a TR-violated
record carries. The wire protocol (``net/protocol.py``) and the
record spool (:mod:`repro.server.spool`) both serialize through here,
so a record on a socket, in a spill file and in a CSV is one vocabulary.

Records are the serving hot path, and a record dict only ever comes
from :func:`record_to_dict`, so their :mod:`repro.common.codec` plan
copies fields without checking them: one comprehension over the field
names each way. A malformed dict raises ``KeyError``/``TypeError`` from
:func:`record_from_dict`; each boundary (wire frame, spill-file line)
types it.
"""

from __future__ import annotations

from repro.bench.driver import QueryRecord
from repro.common import codec

record_to_dict, record_from_dict = codec.unchecked(QueryRecord)

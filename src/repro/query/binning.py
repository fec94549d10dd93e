"""Vectorized quantitative binning (§2.2's binned aggregation): values → codes.

A quantitative :class:`~repro.query.model.BinDimension` maps each row to a
*bin code* (an ``int64``) that is also the bin's index, so it decodes to
itself. Nominal dimensions need no coding here: compiled kernels
(:mod:`repro.query.kernels`) read their codes from the dataset's
dictionary encoding, and group the codes of one or two dimensions.

Invariant (property-tested): every row maps to exactly one bin, and the
bin's interval contains the row's value.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import QueryError
from repro.query.model import BinDimension


def compute_codes(dim: BinDimension, values: np.ndarray) -> np.ndarray:
    """Each value's bin code under the quantitative dimension ``dim``:
    ``floor((x - reference) / width)`` as ``int64``, with ``x`` widened to
    ``float64`` first: a narrow column minus a Python ``int`` keeps the
    column's type (NEP 50) and could wrap. Integers below 2**53 give the
    doubles an ``int64`` subtraction gave."""
    if dim.width is None:
        raise QueryError(
            f"dimension {dim.field!r} is unresolved (bin_count without "
            "width); resolve against a profile first"
        )
    if values.dtype.kind not in ("i", "f"):
        raise QueryError(
            f"quantitative binning on non-numeric column {dim.field!r}"
        )
    widened = values.astype(np.float64, copy=False)
    return np.floor((widened - dim.reference) / dim.width).astype(np.int64)

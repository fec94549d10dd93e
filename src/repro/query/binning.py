"""Vectorized binning (§2.2's binned aggregation): values → codes → keys.

This is the inner loop shared by the ground-truth oracle and all engine
simulators. A :class:`~repro.query.model.BinDimension` maps each row to a
*bin code* (an ``int64``); multi-dimensional binnings combine per-dimension
codes into group identifiers via mixed-radix packing, and
:func:`group_rows` returns the distinct :data:`~repro.query.model.BinKey`
tuples together with each row's group index — everything downstream
aggregation needs.

Invariant (property-tested): every row maps to exactly one bin, and the
bin's interval/category contains the row's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.common.errors import QueryError
from repro.query.model import BinCoord, BinDimension, BinKey, BinKind


@dataclass
class DimensionCodes:
    """Bin codes of one dimension plus the decoder back to coordinates."""

    codes: np.ndarray
    decode: Callable[[int], BinCoord]


def compute_codes(dim: BinDimension, values: np.ndarray) -> DimensionCodes:
    """Map each value to its bin code under ``dim``.

    Quantitative: ``floor((x - reference) / width)`` (the code *is* the bin
    index, so decoding is the identity). Nominal: dense codes from
    :func:`numpy.unique`, decoded through the category array.
    """
    if dim.kind is BinKind.QUANTITATIVE:
        if dim.width is None:
            raise QueryError(
                f"dimension {dim.field!r} is unresolved (bin_count without "
                "width); resolve against a profile first"
            )
        if values.dtype.kind not in ("i", "f"):
            raise QueryError(
                f"quantitative binning on non-numeric column {dim.field!r}"
            )
        codes = np.floor((values - dim.reference) / dim.width).astype(np.int64)
        return DimensionCodes(codes, lambda code: int(code))
    categories, codes = np.unique(values.astype(str), return_inverse=True)
    return DimensionCodes(
        codes.astype(np.int64), lambda code, _cats=categories: str(_cats[code])
    )


@dataclass
class GroupedRows:
    """Outcome of grouping: distinct keys and per-row group indices."""

    keys: List[BinKey]
    inverse: np.ndarray  # shape (num_rows,), values in [0, len(keys))

    @property
    def num_groups(self) -> int:
        return len(self.keys)


def group_rows(
    dims: Sequence[BinDimension], value_columns: Sequence[np.ndarray]
) -> GroupedRows:
    """Group rows by the combined bin key over ``dims``.

    ``value_columns`` holds one array per dimension (already filtered to
    the rows being aggregated). Handles the empty-row case gracefully —
    an empty grouping, not an error — because approximate engines routinely
    aggregate empty samples of selective filters.
    """
    if len(dims) != len(value_columns):
        raise QueryError(
            f"got {len(dims)} dimensions but {len(value_columns)} value columns"
        )
    num_rows = len(value_columns[0]) if value_columns else 0
    if num_rows == 0:
        return GroupedRows(keys=[], inverse=np.empty(0, dtype=np.int64))

    per_dim = [compute_codes(dim, values) for dim, values in zip(dims, value_columns)]

    if len(per_dim) == 1:
        unique_codes, inverse = np.unique(per_dim[0].codes, return_inverse=True)
        keys = [(per_dim[0].decode(code),) for code in unique_codes]
        return GroupedRows(keys=keys, inverse=inverse.astype(np.int64))

    # Mixed-radix packing of the two code arrays into one int64 per row.
    first, second = per_dim
    first_min = int(first.codes.min())
    second_min = int(second.codes.min())
    second_span = int(second.codes.max()) - second_min + 1
    packed = (first.codes - first_min) * second_span + (second.codes - second_min)
    unique_packed, inverse = np.unique(packed, return_inverse=True)
    keys: List[BinKey] = []
    for value in unique_packed:
        first_code, second_code = divmod(int(value), second_span)
        keys.append(
            (first.decode(first_code + first_min), second.decode(second_code + second_min))
        )
    return GroupedRows(keys=keys, inverse=inverse.astype(np.int64))

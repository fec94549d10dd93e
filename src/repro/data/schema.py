"""Column kinds and per-column profiles.

The workload generator (§4.3) needs light-weight metadata about the dataset
to sample plausible visualizations: which columns are *quantitative* (can be
binned by width, filtered by range) versus *nominal* (binned by category,
filtered by set inclusion), plus value ranges and category inventories.

:func:`profile_table` derives this metadata from a :class:`~repro.data.storage.Table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import QueryError
from repro.data.storage import Dataset, Table, dictionary_encode


class ColumnKind(Enum):
    """How a column participates in binning and filtering (§2.2)."""

    QUANTITATIVE = "quantitative"
    NOMINAL = "nominal"


@dataclass(frozen=True)
class ColumnProfile:
    """Summary statistics of one column, as needed by workload generation.

    For quantitative columns ``minimum``/``maximum``/``std`` are populated
    along with 101 ``quantiles`` (percentiles 0–100), which the workload
    generator uses to construct range filters of a chosen selectivity; for
    nominal columns ``categories`` holds the distinct values sorted by
    descending frequency (most common first, matching how the original
    IDEBench presents category filters).
    """

    name: str
    kind: ColumnKind
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    std: Optional[float] = None
    categories: Tuple[str, ...] = ()
    quantiles: Tuple[float, ...] = ()

    def quantile(self, fraction: float) -> float:
        """Approximate quantile at ``fraction`` in [0, 1] (quantitative)."""
        if self.kind is not ColumnKind.QUANTITATIVE or not self.quantiles:
            raise QueryError(f"column {self.name!r} has no quantiles")
        index = int(round(min(max(fraction, 0.0), 1.0) * (len(self.quantiles) - 1)))
        return self.quantiles[index]

    @property
    def cardinality(self) -> int:
        """Number of distinct categories (nominal columns only)."""
        return len(self.categories)

    @property
    def span(self) -> float:
        """Value range width (quantitative columns only)."""
        if self.kind is not ColumnKind.QUANTITATIVE:
            raise QueryError(f"column {self.name!r} is not quantitative")
        return float(self.maximum - self.minimum)


def profile_column(name: str, values: np.ndarray) -> ColumnProfile:
    """Profile a single column array."""
    if values.dtype.kind in ("i", "f"):
        return ColumnProfile(
            name=name,
            kind=ColumnKind.QUANTITATIVE,
            minimum=float(np.min(values)),
            maximum=float(np.max(values)),
            std=float(np.std(values)),
            quantiles=tuple(
                float(q) for q in np.percentile(values, np.arange(101))
            ),
        )
    categories, codes = dictionary_encode(values)
    counts = np.bincount(codes, minlength=len(categories))
    order = np.argsort(-counts, kind="stable")
    return ColumnProfile(
        name=name,
        kind=ColumnKind.NOMINAL,
        categories=tuple(categories[order].tolist()),
    )


def profile_table(table: Table) -> Dict[str, ColumnProfile]:
    """Profile every column of ``table`` (column name → profile)."""
    return {
        name: profile_column(name, table[name]) for name in table.column_names
    }


def profile_dataset(
    dataset: Dataset, columns: Optional[Sequence[str]] = None
) -> Dict[str, ColumnProfile]:
    """Profile the logical columns of a dataset (joining through FKs).

    ``columns`` restricts profiling to a subset; by default all logical
    columns are profiled. Integer FK columns never appear (they are not
    part of the logical schema, see :meth:`Dataset.logical_columns`).
    """
    names = list(columns) if columns is not None else dataset.logical_columns()
    return {name: profile_column(name, dataset.gather_column(name)) for name in names}

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
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import DataGenerationError, QueryError
from repro.data.storage import Categorical, Dataset, Table, categories_by_frequency


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


def _sorted_percentiles(ordered: np.ndarray) -> np.ndarray:
    """``np.percentile(ordered, range(101))`` of a sorted column, without
    the partition: numpy's linear-method indices and ``_lerp``, op for op."""
    last = len(ordered) - 1
    virtual = last * np.true_divide(np.arange(101), 100)
    lower, upper = np.floor(virtual), np.floor(virtual) + 1
    lower[virtual >= last] = upper[virtual >= last] = -1
    gamma = virtual - lower
    below, above = ordered[lower.astype(np.intp)], ordered[upper.astype(np.intp)]
    if ordered.dtype.kind == "i":  # a narrow type's step could wrap
        below, above = below.astype(np.int64), above.astype(np.int64)
    step = above - below
    result = below + step * gamma
    np.subtract(above, step * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


def profile_column(name: str, values: Union[np.ndarray, Categorical]) -> ColumnProfile:
    """Profile a single column array, or a nominal column as its table
    stores it (one sort serves min, max, quantiles)."""
    if not isinstance(values, Categorical) and values.dtype.kind in ("i", "f"):
        if not len(values):
            raise DataGenerationError(f"column {name!r} has no rows to profile")
        ordered = np.sort(values)
        # NaN sorts last; numpy's min, max and every percentile return it.
        ordered = ordered[-1:] if np.isnan(ordered[-1]) else ordered
        return ColumnProfile(
            name=name,
            kind=ColumnKind.QUANTITATIVE,
            minimum=float(ordered[0]),
            maximum=float(ordered[-1]),
            std=float(np.std(values)),
            quantiles=tuple(_sorted_percentiles(ordered).tolist()),
        )
    return ColumnProfile(
        name=name,
        kind=ColumnKind.NOMINAL,
        categories=tuple(categories_by_frequency(values)[0].tolist()),
    )


def profile_table(table: Table) -> Dict[str, ColumnProfile]:
    """Profile every column of ``table`` (column name → profile)."""
    return {
        name: profile_column(
            name, table[name] if table.is_numeric(name) else table.categorical(name)
        )
        for name in table.column_names
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

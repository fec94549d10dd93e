"""Star-schema normalization: vertical partitioning of a flat table.

The paper (§4.2, §5.3) evaluates systems on both a de-normalized single
table and a normalized star schema — for the flights data, a fact table
holding foreign keys into *airports* and *carriers* dimension tables.

:func:`normalize` performs that vertical partitioning from a declarative
:class:`DimensionSpec` list; :func:`denormalize` is its inverse (FK
dereference), used both by tests (round-trip property) and by engines that
only support de-normalized data.

Role-playing dimensions are supported: the flights *airports* dimension is
referenced twice (origin and destination), so both roles share one
dimension table whose rows are the union of the airports seen in either
role.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.common import codec
from repro.common.errors import DataGenerationError
from repro.data.storage import Dataset, ForeignKey, Table


@dataclass(frozen=True)
class DimensionSpec(codec.Codable, error=DataGenerationError):
    """Describes one role of one dimension table.

    Attributes
    ----------
    table:
        Name of the dimension table to create (specs sharing a table name
        are roles of the same dimension).
    fact_column:
        Name of the integer FK column to add to the fact table.
    attribute_map:
        ``(denormalized_column, dimension_column)`` pairs. The first pair
        is the natural key of the role (e.g. ``("ORIGIN", "code")``);
        remaining pairs are functionally dependent attributes that move to
        the dimension (e.g. ``("ORIGIN_STATE", "state")``).
    """

    table: str
    fact_column: str
    attribute_map: Tuple[Tuple[str, str], ...] = field(metadata=codec.key("attributes"))

    @property
    def denorm_columns(self) -> List[str]:
        """De-normalized column names consumed by this role."""
        return [denorm for denorm, _ in self.attribute_map]

    @property
    def dim_columns(self) -> List[str]:
        """Dimension-table column names produced by this role."""
        return [dim for _, dim in self.attribute_map]


#: Default star-schema specification for the flights dataset (§5.3): the
#: fact table keeps measures and references *airports* (twice — origin and
#: destination roles) and *carriers*.
FLIGHTS_STAR_SPEC = (
    DimensionSpec(
        table="airports",
        fact_column="ORIGIN_KEY",
        attribute_map=(("ORIGIN", "code"), ("ORIGIN_STATE", "state")),
    ),
    DimensionSpec(
        table="airports",
        fact_column="DEST_KEY",
        attribute_map=(("DEST", "code"), ("DEST_STATE", "state")),
    ),
    DimensionSpec(
        table="carriers",
        fact_column="CARRIER_KEY",
        attribute_map=(("UNIQUE_CARRIER", "code"),),
    ),
)


def normalize(
    table: Table, specs: Sequence[DimensionSpec] = FLIGHTS_STAR_SPEC
) -> Dataset:
    """Partition flat ``table`` into a star schema per ``specs``.

    Every spec's de-normalized columns are removed from the fact table and
    replaced by one integer FK column; dimension rows are the distinct
    attribute tuples observed (unioned across roles sharing a table).
    """
    _validate_specs(table, specs)

    # Group roles by target dimension table.
    by_table: Dict[str, List[DimensionSpec]] = {}
    for spec in specs:
        by_table.setdefault(spec.table, []).append(spec)

    dim_tables: Dict[str, Table] = {}
    fact_fk_columns: Dict[str, np.ndarray] = {}
    foreign_keys: List[ForeignKey] = []

    for dim_name, roles in by_table.items():
        dim_columns = roles[0].dim_columns
        for role in roles[1:]:
            if role.dim_columns != dim_columns:
                raise DataGenerationError(
                    f"roles of dimension {dim_name!r} disagree on columns: "
                    f"{dim_columns} vs {role.dim_columns}"
                )
        # Stack the attribute tuples of every role and deduplicate.
        stacked = [
            np.column_stack([table[denorm].astype(str) for denorm in role.denorm_columns])
            for role in roles
        ]
        all_rows = np.concatenate(stacked, axis=0)
        unique_rows, inverse = np.unique(all_rows, axis=0, return_inverse=True)
        # The surrogate key equals the row position — engines exploit this
        # invariant to dereference FKs by plain array indexing.
        key_column = f"{dim_name}_key"
        dim_data: Dict[str, np.ndarray] = {
            key_column: np.arange(len(unique_rows), dtype=np.int64)
        }
        # Transposed copy: each attribute column contiguous, as engines gather it.
        dim_data.update(zip(dim_columns, np.ascontiguousarray(unique_rows.T)))
        dim_tables[dim_name] = Table(dim_name, dim_data)
        offset = 0
        for role in roles:
            keys = inverse[offset : offset + table.num_rows].astype(np.int64)
            offset += table.num_rows
            fact_fk_columns[role.fact_column] = keys
            foreign_keys.append(
                ForeignKey(
                    fact_column=role.fact_column,
                    dim_table=dim_name,
                    dim_key=key_column,
                    attribute_map=role.attribute_map,
                )
            )

    moved = {denorm for spec in specs for denorm in spec.denorm_columns}
    fact = table.without_columns(sorted(moved)).with_columns(fact_fk_columns)
    fact = fact.renamed(f"{table.name}_fact")
    tables = {fact.name: fact}
    tables.update(dim_tables)
    return Dataset(tables, fact.name, foreign_keys)


def denormalize(dataset: Dataset) -> Table:
    """Materialize the star schema back into one flat table.

    Columns come out in fact order with each FK column replaced (in place)
    by the de-normalized attributes it encodes; this makes
    ``denormalize(normalize(t))`` column-content-equal to ``t`` up to
    column ordering, which the tests assert.
    """
    if not dataset.is_normalized:
        return dataset.fact
    fact = dataset.fact
    fk_by_column = {fk.fact_column: fk for fk in dataset.foreign_keys}
    columns: Dict[str, np.ndarray] = {}
    for name in fact.column_names:
        if name in fk_by_column:
            fk = fk_by_column[name]
            keys = fact[name]
            dim = dataset.tables[fk.dim_table]
            for denorm, dim_col in fk.attribute_map:
                columns[denorm] = dim[dim_col][keys]
        else:
            columns[name] = fact[name]
    base_name = fact.name[: -len("_fact")] if fact.name.endswith("_fact") else fact.name
    return Table(base_name, columns)


def save_star_spec(
    specs: Sequence[DimensionSpec], path: Union[str, Path]
) -> None:
    """Write a star-schema specification as JSON (§4.2's "user-given
    schema specification")."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([spec.to_dict() for spec in specs], handle, indent=2)
        handle.write("\n")


def load_star_spec(path: Union[str, Path]) -> Tuple[DimensionSpec, ...]:
    """Load a star-schema specification written by :func:`save_star_spec`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise DataGenerationError(
            f"star spec file {path!s} must contain a JSON list"
        )
    return tuple(DimensionSpec.from_dict(item) for item in data)


def _validate_specs(table: Table, specs: Sequence[DimensionSpec]) -> None:
    if not specs:
        raise DataGenerationError("normalization requires at least one DimensionSpec")
    seen_fact_columns = set()
    seen_denorm = set()
    for spec in specs:
        if not spec.attribute_map:
            raise DataGenerationError(
                f"dimension {spec.table!r} must map at least one attribute"
            )
        if spec.fact_column in table:
            raise DataGenerationError(
                f"FK column {spec.fact_column!r} already exists in {table.name!r}"
            )
        if spec.fact_column in seen_fact_columns:
            raise DataGenerationError(
                f"duplicate FK column {spec.fact_column!r} across specs"
            )
        seen_fact_columns.add(spec.fact_column)
        for denorm in spec.denorm_columns:
            if denorm not in table:
                raise DataGenerationError(
                    f"column {denorm!r} not present in table {table.name!r}"
                )
            if denorm in seen_denorm:
                raise DataGenerationError(
                    f"column {denorm!r} claimed by more than one dimension role"
                )
            seen_denorm.add(denorm)

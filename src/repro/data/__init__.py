"""Data substrate: columnar storage, seed data, copula scaling, star schemas.

This subpackage implements §4.2 of the paper:

* :mod:`repro.data.storage` — a small numpy-backed column store
  (:class:`Table`, :class:`Dataset`) with CSV round-trips. Every engine
  simulator executes against these structures.
* :mod:`repro.data.schema` — column kinds (quantitative vs. nominal) and
  star-schema specifications.
* :mod:`repro.data.seed` — the synthetic U.S.-domestic-flights seed dataset
  standing in for the BTS data the paper uses (docs/architecture.md,
  "Simulated engines", gives the substitution rationale).
* :mod:`repro.data.stats` — empirical CDFs, normal scores and covariance
  utilities shared by the scaler.
* :mod:`repro.data.generator` — the Gaussian-copula (NORTA) data scaler:
  Cholesky on the covariance of normal scores, exactly the §4.2 recipe.
* :mod:`repro.data.normalize` — vertical partitioning of a de-normalized
  table into a star schema (one fact plus dimension tables) and back.
"""

from repro.data.generator import CopulaScaler, scale_dataset
from repro.data.normalize import (
    DimensionSpec,
    FLIGHTS_STAR_SPEC,
    denormalize,
    load_star_spec,
    normalize,
    save_star_spec,
)
from repro.data.schema import ColumnKind, ColumnProfile, profile_table
from repro.data.seed import FLIGHTS_COLUMNS, generate_flights_seed
from repro.data.storage import Dataset, ForeignKey, Table

__all__ = [
    "ColumnKind",
    "ColumnProfile",
    "CopulaScaler",
    "Dataset",
    "DimensionSpec",
    "FLIGHTS_COLUMNS",
    "FLIGHTS_STAR_SPEC",
    "ForeignKey",
    "Table",
    "denormalize",
    "generate_flights_seed",
    "load_star_spec",
    "normalize",
    "profile_table",
    "save_star_spec",
    "scale_dataset",
]

"""Byte pins of the §4.2 data build: scaled tables and their profiles.

Each digest was taken from the tree before the context build learned to
sort a column once, rank integer keys with a radix sort, count nominal
categories and generate column-major. Any of those that moved a single
byte of a generated column, a category's width, a quantile's last bit or
a standard deviation changes one of these SHA-256 values.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.experiments import SEED_ROWS
from repro.data.generator import CopulaScaler
from repro.data.schema import profile_table
from repro.data.seed import generate_flights_seed

#: (seed, rows) → (table digest, profiles digest).
PINS = {
    (5, 1_000): (
        "b3a81482fb02d7652cf52dabcb65cece7275fab76ddd546f81699962d72d8a2e",
        "b6ea905813ad5627348c6dffae5338033693a6f540b3a55d0e22014a39d819a5",
    ),
    (5, 160_000): (
        "5459b3203eab5693135d2c655ac4deb0c3b53eb1e7952d58224e156985e9bad2",
        "2ce6be0f0a1bf3ffa451a8c006f9bac187cb7664fe5a7074f779b8a9c158ec16",
    ),
    (42, 1_000): (
        "e7f05c13ee836b3d913222a6f522248d8bf972cc0bbf5233d64a5afbb1d598ae",
        "2aa75fbf7bd9a9225e5f5caa03fa900d20a960a83b0ec5fa9fe30bca15707bd0",
    ),
    (42, 160_000): (
        "9835a12ca6946def58e555594f8c976769d66bc4fe0f55c71ca0c38ac3b82b09",
        "223fa4803a4062019a8be29f5823eed7efe051fbe7709f19b3f0db0fe9bc3257",
    ),
}


def table_digest(table) -> str:
    """SHA-256 over every column's name, dtype and bytes, in column order,
    taken of the logical columns: integers widened to ``int64`` and
    nominal columns decoded to their ``<U`` strings, the form these pins
    were frozen from (tables now store both narrow)."""
    digest = hashlib.sha256()
    for name in table.column_names:
        column = table[name]
        if column.dtype.kind == "i":
            column = column.astype(np.int64)
        digest.update(f"{name}:{column.dtype.str}:{len(column)}|".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def profiles_digest(profiles) -> str:
    """SHA-256 over every profile field; float ``repr`` round-trips."""
    text = repr([
        (p.name, p.kind.value, p.minimum, p.maximum, p.std, p.categories,
         p.quantiles)
        for p in profiles.values()
    ])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=(5, 42))
def scaler(request):
    seed = request.param
    return seed, CopulaScaler.fit(generate_flights_seed(SEED_ROWS, seed=seed), seed_value=seed)


@pytest.mark.parametrize("rows", (1_000, 160_000))
def test_generated_table_and_profiles_keep_their_bytes(scaler, rows):
    seed, fitted = scaler
    table = fitted.generate(rows, stream="S")
    assert (table_digest(table), profiles_digest(profile_table(table))) == PINS[
        (seed, rows)
    ]

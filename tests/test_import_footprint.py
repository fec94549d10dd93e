"""Cold-start and footprint guards (docs/architecture.md, "Cold start
and footprint").

Deterministic stand-ins for the two end-to-end metrics no unit test can
time — ``setup_s`` and ``peak_rss_mb`` of ``BENCHMARK.json``: what a
fresh process imports, what it still holds after many set-ups, and which
arrays a :class:`Table` copies. No clock and no RSS threshold is read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.storage import Categorical, Table

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs in a fresh interpreter: this process has long imported
#: ``scipy.stats`` (the tests may; ``src/`` may not) and holds whatever
#: tables other modules' fixtures built.
PROBE = """
import gc, json, sys
import repro.cli, repro.server, repro.net, repro.runtime
from repro.bench.experiments import SEED_ROWS, ExperimentContext, _shared_scaler
from repro.common.config import BenchmarkSettings, DataSize
from repro.data.storage import Table

size = DataSize.S
for seed in range(100, 112):
    ctx = ExperimentContext(
        BenchmarkSettings(data_size=size, scale=1_000_000, seed=seed)
    )
    ctx.dataset(size)
    ctx.profiles(size)
    ctx.oracle(size)
gc.collect()
hits = _shared_scaler.cache_info().hits
ExperimentContext(BenchmarkSettings(data_size=size, scale=1_000_000, seed=seed)).scaler
print(json.dumps({
    "repeated_seed_hits": _shared_scaler.cache_info().hits - hits,
    "scipy_stats_imported": "scipy.stats" in sys.modules,
    "seed_tables_alive": sum(
        1 for o in gc.get_objects()
        if isinstance(o, Table) and o.num_rows == SEED_ROWS
    ),
    "scalers_memoized": _shared_scaler.cache_info().currsize,
}))
"""


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_set_up_never_imports_scipy_stats(probe):
    """CLI, server, net and runtime imported, a context built through
    dataset / profiles / oracle: ``scipy.special`` is all of scipy used."""
    assert probe["scipy_stats_imported"] is False


def test_twelve_set_ups_retain_no_seed_table(probe):
    """Only the fitted scaler outlives a set-up (the last one alone); the
    60 000-row table it was fitted on is gone with the fit."""
    assert probe["seed_tables_alive"] == 0
    assert probe["scalers_memoized"] <= 1


def test_a_repeated_seed_reuses_its_scaler(probe):
    """A context of the seed just set up fits nothing again."""
    assert probe["repeated_seed_hits"] == 1


@pytest.mark.parametrize(
    "column",
    [
        np.arange(5, dtype=np.int8),
        np.array([-(2**40), 2**40]),
        np.linspace(0.0, 1.0, 5),
    ],
    ids=["int8", "int64", "float64"],
)
def test_table_adopts_a_column_that_has_its_stored_dtype(column):
    stored = Table("t", {"a": column})["a"]
    assert np.shares_memory(stored, column)
    assert not stored.flags.writeable  # the table cannot write through


def test_table_adopts_an_encoded_column():
    encoded = Categorical(np.array(["a", "bcd"], dtype="<U3"), np.array([1, 0], dtype=np.int8))
    stored = Table("t", {"a": encoded}).categorical("a")
    for mine, given in zip(stored, encoded):
        assert np.shares_memory(mine, given) and not mine.flags.writeable


@pytest.mark.parametrize(
    "column, dtype",
    [
        (np.arange(5, dtype=np.int32), np.int8),
        (np.array([True, False, True]), np.int8),
        (np.array(["a", "bcd", 5], dtype=object), "<U3"),
    ],
    ids=["int32", "bool", "object"],
)
def test_table_still_converts_other_dtypes(column, dtype):
    stored = Table("t", {"a": column})["a"]
    assert stored.dtype == dtype
    assert not np.shares_memory(stored, column)
    assert np.array_equal(stored, column.astype(dtype))

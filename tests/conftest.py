"""Shared fixtures for the test suite.

Fixture sizing: test datasets are a few thousand rows — big enough for
statistical assertions (sampling estimators, copula marginals) yet small
enough that the full suite runs in well under a minute. Session scope is
used for anything immutable (tables, datasets, profiles); engines and
clocks are function-scoped because they are stateful.
"""

from __future__ import annotations

import collections
import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.common.clock import VirtualClock
from repro.common.config import BenchmarkSettings, DataSize
from repro.data.schema import profile_table
from repro.data.seed import generate_flights_seed
from repro.data.storage import Dataset
from repro.engines.kernel_cache import clear_kernel_cache
from repro.query import kernels
from repro.query.groundtruth import GroundTruthOracle
from repro.query.model import (
    AggFunc,
    Aggregate,
    AggQuery,
    BinDimension,
    BinKind,
)

import reference_kernels


@pytest.fixture(scope="session")
def flights_table():
    """A 6 000-row synthetic flights table (shared, treat as immutable)."""
    return generate_flights_seed(6_000, seed=11)


@pytest.fixture(scope="session")
def flights_dataset(flights_table):
    return Dataset.from_table(flights_table)


@pytest.fixture(scope="session")
def flights_profiles(flights_table):
    return profile_table(flights_table)


@pytest.fixture(scope="session")
def flights_oracle(flights_dataset):
    return GroundTruthOracle(flights_dataset)


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture(scope="session")
def tiny_settings():
    """Settings mapping the paper's S size onto ~6 000 actual rows.

    ``scale`` is chosen so engines process row counts comparable to the
    session fixtures' tables; individual tests override fields via
    ``tiny_settings.with_(...)`` (the dataclass is frozen, so sharing is
    safe).
    """
    return BenchmarkSettings(
        data_size=DataSize.S,
        scale=100_000_000 // 6_000,
        seed=11,
        workflows_per_type=2,
    )


@pytest.fixture(scope="session")
def carrier_count_query():
    """1-D nominal COUNT histogram over carriers."""
    return AggQuery(
        table="flights",
        bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )


@pytest.fixture(scope="session")
def delay_avg_query():
    """1-D quantitative AVG histogram over departure delays."""
    return AggQuery(
        table="flights",
        bins=(BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=20.0),),
        aggregates=(Aggregate(AggFunc.AVG, "ARR_DELAY"),),
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)


@contextlib.contextmanager
def _fallback_kernels():
    entries = collections.Counter()

    def fold(kernel, rows, exact=False):
        entries["fold"] += 1
        return reference_kernels.compute_grouped_stats(
            kernel._dataset, kernel.query, rows
        )

    def evaluate_strata(kernel, rows, stratum_of_row, num_strata):
        entries["evaluate_strata"] += 1
        rows = kernels._positions(rows)
        return reference_kernels.grid_from_stats(
            kernel.query,
            [fold(kernel, rows[stratum_of_row == h]) for h in range(num_strata)],
        )

    def poll(run, n):
        entries["poll"] += 1
        run._n = n = min(n, run._rows)
        return run._kernel.evaluate(run._slice(0, n))

    clear_kernel_cache()
    try:
        with contextlib.ExitStack() as patches:
            for owner, name, replacement in (
                (kernels.CompiledQueryKernel, "_fold", fold),
                (kernels.CompiledQueryKernel, "evaluate_strata", evaluate_strata),
                (kernels.PrefixKernelRun, "poll", poll),
            ):
                patches.enter_context(mock.patch.object(owner, name, replacement))
            yield entries
    finally:
        clear_kernel_cache()


@pytest.fixture
def fallback_kernels():
    """The differential reference, as a context manager.

    Inside ``with fallback_kernels() as entries:`` every kernel still
    compiles and passes through the cache (lookups and counters
    included), but its folds run the sort-based reference of
    ``reference_kernels.py``: ``evaluate`` and ``exact_stats`` call
    ``compute_grouped_stats``, ``evaluate_strata`` lays one such call per
    stratum on a grid, and ``PrefixKernelRun.poll`` re-evaluates the
    whole prefix. ``entries`` counts the calls by entry point. The kernel
    cache is cleared on entry and on exit — kernels memoize their exact
    answers — so neither side answers from the other's kernels. A test
    runs the same drive on both sides and demands equal bytes.
    """
    return _fallback_kernels


@pytest.fixture(scope="session")
def server_ctx():
    """Shared ExperimentContext for every session-server test module.

    One seed-table + copula-fit + scaled-table + oracle construction per
    test session instead of one per module: the server, churn, policy,
    and golden-report suites all run the same (S, scale=50 000, seed=5,
    TR=1 s) configuration, and contexts only hand out immutable shared
    state (engines are built per test). ~2 000 actual rows — large
    enough for non-trivial metrics, fast enough for tier 1.
    """
    from repro.bench.experiments import ExperimentContext

    settings = BenchmarkSettings(
        data_size=DataSize.S,
        scale=50_000,
        seed=5,
        time_requirement=1.0,
    )
    return ExperimentContext(settings)

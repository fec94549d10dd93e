"""Shared fixtures for the test suite.

Fixture sizing: test datasets are a few thousand rows — big enough for
statistical assertions (sampling estimators, copula marginals) yet small
enough that the full suite runs in well under a minute. Session scope is
used for anything immutable (tables, datasets, profiles); engines and
clocks are function-scoped because they are stateful.
"""

from __future__ import annotations

import contextlib

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
    def overflow(*_args):
        raise kernels._PackingOverflow

    def forget_compiled():
        kernels._PARTS.clear()
        clear_kernel_cache()

    forget_compiled()
    compiled, kernels._build_groups = kernels._build_groups, overflow
    try:
        yield
    finally:
        kernels._build_groups = compiled
        forget_compiled()


@pytest.fixture
def fallback_kernels():
    """The differential reference, as a context manager.

    Inside ``with fallback_kernels():`` every kernel compiles in fallback
    mode — its grouping "overflows", so ``evaluate``, ``evaluate_strata``
    and ``PrefixKernelRun.poll`` all run the uncompiled, sort-based
    ``compute_grouped_stats`` behind the unchanged kernel interface
    (cache lookups and counters included). Whatever was compiled before
    is forgotten on entry, and the fallback kernels on exit, so neither
    side answers from the other's cache. A test runs the same drive on
    both sides and demands equal bytes.
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

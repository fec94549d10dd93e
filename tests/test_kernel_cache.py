"""Kernel-cache semantics: LRU order, counters, value keys, isolation.

The process-wide :class:`~repro.engines.kernel_cache.KernelCache` must be
deterministic infrastructure: keys that print identically across
interpreter hash seeds, (dataset content fingerprint, query value) keys
that never let one spelling of a query answer differently from another,
strict LRU eviction, hit/miss/eviction counters mirrored into the ``obs``
metrics snapshot only while observability is on, and no leakage between
datasets whose content fingerprints differ.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.driver import SessionDriver
from repro.bench.report import DetailedReport
from repro.common.clock import VirtualClock
from repro.common.errors import BenchmarkError, QueryError
from repro.data.storage import Dataset, Table
from repro.engines.columnstore import ColumnStoreEngine
from repro.engines.kernel_cache import (
    DEFAULT_KERNEL_CACHE_CAPACITY,
    KernelCache,
    _env_capacity,
    clear_kernel_cache,
    configure_kernel_cache,
    get_kernel,
    kernel_cache,
)
from repro.obs import get_metrics, get_tracer, observed
from repro.query import kernels
from repro.query.filters import Comparison, RangePredicate
from repro.query.groundtruth import GroundTruthOracle, query_cache_key
from repro.query.kernels import CompiledQueryKernel
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.workflow.spec import (
    CreateViz,
    SetFilter,
    VizSpec,
    Workflow,
    WorkflowType,
)

from reference_kernels import compute_grouped_stats


def _toy_dataset(name="toy", values=(1.0, 2.0, 3.0, 4.0)):
    table = Table(
        name,
        {
            "group": np.array(["a", "b", "a", "b"]),
            "value": np.array(values, dtype=np.float64),
        },
    )
    return Dataset.from_table(table)


def _query(table="toy", field="value", func=AggFunc.SUM):
    return AggQuery(
        table=table,
        bins=(BinDimension("group", BinKind.NOMINAL),),
        aggregates=(Aggregate(func, None if func is AggFunc.COUNT else field),),
    )


class TestLRUSemantics:
    def test_hit_returns_same_object_and_counts(self):
        cache = KernelCache(capacity=4)
        dataset = _toy_dataset()
        query = _query()
        first = cache.get(dataset, query)
        second = cache.get(dataset, query)
        assert first is second
        assert cache.stats() == {
            "capacity": 4,
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }

    def test_eviction_order_is_least_recently_used(self):
        cache = KernelCache(capacity=2)
        dataset = _toy_dataset()
        q_sum = _query(func=AggFunc.SUM)
        q_avg = _query(func=AggFunc.AVG)
        q_cnt = _query(func=AggFunc.COUNT)

        k_sum = cache.get(dataset, q_sum)
        cache.get(dataset, q_avg)
        # Touch SUM so AVG becomes the least recently used entry...
        assert cache.get(dataset, q_sum) is k_sum
        # ...then overflow: AVG must be the one evicted, SUM survives.
        cache.get(dataset, q_cnt)
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2
        assert cache.get(dataset, q_sum) is k_sum  # hit, not recompiled
        assert cache.stats()["misses"] == 3  # sum, avg, cnt
        cache.get(dataset, q_avg)  # evicted above, so this recompiles
        assert cache.stats()["misses"] == 4

    def test_peek_neither_compiles_counts_nor_reorders(self):
        cache = KernelCache(capacity=2)
        dataset = _toy_dataset()
        q_sum = _query(func=AggFunc.SUM)
        q_avg = _query(func=AggFunc.AVG)
        assert cache.peek(dataset, q_sum) is None
        k_sum = cache.get(dataset, q_sum)
        cache.get(dataset, q_avg)
        assert cache.peek(dataset, q_sum) is k_sum
        assert (cache.hits, cache.misses, len(cache)) == (0, 2, 2)
        # SUM stays the least recently used entry: the overflow evicts it.
        cache.get(dataset, _query(func=AggFunc.COUNT))
        assert cache.peek(dataset, q_sum) is None
        assert cache.peek(dataset, q_avg) is not None

    def test_clear_resets_entries_and_counters(self):
        cache = KernelCache(capacity=2)
        dataset = _toy_dataset()
        cache.get(dataset, _query())
        cache.get(dataset, _query())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "capacity": 2,
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(BenchmarkError):
            KernelCache(capacity=0)


class TestMetricsCounters:
    def _counter_values(self):
        snapshot = get_metrics().snapshot()
        return {
            entry["name"]: entry["value"]
            for entry in snapshot["metrics"]
            if entry["name"].startswith("repro_kernel_cache_")
        }

    def test_counters_published_while_observed(self):
        cache = KernelCache(capacity=1)
        dataset = _toy_dataset()
        with observed(enabled=True):
            assert get_tracer().enabled
            cache.get(dataset, _query(func=AggFunc.SUM))  # miss
            cache.get(dataset, _query(func=AggFunc.SUM))  # hit
            cache.get(dataset, _query(func=AggFunc.AVG))  # miss + eviction
            values = self._counter_values()
        assert values == {
            "repro_kernel_cache_hits_total": 1,
            "repro_kernel_cache_misses_total": 2,
            "repro_kernel_cache_evictions_total": 1,
        }

    def test_counters_silent_when_observability_disabled(self):
        cache = KernelCache(capacity=1)
        dataset = _toy_dataset()
        assert not get_tracer().enabled
        cache.get(dataset, _query())
        cache.get(dataset, _query())
        assert self._counter_values() == {}
        # Plain attributes still count regardless.
        assert cache.hits == 1 and cache.misses == 1

    def test_compile_lands_in_its_stage(self):
        dataset = _toy_dataset()
        with observed(enabled=True):
            cache = KernelCache(capacity=1)
            cache.get(dataset, _query())
            cache.get(dataset, _query())
            text = get_metrics().render_prometheus()
        # One compile (the miss); the hit compiles nothing.
        assert 'repro_stage_entries_total{stage="compile"} 1' in text


class TestPortableKeys:
    def test_key_is_content_fingerprint_and_query_value(self):
        dataset = _toy_dataset()
        query = _query()
        key = KernelCache.key_for(dataset, query)
        assert key == (dataset.fingerprint(), query)
        # The dataset part is its 32-hex content digest, never id()-derived.
        assert len(key[0]) == 32 and int(key[0], 16) >= 0
        # Equal values key equally, whatever objects spell them...
        assert KernelCache.key_for(_toy_dataset(), _query()) == key
        # ...and the key still isolates datasets whose bytes differ.
        other = _toy_dataset(values=(1.0, 2.0, 3.0, 5.0))
        assert KernelCache.key_for(other, query) != key

    def test_key_identical_across_hash_seeds(self):
        # hash() is salted per process; digest keys must not be. Mirror of
        # the PR 1 query_cache_key regression, at the cache layer.
        program = (
            "import numpy as np\n"
            "from repro.data.storage import Dataset, Table\n"
            "from repro.engines.kernel_cache import KernelCache\n"
            "from repro.query.model import AggFunc, Aggregate, AggQuery, "
            "BinDimension, BinKind\n"
            "from repro.query.filters import SetPredicate\n"
            "table = Table('toy', {'group': np.array(['a', 'b', 'a', 'b']),"
            " 'value': np.array([1.0, 2.0, 3.0, 4.0])})\n"
            "query = AggQuery('toy', bins=(BinDimension('group', BinKind.NOMINAL),),"
            " aggregates=(Aggregate(AggFunc.SUM, 'value'),),"
            " filter=SetPredicate('group', frozenset(['b', 'a'])))\n"
            "print(KernelCache.key_for(Dataset.from_table(table), query))\n"
        )
        keys = []
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            keys.append(
                subprocess.run(
                    [sys.executable, "-c", program],
                    capture_output=True,
                    text=True,
                    check=True,
                    env=env,
                    cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                ).stdout.strip()
            )
        assert keys[0] == keys[1] == keys[2]


def _spelled(width, reference, low, high):
    """A query whose numbers can be spelled int or float, +0.0 or -0.0."""
    return AggQuery(
        table="toy",
        bins=(
            BinDimension(
                "value", BinKind.QUANTITATIVE, width=width, reference=reference
            ),
        ),
        aggregates=(Aggregate(AggFunc.SUM, "value"),),
        filter=RangePredicate("value", low, high),
    )


def _nan_query():
    """A query whose filter compares against NaN."""
    return AggQuery(
        table="toy",
        bins=(BinDimension("group", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.SUM, "value"),),
        filter=Comparison("value", "!=", float("nan")),
    )


def _stats_bytes(stats):
    """What an exact answer reads of ``stats``, as comparable bytes."""
    return (
        stats.keys,
        stats.counts.tobytes(),
        *(
            {j: row.tobytes() for j, row in getattr(stats, name).items()}
            for name in ("sums", "mins", "maxs")
        ),
    )


class TestValueIdentity:
    """Where value identity (the key) and digest identity (the store key)
    part ways, and why neither changes an answer."""

    def test_int_float_and_signed_zero_spellings_share_a_kernel(self):
        cache = KernelCache(capacity=4)
        dataset = _toy_dataset()
        ints = _spelled(2, 0, 1, 4)
        floats = _spelled(2.0, -0.0, 1.0, 4.0)
        assert ints == floats and hash(ints) == hash(floats)
        assert query_cache_key(ints) != query_cache_key(floats)
        kernel = cache.get(dataset, ints)
        assert cache.get(dataset, floats) is kernel
        assert (cache.misses, cache.hits) == (1, 1)
        # The shared kernel is byte for byte what the other spelling
        # computes on its own, uncompiled.
        assert _stats_bytes(kernel.exact_stats()) == _stats_bytes(
            compute_grouped_stats(dataset, floats)
        )

    def test_nan_bearing_query_cannot_be_built(self):
        # Two builds of it would be unequal by value (NaN != NaN) yet equal
        # by digest, and take one kernel each; the filter rejects the NaN.
        with pytest.raises(QueryError, match="non-finite"):
            _nan_query()

    def test_spellings_give_byte_identical_records(
        self, flights_dataset, tiny_settings
    ):
        def workflow(width, reference, low, high):
            viz = VizSpec(
                "v", "flights",
                (BinDimension(
                    "DEP_DELAY", BinKind.QUANTITATIVE,
                    width=width, reference=reference,
                ),),
                (Aggregate(AggFunc.AVG, "ARR_DELAY"),),
            )
            return Workflow(
                name="spelled",
                workflow_type=WorkflowType.CUSTOM,
                interactions=(
                    CreateViz(viz),
                    SetFilter("v", RangePredicate("DISTANCE", low, high)),
                ),
            )

        def run(spelled, oracle):
            engine = ColumnStoreEngine(flights_dataset, tiny_settings, VirtualClock())
            engine.prepare()
            records = SessionDriver(engine, oracle, tiny_settings, [spelled]).run()
            buffer = io.StringIO()
            DetailedReport(records).to_csv(buffer)
            return buffer.getvalue()

        def forget_compiled():
            kernels._PARTS.clear()
            clear_kernel_cache()

        ints = workflow(20, 0, 100, 2000)
        floats = workflow(20.0, -0.0, 100.0, 2000.0)
        forget_compiled()
        oracle = GroundTruthOracle(flights_dataset)
        first = run(ints, oracle)
        compiled = (kernel_cache().misses, oracle.misses)
        # The blocking engine computed both answers on their kernels
        # before the oracle asked, so the oracle computed none itself.
        assert compiled == (2, 0)
        # The other spelling compiles nothing and computes no answer...
        assert run(floats, oracle) == first
        assert (kernel_cache().misses, oracle.misses) == compiled
        # ...and is what it would have produced alone, from scratch.
        forget_compiled()
        assert run(floats, GroundTruthOracle(flights_dataset)) == first


class TestDatasetIsolation:
    def test_same_query_different_data_distinct_kernels(self):
        cache = KernelCache(capacity=8)
        a = _toy_dataset(values=(1.0, 2.0, 3.0, 4.0))
        b = _toy_dataset(values=(1.0, 2.0, 3.0, 5.0))  # one cell differs
        assert a.fingerprint() != b.fingerprint()
        query = _query()
        kernel_a = cache.get(a, query)
        kernel_b = cache.get(b, query)
        assert kernel_a is not kernel_b
        assert cache.stats()["misses"] == 2
        # Answers reflect each dataset's own rows, not a shared entry.
        assert kernel_a.evaluate(None).sums[0][1] != kernel_b.evaluate(None).sums[0][1]

    def test_identical_content_shares_a_kernel(self):
        cache = KernelCache(capacity=8)
        a = _toy_dataset()
        b = _toy_dataset()  # distinct object, identical bytes
        assert a.fingerprint() == b.fingerprint()
        assert cache.get(a, _query()) is cache.get(b, _query())
        assert cache.stats()["hits"] == 1


class TestProcessWideToggles:
    def test_fallback_kernels_pass_through_the_cache(self, fallback_kernels):
        dataset = _toy_dataset()
        query = _query()
        compiled = get_kernel(dataset, query)
        with fallback_kernels() as entries:
            assert kernel_cache().stats()["entries"] == 0
            kernel = get_kernel(dataset, query)
            assert isinstance(kernel, CompiledQueryKernel)
            assert kernel is not compiled
            assert get_kernel(dataset, query) is kernel
            stats = kernel_cache().stats()
            assert (stats["misses"], stats["hits"]) == (1, 1)
            assert kernel.evaluate(None).sums[0].tolist() == [4.0, 6.0]
            assert entries["fold"] == 1
        assert kernel_cache().stats()["entries"] == 0
        get_kernel(dataset, query).evaluate(None)
        assert entries["fold"] == 1  # folds compile again

    def test_configure_replaces_process_cache(self):
        original = kernel_cache()
        try:
            replaced = configure_kernel_cache(3)
            assert kernel_cache() is replaced
            assert replaced.capacity == 3
            clear_kernel_cache()
            assert len(kernel_cache()) == 0
        finally:
            configure_kernel_cache(original.capacity)

    def test_env_capacity_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_SIZE", "not-a-number")
        with pytest.raises(BenchmarkError):
            _env_capacity()
        monkeypatch.setenv("REPRO_KERNEL_CACHE_SIZE", "0")
        with pytest.raises(BenchmarkError):
            _env_capacity()
        monkeypatch.setenv("REPRO_KERNEL_CACHE_SIZE", "12")
        assert _env_capacity() == 12
        monkeypatch.delenv("REPRO_KERNEL_CACHE_SIZE")
        assert _env_capacity() == DEFAULT_KERNEL_CACHE_CAPACITY

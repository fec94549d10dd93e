"""Tests for exact evaluation and the grouped-statistics kernel."""

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.data.storage import Dataset, Table
from repro.engines.kernel_cache import (
    clear_kernel_cache,
    configure_kernel_cache,
    get_kernel,
    kernel_cache,
)
from repro.query.filters import Comparison, RangePredicate, SetPredicate
from repro.query.groundtruth import GroundTruthOracle, evaluate_exact, query_cache_key
from repro.query.kernels import CompiledQueryKernel
from repro.query.model import (
    AggFunc,
    Aggregate,
    AggQuery,
    BinDimension,
    BinKind,
)


@pytest.fixture(scope="module")
def toy_dataset():
    table = Table(
        "toy",
        {
            "group": np.array(["a", "a", "b", "b", "b", "c"]),
            "value": np.array([10.0, 20.0, 1.0, 2.0, 3.0, 100.0]),
            "weight": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
        },
    )
    return Dataset.from_table(table)


def _query(aggregates, filter_expr=None, bins=None):
    return AggQuery(
        "toy",
        bins=bins or (BinDimension("group", BinKind.NOMINAL),),
        aggregates=aggregates,
        filter=filter_expr,
    )


class TestEvaluateExact:
    def test_count(self, toy_dataset):
        result = evaluate_exact(toy_dataset, _query((Aggregate(AggFunc.COUNT),)))
        assert result.values == {("a",): (2.0,), ("b",): (3.0,), ("c",): (1.0,)}
        assert result.exact
        assert result.fraction == 1.0

    def test_sum(self, toy_dataset):
        result = evaluate_exact(
            toy_dataset, _query((Aggregate(AggFunc.SUM, "value"),))
        )
        assert result.values[("a",)] == (30.0,)
        assert result.values[("b",)] == (6.0,)

    def test_avg(self, toy_dataset):
        result = evaluate_exact(
            toy_dataset, _query((Aggregate(AggFunc.AVG, "value"),))
        )
        assert result.values[("a",)] == (15.0,)
        assert result.values[("b",)] == (2.0,)

    def test_min_max(self, toy_dataset):
        result = evaluate_exact(
            toy_dataset,
            _query((Aggregate(AggFunc.MIN, "value"), Aggregate(AggFunc.MAX, "value"))),
        )
        assert result.values[("b",)] == (1.0, 3.0)

    def test_multiple_aggregates_ordered(self, toy_dataset):
        result = evaluate_exact(
            toy_dataset,
            _query((Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "value"))),
        )
        assert result.values[("a",)] == (2.0, 15.0)

    def test_filter_applies_before_grouping(self, toy_dataset):
        result = evaluate_exact(
            toy_dataset,
            _query(
                (Aggregate(AggFunc.COUNT),),
                filter_expr=RangePredicate("value", 2.0, 50.0),
            ),
        )
        assert result.values == {("a",): (2.0,), ("b",): (2.0,)}

    def test_empty_filter_result(self, toy_dataset):
        result = evaluate_exact(
            toy_dataset,
            _query(
                (Aggregate(AggFunc.COUNT),),
                filter_expr=SetPredicate("group", frozenset(["zzz"])),
            ),
        )
        assert result.values == {}
        assert result.num_bins == 0

    def test_quantitative_binning(self, toy_dataset):
        query = _query(
            (Aggregate(AggFunc.COUNT),),
            bins=(BinDimension("value", BinKind.QUANTITATIVE, width=10.0),),
        )
        result = evaluate_exact(toy_dataset, query)
        assert result.values[(0,)] == (3.0,)   # 1.0, 2.0, 3.0
        assert result.values[(1,)] == (1.0,)   # 10.0
        assert result.values[(2,)] == (1.0,)   # 20.0
        assert result.values[(10,)] == (1.0,)  # 100.0

    def test_unresolved_query_rejected(self, toy_dataset):
        query = _query(
            (Aggregate(AggFunc.COUNT),),
            bins=(BinDimension("value", BinKind.QUANTITATIVE, bin_count=3),),
        )
        with pytest.raises(QueryError):
            evaluate_exact(toy_dataset, query)


def _kernel_stats(dataset, query, row_indices=None):
    """Grouped statistics as library code gets them: from a compiled kernel."""
    return CompiledQueryKernel(dataset, query).evaluate(row_indices)


class TestGroupedStatsOnSubset:
    def test_subset_stats(self, toy_dataset):
        stats = _kernel_stats(
            toy_dataset,
            _query((Aggregate(AggFunc.SUM, "value"),)),
            row_indices=np.array([0, 2, 3]),
        )
        keys = dict(zip([k[0] for k in stats.keys], range(stats.num_groups)))
        assert stats.counts[keys["a"]] == 1
        assert stats.counts[keys["b"]] == 2
        assert stats.sums[0][keys["b"]] == pytest.approx(3.0)
        assert stats.rows_scanned == 3

    def test_sumsq_and_extrema(self, toy_dataset):
        # Each aggregate carries only the moments its function reads.
        stats = _kernel_stats(
            toy_dataset,
            _query(
                (
                    Aggregate(AggFunc.AVG, "value"),
                    Aggregate(AggFunc.MIN, "value"),
                    Aggregate(AggFunc.MAX, "value"),
                )
            ),
        )
        keys = {k[0]: g for g, k in enumerate(stats.keys)}
        b = keys["b"]
        assert stats.sumsqs[0][b] == pytest.approx(1.0 + 4.0 + 9.0)
        assert stats.mins[1][b] == 1.0
        assert stats.maxs[2][b] == 3.0
        assert list(stats.sums) == list(stats.sumsqs) == [0]
        assert list(stats.mins) == [1] and list(stats.maxs) == [2]

    def test_count_aggregate_has_no_moment_arrays(self, toy_dataset):
        stats = _kernel_stats(
            toy_dataset, _query((Aggregate(AggFunc.COUNT),))
        )
        assert stats.sums == {}

    def test_empty_subset(self, toy_dataset):
        stats = _kernel_stats(
            toy_dataset,
            _query((Aggregate(AggFunc.COUNT),)),
            row_indices=np.array([], dtype=np.int64),
        )
        assert stats.num_groups == 0
        assert stats.rows_aggregated == 0


class TestAgainstNumpyReference:
    """Cross-check the kernel against a brute-force reference on real data."""

    def test_matches_brute_force(self, flights_dataset, flights_table):
        query = AggQuery(
            "flights",
            bins=(
                BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=25.0),
                BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),
            ),
            aggregates=(Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "DISTANCE")),
            filter=RangePredicate("AIR_TIME", 30, 200),
        )
        result = evaluate_exact(flights_dataset, query)

        mask = (flights_table["AIR_TIME"] >= 30) & (flights_table["AIR_TIME"] < 200)
        delays = flights_table["DEP_DELAY"][mask]
        carriers = flights_table["UNIQUE_CARRIER"][mask]
        distances = flights_table["DISTANCE"][mask]
        expected = {}
        for delay, carrier, distance in zip(delays, carriers, distances):
            key = (int(np.floor(delay / 25.0)), str(carrier))
            count, total = expected.get(key, (0, 0.0))
            expected[key] = (count + 1, total + float(distance))
        assert set(result.values) == set(expected)
        for key, (count, total) in expected.items():
            got_count, got_avg = result.values[key]
            assert got_count == count
            assert got_avg == pytest.approx(total / count)


@pytest.fixture
def fresh_process():
    """Answers live on the process-wide kernel cache: an oracle modelling
    a fresh process or worker starts from an empty one."""
    clear_kernel_cache()


@pytest.mark.usefixtures("fresh_process")
class TestOracle:
    def test_caches_answers(self, toy_dataset):
        oracle = GroundTruthOracle(toy_dataset)
        query = _query((Aggregate(AggFunc.COUNT),))
        first = oracle.answer(query)
        second = oracle.answer(query)
        assert first is second
        assert oracle.hits == 1
        assert oracle.misses == 1

    def test_structurally_equal_queries_share_cache(self, toy_dataset):
        oracle = GroundTruthOracle(toy_dataset)
        oracle.answer(_query((Aggregate(AggFunc.COUNT),)))
        oracle.answer(_query((Aggregate(AggFunc.COUNT),)))
        assert oracle.hits == 1

    def test_clear(self, toy_dataset):
        oracle = GroundTruthOracle(toy_dataset)
        answer = oracle.answer(_query((Aggregate(AggFunc.COUNT),)))
        oracle.clear()
        assert oracle.hits == 0 and oracle.misses == 0
        # clear() resets the counters only; the answer stays on its kernel...
        assert oracle.answer(_query((Aggregate(AggFunc.COUNT),))) is answer
        assert (oracle.hits, oracle.misses) == (1, 0)
        # ...until clearing the kernel cache drops it.
        clear_kernel_cache()
        assert oracle.answer(_query((Aggregate(AggFunc.COUNT),))) is not answer
        assert oracle.misses == 1

    def test_answers_are_bounded_by_the_kernel_cache(self, toy_dataset):
        """The oracle holds no answer of its own: one whose kernel was
        evicted is computed again, and looking answers up neither counts
        as a kernel hit nor moves the kernel in the LRU order."""
        capacity = kernel_cache().capacity
        configure_kernel_cache(1)
        try:
            oracle = GroundTruthOracle(toy_dataset)
            count = _query((Aggregate(AggFunc.COUNT),))
            first = oracle.answer(count)
            assert oracle.answer(count) is first
            assert kernel_cache().stats()["hits"] == 0
            oracle.answer(_query((Aggregate(AggFunc.SUM, "value"),)))
            assert kernel_cache().stats()["evictions"] == 1
            again = oracle.answer(count)
            assert again is not first and again == first
            assert (oracle.hits, oracle.misses) == (1, 3)
        finally:
            configure_kernel_cache(capacity)

    def test_int_float_and_signed_zero_spellings_share_an_answer(
        self, toy_dataset
    ):
        def spelled(width, reference, low, high):
            return _query(
                (Aggregate(AggFunc.SUM, "value"),),
                filter_expr=RangePredicate("value", low, high),
                bins=(BinDimension(
                    "value", BinKind.QUANTITATIVE,
                    width=width, reference=reference,
                ),),
            )

        ints, floats = spelled(10, 0, 1, 50), spelled(10.0, -0.0, 1.0, 50.0)
        assert query_cache_key(ints) != query_cache_key(floats)
        oracle = GroundTruthOracle(toy_dataset)
        answer = oracle.answer(ints)
        assert oracle.answer(floats) is answer
        assert (oracle.misses, oracle.hits) == (1, 1)
        clear_kernel_cache()
        alone = GroundTruthOracle(toy_dataset).answer(floats)
        assert alone.values == answer.values == {
            (0,): (6.0,), (1,): (10.0,), (2,): (20.0,),
        }

    def test_nan_bearing_query_cannot_be_built(self):
        # Two builds of it would be unequal by value (NaN != NaN) yet equal
        # by digest, and miss the oracle's memo; the filter rejects the NaN.
        with pytest.raises(QueryError, match="non-finite"):
            _query(
                (Aggregate(AggFunc.SUM, "value"),),
                filter_expr=Comparison("value", "!=", float("nan")),
            )


class TestPortableCacheKeys:
    def test_structurally_equal_queries_key_identically(self):
        a = _query(
            (Aggregate(AggFunc.COUNT),),
            filter_expr=SetPredicate("group", frozenset(["a", "b", "c"])),
        )
        b = _query(
            (Aggregate(AggFunc.COUNT),),
            filter_expr=SetPredicate("group", frozenset(["c", "b", "a"])),
        )
        assert query_cache_key(a) == query_cache_key(b)

    def test_key_is_a_portable_string(self):
        key = query_cache_key(_query((Aggregate(AggFunc.COUNT),)))
        assert isinstance(key, str)
        assert len(key) == 64  # full sha256 hex: safe as a file/store key
        int(key, 16)  # hex digits only

    def test_key_identical_in_a_fresh_process(self):
        # hash(query) is salted per process; the cache key must not be.
        import subprocess
        import sys

        key = query_cache_key(
            _query(
                (Aggregate(AggFunc.COUNT),),
                filter_expr=SetPredicate("group", frozenset(["a", "b"])),
            )
        )
        program = (
            "from repro.query.groundtruth import query_cache_key\n"
            "from repro.query.model import AggFunc, Aggregate, AggQuery, "
            "BinDimension, BinKind\n"
            "from repro.query.filters import SetPredicate\n"
            "q = AggQuery('toy', bins=(BinDimension('group', BinKind.NOMINAL),),"
            " aggregates=(Aggregate(AggFunc.COUNT),),"
            " filter=SetPredicate('group', frozenset(['b', 'a'])))\n"
            "print(query_cache_key(q))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == key

    def test_different_queries_key_differently(self):
        a = _query((Aggregate(AggFunc.COUNT),))
        b = _query((Aggregate(AggFunc.SUM, "value"),))
        assert query_cache_key(a) != query_cache_key(b)

    def test_key_is_digested_once_per_query_object(self, monkeypatch):
        """However often a frozen query's store key is asked for, only
        the first call serializes."""
        import dataclasses
        import pickle

        from repro.common.fingerprint import stable_digest
        from repro.query import model

        calls = []
        monkeypatch.setattr(
            model, "stable_digest",
            lambda *a, **kw: calls.append(a) or stable_digest(*a, **kw),
        )
        query = _query((Aggregate(AggFunc.SUM, "value"),))
        fresh = _query((Aggregate(AggFunc.SUM, "value"),))
        plain_pickle = pickle.dumps(query)
        key = query_cache_key(query)
        assert query_cache_key(query) == key == stable_digest(
            query.to_dict(), length=None
        )
        assert len(calls) == 1
        # The memo is invisible to the dataclass machinery and to pickles.
        assert query == fresh and hash(query) == hash(fresh)
        assert pickle.dumps(query) == plain_pickle
        assert pickle.loads(plain_pickle) == query
        assert "digest" not in repr(query)
        other = dataclasses.replace(
            query, aggregates=(Aggregate(AggFunc.COUNT),)
        )
        assert query_cache_key(other) == query_cache_key(
            _query((Aggregate(AggFunc.COUNT),))
        ) != key
        with pytest.raises(dataclasses.FrozenInstanceError):
            query.table = "other"

    def test_set_predicate_repr_is_canonical(self):
        predicate = SetPredicate("group", frozenset(["b", "a", "c"]))
        assert repr(predicate) == (
            "SetPredicate(field='group', values=['a', 'b', 'c'])"
        )


class TestDigestOnlyAtTheStore:
    """In-memory caches key on query values: a run digests no query
    without a store, and at most once per distinct query with one (the
    store key, after an in-memory miss). The stored run models a fresh
    worker, so it starts from an empty kernel cache."""

    @pytest.fixture
    def digests(self, monkeypatch):
        from repro.common.fingerprint import stable_digest
        from repro.query import model

        calls = []
        monkeypatch.setattr(
            model, "stable_digest",
            lambda *a, **kw: calls.append(a) or stable_digest(*a, **kw),
        )
        return calls

    @pytest.fixture
    def answered(self, monkeypatch):
        queries = set()
        answer = GroundTruthOracle.answer
        monkeypatch.setattr(
            GroundTruthOracle, "answer",
            lambda oracle, query: queries.add(query) or answer(oracle, query),
        )
        return queries

    @staticmethod
    def _serve(ctx):
        from repro.server import SessionManager

        results = SessionManager.for_engine(ctx, "idea-sim", 2, per_session=1).run()
        assert sum(result.num_queries for result in results) > 0

    @staticmethod
    def _matrix(settings, store=None):
        from repro.common.config import DataSize
        from repro.runtime import MatrixExecutor, plan_matrix

        # The progressive engine runs first, so the oracle computes the
        # answers: a blocking engine first would leave them on their
        # kernels, and the oracle would never reach the store.
        specs = plan_matrix(
            settings, ("idea-sim", "monetdb-sim"), (0.5, 3.0), (DataSize.S,), per_type=1
        )
        results = MatrixExecutor(jobs=1, store=store).run(specs)
        assert all(result.records for result in results)

    def test_serving_run(self, server_ctx, tmp_path, digests, answered):
        from repro.bench.experiments import ExperimentContext
        from repro.runtime import ArtifactStore

        self._serve(server_ctx)
        assert digests == [] and answered
        answered.clear()
        clear_kernel_cache()
        stored = ExperimentContext(
            server_ctx.settings, store=ArtifactStore(tmp_path / "cache")
        )
        self._serve(stored)
        assert 0 < len(digests) <= len(answered)

    def test_matrix_run(self, server_ctx, tmp_path, digests, answered):
        from repro.runtime import ArtifactStore

        settings = server_ctx.settings.with_(workflows_per_type=1)
        self._matrix(settings)
        assert digests == [] and answered
        answered.clear()
        clear_kernel_cache()
        self._matrix(settings, ArtifactStore(tmp_path / "cache"))
        assert 0 < len(digests) <= len(answered)


@pytest.mark.usefixtures("fresh_process")
class TestOracleStoreBacking:
    def test_answers_shared_through_store(self, toy_dataset, tmp_path, monkeypatch):
        from repro.runtime.store import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        query = _query((Aggregate(AggFunc.COUNT),))
        first = GroundTruthOracle(toy_dataset, store=store)
        first.answer(query)
        assert first.misses == 1

        # A second oracle (fresh in-memory cache, e.g. another worker)
        # must load the persisted answer instead of recomputing.
        clear_kernel_cache()
        second = GroundTruthOracle(toy_dataset, store=store)
        import repro.query.groundtruth as groundtruth_module

        def boom(dataset, q):
            raise AssertionError("recomputed a persisted ground truth")

        monkeypatch.setattr(groundtruth_module, "evaluate_exact", boom)
        result = second.answer(query)
        assert result.values == {("a",): (2.0,), ("b",): (3.0,), ("c",): (1.0,)}
        assert second.store_hits == 1 and second.misses == 0

    def test_a_stored_answer_moves_onto_its_resident_kernel(
        self, toy_dataset, tmp_path
    ):
        from repro.runtime.store import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        query = _query((Aggregate(AggFunc.COUNT),))
        GroundTruthOracle(toy_dataset, store=store).answer(query)
        clear_kernel_cache()
        kernel = get_kernel(toy_dataset, query)  # compiled by an engine
        oracle = GroundTruthOracle(toy_dataset, store=store)
        answer = oracle.answer(query)
        assert kernel.exact_answer is answer
        # Asked again, it is read from the kernel, not from disk.
        assert oracle.answer(query) is answer
        assert (store.hits, oracle.store_hits, oracle.hits) == (1, 1, 2)

    def test_store_is_keyed_by_query_cache_key(self, toy_dataset, tmp_path):
        from repro.runtime.store import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        ints = _query(
            (Aggregate(AggFunc.COUNT),), filter_expr=RangePredicate("value", 1, 50)
        )
        floats = _query(
            (Aggregate(AggFunc.COUNT),),
            filter_expr=RangePredicate("value", 1.0, 50.0),
        )
        oracle = GroundTruthOracle(toy_dataset, store=store)
        answer = oracle.answer(ints)
        assert oracle.answer(floats) is answer  # in memory: value identity
        assert (store.misses, store.puts) == (1, 1)
        stored = store.get(
            ("ground-truth", toy_dataset.fingerprint(), query_cache_key(ints))
        )
        assert stored == answer
        # On disk the digest is the identity: the float spelling has its
        # own key, so a fresh oracle misses the store and recomputes it.
        clear_kernel_cache()
        fresh = GroundTruthOracle(toy_dataset, store=store)
        assert fresh.answer(floats).values == answer.values
        assert (fresh.store_hits, fresh.misses) == (0, 1)
        assert store.contains(
            ("ground-truth", toy_dataset.fingerprint(), query_cache_key(floats))
        )

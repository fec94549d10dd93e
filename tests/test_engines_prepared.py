"""Offline samples are drawn once per dataset; System X answers once per sample.

An engine's §5.2 preparation — the prefix engines' whole-table
permutation, System X's stratified sample — is pure in the dataset, the
seed and the engine's configuration, so ``Engine._prepared_sample`` keeps one
read-only draw per live dataset and key, shared by every engine that asks.
System X's answer is pure in that sample, the query and the confidence
level, so it is memoized on the query's compiled kernel, beside the exact
answer. This suite pins that the sharing is real, the shared bytes equal
an unmemoized build, every input gets its own entry, entries die with
their dataset or kernel, and no kernel-cache counter moves.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.clock import VirtualClock
from repro.common.config import BenchmarkSettings, DataSize
from repro.common.rng import derive_rng
from repro.data.seed import generate_flights_seed
from repro.data.storage import Dataset
from repro.engines import base as base_module
from repro.engines.kernel_cache import (
    clear_kernel_cache,
    configure_kernel_cache,
    kernel_cache,
)
from repro.engines.onlineagg import OnlineAggEngine
from repro.engines.progressive import ProgressiveEngine
from repro.engines.sampling import StratifiedSamplingEngine
from repro.runtime import MatrixExecutor, plan_matrix

TABLE = generate_flights_seed(3_000, seed=17)


@pytest.fixture
def dataset():
    return Dataset.from_table(TABLE)


def _prepared(cls, dataset, settings, **kwargs):
    engine = cls(dataset, settings, VirtualClock(), **kwargs)
    engine.prepare()
    return engine


def _shared_arrays(engine):
    if isinstance(engine, StratifiedSamplingEngine):
        return [engine._sample_index, engine._stratum_of_row] + [
            indices for indices, _ in engine._strata
        ]
    return [engine._permutation]


def _answer_at(engine, query):
    handle = engine.submit(query)
    engine.clock.advance_to(60.0)
    engine.advance_to(60.0)
    return engine.result_at(handle, 60.0)


class OtherSampler(StratifiedSamplingEngine):
    name = "other-sampler-sim"


ENGINES = [ProgressiveEngine, OnlineAggEngine, StratifiedSamplingEngine]


class TestSharing:
    @pytest.mark.parametrize("cls", ENGINES)
    def test_same_configuration_shares_one_array(self, cls, dataset, tiny_settings):
        first = _prepared(cls, dataset, tiny_settings)
        second = _prepared(cls, dataset, tiny_settings.with_(time_requirement=3.0))
        for mine, theirs in zip(_shared_arrays(first), _shared_arrays(second)):
            assert mine is theirs
        if cls is StratifiedSamplingEngine:
            assert first._strata is second._strata

    @pytest.mark.parametrize("cls", ENGINES)
    def test_every_shared_array_is_read_only(self, cls, dataset, tiny_settings):
        arrays = _shared_arrays(_prepared(cls, dataset, tiny_settings))
        assert len(arrays) >= 1
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]

    @pytest.mark.parametrize("cls", [ProgressiveEngine, OnlineAggEngine])
    def test_permutation_equals_a_fresh_draw(self, cls, dataset, tiny_settings):
        engine = _prepared(cls, dataset, tiny_settings)
        fresh = derive_rng(tiny_settings.seed, engine.name, "shuffle").permutation(
            dataset.num_fact_rows
        )
        assert engine._permutation.tobytes() == fresh.tobytes()
        assert engine._permutation.dtype == fresh.dtype

    @pytest.mark.parametrize("stratify", [True, False])
    def test_stratified_sample_equals_a_fresh_build(
        self, stratify, dataset, tiny_settings
    ):
        engine = _prepared(
            StratifiedSamplingEngine, dataset, tiny_settings, stratify=stratify
        )
        index, stratum_of_row, strata, rows = engine._draw_sample()
        assert index is not engine._sample_index
        assert engine._sample_index.tobytes() == index.tobytes()
        assert engine._stratum_of_row.tobytes() == stratum_of_row.tobytes()
        assert engine._sample_rows == rows == len(index)
        assert len(engine._strata) == len(strata)
        for (mine, weight), (fresh, fresh_weight) in zip(engine._strata, strata):
            assert mine.tobytes() == fresh.tobytes()
            assert weight == fresh_weight

    @pytest.mark.parametrize(
        "first_cls, cls, settings_change, kwargs",
        [
            (ProgressiveEngine, ProgressiveEngine, {"seed": 12}, {}),
            (ProgressiveEngine, OnlineAggEngine, {}, {}),
            (StratifiedSamplingEngine, StratifiedSamplingEngine, {"seed": 12}, {}),
            (StratifiedSamplingEngine, OtherSampler, {}, {}),
            (StratifiedSamplingEngine, StratifiedSamplingEngine, {}, {"sampling_rate": 0.05}),
            (StratifiedSamplingEngine, StratifiedSamplingEngine, {}, {"stratify": False}),
        ],
    )
    def test_each_input_gets_its_own_entry(
        self, first_cls, cls, settings_change, kwargs, dataset, tiny_settings
    ):
        first = _prepared(first_cls, dataset, tiny_settings)
        other = _prepared(cls, dataset, tiny_settings.with_(**settings_change), **kwargs)
        assert len(base_module._SAMPLES[dataset]) == 2
        mine, theirs = _shared_arrays(first)[0], _shared_arrays(other)[0]
        assert mine.tobytes() != theirs.tobytes()

    def test_entry_dies_with_its_dataset(self, tiny_settings):
        dataset = Dataset.from_table(TABLE)
        probes = [
            weakref.ref(array)
            for cls in ENGINES
            for array in _shared_arrays(_prepared(cls, dataset, tiny_settings))
        ]
        # The registry alone holds the samples once their engines are gone.
        assert all(probe() is not None for probe in probes)
        del dataset
        gc.collect()
        assert all(probe() is None for probe in probes)

    def test_a_build_that_raises_leaves_nothing(self, dataset, tiny_settings):
        def broken():
            raise RuntimeError("draw failed")

        engine = StratifiedSamplingEngine(dataset, tiny_settings, VirtualClock())
        with pytest.raises(RuntimeError):
            engine._prepared_sample(("broken",), broken)
        assert ("broken",) not in base_module._SAMPLES[dataset]
        assert engine._prepared_sample(("broken",), lambda: "built") == "built"

        engine._draw_sample = broken
        with pytest.raises(RuntimeError):
            engine.prepare()
        assert engine._sample_key not in base_module._SAMPLES[dataset]
        assert _prepared(StratifiedSamplingEngine, dataset, tiny_settings)._sample_rows


class TestSystemXAnswerMemo:
    def test_time_requirements_share_one_answer(
        self, dataset, tiny_settings, delay_avg_query
    ):
        answers = [
            _answer_at(
                _prepared(
                    StratifiedSamplingEngine,
                    dataset,
                    tiny_settings.with_(time_requirement=tr),
                ),
                delay_avg_query,
            )
            for tr in (0.5, 3.0)
        ]
        assert answers[0] is not None
        assert answers[0] is answers[1]

    def test_answer_scored_at_every_tr_is_scored_once(
        self, dataset, tiny_settings, delay_avg_query, monkeypatch
    ):
        import pickle

        from repro.bench import metrics
        from repro.query.groundtruth import evaluate_exact

        scored = []

        def counting(answer, truth):
            scored.append(answer)
            return score(answer, truth)

        score = metrics._score
        monkeypatch.setattr(metrics, "_score", counting)
        clear_kernel_cache()  # no answer or truth scored by earlier tests
        truth = evaluate_exact(dataset, delay_avg_query)
        first, second = (
            metrics.compute_metrics(
                _answer_at(
                    _prepared(
                        StratifiedSamplingEngine,
                        dataset,
                        tiny_settings.with_(time_requirement=tr),
                    ),
                    delay_avg_query,
                ),
                truth,
            )
            for tr in (0.5, 3.0)
        )
        assert len(scored) == 1
        assert second == first and second is not first
        # Another truth object, even an equal one, is scored anew.
        answer = _answer_at(
            _prepared(StratifiedSamplingEngine, dataset, tiny_settings),
            delay_avg_query,
        )
        other = pickle.loads(pickle.dumps(truth))
        assert metrics.compute_metrics(answer, other) == first
        assert len(scored) == 2

    def test_confidence_level_gets_its_own_answer(
        self, dataset, tiny_settings, delay_avg_query
    ):
        def answer(level):
            settings = tiny_settings.with_(confidence_level=level)
            engine = _prepared(StratifiedSamplingEngine, dataset, settings)
            return _answer_at(engine, delay_avg_query)

        default, wider, again = answer(0.95), answer(0.99), answer(0.95)
        assert default is not wider
        assert default.columns.values[0].tobytes() == wider.columns.values[0].tobytes()
        assert default.columns.margins[0].tobytes() != wider.columns.margins[0].tobytes()
        # The slot held 0.99's answer; 0.95's is recomputed, bit for bit.
        assert again.columns.margins[0].tobytes() == default.columns.margins[0].tobytes()

    def test_answer_is_recomputed_bitwise_after_the_kernels_go(
        self, dataset, tiny_settings, carrier_count_query, delay_avg_query
    ):
        for query in (carrier_count_query, delay_avg_query):
            engine = _prepared(StratifiedSamplingEngine, dataset, tiny_settings)
            before = _answer_at(engine, query)
            clear_kernel_cache()
            engine = _prepared(StratifiedSamplingEngine, dataset, tiny_settings)
            after = _answer_at(engine, query)
            assert after is not before
            assert list(after.columns.keys) == list(before.columns.keys)
            for rows in ("values", "margins", "bounded"):
                for mine, theirs in zip(
                    getattr(after.columns, rows), getattr(before.columns, rows)
                ):
                    assert mine.tobytes() == theirs.tobytes()
            assert (after.rows_processed, after.fraction, after.exact) == (
                before.rows_processed,
                before.fraction,
                before.exact,
            )


@pytest.mark.parametrize(
    "capacity, pinned",
    [
        (256, {"hits": 116, "misses": 22, "evictions": 0}),
        (4, {"hits": 53, "misses": 96, "evictions": 92}),
    ],
)
def test_matrix_kernel_cache_counters_are_unchanged(capacity, pinned):
    """Each System X handle still looks its kernel up once: the counters of
    a small scripted matrix equal those pinned before either memo existed."""
    original = kernel_cache().capacity
    configure_kernel_cache(capacity)
    try:
        settings = BenchmarkSettings(
            data_size=DataSize.S, scale=50_000, workflows_per_type=1, seed=23
        )
        specs = plan_matrix(
            settings, ("system-x-sim", "idea-sim"), (0.5, 3.0), (DataSize.S,), per_type=2
        )
        MatrixExecutor(jobs=1).run(specs)
        stats = kernel_cache().stats()
    finally:
        configure_kernel_cache(original)
    assert {name: stats[name] for name in pinned} == pinned

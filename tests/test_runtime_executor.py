"""Tests for the parallel run-matrix executor (and the git revision
stamp, :func:`repro.runtime.current_revision`).

The matrices here are tiny (2 000 actual rows, 1 workflow per cell) so the
parallel paths — real ``ProcessPoolExecutor`` workers — stay fast.
"""

import pytest

from repro.bench.experiments import (
    DEFAULT_TIME_REQUIREMENTS,
    MAIN_ENGINES,
    ExperimentContext,
    exp_overall,
)
from repro.common.config import BenchmarkSettings, DataSize
from repro.common.errors import BenchmarkError
from repro.engines.kernel_cache import clear_kernel_cache, kernel_cache
from repro.runtime import (
    ArtifactStore,
    MatrixExecutor,
    RunSpec,
    current_revision,
    matrix_csv_text,
    plan_matrix,
    plan_prep_times,
    result_key,
)
from repro.runtime import executor as executor_module
from repro.runtime.report import FALLBACK_REVISION
from repro.workflow.graph import VizGraph
from repro.workflow.spec import Link


@pytest.fixture(scope="module")
def settings():
    # S mapped onto 2 000 actual rows: large enough for non-trivial cells,
    # small enough that pool workers regenerate it in well under a second.
    return BenchmarkSettings(
        data_size=DataSize.S, scale=50_000, workflows_per_type=1, seed=23
    )


@pytest.fixture(scope="module")
def specs(settings):
    return plan_matrix(
        settings, ("monetdb-sim", "idea-sim"), (0.5, 3.0), (DataSize.S,), per_type=1
    )


def _csv(results):
    return matrix_csv_text(results)


class TestSerialExecution:
    def test_results_align_with_plan_order(self, settings, specs):
        results = MatrixExecutor(jobs=1).run(specs)
        assert [r.spec for r in results] == list(specs)
        assert all(not r.from_cache for r in results)
        assert all(len(r.records) > 0 for r in results)

    def test_matches_exp_overall(self, settings, specs):
        results = MatrixExecutor(jobs=1).run(specs)
        ctx = ExperimentContext(settings)
        overall = exp_overall(
            ctx,
            engines=("monetdb-sim", "idea-sim"),
            time_requirements=(0.5, 3.0),
            workflows_per_type=1,
        )
        for result in results:
            spec = result.spec
            expected = overall.records[(spec.engine, spec.settings.time_requirement)]
            got = [r.metrics.missing_bins for r in result.records]
            want = [r.metrics.missing_bins for r in expected]
            assert got == want

    def test_prepare_mode(self, settings):
        results = MatrixExecutor(jobs=1).run(
            plan_prep_times(settings, ("monetdb-sim", "idea-sim"), DataSize.S)
        )
        assert all(r.prep is not None for r in results)
        assert all(r.records == [] for r in results)
        assert results[0].prep.seconds > 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(BenchmarkError):
            MatrixExecutor(jobs=0)


class TestParallelDeterminism:
    def test_parallel_bit_identical_to_serial(self, specs):
        serial = MatrixExecutor(jobs=1).run(specs)
        parallel = MatrixExecutor(jobs=2).run(specs)
        assert _csv(serial) == _csv(parallel)
        # Beyond the summary: every per-query detailed row matches
        # bit-for-bit (rows render NaN as "", sidestepping NaN != NaN).
        from repro.bench.report import DetailedReport

        for left, right in zip(serial, parallel):
            assert (
                DetailedReport(left.records).rows()
                == DetailedReport(right.records).rows()
            )

    def test_parallel_with_store_bit_identical(self, specs, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        serial = MatrixExecutor(jobs=1).run(specs)
        parallel = MatrixExecutor(jobs=2, store=store).run(specs)
        assert _csv(serial) == _csv(parallel)


class TestCachingAndResume:
    def test_second_run_restores_everything(self, specs, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        first = MatrixExecutor(jobs=1, store=store).run(specs)
        assert all(not r.from_cache for r in first)

        second = MatrixExecutor(jobs=1, store=ArtifactStore(tmp_path / "cache")).run(
            specs
        )
        assert all(r.from_cache for r in second)
        assert _csv(first) == _csv(second)

    def test_cold_store_digests_each_cell_once(self, specs, tmp_path, monkeypatch):
        # The restore lookup and the write-back share one result key.
        calls = []
        fingerprint = RunSpec.fingerprint

        def counting(spec):
            calls.append(spec)
            return fingerprint(spec)

        monkeypatch.setattr(RunSpec, "fingerprint", counting)
        results = MatrixExecutor(jobs=1, store=ArtifactStore(tmp_path / "cache")).run(
            specs
        )
        assert all(not r.from_cache for r in results)
        assert calls == list(specs)

    def test_cached_run_executes_nothing(self, specs, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        MatrixExecutor(jobs=1, store=store).run(specs)

        def boom(ctx, spec):
            raise AssertionError("cell executed despite cached result")

        monkeypatch.setattr(executor_module, "execute_cell", boom)
        restored = MatrixExecutor(jobs=1, store=store).run(specs)
        assert all(r.from_cache for r in restored)

    def test_force_reexecutes(self, specs, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        MatrixExecutor(jobs=1, store=store).run(specs)
        forced = MatrixExecutor(jobs=1, store=store, reuse_results=False).run(specs)
        assert all(not r.from_cache for r in forced)

    def test_resume_after_mid_matrix_crash(self, settings, specs, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        # Simulated crash: the third cell names an engine that does not
        # exist, so the run dies after two cells completed and persisted.
        crashing = list(specs[:2]) + [
            RunSpec(engine="no-such-engine", settings=settings)
        ]
        with pytest.raises(BenchmarkError):
            MatrixExecutor(jobs=1, store=store).run(crashing)
        assert store.get(result_key(specs[0])) is not None
        assert store.get(result_key(specs[1])) is not None

        # Resuming the *full* intended matrix restores the finished cells
        # and only executes the remainder.
        resumed = MatrixExecutor(jobs=1, store=store).run(specs)
        assert [r.from_cache for r in resumed] == [True, True, False, False]
        assert _csv(resumed) == _csv(MatrixExecutor(jobs=1).run(specs))

    def test_parallel_workers_persist_cells(self, specs, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        MatrixExecutor(jobs=2, store=store).run(specs)
        for spec in specs:
            assert store.get(result_key(spec)) is not None


class TestContextReuse:
    def test_local_context_is_reused(self, settings, specs):
        ctx = ExperimentContext(settings)
        executor = MatrixExecutor(jobs=1, local_context=ctx)
        executor.run(specs[:1])
        # The context's in-memory caches were warmed through the executor.
        assert ctx._tables  # noqa: SLF001 — asserting the cache side effect
        assert executor._contexts == {}

    def test_dropped_context_is_freed_without_a_cycle_collection(self, settings):
        import gc
        import weakref

        gc.disable()
        try:
            ctx = ExperimentContext(settings)
            alive = weakref.ref(ctx)
            del ctx
            assert alive() is None  # ctx.runtime must not point back strongly
        finally:
            gc.enable()

    def test_foreign_context_not_reused(self, settings, specs):
        other = ExperimentContext(settings.with_(seed=99))
        executor = MatrixExecutor(jobs=1, local_context=other)
        executor.run(specs[:1])
        assert len(executor._contexts) == 1


class TestServeCells:
    """Serving sweeps are ordinary cells: jobs, store and resume for free."""

    @pytest.fixture(scope="class")
    def serve_specs(self, settings):
        from repro.runtime import plan_adaptive, plan_sessions

        return plan_sessions(
            settings, ("idea-sim", "monetdb-sim"), (1, 2), per_session=1
        ) + plan_adaptive(
            settings, "idea-sim", ("scripted", "markov"), (2,),
            arrival_rate=0.2, horizon=40.0, residence=25.0, share_engine=True,
        )

    @staticmethod
    def _texts(results):
        from repro.server import ADAPTIVE_COLUMNS, BENCH_COLUMNS, serving_csv_text

        # plan_sessions' 2 engines x 2 counts x 2 modes come first.
        sessions, adaptive = results[:8], results[8:]
        return (
            serving_csv_text(sessions, BENCH_COLUMNS),
            serving_csv_text(adaptive, ADAPTIVE_COLUMNS),
        )

    def test_parallel_bit_identical_to_serial(self, serve_specs):
        serial = MatrixExecutor(jobs=1).run(serve_specs)
        parallel = MatrixExecutor(jobs=2).run(serve_specs)
        assert [r.spec for r in parallel] == serve_specs
        assert self._texts(parallel) == self._texts(serial)
        assert all(r.serving["num_queries"] > 0 for r in serial)

    def test_second_run_restores_every_cell(self, serve_specs, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        first = MatrixExecutor(jobs=1, store=store).run(serve_specs)
        second = MatrixExecutor(jobs=1, store=store).run(serve_specs)
        assert not any(r.from_cache for r in first)
        assert all(r.from_cache for r in second)
        assert self._texts(second) == self._texts(first)


class TestWarmGroundTruth:
    """What the parent answers before forking is exactly what the cells
    of one suite ask the oracle: every engine × TR cell over it then
    computes no exact answer of its own."""

    @pytest.fixture(scope="class")
    def cells(self, settings):
        return plan_matrix(
            settings, MAIN_ENGINES, DEFAULT_TIME_REQUIREMENTS, (DataSize.S,),
            per_type=1,
        )

    def test_warmed_cells_compute_no_new_exact_answer(self, settings, cells):
        clear_kernel_cache()
        ctx = ExperimentContext(settings)
        oracle = ctx.oracle(DataSize.S)
        executor_module.warm_ground_truth(ctx, cells[0])
        cache = kernel_cache()
        warmed = (cache.misses, oracle.misses)
        assert warmed[0] > 0 and warmed[1] > 0
        results = MatrixExecutor(jobs=1, local_context=ctx).run(cells)
        assert len(results) == len(MAIN_ENGINES) * len(DEFAULT_TIME_REQUIREMENTS)
        assert all(result.records for result in results)
        assert cache.evictions == 0  # the cache holds the whole suite
        assert (cache.misses, oracle.misses) == warmed

    def test_warmed_answers_equal_a_live_replay(self, settings, cells, monkeypatch):
        clear_kernel_cache()
        ctx = ExperimentContext(settings)
        oracle = ctx.oracle(DataSize.S)
        answered = []
        answer = oracle.answer
        monkeypatch.setattr(
            oracle, "answer", lambda query: answered.append((query, answer(query)))
        )
        executor_module.warm_ground_truth(ctx, cells[0])
        expected = []  # the shadow replay warming used to run
        for workflow in executor_module.select_workflows(ctx, cells[0]):
            graph = VizGraph()
            for interaction in workflow.interactions:
                applied = graph.apply(interaction)
                if isinstance(interaction, Link):
                    expected.append(graph.query_for(interaction.source))
                expected.extend(graph.query_for(name) for name in applied.affected)
        assert [query for query, _ in answered] == expected
        monkeypatch.undo()
        clear_kernel_cache()
        assert [result for _, result in answered] == [answer(q) for q in expected]


class TestCurrentRevision:
    def test_inside_this_repo_returns_short_hash(self):
        revision = current_revision()
        assert revision == FALLBACK_REVISION or (
            4 <= len(revision) <= 16 and revision.isalnum()
        )

    def test_outside_a_repo_falls_back(self, tmp_path):
        assert current_revision(tmp_path) == FALLBACK_REVISION

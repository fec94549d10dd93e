"""Tests for the parallel run-matrix executor.

The matrices here are tiny (2 000 actual rows, 1 workflow per cell) so the
parallel paths — real ``ProcessPoolExecutor`` workers — stay fast.
"""

import pytest

from repro.bench.experiments import ExperimentContext, exp_overall
from repro.common.config import BenchmarkSettings, DataSize
from repro.common.errors import BenchmarkError
from repro.runtime import (
    ArtifactStore,
    MatrixExecutor,
    RunSpec,
    matrix_csv_text,
    plan_overall,
    plan_prep_times,
    result_key,
)
from repro.runtime import executor as executor_module


@pytest.fixture(scope="module")
def settings():
    # S mapped onto 2 000 actual rows: large enough for non-trivial cells,
    # small enough that pool workers regenerate it in well under a second.
    return BenchmarkSettings(
        data_size=DataSize.S, scale=50_000, workflows_per_type=1, seed=23
    )


@pytest.fixture(scope="module")
def specs(settings):
    return plan_overall(
        settings, ("monetdb-sim", "idea-sim"), (0.5, 3.0), 1, DataSize.S
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

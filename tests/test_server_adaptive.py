"""Tests for adaptive serving and open-system churn (docs/server.md).

The acceptance properties of the adaptive layer:

* **replay anchor** — serving with ``policy="replay"`` routes every
  interaction through the policy machinery yet produces bytes identical
  to scripted serving;
* **adaptive determinism** — markov/uncertainty runs are a pure function
  of their configuration (byte-identical across invocations and pacing);
* **behavioral difference** — adaptive policies fire measurably
  different interaction mixes than replay;
* **open-system churn** — Poisson arrivals spawn sessions mid-run,
  departures abandon cleanly (no ghost engine load), and churned runs
  stay byte-deterministic.
"""

import pytest

from repro.common.errors import BenchmarkError
from repro.server import (
    ArrivalProcess,
    OpenSystemManager,
    SessionManager,
)
from repro.workflow.policy import interaction_mix, mix_distance


def _csvs(results):
    return [result.csv_text() for result in results]


class TestAdaptiveClosedSystem:
    def test_replay_policy_matches_scripted_serving(self, server_ctx):
        scripted = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1
        ).run()
        replayed = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, policy="replay"
        ).run()
        assert _csvs(scripted) == _csvs(replayed)

    @pytest.mark.parametrize("policy", ["markov", "uncertainty"])
    def test_adaptive_serving_is_deterministic(self, server_ctx, policy):
        def serve():
            return SessionManager.for_engine(
                server_ctx, "idea-sim", 2, per_session=1, policy=policy
            ).run()

        first, second = serve(), serve()
        assert _csvs(first) == _csvs(second)
        assert sum(result.num_queries for result in first) > 0

    def test_adaptive_pacing_is_byte_identical(self, server_ctx):
        paced = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, policy="markov",
            accel=1_000_000.0,
        ).run()
        unpaced = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, policy="markov"
        ).run()
        assert _csvs(paced) == _csvs(unpaced)

    def test_adaptive_mixes_differ_from_replay(self, server_ctx):
        def mix_for(policy):
            results = SessionManager.for_engine(
                server_ctx, "idea-sim", 2, per_session=1, policy=policy
            ).run()
            counts = {}
            for result in results:
                for kind, count in result.interaction_counts.items():
                    counts[kind] = counts.get(kind, 0) + count
            return interaction_mix(counts)

        replay = mix_for("replay")
        assert mix_distance(replay, mix_for("markov")) > 0.05
        assert mix_distance(replay, mix_for("uncertainty")) > 0.05

    def test_adaptive_sessions_differ_from_each_other(self, server_ctx):
        results = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1, policy="markov"
        ).run()
        texts = _csvs(results)
        assert len(set(texts)) == len(texts)  # per-session seeds diverge

    def test_shared_engine_adaptive_deterministic(self, server_ctx):
        def serve():
            return SessionManager.for_engine(
                server_ctx, "monetdb-sim", 3, per_session=1,
                policy="uncertainty", share_engine=True,
            ).run()

        assert _csvs(serve()) == _csvs(serve())

    def test_policy_count_must_match_specs(self, server_ctx):
        from repro.server import session_specs

        specs = session_specs(server_ctx, 2, per_session=1)
        oracle = server_ctx.oracle(server_ctx.settings.data_size)
        with pytest.raises(BenchmarkError):
            SessionManager(
                specs, oracle, server_ctx.settings,
                engines=[object(), object()], policies=[None],
            )


class TestArrivalProcess:
    def test_schedule_is_deterministic(self):
        def schedule():
            return ArrivalProcess(
                0.2, 50.0, seed=5, mean_residence=20.0, max_sessions=8
            ).schedule()

        assert schedule() == schedule()

    def test_schedule_respects_horizon_and_cap(self):
        arrivals = ArrivalProcess(5.0, 10.0, seed=5, max_sessions=6).schedule()
        assert len(arrivals) == 6
        assert all(a.arrival_time < 10.0 for a in arrivals)
        times = [a.arrival_time for a in arrivals]
        assert times == sorted(times)
        assert [a.index for a in arrivals] == list(range(6))

    def test_departures_follow_arrivals(self):
        arrivals = ArrivalProcess(
            1.0, 20.0, seed=5, mean_residence=5.0
        ).schedule()
        assert arrivals
        assert all(a.departure_time > a.arrival_time for a in arrivals)

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            ArrivalProcess(0.0, 10.0)
        with pytest.raises(BenchmarkError):
            ArrivalProcess(1.0, 0.0)
        with pytest.raises(BenchmarkError):
            ArrivalProcess(1.0, 10.0, mean_residence=0.0)
        with pytest.raises(BenchmarkError):
            ArrivalProcess(1.0, 10.0, max_sessions=0)


class TestOpenSystem:
    ARRIVALS = dict(rate=0.2, horizon=40.0)

    def _arrivals(self, server_ctx, residence=25.0):
        return ArrivalProcess(
            self.ARRIVALS["rate"],
            self.ARRIVALS["horizon"],
            seed=server_ctx.settings.seed,
            mean_residence=residence,
            max_sessions=4,
        )

    def _run(self, server_ctx, **kwargs):
        manager = OpenSystemManager.for_engine(
            server_ctx,
            kwargs.pop("engine", "idea-sim"),
            kwargs.pop("arrivals", self._arrivals(server_ctx)),
            **kwargs,
        )
        return manager, manager.run()

    @pytest.mark.parametrize("policy", [None, "replay", "markov"])
    def test_churned_runs_are_byte_deterministic(self, server_ctx, policy):
        _, first = self._run(server_ctx, policy=policy)
        _, second = self._run(server_ctx, policy=policy)
        assert _csvs(first) == _csvs(second)
        assert len(first) == 4

    def test_accel_does_not_change_bytes(self, server_ctx):
        _, paced = self._run(server_ctx, policy="markov", accel=1_000_000.0)
        _, unpaced = self._run(server_ctx, policy="markov")
        assert _csvs(paced) == _csvs(unpaced)

    def test_sessions_actually_depart(self, server_ctx):
        _, results = self._run(server_ctx, policy="markov")
        departed = [r for r in results if r.departed_at is not None]
        stayed = [r for r in results if r.departed_at is None]
        assert departed, "residence of 25s must churn some session out"
        assert stayed, "some session must run to completion"
        for result in departed:
            assert all(
                record.end_time <= result.departed_at
                for record in result.records
            )

    def test_sessions_arrive_mid_run(self, server_ctx):
        manager, results = self._run(
            server_ctx, policy="markov", trace_capture=True
        )
        arrival_marks = [t for t, sid in manager.trace if sid == "arrival"]
        step_marks = [t for t, sid in manager.trace if sid != "arrival"]
        assert len(arrival_marks) == len(results)
        # At least one session arrived after another had started stepping.
        assert any(t > min(step_marks) for t in arrival_marks)
        times = [t for t, _ in manager.trace]
        assert times == sorted(times)

    def test_shared_engine_departure_leaves_no_ghost_load(self, server_ctx):
        manager, results = self._run(
            server_ctx, policy="uncertainty", share_engine=True
        )
        engine = manager._shared_engine
        departed_ids = {
            r.session_id for r in results if r.departed_at is not None
        }
        assert departed_ids
        scheduler = engine.scheduler
        for task_id in scheduler.active_tasks():
            assert scheduler.task_group(task_id) not in departed_ids

    def test_shared_engine_churn_deterministic(self, server_ctx):
        _, first = self._run(
            server_ctx, policy="markov", share_engine=True,
            arrivals=self._arrivals(server_ctx),
        )
        _, second = self._run(
            server_ctx, policy="markov", share_engine=True,
            arrivals=self._arrivals(server_ctx),
        )
        assert _csvs(first) == _csvs(second)

    def test_single_shot(self, server_ctx):
        manager, _ = self._run(server_ctx, policy="markov")
        with pytest.raises(BenchmarkError):
            manager.run()

    def test_arriving_session_matches_closed_session_workload(self, server_ctx):
        """Arrival i and closed-system session i share seed and suite."""
        manager, results = self._run(
            server_ctx, policy=None, arrivals=ArrivalProcess(
                0.2, 40.0, seed=server_ctx.settings.seed, max_sessions=2
            )
        )
        from repro.server import session_specs

        closed = session_specs(server_ctx, 2, per_session=2)
        for result, spec in zip(results, closed):
            assert result.spec.seed == spec.seed
            assert [w.to_dict() for w in result.spec.workflows] == [
                w.to_dict() for w in spec.workflows
            ]


class TestAdaptiveBench:
    def test_cells_cache_byte_identically(self, server_ctx, tmp_path):
        from repro.runtime import ArtifactStore, MatrixExecutor, plan_adaptive
        from repro.server import ADAPTIVE_COLUMNS, serving_csv_text

        store = ArtifactStore(tmp_path / "cache")
        specs = plan_adaptive(
            server_ctx.settings, "idea-sim", ["replay", "markov"], [2],
            per_session=1, arrival_rate=0.2, horizon=40.0, residence=25.0,
        )

        def run():
            return MatrixExecutor(store=store, local_context=server_ctx).run(specs)

        first, second = run(), run()
        assert all(result.from_cache for result in second)
        assert serving_csv_text(first, ADAPTIVE_COLUMNS) == serving_csv_text(
            second, ADAPTIVE_COLUMNS
        )

    def test_unknown_churn_mode_rejected(self, server_ctx):
        from repro.runtime import plan_adaptive

        with pytest.raises(BenchmarkError, match="unknown churn mode"):
            plan_adaptive(
                server_ctx.settings, "idea-sim", ["replay"], [1],
                churn_modes=("sideways",),
            )

    def test_bad_arrival_params_rejected_before_any_cell(self, server_ctx):
        from repro.runtime import plan_adaptive

        with pytest.raises(BenchmarkError):
            plan_adaptive(
                server_ctx.settings, "idea-sim", ["replay"], [1],
                churn_modes=("open",), arrival_rate=0.0,
            )

"""Tests for run-spec identity, serialization and planning."""

from dataclasses import replace

import pytest

from repro.common.config import BenchmarkSettings, DataSize
from repro.common.errors import BenchmarkError, ConfigurationError
from repro.bench.experiments import (
    exp_overall,
    exp_schema,
    exp_system_y,
    exp_workflow_types,
)
from repro.common.fingerprint import canonical_json, stable_digest
from repro.runtime.planner import (
    plan_adaptive,
    plan_matrix,
    plan_prep_times,
    plan_sessions,
    plan_think_time,
)
from repro.runtime.spec import RunSpec, ServingSelector, WorkflowSelector


@pytest.fixture
def settings():
    return BenchmarkSettings(data_size=DataSize.S, scale=50_000, seed=7)


class TestFingerprintHelpers:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_sets_are_order_free(self):
        assert stable_digest(frozenset({"x", "y", "z"})) == stable_digest(
            frozenset({"z", "x", "y"})
        )

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_digest_is_a_golden_constant(self):
        # Regression guard: the digest must be identical in every process
        # (a salted hash would fail this in ~all interpreter invocations).
        assert stable_digest(["run", 1, 2.5]) == stable_digest(["run", 1, 2.5])
        assert stable_digest("idebench") == "8e62e1e349c27630"


class TestRunSpec:
    def test_round_trip(self, settings):
        spec = RunSpec(
            engine="idea-sim",
            settings=settings.with_(time_requirement=0.5),
            workflows=WorkflowSelector(workflow_type="sequential", count=3),
            speculation=True,
            label="x",
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_fingerprint_stable_and_label_free(self, settings):
        base = RunSpec(engine="idea-sim", settings=settings)
        relabeled = RunSpec(engine="idea-sim", settings=settings, label="other")
        assert base.fingerprint() == relabeled.fingerprint()
        assert base.cell_id == base.fingerprint()[:12]

    def test_fingerprint_separates_cells(self, settings):
        a = RunSpec(engine="idea-sim", settings=settings)
        b = RunSpec(engine="xdb-sim", settings=settings)
        c = RunSpec(
            engine="idea-sim", settings=settings.with_(time_requirement=9.0)
        )
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_cell_seed_depends_on_cell_not_order(self, settings):
        a = RunSpec(engine="idea-sim", settings=settings)
        b = RunSpec(engine="xdb-sim", settings=settings)
        assert a.cell_seed == RunSpec(engine="idea-sim", settings=settings).cell_seed
        assert a.cell_seed != b.cell_seed

    def test_invalid_mode_rejected(self, settings):
        with pytest.raises(ConfigurationError):
            RunSpec(engine="idea-sim", settings=settings, mode="nonsense")

    def test_invalid_selector_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkflowSelector(kind="nonsense")


class TestPlanners:
    def test_plan_matrix_order_matches_loops(self, settings):
        specs = plan_matrix(
            settings, ("monetdb-sim", "idea-sim"), (0.5, 3.0), (DataSize.S,), per_type=2
        )
        cells = [(s.engine, s.settings.time_requirement) for s in specs]
        assert cells == [
            ("monetdb-sim", 0.5),
            ("monetdb-sim", 3.0),
            ("idea-sim", 0.5),
            ("idea-sim", 3.0),
        ]

    def test_plan_matrix_cross_product(self, settings):
        specs = plan_matrix(
            settings,
            engines=("monetdb-sim",),
            time_requirements=(0.5, 1.0),
            sizes=(DataSize.S,),
            workflow_types=("mixed", "sequential"),
            per_type=2,
            schemas=("denormalized", "normalized"),
        )
        assert len(specs) == 1 * 1 * 2 * 2 * 2
        assert all(s.workflows.count == 2 for s in specs)
        normalized = [s for s in specs if s.normalized]
        assert len(normalized) == 4
        assert all(s.settings.use_joins for s in normalized)

    def test_plan_matrix_rejects_unknown_schema(self, settings):
        with pytest.raises(ConfigurationError):
            plan_matrix(settings, engines=("monetdb-sim",), schemas=("starry",))

    def test_plan_matrix_interleaves_layouts(self, settings):
        specs = plan_matrix(
            settings, ("monetdb-sim",), (3.0,), (DataSize.S,), per_type=2,
            schemas=("denormalized", "normalized"),
        )
        assert [s.normalized for s in specs] == [False, True]

    def test_plan_think_time_sets_speculation_selector(self, settings):
        specs = plan_think_time(settings, (1.0, 2.0), 3.0, DataSize.S, True)
        assert all(s.workflows.kind == "speculation" for s in specs)
        assert [s.settings.think_time for s in specs] == [1.0, 2.0]

    def test_plans_are_reproducible(self, settings):
        first = plan_matrix(settings, ("idea-sim",), (0.5,), per_type=2)
        second = plan_matrix(settings, ("idea-sim",), (0.5,), per_type=2)
        assert [s.fingerprint() for s in first] == [s.fingerprint() for s in second]


class TestFrozenFingerprints:
    """Suite and prepare cells key every user's run-matrix cache (and the
    perf ledger's ``sim_digest``): adding the serve mode must not move a
    single one. The values were generated before serve cells existed."""

    @pytest.fixture
    def pinned_settings(self):
        return BenchmarkSettings(
            data_size=DataSize.S, scale=50_000, seed=5, time_requirement=1.0
        )

    def test_suite_and_prepare_fingerprints_are_pinned(self, pinned_settings):
        s = pinned_settings
        overall = plan_matrix(s, ["idea-sim"], [3.0], [DataSize.S], per_type=2)[0]
        normalized = plan_matrix(
            s, ["monetdb-sim"], [1.0], [DataSize.S], per_type=2,
            schemas=("normalized",),
        )[0]
        speculation = plan_think_time(s, [2.0], 1.0, DataSize.S, True)[0]
        prepare = plan_prep_times(s, ["xdb-sim"], DataSize.S)[0]
        assert [
            cell.fingerprint()
            for cell in (overall, normalized, speculation, prepare)
        ] == [
            "2d58f3b29981c54bf75dff8af272db8ad40fbac6df9aabbb224a64ec384c010e",
            "1010819f4d79b7beecc9054a09bedaff2363355353b2f574dab7bbee3314bb72",
            "73eebb5614e4bb2fec77b5297cdb11e722bfd93335c769d05e29f6fba4a361e0",
            "dbc9e75ee014c7e6a0a784faeab293427ad0d87008fde90c1a5b3a775e177401",
        ]

    def test_serve_fingerprints_are_pinned(self, pinned_settings):
        # Serve cells key every cached bench-sessions / bench-adaptive
        # result; these values were generated before `repro serve` built
        # its managers through the executor's builder.
        s = pinned_settings
        closed = plan_sessions(s, ["idea-sim"], [2])[0]
        open_cell = plan_adaptive(
            s, "idea-sim", ["markov"], [2], churn_modes=("open",)
        )[0]
        assert [closed.fingerprint(), open_cell.fingerprint()] == [
            "9433535c014d6d8c65ae474770b45de24c0dc97767a57cafd818c8b70b8f9fcf",
            "cd61a914d4806b934093ad24f8f298d4881b27a277d6cd34f5d7e315829eccbb",
        ]

    @pytest.mark.parametrize("which, figure, cells, digest", [
        ("default", exp_overall, 20, "4c26eed7c6a25363"),
        ("default", exp_workflow_types, 16, "bbc56672a7aa94df"),
        ("default", exp_schema, 8, "88254a8b035b6ff3"),
        ("default", exp_system_y, 2, "1f31d0ce0928b72b"),
        ("pinned", exp_overall, 20, "7e034442027d338c"),
        ("pinned", exp_workflow_types, 16, "7ae6b8fa09b585ea"),
        ("pinned", exp_schema, 8, "ea0f59081512b1d1"),
        ("pinned", exp_system_y, 2, "16749b91421195cf"),
    ])
    def test_figure_cells_are_pinned(
        self, pinned_settings, which, figure, cells, digest
    ):
        """The cells each §5 figure plans by default, in plan order. The
        digests were taken from the per-figure planners these figures used
        before they planned through plan_matrix."""

        class Planned(Exception):
            pass

        class PlanOnly:
            settings = (
                pinned_settings if which == "pinned" else BenchmarkSettings()
            )

            def execute(self, specs):
                raise Planned(specs)

        with pytest.raises(Planned) as planned:
            figure(PlanOnly())
        (specs,) = planned.value.args
        assert len(specs) == cells
        assert stable_digest([spec.cell_id for spec in specs]) == digest

    def test_only_serve_cells_carry_a_serving_key(self, pinned_settings):
        overall = plan_matrix(pinned_settings, ["idea-sim"], [3.0], per_type=2)
        assert "serving" not in overall[0].to_dict()
        serve = plan_sessions(pinned_settings, ["idea-sim"], [2])[0]
        assert serve.to_dict()["serving"]["sessions"] == 2


class TestServeSpecs:
    def test_round_trip(self, settings):
        specs = plan_sessions(settings, ["idea-sim"], [1, 3]) + plan_adaptive(
            settings, "idea-sim", ["markov", "load-adaptive"], [2],
            arrival_rate=0.2, horizon=40.0, residence=None, share_engine=True,
        )
        for spec in specs:
            restored = RunSpec.from_dict(spec.to_dict())
            assert restored == spec
            assert restored.fingerprint() == spec.fingerprint()

    def test_arrival_schedule_round_trips(self, settings):
        selector = ServingSelector(
            3, churn="open", arrival_rate=0.2, horizon=40.0,
            arrival_schedule="diurnal",
        )
        assert ServingSelector.from_dict(selector.to_dict()) == selector
        assert selector.arrivals(seed=5).rate_schedule is not None
        spec = RunSpec(
            engine="idea-sim", settings=settings, mode="serve",
            serving=selector,
        )
        restored = RunSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()
        # Left out when unset, so schedule-free cells keep their keys.
        flat = replace(selector, arrival_schedule=None)
        assert "arrival_schedule" not in flat.to_dict()
        assert replace(spec, serving=flat).fingerprint() != spec.fingerprint()

    def test_plan_sessions_order_and_shape(self, settings):
        specs = plan_sessions(
            settings, ["idea-sim", "monetdb-sim"], [1, 3], per_session=2,
            workflow_type="sequential",
        )
        assert [
            (s.engine, s.serving.sessions, s.serving.share_engine)
            for s in specs
        ] == [
            ("idea-sim", 1, False), ("idea-sim", 1, True),
            ("idea-sim", 3, False), ("idea-sim", 3, True),
            ("monetdb-sim", 1, False), ("monetdb-sim", 1, True),
            ("monetdb-sim", 3, False), ("monetdb-sim", 3, True),
        ]
        assert {s.mode for s in specs} == {"serve"}
        assert {(s.workflows.workflow_type, s.workflows.count) for s in specs} == {
            ("sequential", 2)
        }

    def test_closed_cell_fingerprints_ignore_arrival_params(self, settings):
        def fingerprints(rate, horizon, residence):
            return [
                spec.fingerprint()
                for spec in plan_adaptive(
                    settings, "idea-sim", ["replay"], [2],
                    arrival_rate=rate, horizon=horizon, residence=residence,
                )
            ]

        # Closed cells never consult the arrival process: tuning it must
        # not invalidate their cached results.
        closed_a, open_a = fingerprints(0.1, 60.0, 30.0)
        closed_b, open_b = fingerprints(0.5, 99.0, None)
        assert closed_a == closed_b
        assert open_a != open_b

    def test_serving_selector_goes_with_serve_mode(self, settings):
        with pytest.raises(ConfigurationError):
            RunSpec(engine="idea-sim", settings=settings, mode="serve")
        with pytest.raises(ConfigurationError):
            RunSpec(
                engine="idea-sim", settings=settings,
                serving=ServingSelector(sessions=1),
            )

    @pytest.mark.parametrize("kwargs", [
        dict(sessions=0),
        dict(sessions=-2),
        dict(sessions=1, churn="sideways"),
        dict(sessions=1, churn="open"),
        dict(sessions=1, churn="open", arrival_rate=0.0, horizon=40.0),
        dict(sessions=1, churn="open", arrival_rate=0.2, horizon=-1.0),
        dict(sessions=1, churn="open", arrival_rate=0.2, horizon=40.0,
             residence=0.0),
        dict(sessions=1, policy="telepathy"),
        dict(sessions=1, churn="closed", horizon=40.0),
    ])
    def test_bad_serving_selectors_rejected(self, kwargs):
        with pytest.raises(BenchmarkError):
            ServingSelector(**kwargs)

    def test_cells_differing_only_in_tr_run_under_their_own_settings(
        self, server_ctx
    ):
        """A shared context must not leak its TR into a serve cell."""
        from repro.runtime import MatrixExecutor
        from repro.server import BENCH_COLUMNS, serving_csv_text

        cells = [
            plan_sessions(
                server_ctx.settings.with_(time_requirement=tr),
                ["idea-sim"], [2], per_session=1, modes=("shared",),
            )[0]
            for tr in (1.0, 0.2)
        ]
        together = MatrixExecutor(local_context=server_ctx).run(cells)
        alone = [MatrixExecutor().run([cell])[0] for cell in cells]
        texts = [serving_csv_text([r], BENCH_COLUMNS) for r in together]
        assert texts == [serving_csv_text([r], BENCH_COLUMNS) for r in alone]
        assert texts[0] != texts[1]

    def test_planners_validate_before_returning_any_cell(self, settings):
        with pytest.raises(ConfigurationError, match="serving mode"):
            plan_sessions(settings, ["idea-sim"], [1], modes=("sideways",))
        with pytest.raises(ConfigurationError, match=">= 1 session"):
            plan_sessions(settings, ["idea-sim"], [2, 0])
        with pytest.raises(ConfigurationError, match="selector count"):
            plan_sessions(settings, ["idea-sim"], [1], per_session=0)
        with pytest.raises(ConfigurationError, match="unknown policies"):
            plan_adaptive(settings, "idea-sim", ["telepathy"], [1])
        with pytest.raises(ConfigurationError, match=">= 1 session"):
            plan_adaptive(settings, "idea-sim", ["markov"], [2, 0])

"""Non-stationary arrival tests: RateSchedule and thinned ArrivalProcess."""

import math

import pytest

from repro.common.errors import BenchmarkError
from repro.server import ArrivalProcess, RateSchedule


class TestRateSchedule:
    def test_piecewise_lookup(self):
        schedule = RateSchedule([(0.0, 0.1), (10.0, 0.5), (20.0, 0.2)])
        assert schedule.rate_at(0.0) == 0.1
        assert schedule.rate_at(9.999) == 0.1
        assert schedule.rate_at(10.0) == 0.5
        assert schedule.rate_at(15.0) == 0.5
        assert schedule.rate_at(1e9) == 0.2
        assert schedule.max_rate == 0.5

    def test_periodic_wraps(self):
        schedule = RateSchedule([(0.0, 1.0), (5.0, 2.0)], period=10.0)
        assert schedule.rate_at(0.0) == 1.0
        assert schedule.rate_at(7.0) == 2.0
        assert schedule.rate_at(12.0) == 1.0  # 12 % 10 = 2
        assert schedule.rate_at(17.0) == 2.0

    def test_diurnal_peaks_and_troughs(self):
        schedule = RateSchedule.diurnal(1.0, amplitude=0.8, period=24.0)
        quarter = schedule.rate_at(6.0)   # sin peak region
        trough = schedule.rate_at(18.0)   # sin trough region
        assert quarter > 1.5
        assert trough < 0.5
        assert schedule.rate_at(0.0) == pytest.approx(1.0)
        # periodic
        assert schedule.rate_at(30.0) == schedule.rate_at(6.0)

    def test_flash_crowd_shape(self):
        schedule = RateSchedule.flash_crowd(0.1, peak=1.0, at=20.0, width=5.0)
        assert schedule.rate_at(10.0) == 0.1
        assert schedule.rate_at(21.0) == 1.0
        assert schedule.rate_at(26.0) == 0.1

    @pytest.mark.parametrize(
        "points, period",
        [
            ([], None),
            ([(1.0, 0.5)], None),                   # must start at 0
            ([(0.0, 0.5), (0.0, 0.6)], None),       # not ascending
            ([(0.0, -0.1)], None),                  # negative rate
            ([(0.0, 0.0)], None),                   # all zero
            ([(0.0, 0.5), (5.0, 0.6)], 4.0),        # period inside points
        ],
    )
    def test_invalid_schedules_rejected(self, points, period):
        with pytest.raises(BenchmarkError):
            RateSchedule(points, period=period)

    def test_rate_at_rejects_negative_time(self):
        with pytest.raises(BenchmarkError):
            RateSchedule.constant(1.0).rate_at(-1.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build",
    [
        lambda: RateSchedule([(0.0, INF)]),
        lambda: RateSchedule([(0.0, NAN)]),
        lambda: RateSchedule([(0.0, 1.0), (INF, 2.0)]),
        lambda: RateSchedule([(0.0, 1.0), (NAN, 2.0)]),
        lambda: RateSchedule([(0.0, 1.0)], period=INF),
        lambda: RateSchedule([(0.0, 1.0)], period=NAN),
        lambda: RateSchedule.diurnal(1.0, period=INF),
        lambda: ArrivalProcess(INF, 10.0),
        lambda: ArrivalProcess(NAN, 10.0),
        lambda: ArrivalProcess(1.0, NAN),
        lambda: ArrivalProcess(1.0, 10.0, mean_residence=NAN),
        lambda: ArrivalProcess(1.0, INF),
        lambda: ArrivalProcess(
            1.0, INF, max_sessions=5,
            rate_schedule=RateSchedule([(0.0, 1.0), (1.0, 0.0)]),
        ),
    ],
    ids=[
        "inf-rate", "nan-rate", "inf-time", "nan-time", "inf-period",
        "nan-period", "diurnal-inf-period", "process-inf-rate",
        "process-nan-rate", "process-nan-horizon", "process-nan-residence",
        "process-inf-horizon-uncapped", "process-inf-horizon-rate-ends-at-0",
    ],
)
def test_non_finite_arrival_parameters_rejected(build):
    # An infinite envelope never advances the draw (exponential(0) is 0)
    # and NaN makes every arrival time NaN; an infinite horizon that no
    # session cap or lasting rate can end would draw forever. All fail
    # typed, up front, and no schedule here is ever iterated.
    with pytest.raises(BenchmarkError, match="finite|positive"):
        build()


class TestInfiniteHorizon:
    """An infinite horizon is accepted where a session cap and a rate that
    stays positive end the draw. Only constructors run here."""

    @pytest.mark.parametrize("build", [
        lambda: ArrivalProcess(1.0, INF, max_sessions=5),
        lambda: ArrivalProcess(
            1.0, INF, max_sessions=5, rate_schedule=RateSchedule.diurnal(1.0)
        ),
        lambda: ArrivalProcess(
            1.0, INF, max_sessions=5,
            rate_schedule=RateSchedule([(0.0, 0.0), (1.0, 2.0)]),
        ),
    ], ids=["homogeneous", "diurnal", "positive-last-rate"])
    def test_accepted(self, build):
        assert build().horizon == INF

    def test_serve_exits_one_with_one_stderr_line(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--engine", "idea-sim", "--sessions", "5",
            "--arrivals", "1", "--horizon", "inf",
            "--arrival-schedule", "piecewise:0=1,1=0",
            "--scale", "1000", "--size", "S",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "infinite horizon" in err
        assert len(err.splitlines()) == 1


class TestScheduleParse:
    def test_constant(self):
        schedule = RateSchedule.parse("constant", 0.3, 60.0)
        assert schedule.rate_at(10.0) == 0.3

    def test_diurnal_with_options(self):
        schedule = RateSchedule.parse(
            "diurnal:amplitude=0.5,period=40", 0.2, 60.0
        )
        assert schedule.period == 40.0
        assert schedule.max_rate <= 0.2 * 1.5 + 1e-9

    def test_flash_multiplier_and_absolute(self):
        relative = RateSchedule.parse("flash:peak=4x,at=10,width=5", 0.2, 60.0)
        assert relative.rate_at(11.0) == pytest.approx(0.8)
        absolute = RateSchedule.parse("flash:peak=0.9,at=10,width=5", 0.2, 60.0)
        assert absolute.rate_at(11.0) == pytest.approx(0.9)

    def test_piecewise(self):
        schedule = RateSchedule.parse("piecewise:0=0.1,20=0.6,40=0.1", 0.2, 60.0)
        assert schedule.rate_at(25.0) == 0.6

    @pytest.mark.parametrize(
        "spec",
        ["sideways", "diurnal:bogus=1", "flash:peak=", "piecewise:",
         "diurnal:amplitude"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(BenchmarkError):
            RateSchedule.parse(spec, 0.2, 60.0)

    def test_bad_value_error_names_the_real_problem(self):
        # A bad value must not be misreported as the *other* (valid,
        # not-yet-consumed) options being unknown.
        with pytest.raises(BenchmarkError, match="malformed arrival"):
            RateSchedule.parse("diurnal:amplitude=oops,period=30", 0.2, 60.0)
        with pytest.raises(BenchmarkError, match=r"unknown schedule option\(s\) \['bogus'\]"):
            RateSchedule.parse("diurnal:period=30,bogus=1", 0.2, 60.0)


class TestNonStationaryArrivals:
    def test_homogeneous_stream_unchanged(self):
        # schedule=None must reproduce the historical draw exactly (the
        # golden churn corpus also pins this end to end).
        a = ArrivalProcess(0.2, 40.0, seed=5, mean_residence=25.0).schedule()
        b = ArrivalProcess(0.2, 40.0, seed=5, mean_residence=25.0).schedule()
        assert [(x.arrival_time, x.departure_time) for x in a] == [
            (x.arrival_time, x.departure_time) for x in b
        ]

    def test_thinned_schedule_deterministic(self):
        def draw():
            return ArrivalProcess(
                0.2, 60.0, seed=7, mean_residence=30.0,
                rate_schedule=RateSchedule.flash_crowd(
                    0.2, peak=1.2, at=20.0, width=10.0
                ),
            ).schedule()

        a, b = draw(), draw()
        assert [(x.arrival_time, x.departure_time) for x in a] == [
            (x.arrival_time, x.departure_time) for x in b
        ]

    def test_flash_crowd_concentrates_arrivals(self):
        flat = ArrivalProcess(0.2, 300.0, seed=11).schedule()
        flash = ArrivalProcess(
            0.2, 300.0, seed=11,
            rate_schedule=RateSchedule.flash_crowd(
                0.05, peak=1.5, at=100.0, width=50.0
            ),
        ).schedule()
        in_burst = [a for a in flash if 100.0 <= a.arrival_time < 150.0]
        outside = [a for a in flash if not 100.0 <= a.arrival_time < 150.0]
        # The burst window is 1/6 of the horizon but holds most arrivals.
        assert len(in_burst) > len(outside)
        assert flat  # sanity: the flat draw produced arrivals too

    def test_zero_rate_segments_produce_no_arrivals(self):
        schedule = RateSchedule([(0.0, 0.0), (50.0, 2.0)])
        arrivals = ArrivalProcess(
            1.0, 100.0, seed=3, rate_schedule=schedule
        ).schedule()
        assert arrivals
        assert all(a.arrival_time >= 50.0 for a in arrivals)

    def test_max_sessions_caps_thinned_arrivals(self):
        arrivals = ArrivalProcess(
            1.0, 1000.0, seed=3, max_sessions=4,
            rate_schedule=RateSchedule.constant(1.0),
        ).schedule()
        assert len(arrivals) == 4

    def test_open_system_run_with_schedule(self, server_ctx):
        from repro.server import OpenSystemManager

        def run():
            arrivals = ArrivalProcess(
                0.2, 40.0, seed=server_ctx.settings.seed,
                mean_residence=25.0, max_sessions=4,
                rate_schedule=RateSchedule.flash_crowd(
                    0.2, peak=1.2, at=10.0, width=10.0
                ),
            )
            return OpenSystemManager.for_engine(
                server_ctx, "idea-sim", arrivals,
                policy="markov", per_session=1,
            ).run()

        first, second = run(), run()
        assert [r.csv_text() for r in first] == [r.csv_text() for r in second]
        assert math.isfinite(sum(r.num_queries for r in first))

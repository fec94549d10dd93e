"""§2.2 open-system validity: arrivals are the Poisson process they claim.

:class:`~repro.server.ArrivalProcess` draws sessions as a Poisson process
at ``rate`` with exponential residences of mean ``mean_residence``; with a
:class:`~repro.server.RateSchedule` it thins that stream to the schedule's
instantaneous rate. Three one-sample KS tests check the draws:

* the gaps between homogeneous arrivals against Exp(mean ``1 / rate``);
* the residences (``departure_time - arrival_time``) against
  Exp(mean ``mean_residence``);
* a thinned process: by the time-rescaling theorem, the arrival times
  mapped through the cumulative intensity ``Λ(t) = ∫₀ᵗ rate(s) ds`` form
  a unit-rate Poisson process, so their gaps are Exp(1).

Each must hold at α = 0.01, Bonferroni-corrected over the three.
docs/validity.md records the observed values.
"""

import numpy as np
from scipy.stats import kstest

from repro.server import ArrivalProcess, RateSchedule

ALPHA = 0.01
CORRECTED_ALPHA = ALPHA / 3


def _homogeneous():
    return ArrivalProcess(2.0, 5000.0, seed=5, mean_residence=25.0).schedule()


def _cumulative_intensity(schedule: RateSchedule, times: np.ndarray) -> np.ndarray:
    """``Λ(t)`` of a periodic piecewise-constant schedule."""
    starts = np.array([t for t, _ in schedule.points])
    rates = np.array([r for _, r in schedule.points])
    ends = np.append(starts[1:], schedule.period)
    # Intensity accumulated by the start of each segment, and per period.
    before = np.concatenate([[0.0], np.cumsum(rates * (ends - starts))])
    cycles, phase = np.divmod(times, schedule.period)
    segment = np.searchsorted(starts, phase, side="right") - 1
    return (
        cycles * before[-1]
        + before[segment]
        + rates[segment] * (phase - starts[segment])
    )


def test_homogeneous_gaps_are_exponential():
    arrivals = np.array([a.arrival_time for a in _homogeneous()])
    gaps = np.diff(arrivals, prepend=0.0)
    assert kstest(gaps, "expon", args=(0.0, 0.5)).pvalue > CORRECTED_ALPHA


def test_residences_are_exponential():
    residences = np.array(
        [a.departure_time - a.arrival_time for a in _homogeneous()]
    )
    assert kstest(residences, "expon", args=(0.0, 25.0)).pvalue > CORRECTED_ALPHA


def test_thinned_arrivals_rescale_to_unit_rate():
    schedule = RateSchedule([(0.0, 1.0), (30.0, 0.25)], period=60.0)
    arrivals = ArrivalProcess(
        1.0, 6000.0, seed=5, rate_schedule=schedule
    ).schedule()
    rescaled = _cumulative_intensity(
        schedule, np.array([a.arrival_time for a in arrivals])
    )
    gaps = np.diff(rescaled, prepend=0.0)
    assert kstest(gaps, "expon").pvalue > CORRECTED_ALPHA

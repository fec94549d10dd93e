"""The stratified estimator, pinned before it was vectorized.

``stratified_estimate`` used to walk bins × aggregates × strata in scalar
Python; it is now one vectorized pass over a ``(stratum, bin)`` grid that
must reproduce the loop bit for bit. Two nets hold it there:

* ``tests/golden/estimator_pins.txt`` — 216 System X estimates hashed
  from the loop's output at the commit before the rewrite.
  ``test_golden_reports`` replays them through compiled kernels (the
  one-pass ``evaluate_strata`` grid); this module replays them through
  the reference (the grid ``grid_from_stats`` of ``reference_kernels.py``
  lays out from per-stratum ``compute_grouped_stats``).
* The deleted loop itself, moved here verbatim as
  ``reference_stratified_estimate``, and a hypothesis property comparing
  the two on random strata: keys and their order, value and margin bits,
  ``None`` positions.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.common.errors import EngineError
from repro.engines.estimators import StrataMoments, stratified_estimate, z_value
from repro.query.groundtruth import GroupedStats
from repro.query.model import (
    AggFunc,
    Aggregate,
    AggQuery,
    BinDimension,
    BinKey,
    BinKind,
)

from reference_kernels import grid_from_stats
from test_golden_reports import GOLDEN_DIR, regen


def test_pins_hold_with_kernels_disabled(fallback_kernels):
    with fallback_kernels() as entries:
        rebuilt = regen.case_estimator_pins(None)
    assert entries["evaluate_strata"]
    assert rebuilt.encode("utf-8") == (GOLDEN_DIR / "estimator_pins.txt").read_bytes()


def test_pins_cover_the_declared_matrix():
    names = [
        line.split()[0]
        for line in (GOLDEN_DIR / "estimator_pins.txt").read_text().splitlines()
    ]
    assert len(names) == len(set(names)) == 4 * len(regen.estimator_pin_queries())
    assert len(names) >= 40


@dataclasses.dataclass(frozen=True)
class Stratum:
    """One stratum as the scalar loop reads it: its statistics, its
    expansion factor N_h / n_h and its number of sampled rows n_h."""

    stats: GroupedStats
    weight: float
    sample_size: int


def strata_moments(query: AggQuery, strata: List[Stratum]) -> StrataMoments:
    """The same strata in ``stratified_estimate``'s input form."""
    return StrataMoments(
        grid_from_stats(query, [stratum.stats for stratum in strata]),
        weights=[stratum.weight for stratum in strata],
        sample_sizes=[stratum.sample_size for stratum in strata],
    )


# ----------------------------------------------------------------------
# The scalar loop stratified_estimate replaced, verbatim
# ----------------------------------------------------------------------
def reference_stratified_estimate(query, strata, confidence_level):
    if not strata:
        raise EngineError("stratified estimate needs at least one stratum")
    z = z_value(confidence_level)

    # Union of keys over strata, preserving first-seen order.
    all_keys: List[BinKey] = []
    seen = set()
    for stratum in strata:
        for key in stratum.stats.keys:
            if key not in seen:
                seen.add(key)
                all_keys.append(key)
    index_per_stratum = [
        {key: g for g, key in enumerate(s.stats.keys)} for s in strata
    ]

    values = {}
    margins = {}
    for key in all_keys:
        row_values: List[float] = []
        row_margins: List[Optional[float]] = []
        for j, agg in enumerate(query.aggregates):
            count_est = 0.0
            count_var = 0.0
            sum_est = 0.0
            sum_var = 0.0
            within_var = 0.0
            minimum = math.inf
            maximum = -math.inf
            for stratum, key_index in zip(strata, index_per_stratum):
                g = key_index.get(key)
                if g is None:
                    continue
                stats = stratum.stats
                w = stratum.weight
                n_h = float(stratum.sample_size)
                k = float(stats.counts[g])
                p = k / n_h
                count_est += w * k
                count_var += (w * n_h) ** 2 * p * (1.0 - p) / n_h
                if agg.func in (AggFunc.SUM, AggFunc.AVG):
                    mean_z = stats.sums[j][g] / n_h
                    var_z = max(
                        stats.sumsqs[j][g] / n_h - mean_z * mean_z, 0.0
                    )
                    sum_est += w * stats.sums[j][g]
                    sum_var += (w * n_h) ** 2 * var_z / n_h
                    if k >= 1:
                        mean_b = stats.sums[j][g] / k
                        var_b = max(
                            stats.sumsqs[j][g] / k - mean_b * mean_b, 0.0
                        )
                        within_var += (w ** 2) * k * var_b
                if agg.func is AggFunc.MIN:
                    minimum = min(minimum, float(stats.mins[j][g]))
                if agg.func is AggFunc.MAX:
                    maximum = max(maximum, float(stats.maxs[j][g]))

            if agg.func is AggFunc.COUNT:
                row_values.append(count_est)
                row_margins.append(z * math.sqrt(count_var))
            elif agg.func is AggFunc.SUM:
                row_values.append(sum_est)
                row_margins.append(z * math.sqrt(sum_var))
            elif agg.func is AggFunc.AVG:
                # Keys only enter all_keys through a stratum that observed
                # them, so count_est > 0 holds; guard anyway for safety.
                if count_est <= 0:
                    raise EngineError(f"stratified AVG over empty bin {key!r}")
                avg_est = sum_est / count_est
                row_values.append(avg_est)
                row_margins.append(
                    z * math.sqrt(within_var) / count_est if count_est >= 2 else None
                )
            elif agg.func is AggFunc.MIN:
                row_values.append(minimum)
                row_margins.append(None)
            elif agg.func is AggFunc.MAX:
                row_values.append(maximum)
                row_margins.append(None)
        if row_values:
            values[key] = tuple(row_values)
            margins[key] = tuple(row_margins)
    return values, margins


# ----------------------------------------------------------------------
# Random strata
# ----------------------------------------------------------------------
ALL_KEYS = [(f"bin{i}",) for i in range(5)]
FIELD = "v"


def _query(funcs) -> AggQuery:
    return AggQuery(
        "t",
        bins=(BinDimension("b", BinKind.NOMINAL),),
        aggregates=tuple(
            Aggregate(func) if func is AggFunc.COUNT else Aggregate(func, FIELD)
            for func in funcs
        ),
    )


def _stratum(query: AggQuery, cells, extra_rows: int, weight: float) -> Stratum:
    """One stratum from the raw values of each bin (``cells[i]`` belongs
    to ``ALL_KEYS[i]``; an empty list leaves the bin out), folded in row
    order. Unlike a kernel's scatter the sums start from the first value,
    not from ``+0.0``, so a stratum can hand the combiner a ``-0.0`` sum."""
    keys = [key for key, values in zip(ALL_KEYS, cells) if values]
    held = [np.array(values, dtype=np.float64) for values in cells if values]
    sums, sumsqs, mins, maxs = {}, {}, {}, {}
    with np.errstate(invalid="ignore"):
        for j, agg in enumerate(query.aggregates):
            if agg.func.reads_sums:
                sums[j] = np.array([np.cumsum(v)[-1] for v in held])
                sumsqs[j] = np.array([np.cumsum(v * v)[-1] for v in held])
            elif agg.func is AggFunc.MIN:
                mins[j] = np.array([np.minimum.reduce(v) for v in held])
            elif agg.func is AggFunc.MAX:
                maxs[j] = np.array([np.maximum.reduce(v) for v in held])
    counts = np.array([len(v) for v in held], dtype=np.int64)
    sample_size = int(counts.sum()) + extra_rows
    stats = GroupedStats(
        query=query, keys=keys, counts=counts, sums=sums, sumsqs=sumsqs,
        mins=mins, maxs=maxs, rows_aggregated=int(counts.sum()),
        rows_scanned=sample_size,
    )
    return Stratum(stats=stats, weight=weight, sample_size=sample_size)


cell_values = st.lists(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6),
        st.just(math.nan),
        st.sampled_from([0.0, -0.0, 1.0, 1e-300]),
    ),
    max_size=4,
)
stratum_draws = st.tuples(
    st.lists(cell_values, min_size=len(ALL_KEYS), max_size=len(ALL_KEYS)),
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=1.0, max_value=400.0),
).filter(lambda draw: draw[1] or any(draw[0]))  # a stratum samples >= 1 row
strata_draws = st.lists(stratum_draws, min_size=1, max_size=6)
function_draws = st.lists(st.sampled_from(list(AggFunc)), min_size=1, max_size=4)


def _bits(cell) -> bytes:
    return b"N" if cell is None else struct.pack("<d", cell)


def assert_same_estimates(actual, expected):
    for actual_map, expected_map in zip(actual, expected):
        assert list(actual_map) == list(expected_map)  # keys, in order
        for key, expected_row in expected_map.items():
            actual_row = actual_map[key]
            assert isinstance(actual_row, tuple)
            assert all(c is None or type(c) is float for c in actual_row)
            assert [_bits(c) for c in actual_row] == [
                _bits(c) for c in expected_row
            ], key


def _canonical_grid(moments: StrataMoments) -> StrataMoments:
    """The same strata as a kernel lays them out: key axis in canonical
    (sorted) order, including a bin no stratum observed."""
    grid = moments.grid
    unseen = [key for key in ALL_KEYS if key not in grid.keys][:1]
    order = sorted(range(len(grid.keys)), key=grid.keys.__getitem__)

    def widen(cells: np.ndarray, fill) -> np.ndarray:
        absent = np.full((cells.shape[0], len(unseen)), fill, dtype=cells.dtype)
        columns = np.concatenate([cells[:, order], absent], axis=1)
        keys = [grid.keys[g] for g in order] + unseen
        return columns[:, sorted(range(len(keys)), key=keys.__getitem__)]

    widened = dataclasses.replace(
        grid,
        keys=sorted(grid.keys + unseen),
        counts=widen(grid.counts, 0),
        sums={j: widen(c, 0.0) for j, c in grid.sums.items()},
        sumsqs={j: widen(c, 0.0) for j, c in grid.sumsqs.items()},
        mins={j: widen(c, np.inf) for j, c in grid.mins.items()},
        maxs={j: widen(c, -np.inf) for j, c in grid.maxs.items()},
    )
    return dataclasses.replace(moments, grid=widened)


NAN = math.nan


@hyp_settings(max_examples=300, deadline=None)
@given(functions=function_draws, draws=strata_draws)
# a bin absent from some strata, first seen in the second stratum
@example(
    functions=[AggFunc.COUNT, AggFunc.AVG],
    draws=[
        ([[], [1.0, 2.0], [], [], [4.0]], 3, 2.0),
        ([[5.0], [3.0], [], [], []], 0, 7.5),
    ],
)
# a stratum with no qualifying row between two that have some
@example(
    functions=[AggFunc.SUM, AggFunc.MIN, AggFunc.MAX],
    draws=[
        ([[1.5], [], [], [], []], 1, 3.0),
        ([[], [], [], [], []], 9, 11.0),
        ([[2.5, -1.0], [], [8.0], [], []], 0, 1.25),
    ],
)
# a single stratum; counts of 1 (AVG margin None below two estimated rows)
@example(
    functions=[AggFunc.AVG, AggFunc.COUNT],
    draws=[([[3.0], [], [1.0, 1.0], [], []], 0, 1.0)],
)
# NaN values: poisoned sums, extrema that skip the NaN cell
@example(
    functions=[AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX],
    draws=[
        ([[NAN], [1.0, NAN], [2.0], [], []], 2, 4.0),
        ([[1.0], [NAN], [NAN, 3.0], [], []], 0, 2.0),
    ],
)
# signed zeros: an all -0.0 column still sums to the loop's +0.0, and of
# two equal extrema the earlier stratum's zero is the one kept
@example(
    functions=[AggFunc.SUM, AggFunc.MIN, AggFunc.MAX],
    draws=[
        ([[-0.0], [0.0], [-0.0, 0.0], [-0.0], []], 0, 1.0),
        ([[-0.0], [-0.0], [0.0], [0.0], []], 0, 1.0),
    ],
)
def test_vectorized_combiner_equals_the_scalar_loop(functions, draws):
    query = _query(functions)
    strata = [_stratum(query, *draw) for draw in draws]
    expected = reference_stratified_estimate(query, strata, 0.95)
    moments = strata_moments(query, strata)
    assert_same_estimates(stratified_estimate(query, moments, 0.95), expected)
    # ...and from a kernel-shaped grid: canonical key axis, unseen bins.
    moments = _canonical_grid(moments)
    assert_same_estimates(stratified_estimate(query, moments, 0.95), expected)


def test_empty_strata_rejected_before_any_arithmetic():
    with pytest.raises(EngineError):
        query = _query([AggFunc.COUNT])
        stratified_estimate(query, strata_moments(query, []), 0.95)

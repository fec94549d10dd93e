"""Narrow integer columns filter and bin exactly as ``int64`` ones.

A table stores an integer column at the narrowest signed type holding its
range, and filters and quantitative bin codes read it as stored. Under
NEP 50 (numpy >= 2.0, which the package declares) comparing a narrow
column with a Python ``int`` or ``float`` is exact whatever either's
magnitude, and :func:`~repro.query.binning.compute_codes` widens to
``float64`` before it subtracts the reference: a narrow column minus a
Python ``int`` would stay narrow and wrap or raise.

For ``int8``, ``int16`` and ``int32``, columns holding both of the type's
bounds (or one past a bound, which the table then stores one type wider)
must give the masks of the same values held as ``int64``, for bounds
inside, at, one past and far outside the type's range, and the bin codes
the ``int64`` arithmetic gave: ``floor((x - reference) / width)`` with the
subtraction done in ``int64``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.data.storage import Table, int_dtype
from repro.query.binning import compute_codes
from repro.query.filters import Comparison, RangePredicate
from repro.query.model import BinDimension, BinKind

NARROW = (np.int8, np.int16, np.int32)
OPS = ("<", "<=", ">", ">=", "=", "!=")


@st.composite
def columns(draw):
    """``(dtype, values as int64)``: both of ``dtype``'s bounds, or one
    past one of them, among values inside its range."""
    dtype = draw(st.sampled_from(NARROW))
    info = np.iinfo(dtype)
    low, high = {
        "at": (info.min, info.max),
        "below": (info.min - 1, info.max),
        "above": (info.min, info.max + 1),
    }[draw(st.sampled_from(("at", "below", "above")))]
    edges = st.sampled_from([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max])
    inner = draw(st.lists(st.one_of(edges, st.integers(info.min, info.max)), max_size=30))
    values = np.array([low, high] + inner, dtype=np.int64)
    return dtype, values[np.random.default_rng(len(inner)).permutation(len(values))]


def integer_bounds(dtype):
    """Inside, at, one past and far outside ``dtype``'s range."""
    info = np.iinfo(dtype)
    named = [
        info.min - 1, info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max,
        info.max + 1, 1000, -(10**9), 10**9, -(2**62), 2**62,
    ]
    return st.one_of(st.sampled_from(named), st.integers(info.min - 2, info.max + 2))


def bounds(dtype):
    """Integer bounds, and float ones: integral, between two integers, and
    far outside (``MONTH < 1000``, ``DISTANCE >= -1e9``)."""
    ints = integer_bounds(dtype)
    floats = st.one_of(
        ints.map(float),
        ints.map(lambda v: v + 0.5),
        ints.map(lambda v: v - 0.25),
        st.sampled_from([-1e9, 1e9, -1e18, 1e18, 0.0, -0.0, 3.5]),
    )
    return st.one_of(ints, floats)


def _stored(dtype, values: np.ndarray) -> np.ndarray:
    column = Table("t", {"x": values})["x"]
    assert column.dtype == int_dtype(int(values.min()), int(values.max()))
    return column


@hyp_settings(max_examples=150, deadline=None)
@given(st.data())
def test_range_predicates_match_int64(data):
    dtype, values = data.draw(columns())
    narrow = _stored(dtype, values)
    low = data.draw(st.one_of(st.none(), bounds(dtype)))
    high = data.draw(bounds(dtype) if low is None else st.one_of(st.none(), bounds(dtype)))
    if low is not None and high is not None and low > high:
        low, high = high, low
    predicate = RangePredicate("x", low, high)
    expected = predicate.evaluate(lambda _: values)
    np.testing.assert_array_equal(predicate.evaluate(lambda _: narrow), expected)


@hyp_settings(max_examples=150, deadline=None)
@given(st.data())
def test_comparisons_match_int64(data):
    dtype, values = data.draw(columns())
    narrow = _stored(dtype, values)
    value = data.draw(bounds(dtype))
    for op in OPS:
        comparison = Comparison("x", op, value)
        np.testing.assert_array_equal(
            comparison.evaluate(lambda _: narrow),
            comparison.evaluate(lambda _: values),
            err_msg=f"x {op} {value!r} on {narrow.dtype}",
        )


@hyp_settings(max_examples=150, deadline=None)
@given(st.data())
def test_bin_codes_match_int64_arithmetic(data):
    dtype, values = data.draw(columns())
    narrow = _stored(dtype, values)
    reference = data.draw(
        st.one_of(integer_bounds(dtype), bounds(dtype).filter(lambda v: abs(v) < 2**52))
    )
    width = data.draw(
        st.one_of(
            st.integers(1, 2**33),
            st.floats(1e-3, 1e10, allow_nan=False, allow_infinity=False),
        )
    )
    dim = BinDimension("x", BinKind.QUANTITATIVE, width=width, reference=reference)
    expected = np.floor((values - reference) / width).astype(np.int64)
    np.testing.assert_array_equal(compute_codes(dim, narrow), expected)


@pytest.mark.parametrize("dtype", NARROW)
def test_the_far_cases_by_name(dtype):
    """``MONTH < 1000`` and ``DISTANCE >= -1e9`` pass every row; a
    reference past the type's range still bins every value."""
    info = np.iinfo(dtype)
    values = np.array([info.min, 0, info.max], dtype=np.int64)
    narrow = _stored(dtype, values)
    assert narrow.dtype == dtype
    assert Comparison("x", "<", 1000 * info.max).evaluate(lambda _: narrow).all()
    assert RangePredicate("x", -1e9 * 4, None).evaluate(lambda _: narrow).all()
    dim = BinDimension("x", BinKind.QUANTITATIVE, width=1, reference=info.max + 1)
    assert compute_codes(dim, narrow).tolist() == (values - (info.max + 1)).tolist()

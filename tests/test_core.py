import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vasso_opt.core import (DEGENERATE_NORM_TOL, STREAM_ADV_BATCH,
                            STREAM_BATCH, STREAM_DATA, STREAM_DIRECTION,
                            STREAM_GATE, STREAM_INIT, Schedule,
                            as_param_vector, make_rng, norm2,
                            normalize_to_sphere, schedule_value)
from vasso_opt.errors import DimensionMismatchError, InvalidParameterError


def test_norm2_values():
    assert norm2(np.zeros(3)) == 0.0
    assert norm2(np.array([3.0, 4.0])) == 5.0
    assert norm2(np.ones(4)) == 2.0


def test_as_param_vector_validation():
    v = as_param_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(DimensionMismatchError):
        as_param_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        as_param_vector(np.zeros(3), dim=4)
    with pytest.raises(InvalidParameterError):
        as_param_vector([1.0, float("nan")])


def test_normalize_to_sphere_examples():
    assert np.allclose(normalize_to_sphere(np.array([3.0, 4.0]), 0.5),
                       [0.3, 0.4], rtol=1e-15, atol=0.0)
    assert np.array_equal(normalize_to_sphere(np.array([1.0, 0.0, 0.0]), 2.0),
                          [2.0, 0.0, 0.0])
    assert np.array_equal(normalize_to_sphere(np.zeros(2), 1.0), [0.0, 0.0])


def test_normalize_to_sphere_degenerate_below_tol():
    tiny = np.full(3, 1e-14)
    assert np.array_equal(normalize_to_sphere(tiny, 1.0), np.zeros(3))
    # just above the threshold the direction is preserved
    ok = normalize_to_sphere(np.array([1e-10, 0.0]), 1.0)
    assert ok[0] == 1.0


def test_normalize_to_sphere_rejects_nonpositive_radius():
    with pytest.raises(InvalidParameterError):
        normalize_to_sphere(np.ones(2), 0.0)
    with pytest.raises(InvalidParameterError):
        normalize_to_sphere(np.ones(2), -1.0)


_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=20,
).map(lambda xs: np.asarray(xs, dtype=np.float64))


@given(x=_vectors, rho=st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_normalized_vector_lands_on_sphere(x, rho):
    out = normalize_to_sphere(x, rho)
    if norm2(x) <= DEGENERATE_NORM_TOL:
        assert np.array_equal(out, np.zeros_like(x))
    else:
        assert abs(norm2(out) - rho) <= 1e-12 * rho


@given(x=_vectors, rho=st.floats(min_value=1e-3, max_value=1e3),
       c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_normalization_is_scale_invariant(x, rho, c):
    if norm2(x) <= 1e-9 or norm2(c * x) <= 1e-9:
        return
    a = normalize_to_sphere(x, rho)
    b = normalize_to_sphere(c * x, rho)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * rho)


def test_rng_bit_determinism():
    a = make_rng(12345, STREAM_BATCH).random(100)
    b = make_rng(12345, STREAM_BATCH).random(100)
    assert np.array_equal(a, b)


def test_rng_streams_are_distinct():
    a = make_rng(0, STREAM_BATCH).random(16)
    b = make_rng(0, STREAM_GATE).random(16)
    assert not np.array_equal(a, b)


def test_reserved_stream_ids_unique():
    ids = [STREAM_INIT, STREAM_BATCH, STREAM_ADV_BATCH, STREAM_GATE,
           STREAM_DATA, STREAM_DIRECTION]
    assert len(set(ids)) == len(ids)


def test_schedule_constant():
    s = Schedule("constant", 0.05)
    assert schedule_value(s, 0) == 0.05
    assert schedule_value(s, 42) == 0.05


def test_schedule_theory_is_base_over_sqrt_horizon():
    s = Schedule("theory", 1.0, horizon=100)
    assert schedule_value(s, 7) == 0.1
    assert schedule_value(s, 0) == schedule_value(s, 99)


def test_schedule_inverse_sqrt():
    s = Schedule("inverse-sqrt", 2.0)
    assert schedule_value(s, 0) == 2.0
    assert schedule_value(s, 3) == 1.0


def test_schedule_cosine_endpoints_and_monotone():
    s = Schedule("cosine", 0.1, horizon=2)
    assert schedule_value(s, 0) == 0.1
    assert schedule_value(s, 1) == 0.0
    s = Schedule("cosine", 0.1, horizon=50)
    vals = [schedule_value(s, t) for t in range(50)]
    assert vals[0] == 0.1 and vals[-1] == 0.0
    assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))


def test_schedule_cosine_midpoint():
    s = Schedule("cosine", 1.0, horizon=51)
    assert math.isclose(schedule_value(s, 25), 0.5, rel_tol=1e-15)


def test_schedule_value_method_matches_function():
    s = Schedule("inverse-sqrt", 1.0)
    assert s.value(8) == schedule_value(s, 8)


def test_schedule_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        Schedule("linear", 1.0)
    with pytest.raises(InvalidParameterError):
        Schedule("constant", 0.0)
    with pytest.raises(InvalidParameterError):
        Schedule("cosine", 1.0)  # needs a horizon
    with pytest.raises(InvalidParameterError):
        Schedule("theory", 1.0, horizon=0)


def test_schedule_index_out_of_range():
    s = Schedule("cosine", 1.0, horizon=10)
    with pytest.raises(InvalidParameterError):
        schedule_value(s, -1)
    with pytest.raises(InvalidParameterError):
        schedule_value(s, 10)
    # unbounded kinds accept any nonnegative index
    assert schedule_value(Schedule("constant", 1.0), 10 ** 9) == 1.0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normmatch.ops import (
    EPS_GUARD,
    logsumexp,
    normalize_rows,
    normalize_rows_backward,
    silu,
    silu_backward,
    softmax_rows,
    softmax_rows_backward,
)
from oracles import l2_normalize, linalg_normalize_rows, wrapped_logsumexp


def _row(v):
    return normalize_rows(np.atleast_2d(v))[0][0]


def test_l2_normalize_examples():
    for normalize in (l2_normalize, _row):
        np.testing.assert_allclose(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8])


def test_l2_normalize_zero_vector_guarded():
    for normalize in (l2_normalize, _row):
        out = normalize([0.0, 0.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])
        assert np.all(np.isfinite(out))


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_l2_normalize_idempotent(vals):
    # idempotence holds above the eps guard; below it the guarded division
    # rescales on every call, so only finiteness is promised there
    v = np.asarray(vals)
    once = _row(v)
    np.testing.assert_allclose(once, l2_normalize(v), rtol=1e-12, atol=0.0)
    assert np.all(np.isfinite(once))
    if np.linalg.norm(v) >= 1e-12:
        twice = _row(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        assert abs(np.linalg.norm(once) - 1.0) < 1e-6


def test_normalize_rows_matches_vector_form():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4))
    y, _ = normalize_rows(x)
    for i in range(5):
        np.testing.assert_allclose(y[i], l2_normalize(x[i]))


@pytest.mark.parametrize("shape", [(9, 5), (3, 4, 6), (1, 1)])
def test_normalize_rows_bit_equal_to_linalg_norm_form(shape):
    rng, gy_rng = np.random.default_rng(7), np.random.default_rng(17)
    for scale in (1e-300, 1e-14, 1e-6, 1.0, 1e150):
        x = rng.standard_normal(shape) * scale
        rows = x.reshape(-1, shape[-1])
        rows[0] = 0.0
        if len(rows) > 2:
            rows[1] = 0.5 * EPS_GUARD / np.sqrt(shape[-1])  # a norm below the guard
            rows[2] = 1e-200  # squares underflow to a zero norm
        y, cache = normalize_rows(x)
        want_y, want_denom, want_active = linalg_normalize_rows(x)
        assert np.array_equal(y, want_y) and np.array_equal(cache[0], want_y)
        assert not want_active.reshape(-1)[0]
        # the backward derives the denominator and the guard mask from the cache
        gy = gy_rng.standard_normal(shape)
        dot = np.sum(want_y * gy, axis=-1, keepdims=True)
        want_gx = (gy - np.where(want_active, dot, 0.0) * want_y) / want_denom
        assert np.array_equal(normalize_rows_backward(cache, gy), want_gx)


@pytest.mark.parametrize("axis", [0, 1, -1, None])
@pytest.mark.parametrize("keepdims", [False, True])
def test_logsumexp_bit_equal_to_wrapped_form(axis, keepdims):
    rng = np.random.default_rng(8)
    for shape in ((6, 4), (1, 5), (5, 1)):
        x = rng.standard_normal(shape) * 30.0
        x[0, -1] = -np.inf  # masked entry, as the exclusive InfoNCE uses
        with np.errstate(invalid="ignore"):  # an all -inf slice gives NaN in both
            got = logsumexp(x, axis=axis, keepdims=keepdims)
            want = wrapped_logsumexp(x, axis=axis, keepdims=keepdims)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(got).any()


def _numeric_jacobian_product(fn, x, gy, eps=1e-6):
    gx = np.zeros_like(x)
    flat = x.reshape(-1)
    out = gx.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        out[i] = np.sum((f_plus - f_minus) * gy) / (2 * eps)
    return gx


def test_normalize_rows_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 5))
    gy = rng.standard_normal((3, 5))
    _, cache = normalize_rows(x)
    gx = normalize_rows_backward(cache, gy)
    gx_num = _numeric_jacobian_product(lambda a: normalize_rows(a)[0], x.copy(), gy)
    np.testing.assert_allclose(gx, gx_num, atol=1e-8)


def test_normalize_rows_backward_on_a_guarded_row_matches_finite_differences():
    # below the guard the map is x / EPS_GUARD, whatever the row's direction
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 5)) * 1e-14
    gy = rng.standard_normal((1, 5))
    gx = normalize_rows_backward(normalize_rows(x)[1], gy)
    gx_num = _numeric_jacobian_product(lambda a: normalize_rows(a)[0], x.copy(), gy, eps=1e-18)
    np.testing.assert_allclose(gx, gx_num, rtol=1e-6)
    np.testing.assert_allclose(gx, gy / EPS_GUARD, rtol=1e-15)


def test_silu_values_and_gradient():
    x = np.array([-2.0, 0.0, 3.0])
    y, cache = silu(x)
    np.testing.assert_allclose(y, x / (1 + np.exp(-x)))
    gy = np.array([1.0, 1.0, 1.0])
    gx = silu_backward(cache, gy)
    gx_num = _numeric_jacobian_product(lambda a: silu(a)[0], x.copy(), gy)
    np.testing.assert_allclose(gx, gx_num, atol=1e-8)


def test_softmax_rows_and_backward():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 6))
    p, cache = softmax_rows(x)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(4), atol=1e-12)
    gy = rng.standard_normal((4, 6))
    gx = softmax_rows_backward(cache, gy)
    gx_num = _numeric_jacobian_product(lambda a: softmax_rows(a)[0], x.copy(), gy)
    np.testing.assert_allclose(gx, gx_num, atol=1e-8)

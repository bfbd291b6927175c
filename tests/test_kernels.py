"""Correctness of the hot kernels against hand values, and bitwise against
the expression forms in oracles.py."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dynembed import kernels

from oracles import affine_sigmoid_ref, sigmoid_grad_ref, sigmoid_ref, weighted_error_grad_ref

SPECIAL = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
_float64s = arrays(
    np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9),
    elements=st.one_of(st.sampled_from(SPECIAL), st.floats(-800.0, 800.0),
                       st.floats(allow_nan=True, allow_infinity=True)))


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def test_sigmoid_overflow_safe():
    z = np.array([[-1000.0, 1000.0], [0.0, -745.0]])
    out = kernels.sigmoid(z)
    assert np.all(np.isfinite(out))
    assert out[0, 0] == 0.0 and out[0, 1] == 1.0 and out[1, 0] == 0.5


def _assert_same_bits(got, want):
    """Equal shapes and float64 bits; NaN only by position."""
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(z=_float64s)
@example(z=np.array(SPECIAL))
@example(z=np.array(SPECIAL[:8]).reshape(2, 4))
@example(z=np.empty(0))
@example(z=np.empty((0, 3)))
@example(z=np.empty((3, 0)))
def test_sigmoid_matches_masked_oracle_bitwise(z):
    _assert_same_bits(kernels.sigmoid(z), sigmoid_ref(z))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 6), k=st.integers(1, 5), m=st.integers(1, 7),
       scale=st.sampled_from([0.1, 1.0, 30.0, 400.0]),
       seed=st.integers(0, 2**32 - 1))
def test_affine_kernels_match_oracles_bitwise_and_keep_their_arguments(n, k, m, scale, seed):
    rng = np.random.default_rng(seed)
    x, w, b = rng.normal(size=(n, k)), rng.normal(size=(k, m)) * scale, rng.normal(size=m)
    g, h = rng.normal(size=(n, m)), rng.random((n, m))
    args = [x, w, b, g, h]
    before = [a.copy() for a in args]
    _assert_same_bits(kernels.affine_sigmoid(x, w, b), affine_sigmoid_ref(x, w, b))
    _assert_same_bits(kernels.sigmoid_grad(g, h), sigmoid_grad_ref(g, h))
    z = x @ w
    z_before = z.copy()
    kernels.sigmoid(z)
    # the out= forms give the same bits in the caller's buffer: a row block
    # of a larger one, as a training workspace passes, and, for sigmoid_grad,
    # the upstream gradient itself
    block = np.full((n + 2, m), np.nan)
    assert kernels.affine_sigmoid(x, w, b, out=block[:n]).base is block
    _assert_same_bits(block[:n], affine_sigmoid_ref(x, w, b))
    assert kernels.sigmoid_grad(g, h, out=block[:n]).base is block
    _assert_same_bits(block[:n], sigmoid_grad_ref(g, h))
    g_inplace = g.copy()
    assert kernels.sigmoid_grad(g_inplace, h, out=g_inplace) is g_inplace
    _assert_same_bits(g_inplace, sigmoid_grad_ref(g, h))
    for a, a0 in zip(args + [z], before + [z_before]):
        assert np.array_equal(a.view(np.uint64), a0.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(xhat=_float64s, data=st.data(), beta=st.sampled_from([1.0, 5.0, 1.1, 1e300]))
@example(xhat=np.array(SPECIAL), data=None, beta=5.0)
def test_weighted_error_grad_matches_oracle_bitwise(xhat, data, beta):
    # targets of the same shape, with nonpositive, NaN and infinite entries
    target = (np.array(SPECIAL[::-1]) if data is None else
              data.draw(arrays(np.float64, xhat.shape, elements=st.one_of(
                  st.sampled_from(SPECIAL), st.floats(-2.0, 2.0)))))
    before = [xhat.copy(), target.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        want = weighted_error_grad_ref(xhat, target, beta)
        got = kernels.weighted_error_grad(xhat, target, beta)
        out = np.full(xhat.shape, np.nan)
        assert kernels.weighted_error_grad(xhat, target, beta, out=out) is out
    _assert_same_bits(got, want)
    _assert_same_bits(out, want)
    for a, a0 in zip([xhat, target], before):
        assert np.array_equal(a.view(np.uint64), a0.view(np.uint64))


def test_weighted_sq_error_hand_value():
    # t=(1,0), xhat=(0.5,0.5), beta=5: 5*0.25 + 0.25
    xhat = np.array([[0.5, 0.5]])
    target = np.array([[1.0, 0.0]])
    assert kernels.weighted_sq_error(xhat, target, 5.0) == pytest.approx(1.5, abs=1e-15)


def test_weighted_sq_error_beta_one_is_plain_sse():
    xhat, target = _rand((5, 5), 10), np.abs(_rand((5, 5), 11))
    got = kernels.weighted_sq_error(xhat, target, 1.0)
    assert got == pytest.approx(float(np.sum((xhat - target) ** 2)), rel=1e-12)


def test_block_sample_degenerate_probs():
    urand = np.random.default_rng(12).random((4, 4))
    labels = np.array([0, 0, 1, 1], dtype=np.int64)
    adj = kernels.block_sample(urand, labels, 1.0, 0.0)
    want = np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.float64)
    assert np.array_equal(adj, want)
    assert np.array_equal(kernels.block_sample(urand, labels, 0.0, 0.0), np.zeros((4, 4)))


def test_block_sample_no_self_loops():
    urand = np.zeros((5, 5))  # every comparison would fire
    adj = kernels.block_sample(urand, np.zeros(5, dtype=np.int64), 1.0, 1.0 - 1e-9)
    assert np.all(np.diag(adj) == 0.0)
    assert adj.sum() == 20.0


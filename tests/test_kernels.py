"""Correctness of the hot kernels against hand values."""

import numpy as np
import pytest

from dynembed import kernels


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def test_sigmoid_overflow_safe():
    z = np.array([[-1000.0, 1000.0], [0.0, -745.0]])
    out = kernels.sigmoid(z)
    assert np.all(np.isfinite(out))
    assert out[0, 0] == 0.0 and out[0, 1] == 1.0 and out[1, 0] == 0.5


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


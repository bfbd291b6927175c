"""Truncated SVD, Procrustes, and PCA against full-decomposition oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed.numerics import (DegenerateInputWarning, TruncatedSvd,
                               pca_project_2d, procrustes_rotation,
                               truncated_svd)

from oracles import random_orthogonal


def _residual_sq(a, f):
    r = a - f.reconstruct()
    return float(np.sum(r * r))


# --- truncated_svd -------------------------------------------------------


def test_diagonal_case():
    a = np.diag([3.0, 2.0, 1.0])
    f = truncated_svd(a, 2)
    assert np.allclose(f.S, [3.0, 2.0], atol=1e-12)
    assert _residual_sq(a, f) == pytest.approx(1.0, abs=1e-10)


def test_rank_one_case():
    x = np.array([1.0, 2.0, -2.0])
    y = np.array([0.5, 0.0, 1.0, -1.0])
    f = truncated_svd(np.outer(x, y), 1)
    assert f.S[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-12)
    assert _residual_sq(np.outer(x, y), f) == pytest.approx(0.0, abs=1e-16)


def test_residual_matches_tail_energy():
    a = np.random.default_rng(0).normal(size=(20, 20))
    f = truncated_svd(a, 5)
    s_full = np.linalg.svd(a, compute_uv=False)
    want = float(np.sum(s_full[5:] ** 2))
    assert _residual_sq(a, f) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("shape, d", [((6, 9), 3), ((9, 6), 4), ((5, 5), 5)])
def test_residual_identity(shape, d):
    a = np.random.default_rng(shape[0] * 10 + d).normal(size=shape)
    f = truncated_svd(a, d)
    total = float(np.sum(a * a))
    assert _residual_sq(a, f) + float(np.sum(f.S**2)) == pytest.approx(total, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=12),
       m=st.integers(min_value=1, max_value=12),
       d_raw=st.integers(min_value=1, max_value=12))
def test_factor_invariants_on_random_input(seed, n, m, d_raw):
    d = min(d_raw, n, m)
    a = np.random.default_rng(seed).normal(size=(n, m))
    f = truncated_svd(a, d)
    assert np.allclose(f.U.T @ f.U, np.eye(d), atol=1e-10)
    assert np.allclose(f.V.T @ f.V, np.eye(d), atol=1e-10)
    assert np.all(f.S >= 0) and np.all(np.diff(f.S) <= 1e-12)
    tail = np.linalg.svd(a, compute_uv=False)[d:]
    assert _residual_sq(a, f) == pytest.approx(float(np.sum(tail * tail)),
                                               rel=1e-9, abs=1e-9)


def test_truncated_svd_input_validation():
    a = np.eye(3)
    with pytest.raises(ValueError, match="rank"):
        truncated_svd(a, 0)
    with pytest.raises(ValueError, match="rank"):
        truncated_svd(a, 4)
    with pytest.raises(ValueError, match="2-D"):
        truncated_svd(np.ones(3), 1)
    bad = a.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        truncated_svd(bad, 1)


def test_factor_invariants_enforced():
    with pytest.raises(ValueError, match="non-increasing"):
        TruncatedSvd(U=np.eye(2), S=np.array([1.0, 2.0]), V=np.eye(2))
    with pytest.raises(ValueError, match="non-negative"):
        TruncatedSvd(U=np.eye(2), S=np.array([1.0, -0.1]), V=np.eye(2))
    skew = np.eye(2)
    skew[0, 1] = 0.5
    with pytest.raises(ValueError, match="orthonormal"):
        TruncatedSvd(U=skew, S=np.array([2.0, 1.0]), V=np.eye(2))
    with pytest.raises(ValueError, match="widths"):
        TruncatedSvd(U=np.eye(2), S=np.array([1.0]), V=np.eye(2))


def test_rank_property_and_reconstruct():
    f = truncated_svd(np.diag([4.0, 3.0, 0.0]), 2)
    assert f.S.shape[0] == 2
    assert np.allclose(f.reconstruct(), np.diag([4.0, 3.0, 0.0]), atol=1e-12)


# --- procrustes_rotation --------------------------------------------------


def test_identity_when_equal():
    x = np.random.default_rng(1).normal(size=(10, 4))
    r = procrustes_rotation(x, x)
    assert np.max(np.abs(r - np.eye(4))) <= 1e-10


def test_planted_rotation_recovered():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 5))
    r0 = random_orthogonal(5, rng)
    r = procrustes_rotation(x, x @ r0)
    assert np.max(np.abs(r - r0)) <= 1e-8
    # a planted reflection comes back as one: R is not forced to det +1
    reflect = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
    r = procrustes_rotation(x, x @ reflect)
    assert np.max(np.abs(r - reflect)) <= 1e-8 and np.linalg.det(r) < 0


def test_beats_random_competitors():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 4))
    y = rng.normal(size=(25, 4))
    r = procrustes_rotation(x, y)
    best = np.linalg.norm(x @ r - y)
    for _ in range(100):
        q = random_orthogonal(4, rng)
        assert best <= np.linalg.norm(x @ q - y) + 1e-12


def test_output_orthogonal_even_when_degenerate():
    x = np.zeros((6, 3))
    x[:, 0] = np.arange(6)  # rank 1
    y = np.random.default_rng(4).normal(size=(6, 3))
    r = procrustes_rotation(x, y)
    assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-10


def test_procrustes_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        procrustes_rotation(np.ones((3, 2)), np.ones((4, 2)))


# --- pca_project_2d -------------------------------------------------------


def test_axis_aligned_input_is_fixed_point():
    x = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    out = pca_project_2d(x)
    assert np.allclose(out, x, atol=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 5))
    shifted = x + rng.normal(size=5)
    assert np.allclose(pca_project_2d(x), pca_project_2d(shifted), atol=1e-10)


def test_captured_variance_matches_eigen_oracle():
    x = np.random.default_rng(7).normal(size=(40, 6))
    out = pca_project_2d(x)
    centered = x - x.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
    got = np.sum(out**2, axis=0)
    assert got[0] == pytest.approx(eigvals[0], rel=1e-8)
    assert got[1] == pytest.approx(eigvals[1], rel=1e-8)


def test_output_columns_centered():
    x = np.random.default_rng(8).normal(size=(15, 4)) + 3.0
    out = pca_project_2d(x)
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-10


def test_degenerate_rows_flagged():
    x = np.ones((5, 3))
    with pytest.warns(DegenerateInputWarning):
        out = pca_project_2d(x)
    assert np.array_equal(out, np.zeros((5, 2)))


def test_projection_deterministic():
    x = np.random.default_rng(9).normal(size=(10, 3))
    assert np.array_equal(pca_project_2d(x), pca_project_2d(x.copy()))


def test_pca_input_validation():
    with pytest.raises(ValueError, match="d >= 2"):
        pca_project_2d(np.ones((5, 1)))
    with pytest.raises(ValueError, match="2 rows"):
        pca_project_2d(np.ones((1, 3)))

"""Truncated SVD, Procrustes, and PCA against full-decomposition oracles.

truncated_svd computes the top d triples through the Gram matrix, so it is
checked against truncated_svd_ref, the full LAPACK decomposition cut to d.
Its singular values are held to S_TOL times sigma_1 and its rank-j
reconstructions to RECONSTRUCTION_TOL times sigma_1 wherever the gap
sigma_j - sigma_{j+1} exceeds RECONSTRUCTION_GAP times sigma_1; inside a
smaller gap the rank-j factor is not determined by the matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed.numerics import (ORTHO_TOL, DegenerateInputWarning, TruncatedSvd,
                               pca_project_2d, procrustes_rotation,
                               truncated_svd)

from dynembed.graphs import GraphSnapshot, dense_adjacency
from dynembed.rng import Rng
from dynembed.sbm import generate_sbm_snapshot
from dynembed.svd_embed import optimal_svd_embed

from oracles import random_orthogonal, truncated_svd_ref

S_TOL = 1e-13
RECONSTRUCTION_GAP = 1e-3
RECONSTRUCTION_TOL = 1e-11


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


@st.composite
def svd_inputs(draw):
    """(a, d) with a tall, wide or square and d up to min(m, n), a drawn from
    Gaussian, 0/1 adjacency-like, zero, rank-1 and repeated-sigma inputs."""
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    small = draw(st.integers(min_value=1, max_value=10))
    big = small if shape == "square" else small + draw(st.integers(min_value=1, max_value=10))
    m, n = (small, big) if shape == "wide" else (big, small)
    kind = draw(st.sampled_from(["normal", "adjacency", "zero", "rank1", "identity", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "normal":
        a = rng.normal(size=(m, n))
    elif kind == "adjacency":
        a = (rng.random((m, n)) < draw(st.sampled_from([0.05, 0.2, 0.5]))).astype(np.float64)
    elif kind == "zero":
        a = np.zeros((m, n))
    elif kind == "rank1":
        a = np.outer(rng.normal(size=m), rng.normal(size=n))
    elif kind == "identity":
        a = np.eye(m, n)
    else:  # every singular value of the block appears twice
        a = np.kron(np.eye(2), rng.normal(size=(m, n)))
    low = min(a.shape)
    d = low if draw(st.booleans()) else draw(st.integers(min_value=1, max_value=low))
    return a, d


@settings(max_examples=300, deadline=None)
@given(svd_inputs())
def test_top_d_route_matches_full_decomposition(case):
    _assert_matches_full_decomposition(*case)


def _assert_matches_full_decomposition(a, d):
    f = truncated_svd(a, d)
    ref = truncated_svd_ref(a, d)
    sigma = np.append(np.linalg.svd(a, compute_uv=False), 0.0)
    scale = sigma[0]

    assert np.max(np.abs(f.S - ref.S)) <= S_TOL * scale
    tail = float(np.sum(sigma[d:] ** 2))
    assert _residual_sq(a, f) == pytest.approx(tail, rel=1e-9, abs=S_TOL * scale**2)
    for j in range(1, d + 1):
        if sigma[j - 1] - sigma[j] > RECONSTRUCTION_GAP * scale:
            diff = ((f.U[:, :j] * f.S[:j]) @ f.V[:, :j].T
                    - (ref.U[:, :j] * ref.S[:j]) @ ref.V[:, :j].T)
            assert np.max(np.abs(diff)) <= RECONSTRUCTION_TOL * scale
    for m in (f.U, f.V):
        assert np.max(np.abs(m.T @ m - np.eye(d))) <= ORTHO_TOL
    return f


def _assert_exact_zeros_where_the_input_is_zero(a, f):
    zero_rows, zero_cols = ~a.any(axis=1), ~a.any(axis=0)
    if min(np.count_nonzero(~zero_rows), np.count_nonzero(~zero_cols)) >= f.S.size:
        assert np.all(f.U[zero_rows] == 0.0) and np.all(f.V[zero_cols] == 0.0)


@settings(max_examples=200, deadline=None)
@given(svd_inputs(), st.data())
def test_zero_rows_and_columns_give_exactly_zero_factor_rows(case, data):
    a, d = case
    a = a.copy()
    a[data.draw(st.lists(st.integers(0, a.shape[0] - 1), max_size=3))] = 0.0
    a[:, data.draw(st.lists(st.integers(0, a.shape[1] - 1), max_size=3))] = 0.0
    _assert_exact_zeros_where_the_input_is_zero(a, _assert_matches_full_decomposition(a, d))


@pytest.mark.parametrize("view", ["square", "tall", "wide"])
def test_a_stripped_node_has_exactly_zero_factor_rows(view):
    # the SBM snapshot of the static LP report test at scale, with node 0
    # stripped of its edges and node 1 of its out-edges only
    a = dense_adjacency(generate_sbm_snapshot(np.repeat([0, 1], 85), 0.3, 0.05, Rng(21)))
    a[0] = a[:, 0] = a[1] = 0.0
    a = {"square": a, "tall": a[:, :120], "wide": a[:120]}[view]
    f = _assert_matches_full_decomposition(a, 32)
    _assert_exact_zeros_where_the_input_is_zero(a, f)
    assert np.all(f.U[:2] == 0.0) and np.all(f.V[0] == 0.0) and np.any(f.V[1] != 0.0)
    if view == "square":
        us, vs = np.nonzero(a)
        y_src, y_tgt, _ = optimal_svd_embed(GraphSnapshot(170, us, vs, a[us, vs]), 8)
        scores = y_src @ y_tgt.T
        assert np.all(scores[:2] == 0.0) and np.all(scores[:, 0] == 0.0)


@pytest.mark.parametrize("power", [560, -560])
def test_extreme_scales_match_the_unit_scale_factor(power):
    # the Gram matrix of a scaled by 2^560 overflows and that of a scaled by
    # 2^-560 underflows; scaling a by a power of two first keeps both exact
    a = (np.random.default_rng(7).random((60, 60)) < 0.2).astype(np.float64)
    unit = truncated_svd(a, 8)
    scaled = np.ldexp(a, power)
    f = truncated_svd(scaled, 8)
    assert np.array_equal(f.S, np.ldexp(unit.S, power))
    assert np.array_equal(f.U, unit.U) and np.array_equal(f.V, unit.V)
    ref = truncated_svd_ref(scaled, 8)
    assert np.max(np.abs(f.S - ref.S)) <= S_TOL * ref.S[0]


@pytest.mark.parametrize("shape, d", [((40, 25), 6), ((25, 40), 6), ((30, 30), 5)])
def test_no_full_decomposition(monkeypatch, shape, d):
    # every SVD the route takes is of a factor with at most d columns or rows
    svd = np.linalg.svd
    shapes = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda x, *args, **kw: shapes.append(x.shape) or svd(x, *args, **kw))
    truncated_svd(np.random.default_rng(8).normal(size=shape), d)
    assert shapes and all(min(s) <= d for s in shapes)


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

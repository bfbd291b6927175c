"""SVD-family embeddings: batch, incremental, and restart behavior.

The block-constant fixtures have exactly known rank (rank of the block
weight matrix), which is what the d >= rank exactness tests need. The
restart fixture keeps per-step perturbations tiny so the Weyl lower bound
decays slowly and stays positive long enough for the ratio test to fire.

An update takes Brand's path while r + k < n and one dense SVD from there
on. The restart fixture has r = n = 16, so it runs the dense path on every
step. Each path has its own exactness test, and the two are checked against
each other on drawn factors.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed import svd_embed
from dynembed.graphs import (GraphSnapshot, SnapshotSequence, dense_adjacency,
                             edge_delta)
from dynembed.numerics import TruncatedSvd, truncated_svd
from dynembed.rng import Rng
from dynembed.sbm import SbmParams, _snapshot_from_dense, diminish_series, generate_sbm_snapshot
from dynembed.svd_embed import (RestartLogEntry, SvdFactorState, _exact_loss, _top_view,
                                delta_factor, incremental_update, optimal_svd_embed,
                                rerun_svd_series, save_restart_log)
from oracles import (brute_min_cover_size, plain_incremental_fold, row_indicator_factor,
                     save_restart_log_ref, snapshot, truncated_svd_ref)


def _block_constant(groups, b):
    """Adjacency with A[u, v] = b[g(u), g(v)], self-loops included so the
    rank equals rank(b) exactly."""
    labels = np.concatenate([np.full(s, i) for i, s in enumerate(groups)])
    return np.asarray(b, dtype=np.float64)[labels[:, None], labels[None, :]]


def _restart_fixture():
    """Dense-ish base graph plus tiny single-edge reweights each step."""
    g0 = generate_sbm_snapshot(np.zeros(16, dtype=np.int64), 0.35, 0.0, Rng(0))
    snaps = [g0]
    for t in range(1, 8):
        weights = g0.weights.copy()
        weights[0] += 0.05 * t  # the first edge in (u, v) order
        snaps.append(GraphSnapshot(16, g0.rows, g0.cols, weights))
    return SnapshotSequence(snaps)


# --- optimal embedding ----------------------------------------------------


def test_empty_graph_embeds_to_zero():
    y_src, y_tgt, state = optimal_svd_embed(GraphSnapshot(5), 2)
    assert np.array_equal(y_src, np.zeros((5, 2)))
    assert np.array_equal(y_tgt, np.zeros((5, 2)))
    assert state.cur_loss == 0.0


def test_two_disjoint_edges_exact_at_rank_two():
    g = snapshot(4, [(0, 1, 1.0), (2, 3, 1.0)])
    a = dense_adjacency(g)
    assert np.linalg.matrix_rank(a) == 2
    y_src, y_tgt, _ = optimal_svd_embed(g, 2)
    assert np.max(np.abs(y_src @ y_tgt.T - a)) <= 1e-8


def test_two_disjoint_two_cycles_exact_at_oracle_rank():
    # each directed 2-cycle block is a rank-2 permutation block, so the
    # exact-rank oracle reports 4 and d=4 reconstructs exactly
    g = snapshot(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
    a = dense_adjacency(g)
    rank = int(np.linalg.matrix_rank(a))
    assert rank == 4
    y_src, y_tgt, _ = optimal_svd_embed(g, rank)
    assert np.max(np.abs(y_src @ y_tgt.T - a)) <= 1e-8


def test_optimal_matches_truncated_svd_oracle():
    g = generate_sbm_snapshot(np.repeat([0, 1], 10), 0.4, 0.1, Rng(1))
    a = dense_adjacency(g)
    y_src, y_tgt, state = optimal_svd_embed(g, 3)
    oracle = truncated_svd_ref(a, 3)
    assert np.allclose(y_src @ y_tgt.T, oracle.reconstruct(), atol=1e-10)
    want_loss = float(np.sum((a - oracle.reconstruct()) ** 2))
    assert state.cur_loss == pytest.approx(want_loss, rel=1e-10)


# --- delta factoring ------------------------------------------------------


def test_delta_factor_empty():
    p, q = delta_factor(edge_delta(GraphSnapshot(3), GraphSnapshot(3)), 3)
    assert p.shape == (3, 0) and q.shape == (3, 0)


def test_delta_factor_single_reweight_hand_example():
    prev = snapshot(3, [(0, 1, 1.0)])
    nxt = snapshot(3, [(0, 1, 2.0)])
    p, q = delta_factor(edge_delta(prev, nxt), 3)
    assert np.array_equal(p, np.array([[1.0], [0.0], [0.0]]))
    assert np.array_equal(q, np.array([[0.0], [1.0], [0.0]]))
    assert np.array_equal(p @ q.T, dense_adjacency(nxt) - dense_adjacency(prev))


def test_delta_factor_densify_oracle():
    rng = np.random.default_rng(2)
    a = (rng.random((30, 30)) < 0.1) * np.round(rng.random((30, 30)) + 0.5, 3)
    b = (rng.random((30, 30)) < 0.1) * np.round(rng.random((30, 30)) + 0.5, 3)
    ga, gb = _snapshot_from_dense(a), _snapshot_from_dense(b)
    p, q = delta_factor(edge_delta(ga, gb), 30)
    assert np.array_equal(p @ q.T, dense_adjacency(gb) - dense_adjacency(ga))


@st.composite
def sparse_snapshot_pairs(draw, max_n=12):
    """Two snapshots over one node set; a small weight pool invites reweights."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    weights = st.sampled_from([0.5, 1.0, 2.0, 0.1, 1e-300, 1e300])
    prev = draw(st.dictionaries(pair, weights, max_size=3 * n))
    nxt = draw(st.dictionaries(pair, weights, max_size=3 * n))
    return (snapshot(n, [(u, v, w) for (u, v), w in prev.items()]),
            snapshot(n, [(u, v, w) for (u, v), w in nxt.items()]))


def _changed(prev, nxt):
    diff = dense_adjacency(nxt) - dense_adjacency(prev)
    return list(zip(*(x.tolist() for x in np.nonzero(diff))))


@settings(max_examples=150, deadline=None)
@given(sparse_snapshot_pairs())
def test_delta_factor_is_exact_and_no_wider_than_either_side(pair):
    prev, nxt = pair
    p, q = delta_factor(edge_delta(prev, nxt), prev.n)
    want = dense_adjacency(nxt) - dense_adjacency(prev)
    # + 0.0 maps -0.0 to 0.0, so the bytes compare values
    assert (p @ q.T + 0.0).tobytes() == (want + 0.0).tobytes()
    entries = _changed(prev, nxt)
    assert p.shape[1] <= min(len({u for u, _ in entries}), len({v for _, v in entries}))


@settings(max_examples=150, deadline=None)
@given(sparse_snapshot_pairs(max_n=6))
def test_delta_factor_width_is_minimum_cover(pair):
    prev, nxt = pair
    p, _ = delta_factor(edge_delta(prev, nxt), prev.n)
    assert p.shape[1] == brute_min_cover_size(_changed(prev, nxt))


def test_delta_factor_cover_layout():
    # a row with three changes and a column with two: cover is {row 1, col 4}
    prev = snapshot(6, [(1, 0, 1.0), (3, 4, 2.0)])
    nxt = snapshot(6, [(1, 2, 1.0), (1, 4, 1.0), (5, 4, 0.5), (3, 4, 1.0)])
    p, q = delta_factor(edge_delta(prev, nxt), 6)
    assert p.shape == (6, 2)
    assert np.array_equal(p[:, 0], np.eye(6)[1])
    assert np.array_equal(q[:, 0], [-1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(q[:, 1], np.eye(6)[4])
    assert np.array_equal(p[:, 1], [0.0, 0.0, 0.0, -1.0, 0.0, 0.5])


def test_delta_factor_migrant_width(drift_sbm_50):
    # each migrant's out-row and in-column change: one cover vertex each
    seq = drift_sbm_50.sequence
    for t in range(1, len(seq)):
        delta = edge_delta(seq[t - 1], seq[t])
        p, q = delta_factor(delta, seq.n)
        rank = np.linalg.matrix_rank(dense_adjacency(seq[t]) - dense_adjacency(seq[t - 1]))
        assert p.shape[1] == rank <= 2 * len(drift_sbm_50.migrations[t])
        rows = {int(u) for records in (delta.added, delta.removed, delta.reweighted)
                for u in records["u"]}
        assert p.shape[1] < len(rows)


def _scores(state):
    """Y_src Y_tgt^T of the rank-d view."""
    view = state.truncated()
    root = np.sqrt(view.S)
    return (view.U * root) @ (view.V * root).T


def test_cover_and_row_factor_give_the_same_series(drift_sbm_50):
    seq = drift_sbm_50.sequence
    _, _, cover = optimal_svd_embed(seq[0], 6)
    rows = cover
    for t in range(1, len(seq)):
        delta = edge_delta(seq[t - 1], seq[t])
        cover = incremental_update(cover, *delta_factor(delta, seq.n), seq[t])
        rows = incremental_update(rows, *row_indicator_factor(delta, seq.n), seq[t])
        assert cover.cur_loss == pytest.approx(rows.cur_loss, rel=1e-9)
        assert np.max(np.abs(_scores(cover) - _scores(rows))) <= 1e-9


# --- incremental updates --------------------------------------------------


def test_empty_delta_short_circuit():
    g = generate_sbm_snapshot(np.repeat([0, 1], 8), 0.5, 0.1, Rng(3))
    _, _, state = optimal_svd_embed(g, 4)
    new = incremental_update(state, np.zeros((16, 0)), np.zeros((16, 0)), g)
    assert new.t_cur == state.t_cur + 1
    assert new.factor is state.factor
    assert new.pert_norm_sum == state.pert_norm_sum
    assert new.cur_loss == pytest.approx(state.cur_loss, rel=1e-12)


def test_incremental_rejects_bad_shapes():
    g = snapshot(4, [(0, 1, 1.0)])
    _, _, state = optimal_svd_embed(g, 2)
    with pytest.raises(ValueError, match="n x k"):
        incremental_update(state, np.zeros((4, 1)), np.zeros((4, 2)), g)
    with pytest.raises(ValueError, match="n x k"):
        incremental_update(state, np.zeros((3, 1)), np.zeros((4, 1)), g)


def test_incremental_rejects_a_snapshot_of_another_size():
    g = snapshot(4, [(0, 1, 1.0)])
    _, _, state = optimal_svd_embed(g, 2)
    with pytest.raises(ValueError, match="snapshot has 5 nodes, the factor state tracks 4"):
        incremental_update(state, np.zeros((4, 1)), np.zeros((4, 1)), GraphSnapshot(5))


def test_factor_state_rejects_a_factor_of_another_size():
    _, _, state = optimal_svd_embed(snapshot(4, [(0, 1, 1.0)]), 2)
    with pytest.raises(ValueError, match="factor rows 4, 4 do not match the snapshot's 3 nodes"):
        replace(state, snapshot=GraphSnapshot(3))
    short = TruncatedSvd(U=np.eye(4)[:, :2], S=np.array([2.0, 1.0]), V=np.eye(3)[:, :2])
    with pytest.raises(ValueError, match="factor rows 4, 3 do not match the snapshot's 4 nodes"):
        replace(state, factor=short)


def _update_exactly(groups):
    """Check that one update between block-constant snapshots of rank 3 at
    d = 4 is exact; returns (state before, P)."""
    b1 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    b2 = np.array([[1.0, 2.0, 0.0], [0.0, 1.5, 0.5], [0.0, 0.0, 3.0]])
    a1, a2 = _block_constant(groups, b1), _block_constant(groups, b2)
    assert np.linalg.matrix_rank(a2) == 3
    g1, g2 = _snapshot_from_dense(a1), _snapshot_from_dense(a2)
    _, _, before = optimal_svd_embed(g1, 4)
    p, q = delta_factor(edge_delta(g1, g2), a1.shape[0])
    after = incremental_update(before, p, q, g2)
    view = after.truncated()
    assert after.cur_loss <= 1e-16
    assert np.max(np.abs(view.reconstruct() - a2)) <= 1e-8
    oracle = truncated_svd_ref(a2, 4).reconstruct()
    assert np.max(np.abs(view.reconstruct() - oracle)) <= 1e-8
    return before, p


def test_update_exact_when_d_covers_rank():
    # n = 10 and r = min(4d, n) = n: the dense path
    before, p = _update_exactly((4, 3, 3))
    assert before.factor.S.shape[0] + p.shape[1] >= 10


def test_brand_update_exact_when_d_covers_rank():
    # n = 40, r = 16, and the delta is one block row of 12 rows: Brand's path
    before, p = _update_exactly((16, 12, 12))
    assert (before.factor.S.shape[0], p.shape[1]) == (16, 12)


@st.composite
def factor_updates(draw):
    """A factor state of rank r on n nodes and an update P Q^T whose width
    lies within a few columns of n - r, on either side of the switch."""
    n = draw(st.integers(min_value=2, max_value=12))
    r = draw(st.integers(min_value=1, max_value=n))
    k = max(1, n - r + draw(st.integers(min_value=-3, max_value=1)))
    d = draw(st.integers(min_value=1, max_value=r))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    u = np.linalg.qr(rng.normal(size=(n, r)))[0]
    v = np.linalg.qr(rng.normal(size=(n, r)))[0]
    s = np.sort(rng.uniform(0.1, 10.0, size=r))[::-1]
    factor = TruncatedSvd(U=u, S=s, V=v)
    # the tracked snapshot is not the factor, as after a truncating update
    g = _snapshot_from_dense(rng.uniform(0.1, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.5))
    state = SvdFactorState(factor=factor, d=d, t_cur=0, sigma_restart=s[:d].copy(),
                           pert_norm_sum=0.0,
                           cur_loss=_exact_loss(dense_adjacency(g), _top_view(factor, d)),
                           snapshot=g)
    return state, rng.normal(size=(n, k)), rng.normal(size=(n, k))


# singular gap above which a rank-j reconstruction is compared, relative to sigma_1
RECONSTRUCTION_GAP = 1e-3


@settings(max_examples=200, deadline=None)
@given(factor_updates())
def test_dense_and_brand_updates_agree(update):
    state, p, q = update
    n, r = state.snapshot.n, state.factor.S.shape[0]
    updated = state.factor.reconstruct() + p @ q.T
    new = incremental_update(state, p, q, state.snapshot)
    if r + p.shape[1] >= n:
        other = svd_embed._brand_update(state.factor, p, q)
    else:
        other = truncated_svd(updated, r)
    sigma = np.append(np.linalg.svd(updated, compute_uv=False), 0.0)

    assert np.max(np.abs(new.factor.S - other.S)) <= 1e-12 * new.factor.S[0]
    other_loss = _exact_loss(dense_adjacency(new.snapshot), _top_view(other, state.d))
    assert new.cur_loss == pytest.approx(other_loss, rel=1e-9)
    for j in range(1, r + 1):
        if sigma[j - 1] - sigma[j] > RECONSTRUCTION_GAP * sigma[0]:
            diff = (_top_view(new.factor, j).reconstruct()
                    - _top_view(other, j).reconstruct())
            assert np.max(np.abs(diff)) <= 1e-9
    for f in (new.factor, other):
        TruncatedSvd(U=f.U, S=f.S, V=f.V)  # raises unless U and V are orthonormal


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_dense_path_fires_exactly_when_the_update_spans_the_space(monkeypatch, width):
    g = generate_sbm_snapshot(np.repeat([0, 1], 6), 0.5, 0.1, Rng(4))
    _, _, state = optimal_svd_embed(g, 2)
    n, r = 12, state.factor.S.shape[0]
    assert r == 8
    calls = []
    monkeypatch.setattr(svd_embed, "truncated_svd",
                        lambda a, rank: calls.append(rank) or truncated_svd(a, rank))
    rng = np.random.default_rng(width)
    incremental_update(state, rng.normal(size=(n, width)), rng.normal(size=(n, width)), g)
    assert calls == ([r] if r + width >= n else [])


def test_incremental_tracks_batch_loss_on_drift(drift_sbm_50):
    seq = SnapshotSequence(drift_sbm_50.sequence[:3])
    series, log, _ = rerun_svd_series(seq, 6, math.inf)
    for t in range(len(seq)):
        a = dense_adjacency(seq[t])
        opt = float(np.sum((a - truncated_svd_ref(a, 6).reconstruct()) ** 2))
        assert log[t].cur_loss <= opt * 1.05
        assert log[t].cur_loss >= opt * (1.0 - 1e-9)  # optimal is a floor


def test_cur_loss_is_exact_after_updates(drift_sbm_50):
    # cur_loss must match the rank-d view, not the buffered factor
    seq = SnapshotSequence(drift_sbm_50.sequence[:3])
    _, _, state = optimal_svd_embed(seq[0], 5)
    for t in range(1, len(seq)):
        p, q = delta_factor(edge_delta(seq[t - 1], seq[t]), seq.n)
        state = incremental_update(state, p, q, seq[t])
        view = state.truncated()
        assert view.S.shape == (5,)
        recomputed = float(np.sum((dense_adjacency(seq[t]) - view.reconstruct()) ** 2))
        assert state.cur_loss == pytest.approx(recomputed, rel=1e-8)
        r = state.factor.S.shape[0]
        drift = np.max(np.abs(state.factor.U.T @ state.factor.U - np.eye(r)))
        assert drift <= 1e-8


@st.composite
def weighted_sequences(draw, max_n=10):
    """(sequence, d): a snapshot then up to four steps that toggle edges and,
    unless all weights are 1, scale some by a factor that mostly shrinks them
    by more than 2x, where w_old + (w_new - w_old) can round off w_new."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    binary = draw(st.booleans())
    weight = st.just(1.0) if binary else st.floats(min_value=0.01, max_value=10.0)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.dictionaries(cell, weight, min_size=1, max_size=3 * n))
    snaps = [edges]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        edges = dict(edges)
        for uv in draw(st.lists(cell, max_size=n)):
            if edges.pop(uv, None) is None:
                edges[uv] = draw(weight)
        if edges and not binary:
            for uv in draw(st.lists(st.sampled_from(sorted(edges)), max_size=2 * n)):
                edges[uv] *= draw(st.sampled_from([0.1, 0.3, 0.45, 3.0]))
        snaps.append(edges)
    seq = SnapshotSequence([snapshot(n, [(u, v, w) for (u, v), w in e.items()]) for e in snaps])
    return seq, draw(st.integers(min_value=1, max_value=n))


@settings(max_examples=200, deadline=None)
@given(weighted_sequences(), st.sampled_from([math.inf, 0.05]))
def test_loss_and_bound_are_the_snapshots_own(case, theta):
    seq, d = case
    _, _, state = optimal_svd_embed(seq[0], d)
    for t in range(1, len(seq)):
        state, _ = svd_embed.rerun_svd_step(state, seq[t], theta)
        assert state.snapshot is seq[t]
        a = dense_adjacency(seq[t])
        assert state.cur_loss == _exact_loss(a, state.truncated())  # bitwise
        # with no restart spectrum the bound is ||A||_F^2 itself
        norm_sq = svd_embed.loss_lower_bound(
            replace(state, sigma_restart=np.zeros(d), pert_norm_sum=0.0))
        if np.all(seq[t].weights == 1.0):  # integer partial sums: exact in any order
            assert norm_sq == float(np.sum(a * a))
        else:
            assert norm_sq == pytest.approx(float(np.sum(a * a)), rel=1e-13)


# --- restart behavior -----------------------------------------------------


def test_restart_fires_on_slow_bound_decay():
    seq = _restart_fixture()
    series, log, _ = rerun_svd_series(seq, 4, theta=0.08)
    assert not log[0].restarted
    assert any(e.restarted for e in log[1:])
    for e in log:
        assert e.bound > 0.0
        assert e.cur_loss <= (1.0 + 0.08) * e.bound * (1.0 + 1e-12)
    for e in log:
        if e.restarted:
            a = dense_adjacency(seq[e.t])
            opt = float(np.sum((a - truncated_svd_ref(a, 4).reconstruct()) ** 2))
            assert e.cur_loss == pytest.approx(opt, rel=1e-8)
            assert e.bound == pytest.approx(opt, rel=1e-8)  # fresh accumulators


def test_tiny_theta_restarts_every_step():
    seq = _restart_fixture()
    _, log, _ = rerun_svd_series(seq, 4, theta=1e-9)
    assert all(e.restarted for e in log[1:])
    for e in log[1:]:
        a = dense_adjacency(seq[e.t])
        opt = float(np.sum((a - truncated_svd_ref(a, 4).reconstruct()) ** 2))
        assert e.cur_loss == pytest.approx(opt, rel=1e-8)


def test_monotone_loss_dominance():
    seq = _restart_fixture()
    _, log_inc, _ = rerun_svd_series(seq, 4, math.inf)
    _, log_rerun, _ = rerun_svd_series(seq, 4, theta=0.08)
    for t in range(len(seq)):
        a = dense_adjacency(seq[t])
        opt = float(np.sum((a - truncated_svd_ref(a, 4).reconstruct()) ** 2))
        assert opt <= log_rerun[t].cur_loss * (1.0 + 1e-9)
        assert log_rerun[t].cur_loss <= log_inc[t].cur_loss * (1.0 + 1e-9)


def test_restart_contract_holds_where_the_bound_is_positive():
    # criterion 2's fixture with one migrant per step: there the bound stays
    # positive and restarts fire, so each check below can fail
    params = SbmParams(node_num=200, community_num=2, length=10, diminish_community=1,
                       node_change_num=1, seed=0)
    seq = diminish_series(params).sequence
    _, log, _ = rerun_svd_series(seq, 8, theta=1.0)
    _, inc_log = plain_incremental_fold(seq, 8)
    assert any(e.restarted for e in log[1:])
    for e, inc in zip(log, inc_log):
        a = dense_adjacency(seq[e.t])
        opt = float(np.sum((a - truncated_svd_ref(a, 8).reconstruct()) ** 2))
        assert 0.0 < e.bound <= opt * (1.0 + 1e-9)
        if e.restarted:
            assert e.cur_loss == pytest.approx(opt, rel=1e-9)
        assert e.cur_loss <= inc.cur_loss
    assert any(e.cur_loss < inc.cur_loss for e, inc in zip(log, inc_log))


def test_infinite_theta_is_bitwise_incremental(drift_sbm_50):
    seq = SnapshotSequence(drift_sbm_50.sequence[:4])
    inc_embeddings, inc_log = plain_incremental_fold(seq, 6)
    inf_series, inf_log, _ = rerun_svd_series(seq, 6, math.inf)
    for t, (y_src, y_tgt) in enumerate(inc_embeddings):
        assert np.array_equal(y_src, inf_series.src_at(t))
        assert np.array_equal(y_tgt, inf_series.tgt_at(t))
    assert inc_log == inf_log
    assert not any(e.restarted for e in inf_log)


@pytest.mark.parametrize("keep", [0, 2, 4])
def test_kept_state_is_that_steps_state(keep):
    seq = _restart_fixture()
    series, log, state = rerun_svd_series(seq, 4, 0.08, keep=keep)
    assert state.t_cur == keep and state.cur_loss == log[keep].cur_loss
    y_src, y_tgt = state.embedding()
    assert np.array_equal(y_src, series.src_at(keep))
    assert np.array_equal(y_tgt, series.tgt_at(keep))


@pytest.mark.parametrize("keep", [None, -1, 99])
def test_no_state_kept_for_a_step_the_series_lacks(keep):
    assert rerun_svd_series(_restart_fixture(), 4, 0.08, keep=keep)[2] is None


def _scaled_sequence(scales):
    """Three snapshots of a 30-node SBM, the weights of snapshot t times scales[t]."""
    params = SbmParams(node_num=30, community_num=2, length=3, diminish_community=1,
                       node_change_num=2, seed=0)
    seq = diminish_series(params).sequence
    return SnapshotSequence([GraphSnapshot(g.n, g.rows, g.cols, g.weights * scale)
                             for g, scale in zip(seq, scales)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scales, t", [((1e170,) * 3, 0), ((1.0, 1.0, 1e170), 2)])
def test_overflowing_loss_is_an_error_naming_t(scales, t):
    with pytest.raises(ValueError, match=f"t={t}: loss or perturbation norm overflows"):
        rerun_svd_series(_scaled_sequence(scales), 2, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_norm_is_an_error_of_the_bound():
    # rank 1, so the rank-2 loss is a rounding error while ||A||^2 overflows
    g = _snapshot_from_dense(np.full((30, 30), 1e160))
    _, _, state = optimal_svd_embed(g, 2)
    assert math.isfinite(state.cur_loss)
    with pytest.raises(ValueError, match="t=0: .*overflows"):
        svd_embed.loss_lower_bound(state)


def test_tiny_weights_keep_working():
    seq = _scaled_sequence((1e-170,) * 3)
    series, log, _ = rerun_svd_series(seq, 2, 1.0)
    assert all(math.isfinite(e.cur_loss) and math.isfinite(e.bound) for e in log)
    a = dense_adjacency(seq[0])
    oracle = truncated_svd_ref(a, 2)
    got = series.src_at(0) @ series.tgt_at(0).T
    assert np.max(np.abs(got - oracle.reconstruct())) <= 1e-9 * oracle.S[0]


def test_theta_validation():
    seq = SnapshotSequence([snapshot(3, [(0, 1, 1.0), (1, 2, 1.0)])])
    with pytest.raises(ValueError, match="theta"):
        rerun_svd_series(seq, 1, 0.0)
    with pytest.raises(ValueError, match="theta"):
        rerun_svd_series(seq, 1, -1.0)


# --- restart log -----------------------------------------------------------


def test_restart_log_matches_per_entry_oracle(tmp_path):
    values = [0.0, -0.0, 5e-324, 1e300, 1.7976931348623157e308, 0.1, 1 / 3, 1e16,
              2.0**53 + 2, 123456.789]
    rng = np.random.default_rng(5)
    values += (rng.normal(size=40) * 10.0 ** rng.integers(-30, 30, size=40)).tolist()
    log = [RestartLogEntry(t, bool(t % 3 == 0), cur, bound)
           for t, (cur, bound) in enumerate(zip(values, reversed(values)))]
    log.append(RestartLogEntry(10**6, True, 2.5, 0.0))
    save_restart_log(log, tmp_path / "new.txt")
    save_restart_log_ref(log, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_restart_log_format(tmp_path):
    log = [RestartLogEntry(0, False, 1.5, 2.25), RestartLogEntry(1, True, 0.125, 0.125)]
    path = tmp_path / "restart_log.txt"
    save_restart_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["0", "0", "1.5", "2.25"]
    assert lines[1].split() == ["1", "1", "0.125", "0.125"]

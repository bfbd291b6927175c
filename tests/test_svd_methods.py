"""SVD-family embeddings: batch, incremental, and restart behavior.

The block-constant fixtures have exactly known rank (rank of the block
weight matrix), which is what the d >= rank exactness tests need.

An update is a Rayleigh-Ritz step on the epoch's growing basis while the
epoch's width r + k stays below n, and a batch SVD of the snapshot from
there on. Each path has its own exactness test. The Ritz fold is checked
against ritz_fold_ref, which rebuilds the basis and the factor from scratch
at every step, and against Brand's additive update (brand_fold_ref), which
it replaced and whose loss it never exceeds until its first batch step. The
Ky Fan certificate is checked against the exact optimum on drawn sequences
with added, removed and reweighted edges, at weights scaled by 1e-170 and
1e150, with r < n and r = n.

The restart fixtures: _restart_fixture has r = n = 16, so every step there
is a batch step, exact, and no restart can fire. Criterion 2's fixture
(n = 200, d = 8) with 10 migrants per step is where a restart fires at
theta = 0.1; with one migrant per step the bound stays positive and no
restart fires at theta = 1.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed import svd_embed
from dynembed.evaluation import static_lp_split
from dynembed.graphs import (GraphSnapshot, SnapshotSequence, dense_adjacency,
                             edge_delta)
from dynembed.numerics import TruncatedSvd, truncated_svd
from dynembed.rng import Rng
from dynembed.sbm import SbmParams, diminish_series, generate_sbm_snapshot
from dynembed.svd_embed import (BOUND_RTOL, RestartLogEntry, delta_factor,
                                incremental_update, loss_lower_bound, optimal_svd_embed,
                                rerun_svd_series, rerun_svd_step, save_restart_log)
from oracles import (brand_fold_ref, brand_update_ref, brute_min_cover_size,
                     plain_incremental_fold, ritz_fold_ref, row_indicator_factor,
                     save_restart_log_ref, snapshot, snapshot_from_dense, truncated_svd_ref)

# The closed-form loss ||A||^2 - sum sigma_i^2 subtracts two sums of about
# ||A||^2, so it is compared with a loss computed another way to this
# tolerance relative to ||A_t||^2.
LOSS_RTOL = 1e-10


def _block_constant(groups, b):
    """Adjacency with A[u, v] = b[g(u), g(v)], self-loops included so the
    rank equals rank(b) exactly."""
    labels = np.concatenate([np.full(s, i) for i, s in enumerate(groups)])
    return np.asarray(b, dtype=np.float64)[labels[:, None], labels[None, :]]


def _restart_fixture():
    """Dense-ish base graph plus tiny single-edge reweights each step, on
    16 nodes: at d = 4, r = n and every step is a batch step."""
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
    ga, gb = snapshot_from_dense(a), snapshot_from_dense(b)
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
    """Y_src Y_tgt^T of the factor."""
    y_src, y_tgt = state.embedding()
    return y_src @ y_tgt.T


def _norm_sq(a):
    return float(np.sum(a * a))


def _optimum(a, d):
    """Optimal rank-d loss of a from all of its singular values (gesdd)."""
    return float(np.sum(np.linalg.svd(a, compute_uv=False)[d:] ** 2))


def test_cover_and_row_factor_give_the_same_series(drift_sbm_50):
    # both factors span the change's row space, so the Ritz steps agree; the
    # row factor is wider, so its epoch reaches n sooner, and from that
    # batch step on its loss is the optimum
    seq = drift_sbm_50.sequence
    _, _, cover = optimal_svd_embed(seq[0], 6)
    rows = cover
    for t in range(1, len(seq)):
        delta = edge_delta(seq[t - 1], seq[t])
        cover = incremental_update(cover, *delta_factor(delta, seq.n), seq[t])
        rows = incremental_update(rows, *row_indicator_factor(delta, seq.n), seq[t])
        if rows.batch:
            break
        assert cover.cur_loss == pytest.approx(rows.cur_loss, rel=1e-9)
        assert np.max(np.abs(_scores(cover) - _scores(rows))) <= 1e-9
    assert 1 < t < len(seq) - 1 and rows.batch and not cover.batch
    assert rows.cur_loss <= cover.cur_loss


# --- incremental updates --------------------------------------------------


def test_empty_delta_short_circuit():
    g = generate_sbm_snapshot(np.repeat([0, 1], 8), 0.5, 0.1, Rng(3))
    _, _, state = optimal_svd_embed(g, 4)
    new = incremental_update(state, np.zeros((16, 0)), np.zeros((16, 0)), g)
    assert new.t_cur == state.t_cur + 1
    assert new.factor is state.factor
    assert new.basis is state.basis and new.image is state.image
    assert (new.tail, new.epoch_width, new.batch) == (state.tail, state.epoch_width, True)
    assert new.cur_loss == state.cur_loss


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


@pytest.mark.parametrize("changes, message", [
    (lambda s: {"basis": s.basis * (1.0 + 1e-9)}, "basis columns not orthonormal"),
    (lambda s: {"basis": s.basis[:, :-1]}, r"basis \(12, 7\) and image \(12, 8\)"),
    (lambda s: {"image": s.image[:-1]}, r"basis \(12, 8\) and image \(11, 8\)"),
    (lambda s: {"basis": np.ones((12, 13)), "image": np.ones((12, 13))},
     r"basis \(12, 13\) and image \(12, 13\) must both be n x w with w <= n = 12"),
    (lambda s: {"tail": -1e-300}, "tail energy -1e-300 is not finite and >= 0"),
    (lambda s: {"tail": math.inf}, "tail energy inf is not finite"),
    (lambda s: {"tail": math.nan}, "tail energy nan is not finite"),
])
def test_factor_state_rejects_a_bad_epoch(changes, message):
    g = generate_sbm_snapshot(np.repeat([0, 1], 6), 0.5, 0.1, Rng(4))
    _, _, state = optimal_svd_embed(g, 2, t=5)
    with pytest.raises(ValueError, match=f"t=5: .*{message}"):
        replace(state, **changes(state))


def _update_exactly(groups):
    """Check that one update between block-constant snapshots of rank 3 at
    d = 4 is exact; returns (state before, P, Q, state after, A1, A2)."""
    b1 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    b2 = np.array([[1.0, 2.0, 0.0], [0.0, 1.5, 0.5], [0.0, 0.0, 3.0]])
    a1, a2 = _block_constant(groups, b1), _block_constant(groups, b2)
    assert np.linalg.matrix_rank(a2) == 3
    g1, g2 = snapshot_from_dense(a1), snapshot_from_dense(a2)
    _, _, before = optimal_svd_embed(g1, 4)
    p, q = delta_factor(edge_delta(g1, g2), a1.shape[0])
    after = incremental_update(before, p, q, g2)
    assert after.cur_loss <= LOSS_RTOL * _norm_sq(a2)
    assert np.max(np.abs(after.factor.reconstruct() - a2)) <= 1e-8
    oracle = truncated_svd_ref(a2, 4).reconstruct()
    assert np.max(np.abs(after.factor.reconstruct() - oracle)) <= 1e-8
    return before, p, q, after, a1, a2


def test_update_exact_when_d_covers_rank():
    # n = 10 and r = min(4d, n) = n: the batch step
    before, p, _, after, _, _ = _update_exactly((4, 3, 3))
    assert before.epoch_width + p.shape[1] >= 10 and after.batch


def test_brand_update_exact_when_d_covers_rank():
    # n = 40, r = 16, and the delta is one block row of 12 rows: the Ritz
    # step, and Brand's update that it replaced, are both exact
    before, p, q, after, a1, a2 = _update_exactly((16, 12, 12))
    assert (before.epoch_width, p.shape[1], after.batch) == (16, 12, False)
    brand = brand_update_ref(truncated_svd(a1, 16), p, q)
    top = TruncatedSvd(U=brand.U[:, :4], S=brand.S[:4], V=brand.V[:, :4])
    assert np.max(np.abs(top.reconstruct() - a2)) <= 1e-8


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_dense_path_fires_exactly_when_the_update_spans_the_space(monkeypatch, width):
    g = generate_sbm_snapshot(np.repeat([0, 1], 6), 0.5, 0.1, Rng(4))
    _, _, state = optimal_svd_embed(g, 2)
    n, r = 12, state.epoch_width
    assert r == 8
    shapes = []
    monkeypatch.setattr(svd_embed, "truncated_svd",
                        lambda a, rank, **kw: shapes.append(a.shape)
                        or truncated_svd(a, rank, **kw))
    rng = np.random.default_rng(width)
    new = incremental_update(state, rng.normal(size=(n, width)), rng.normal(size=(n, width)), g)
    # the batch step decomposes the n x n adjacency, the Ritz step the n x w image
    assert shapes == [(n, n) if r + width >= n else (n, r + width)]
    assert new.batch == (r + width >= n)


def test_static_lp_step_takes_the_batch_svd_without_the_exact_cover(monkeypatch):
    # hiding a fifth of the edges touches almost every row and column: the
    # greedy matching alone has 115 >= n - r = 112 of the changed entries,
    # so no augmenting path is searched for and no P, Q are built
    g = generate_sbm_snapshot(np.repeat([0, 1], 60), 0.5, 0.1, Rng(40))
    _, _, state = optimal_svd_embed(g, 2)
    train, _ = static_lp_split(g, 0.2, Rng(41))
    want = incremental_update(state, *delta_factor(edge_delta(g, train), g.n), train)
    assert want.batch

    def search(*args):
        raise AssertionError("the exact cover was searched for")

    monkeypatch.setattr(svd_embed, "_augment", search)
    monkeypatch.setattr(svd_embed, "incremental_update", search)
    got, entry = rerun_svd_step(state, train, 0.1)
    assert (got.t_cur, got.batch, got.epoch_width) == (1, True, want.epoch_width)
    for a, b in [(got.factor.U, want.factor.U), (got.factor.S, want.factor.S),
                 (got.factor.V, want.factor.V), (got.basis, want.basis),
                 (got.image, want.image)]:
        assert a.tobytes() == b.tobytes()
    assert (got.cur_loss, got.tail) == (want.cur_loss, want.tail)
    assert entry == RestartLogEntry(1, False, want.cur_loss, want.cur_loss)


def test_incremental_tracks_batch_loss_on_drift(drift_sbm_50):
    seq = SnapshotSequence(drift_sbm_50.sequence[:3])
    series, log, _ = rerun_svd_series(seq, 6, math.inf)
    for t in range(len(seq)):
        a = dense_adjacency(seq[t])
        opt = float(np.sum((a - truncated_svd_ref(a, 6).reconstruct()) ** 2))
        assert log[t].cur_loss <= opt * 1.05
        assert log[t].cur_loss >= opt * (1.0 - 1e-9)  # optimal is a floor


def test_cur_loss_is_exact_after_updates(drift_sbm_50):
    # the closed-form cur_loss is the loss of the factor itself
    seq = SnapshotSequence(drift_sbm_50.sequence[:3])
    _, _, state = optimal_svd_embed(seq[0], 5)
    for t in range(1, len(seq)):
        p, q = delta_factor(edge_delta(seq[t - 1], seq[t]), seq.n)
        state = incremental_update(state, p, q, seq[t])
        assert not state.batch and state.factor.S.shape == (5,)
        recomputed = float(np.sum((dense_adjacency(seq[t]) - state.factor.reconstruct()) ** 2))
        assert state.cur_loss == pytest.approx(recomputed, rel=1e-8)
        w = state.basis.shape[1]
        assert np.max(np.abs(state.basis.T @ state.basis - np.eye(w))) <= 1e-12


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


@st.composite
def ritz_cases(draw):
    """(sequence, d) on up to 16 nodes; half the draws take d < n / 4, so
    that r = 4d < n and the steps are Ritz steps, the others any d."""
    seq, d = draw(weighted_sequences(max_n=16))
    if draw(st.booleans()):
        d = max(1, min(d, (seq.n - 1) // 4))
    return seq, d


def _scaled(seq, scale):
    return SnapshotSequence([GraphSnapshot(g.n, g.rows, g.cols, g.weights * scale) for g in seq])


@settings(max_examples=200, deadline=None)
@given(weighted_sequences(), st.sampled_from([math.inf, 0.05]))
def test_loss_and_bound_are_the_snapshots_own(case, theta):
    seq, d = case
    _, _, state = optimal_svd_embed(seq[0], d)
    for t in range(1, len(seq)):
        state, entry = svd_embed.rerun_svd_step(state, seq[t], theta)
        assert state.snapshot is seq[t]
        a = dense_adjacency(seq[t])
        norm_sq = _norm_sq(a)
        # the image is this snapshot's adjacency times the basis, and the
        # loss that of the factor against it
        assert np.max(np.abs(state.image - a @ state.basis), initial=0.0) <= 1e-12 * max(
            1.0, np.max(np.abs(a), initial=0.0))
        resid = a - state.factor.reconstruct()
        assert abs(state.cur_loss - _norm_sq(resid)) <= LOSS_RTOL * norm_sq
        assert entry.bound == loss_lower_bound(state)
        if not state.batch:
            want = max(0.0, state.cur_loss - state.tail - BOUND_RTOL * norm_sq)
            assert entry.bound == pytest.approx(want, rel=1e-13, abs=1e-300)


# --- the Ritz step against its references and the certificate -------------


def _fold_states(seq, d):
    """The factor states of the incremental fold with no restart."""
    _, _, state = optimal_svd_embed(seq[0], d)
    states = [state]
    for t in range(1, len(seq)):
        p, q = delta_factor(edge_delta(seq[t - 1], seq[t]), seq.n)
        states.append(incremental_update(states[-1], p, q, seq[t]))
    return states


def test_ritz_fold_matches_its_reference_on_drift(drift_sbm_50):
    seq = drift_sbm_50.sequence
    states = _fold_states(seq, 6)
    assert not any(s.batch for s in states[1:])  # every step is a Ritz step
    for t, (state, want) in enumerate(zip(states, ritz_fold_ref(seq, 6))):
        assert abs(state.cur_loss - want) <= LOSS_RTOL * _norm_sq(dense_adjacency(seq[t]))


@settings(max_examples=150, deadline=None)
@given(ritz_cases())
def test_ritz_fold_matches_its_reference(case):
    seq, d = case
    for t, (state, want) in enumerate(zip(_fold_states(seq, d), ritz_fold_ref(seq, d))):
        assert abs(state.cur_loss - want) <= LOSS_RTOL * _norm_sq(dense_adjacency(seq[t]))


def test_ritz_loss_never_exceeds_brands_on_drift(drift_sbm_50):
    seq = drift_sbm_50.sequence
    ritz, brand = [s.cur_loss for s in _fold_states(seq, 6)], brand_fold_ref(seq, 6)
    for t in range(len(seq)):
        assert ritz[t] <= brand[t] * (1.0 + 1e-9)
    assert ritz[-1] < brand[-1]


@settings(max_examples=150, deadline=None)
@given(ritz_cases())
def test_ritz_loss_never_exceeds_brands(case):
    # Brand's factor lies in the span of V_r and every change since t = 0,
    # which is the Ritz basis until the epoch's first batch step, and the
    # Ritz factor is the best one there. A batch step is exact; after it
    # the bases differ, and so Brand's loss can be lower. The absolute term
    # is the closed form's rounding.
    seq, d = case
    for t, (state, brand) in enumerate(zip(_fold_states(seq, d), brand_fold_ref(seq, d))):
        norm_sq = _norm_sq(dense_adjacency(seq[t]))
        assert state.cur_loss <= brand * (1.0 + 1e-9) + LOSS_RTOL * norm_sq
        if t and state.batch:
            break


def test_a_collapsing_snapshot_keeps_its_loss_exact():
    # one edge of weight 1e8 falls to 1: summed from the old adjacency, the
    # image would keep rounding of order 1e8 eps, so it is formed afresh
    light = generate_sbm_snapshot(np.repeat([0, 1], 15), 0.4, 0.1, Rng(5))
    heavy = GraphSnapshot(light.n, light.rows, light.cols,
                          np.where(np.arange(len(light)) == 0, 1e8, light.weights))
    seq = SnapshotSequence([heavy, light])
    before, after = _fold_states(seq, 2)
    assert not after.batch
    a = dense_adjacency(light)
    assert after.image_scale == _norm_sq(a) < before.image_scale
    assert np.max(np.abs(after.image - a @ after.basis)) <= 1e-13
    resid = a - after.factor.reconstruct()
    assert abs(after.cur_loss - _norm_sq(resid)) <= LOSS_RTOL * _norm_sq(a)
    assert abs(after.cur_loss - ritz_fold_ref(seq, 2)[1]) <= LOSS_RTOL * _norm_sq(a)


@settings(max_examples=200, deadline=None)
@given(ritz_cases(), st.sampled_from([1.0, 1e-170, 1e150]), st.sampled_from([math.inf, 0.05]))
def test_certificate_is_at_most_the_optimum(case, scale, theta):
    seq, d = case
    seq = _scaled(seq, scale)
    _, log, _ = rerun_svd_series(seq, d, theta)
    r = min(4 * d, seq.n)
    for e in log:
        a = dense_adjacency(seq[e.t])
        norm_sq = _norm_sq(a)
        opt = _optimum(a, d)
        assert 0.0 <= e.bound <= e.cur_loss
        assert e.bound <= opt + BOUND_RTOL * norm_sq
        assert abs(e.cur_loss - opt) <= 0.5 * norm_sq + LOSS_RTOL * norm_sq or e.bound == 0.0
        if r == seq.n:  # the basis is all of R^n: every step is exact
            assert e.bound == e.cur_loss
            assert abs(e.cur_loss - opt) <= LOSS_RTOL * norm_sq


def test_tail_is_the_restart_snapshots_spectrum(drift_sbm_50):
    g = drift_sbm_50.sequence[0]
    _, _, state = optimal_svd_embed(g, 6)
    s = np.linalg.svd(dense_adjacency(g), compute_uv=False)
    assert state.tail == pytest.approx(float(np.sum(s[24:30] ** 2)), abs=1e-12 * s[0] ** 2)
    assert state.epoch_width == state.basis.shape[1] == 24
    assert loss_lower_bound(state) == state.cur_loss  # a batch step is exact


# --- restart behavior -----------------------------------------------------


def _migrant_fixture(migrants):
    """Criterion 2's SBM (n = 200, 2 communities, T = 10) with the given
    number of migrants per step."""
    params = SbmParams(node_num=200, community_num=2, length=10, diminish_community=1,
                       node_change_num=migrants, seed=0)
    return diminish_series(params).sequence


def test_restart_fires_where_the_certificate_fails():
    # with 10 migrants per step the first Ritz step's certificate reads
    # above 1.1, so theta = 0.1 restarts there
    seq = _migrant_fixture(10)
    _, log, _ = rerun_svd_series(seq, 8, theta=0.1)
    assert not log[0].restarted
    assert log[1].restarted
    for e in log:
        assert e.bound > 0.0
        assert e.cur_loss <= (1.0 + 0.1) * e.bound * (1.0 + 1e-12)
        if e.restarted:
            opt = _optimum(dense_adjacency(seq[e.t]), 8)
            assert e.cur_loss == pytest.approx(opt, rel=1e-8)
            assert e.bound == e.cur_loss


def test_restart_fixture_steps_are_exact():
    # r = n, so every update is a batch step: the bound is the optimum and
    # no theta, however small, restarts
    seq = _restart_fixture()
    _, inc_log = plain_incremental_fold(seq, 4)
    for theta in (0.08, 1e-9):
        _, log, _ = rerun_svd_series(seq, 4, theta)
        for e, inc in zip(log, inc_log):
            opt = _optimum(dense_adjacency(seq[e.t]), 4)
            assert not e.restarted
            assert e.bound == e.cur_loss == pytest.approx(opt, rel=1e-8)
            assert e.cur_loss <= inc.cur_loss


def test_tiny_theta_restarts_every_step():
    # one migrant per step: the epoch never reaches n, so every step is a
    # Ritz step whose certificate fails at theta = 1e-9
    seq = _migrant_fixture(1)
    _, log, _ = rerun_svd_series(seq, 8, theta=1e-9)
    assert all(e.restarted for e in log[1:])
    for e in log[1:]:
        opt = _optimum(dense_adjacency(seq[e.t]), 8)
        assert e.cur_loss == pytest.approx(opt, rel=1e-8)


def _assert_loss_dominance(seq, d, theta):
    _, log_inc, _ = rerun_svd_series(seq, d, math.inf)
    _, log_rerun, _ = rerun_svd_series(seq, d, theta=theta)
    for t in range(len(seq)):
        opt = _optimum(dense_adjacency(seq[t]), d)
        assert opt <= log_rerun[t].cur_loss * (1.0 + 1e-9)
        assert log_rerun[t].cur_loss <= log_inc[t].cur_loss * (1.0 + 1e-9)


def test_monotone_loss_dominance():
    _assert_loss_dominance(_restart_fixture(), 4, 0.08)


def test_monotone_loss_dominance_with_restarts():
    # 10 migrants per step at theta = 0.1, where restarts fire
    _assert_loss_dominance(_migrant_fixture(10), 8, 0.1)


def test_restart_contract_holds_where_the_bound_is_positive():
    # criterion 2's fixture with one migrant per step: there the bound stays
    # positive, below the optimum, and within 1 + theta of the loss
    seq = _migrant_fixture(1)
    _, log, _ = rerun_svd_series(seq, 8, theta=1.0)
    _, inc_log = plain_incremental_fold(seq, 8)
    assert not any(e.restarted for e in log)
    for e, inc in zip(log, inc_log):
        opt = _optimum(dense_adjacency(seq[e.t]), 8)
        assert 0.0 < e.bound <= opt * (1.0 + 1e-9)
        assert e.cur_loss <= (1.0 + 1.0) * e.bound
        assert e.cur_loss <= inc.cur_loss


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
    with pytest.raises(ValueError, match=f"t={t}: loss overflows"):
        rerun_svd_series(_scaled_sequence(scales), 2, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_norm_is_an_error_naming_t():
    # rank 1, so the rank-2 loss is a rounding error, but the closed form
    # subtracts from ||A||^2, which overflows
    g = snapshot_from_dense(np.full((30, 30), 1e160))
    with pytest.raises(ValueError, match="t=3: loss overflows"):
        optimal_svd_embed(g, 2, t=3)


def test_tiny_weights_keep_working():
    seq = _scaled_sequence((1e-170,) * 3)
    series, log, _ = rerun_svd_series(seq, 2, 1.0)
    assert all(math.isfinite(e.cur_loss) and math.isfinite(e.bound) for e in log)
    a = dense_adjacency(seq[0])
    oracle = truncated_svd_ref(a, 2)
    got = series.src_at(0) @ series.tgt_at(0).T
    assert np.max(np.abs(got - oracle.reconstruct())) <= 1e-9 * oracle.S[0]
    # scaling by a power of two is exact, so the Ritz steps keep every
    # direction of a change of weight 2^-560 and give the unit-scale factor
    tiny, _, _ = rerun_svd_series(_scaled_sequence((2.0**-560,) * 3), 2, math.inf)
    unit, unit_log, _ = rerun_svd_series(_scaled_sequence((1.0,) * 3), 2, math.inf)
    assert not unit_log[2].bound == unit_log[2].cur_loss  # t = 2 is a Ritz step
    for t in range(3):
        want = unit.src_at(t) @ unit.tgt_at(t).T
        got = np.ldexp(tiny.src_at(t) @ tiny.tgt_at(t).T, 560)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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

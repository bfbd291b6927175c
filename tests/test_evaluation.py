"""Evaluation harness: ranking metrics, splits, classification, migration
proximity, and the projection export.

Ranking metrics are compared for exact equality against the brute-force
oracles; both sides accumulate hit precisions in the same rank order, so
no float tolerance is needed. Whole ranking reports are compared byte for
byte against the per-pair ranking code the vectorised one replaced, which
tests/oracles.py keeps.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed import evaluation, kernels
from dynembed.evaluation import (EvalError, EvalReport, ScoredPairs,
                                 average_precision, candidate_pairs,
                                 export_projection, mean_average_precision,
                                 migration_proximity_stat, node_classification,
                                 precision_at_k, reconstruction_eval,
                                 save_report, static_lp_eval, static_lp_split,
                                 temporal_lp_eval, _candidates, _f1_scores,
                                 _ranking_report)
from dynembed.graphs import SnapshotSequence, dense_adjacency
from dynembed.rng import Rng
from dynembed.sbm import generate_sbm_snapshot
from dynembed.series import EmbeddingSeries
from dynembed.svd_embed import optimal_svd_embed

from oracles import (brute_average_precision, brute_map,
                     brute_precision_at_k, candidate_pairs_ref,
                     hits_average_precision_ref, projection_lines_ref, ranking_report_ref,
                     snapshot)


def _random_instance(seed, max_n=12):
    """Random candidate list, scores, and truth set on up to max_n nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, max_n + 1))
    pairs = candidate_pairs(n)
    keep = rng.random(len(pairs)) < 0.7
    pairs = pairs[keep]
    scores = np.round(rng.random(len(pairs)), 2)  # coarse grid forces ties
    truth = {tuple(map(int, p)) for p in pairs[rng.random(len(pairs)) < 0.3]}
    return pairs, scores, truth


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _graph(n, pairs):
    """Snapshot on n nodes whose edges are the (u, v) pairs, at weight 1."""
    return snapshot(n, [(u, v, 1.0) for u, v in pairs])


def _edge_set(g):
    return set(zip(g.rows.tolist(), g.cols.tolist()))


def _series_from(y, t_start=0):
    return EmbeddingSeries(y_src=[y], y_tgt=[y.copy()], t_start=t_start)


# --- scored pairs -----------------------------------------------------------


def test_scored_pairs_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        ScoredPairs(np.array([[0, 1]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        ScoredPairs(np.array([[0, 1]]), np.array([np.nan]))
    with pytest.raises(ValueError, match="duplicate"):
        ScoredPairs(np.array([[0, 1], [0, 1]]), np.array([1.0, 2.0]))


def test_scored_pairs_rejects_negative_indices():
    # keys in base max+1 made (1, -1) collide with (0, 2): a false "duplicate"
    with pytest.raises(ValueError, match="negative"):
        ScoredPairs(np.array([[1, -1], [0, 2]]), np.array([1.0, 2.0]))
    # and a truth mask indexed with -1 would wrap to the last node
    with pytest.raises(ValueError, match="negative"):
        ScoredPairs(np.array([[-1, 0], [0, 1]]), np.array([1.0, 2.0]))
    sp = ScoredPairs(np.array([[0, 1]]), np.array([1.0]))
    with pytest.raises(ValueError, match="negative"):
        mean_average_precision(sp, {(0, 1), (-1, 0)})


_index = st.integers(min_value=0, max_value=6) | st.integers(min_value=0, max_value=2**40)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_index, _index), max_size=40))
def test_duplicate_check_is_exact(rows):
    # small indices take the dense check, large ones the sparse one
    pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
    scores = np.zeros(len(rows))
    if len(set(rows)) < len(rows):
        with pytest.raises(ValueError, match="duplicate"):
            ScoredPairs(pairs, scores)
    else:
        assert len(ScoredPairs(pairs, scores)) == len(rows)


# --- precision@k and AP -----------------------------------------------------


def test_precision_at_k_hand_cases():
    sp = ScoredPairs(np.array([[0, 1], [0, 2], [0, 3]]),
                     np.array([3.0, 2.0, 1.0]))
    truth = {(0, 1), (0, 3)}
    assert precision_at_k(sp, truth, 1) == 1.0
    assert precision_at_k(sp, truth, 2) == 0.5
    assert precision_at_k(sp, truth, 3) == pytest.approx(2 / 3)


def test_precision_at_k_bounds():
    sp = ScoredPairs(np.array([[0, 1]]), np.array([1.0]))
    with pytest.raises(EvalError, match="k=0"):
        precision_at_k(sp, {(0, 1)}, 0)
    with pytest.raises(EvalError, match="k=2"):
        precision_at_k(sp, {(0, 1)}, 2)


def test_average_precision_hand_case():
    sp = ScoredPairs(np.array([[0, 1], [0, 2], [0, 3]]),
                     np.array([3.0, 2.0, 1.0]))
    assert average_precision(sp, {(0, 1), (0, 3)}) == pytest.approx(5 / 6)


def test_average_precision_empty_truth():
    sp = ScoredPairs(np.array([[0, 1]]), np.array([1.0]))
    with pytest.raises(EvalError, match="true edge"):
        average_precision(sp, set())


def test_average_precision_against_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = int(rng.integers(1, 30))
        hits = (rng.random(m) > 0.6).astype(np.float64)
        if hits.sum() == 0:
            continue
        n_true = int(hits.sum() + rng.integers(0, 3))
        pairs = [(0, v) for v in range(m)]
        scores = -np.arange(m, dtype=np.float64)  # already ranked
        hit_pairs = {(0, int(v)) for v in np.flatnonzero(hits)}
        # true edges beyond the candidates count in the denominator only
        truth = hit_pairs | {(0, m + i) for i in range(n_true - len(hit_pairs))}
        got = average_precision(ScoredPairs(pairs, scores), truth)
        assert got == hits_average_precision_ref(hits, n_true)
        want = brute_average_precision(pairs, scores, hit_pairs) * len(hit_pairs) / n_true
        assert got == pytest.approx(want, abs=1e-12)


def test_average_precision_no_hits():
    sp = ScoredPairs([(0, v) for v in range(5)], np.zeros(5))
    assert average_precision(sp, {(0, 7), (1, 0), (2, 2)}) == 0.0
    assert hits_average_precision_ref(np.zeros(5), 3) == 0.0


def test_metrics_match_brute_force_exactly():
    for seed in range(20):
        pairs, scores, truth = _random_instance(seed)
        if not truth:
            continue
        sp = ScoredPairs(pairs, scores)
        for k in (1, len(sp) // 2 or 1, len(sp)):
            assert precision_at_k(sp, truth, k) == \
                brute_precision_at_k(pairs, scores, truth, k)
        assert average_precision(sp, truth) == \
            brute_average_precision(pairs, scores, truth)
        assert mean_average_precision(sp, truth) == \
            brute_map(pairs, scores, truth)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_metric_oracle_equivalence_property(seed):
    pairs, scores, truth = _random_instance(seed)
    if not truth:
        return
    sp = ScoredPairs(pairs, scores)
    k = 1 + seed % len(sp)
    assert precision_at_k(sp, truth, k) == brute_precision_at_k(pairs, scores, truth, k)
    assert mean_average_precision(sp, truth) == brute_map(pairs, scores, truth)


_SCORE_VALUES = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 2.0, -3.0, 1e300])


@st.composite
def _ranking_case(draw):
    """Scores, truth, candidates and a k grid with heavy score ties on up to
    24 nodes. Truth may hold diagonal and excluded pairs, nodes may lose every
    candidate, some rows may hold one repeated score (an isolated train node
    gets an all-zero row from an exact SVD), non-candidate cells may hold
    NaN or inf, and the grid may pass the candidate count or stop just short
    of it, where the largest k cuts through a block of tied scores."""
    n = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_truth, p_exclude, p_flat = (draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
                                  for _ in range(3))
    truth = {(int(u), int(v)) for u, v in np.argwhere(rng.random((n, n)) < p_truth)}
    exclude = {(int(u), int(v)) for u, v in np.argwhere(rng.random((n, n)) < p_exclude)}
    if n > 1 and draw(st.booleans()):
        u = draw(st.integers(0, n - 1))  # node u keeps no candidate
        exclude |= {(u, v) for v in range(n)}
    scores = rng.choice(_SCORE_VALUES, size=(n, n))
    flat = rng.random(n) < p_flat
    scores[flat] = rng.choice(_SCORE_VALUES, size=(int(flat.sum()), 1))
    if draw(st.booleans()):
        # no report reads a non-candidate cell
        for u, v in [(u, u) for u in range(n)] + sorted(exclude):
            scores[u, v] = rng.choice([np.nan, np.inf, -np.inf])
    n_cand = sum(u != v and (u, v) not in exclude for u in range(n) for v in range(n))
    k_grid = draw(st.lists(st.integers(-1, n * n + 2), max_size=4))
    k_grid += [n_cand + d for d in draw(st.lists(st.integers(-3, 1), max_size=3))]
    return scores, truth, exclude, k_grid


@settings(max_examples=300, deadline=None)
@given(case=_ranking_case())
def test_ranking_report_matches_reference_bytes(case):
    scores, truth, exclude, k_grid = case
    n = scores.shape[0]
    pairs = candidate_pairs(n, exclude=_graph(n, exclude))
    want_pairs = candidate_pairs_ref(n, exclude=exclude)
    assert _bits(pairs) == _bits(want_pairs)
    fields = dict(task="temporal_lp", mode="new", method="m", seed=1, config_digest="c")
    got = _ranking_report(scores, _graph(n, truth), _candidates(n, _graph(n, exclude)), k_grid,
                          **fields)
    want = ranking_report_ref(scores, truth, want_pairs, k_grid, **fields)
    assert got.to_json() == want.to_json()


def test_ranking_report_matches_reference_bytes_on_long_lists():
    # 149 candidates and about 60 hits per node: here summing a node's
    # terms with np.sum instead of one at a time changes the reported MAP
    rng = np.random.default_rng(2)
    n = 150
    scores = rng.random((n, n))
    truth = {(int(u), int(v)) for u, v in zip(*np.nonzero(rng.random((n, n)) < 0.4))
             if u != v}
    fields = dict(task="reconstruction", method="m")
    got = _ranking_report(scores, _graph(n, truth), _candidates(n), [1, 10, 1000], **fields)
    want = ranking_report_ref(scores, truth, candidate_pairs_ref(n), [1, 10, 1000], **fields)
    assert got.to_json() == want.to_json()


def test_static_lp_report_matches_reference_bytes_at_scale():
    # SVD scores of an SBM train split in which node 0 lost every edge: its
    # score row and column hold only rounding noise around 0
    g = generate_sbm_snapshot(np.repeat([0, 1], 85), 0.3, 0.05, Rng(21))
    train, hidden = static_lp_split(g, 0.2, Rng(22))
    touches = (train.rows == 0) | (train.cols == 0)
    hidden = _graph(g.n, _edge_set(hidden) | set(zip(train.rows[touches].tolist(),
                                                     train.cols[touches].tolist())))
    train = _graph(g.n, set(zip(train.rows[~touches].tolist(), train.cols[~touches].tolist())))
    y_src, y_tgt, _ = optimal_svd_embed(train, 8)
    scores = y_src @ y_tgt.T
    assert max(np.abs(scores[0]).max(), np.abs(scores[:, 0]).max()) < 1e-12
    k_grid = [1, 10, 100, 1000, len(hidden)]
    got = static_lp_eval(scores, train, hidden, k_grid)
    want = ranking_report_ref(scores, _edge_set(hidden),
                              candidate_pairs_ref(g.n, exclude=_edge_set(train)), k_grid,
                              task="static_lp", method="", seed=0, config_digest="")
    assert got.to_json() == want.to_json()


def test_reconstruction_report_matches_reference_bytes_on_saturated_scores():
    # sigmoid outputs saturated at exactly 1.0, as an AE decoder gives
    g = generate_sbm_snapshot(np.repeat([0, 1, 2], 60), 0.3, 0.05, Rng(23))
    scores = kernels.sigmoid(Rng(24).random((g.n, g.n)) * 100.0 - 20.0)
    assert np.count_nonzero(scores == 1.0) > g.n * g.n // 3
    k_grid = [1, 100, 10000, 20000, len(g)]
    got = reconstruction_eval(scores, g, k_grid)
    want = ranking_report_ref(scores, _edge_set(g), candidate_pairs_ref(g.n), k_grid,
                              task="reconstruction", method="", seed=0, config_digest="")
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("n, seed", [(250, 0), (300, 1), (517, 2)])
def test_row_aps_blocks_match_one_block(monkeypatch, n, seed):
    # keys with ties among the finite ones, +inf off the candidates, and rows
    # without true edges; the AP of a row must not depend on its block
    rng = np.random.default_rng(seed)
    keys = -np.round(rng.random((n, n)), 2)
    keys[rng.random((n, n)) < 0.3] = np.inf
    hits = (rng.random((n, n)) < 0.1) & (keys < np.inf)
    n_true = hits.sum(axis=1) + rng.integers(0, 3, n) * (rng.random(n) < 0.8)
    assert evaluation._BLOCK_CELLS // n < np.count_nonzero(n_true)  # more than one block
    blocked = evaluation._row_aps(keys, hits, n_true)
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", keys.size)
    whole = evaluation._row_aps(keys, hits, n_true)
    assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("n, mib", [(300, 4), (2000, 100)])
def test_reconstruction_report_peak_is_bounded(n, mib):
    # the report holds the key matrix and the candidate and hit masks (10
    # bytes a cell), and precision@k's partition copies the keys (8 more);
    # MAP adds only a block of rows' sorted keys and a (rows x most hits)
    # block of terms. Building an (n^2, 2) candidate pair list and
    # scattering it into the keys peaked at 3.75 MiB at n = 300 and
    # 156.4 MiB at n = 2000; this reads 1.78 and 68.7 MiB
    g = generate_sbm_snapshot(np.repeat([0, 1], n // 2), 0.2, 0.02, Rng(30))
    scores = kernels.sigmoid(Rng(31).random((g.n, g.n)) * 8.0 - 4.0)
    tracemalloc.start()
    try:
        reconstruction_eval(scores, g, [1, 10, 100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_reports_ignore_non_finite_scores_off_the_candidates():
    g = generate_sbm_snapshot(np.repeat([0, 1], 8), 0.5, 0.1, Rng(25))
    train, hidden = static_lp_split(g, 0.3, Rng(26))
    scores = Rng(27).random((16, 16))
    want_rec = reconstruction_eval(scores, g, [1, 10]).to_json()
    want_lp = static_lp_eval(scores, train, hidden, [1, 10]).to_json()
    for bad in (np.nan, np.inf, -np.inf):
        marked = scores.copy()
        np.fill_diagonal(marked, bad)
        assert reconstruction_eval(marked, g, [1, 10]).to_json() == want_rec
        marked[train.rows, train.cols] = bad  # train edges are no candidates
        assert static_lp_eval(marked, train, hidden, [1, 10]).to_json() == want_lp


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reports_reject_non_finite_candidate_scores(bad):
    g = generate_sbm_snapshot(np.repeat([0, 1], 8), 0.5, 0.1, Rng(28))
    train, hidden = static_lp_split(g, 0.3, Rng(29))
    scores = Rng(30).random((16, 16))
    scores[hidden.rows[0], hidden.cols[0]] = bad
    with pytest.raises(ValueError, match="scores must be finite"):
        reconstruction_eval(scores, g, [1])
    with pytest.raises(ValueError, match="scores must be finite"):
        static_lp_eval(scores, train, hidden, [1])


def test_candidate_pairs_reject_exclusions_over_other_nodes():
    with pytest.raises(ValueError, match="exclusions over 4 nodes, candidates over 3"):
        candidate_pairs(3, exclude=_graph(4, {(0, 1)}))


def test_metrics_of_unsorted_pairs_match_brute_force():
    for seed in range(10):
        pairs, scores, truth = _random_instance(seed)
        if not truth:
            continue
        shuffle = np.random.default_rng(seed).permutation(len(pairs))
        pairs, scores = pairs[shuffle], scores[shuffle]
        sp = ScoredPairs(pairs, scores)
        k = max(1, len(sp) // 3)
        assert precision_at_k(sp, truth, k) == brute_precision_at_k(pairs, scores, truth, k)
        assert mean_average_precision(sp, truth) == brute_map(pairs, scores, truth)


def test_hit_counts_grow_with_k():
    pairs, scores, truth = _random_instance(3)
    sp = ScoredPairs(pairs, scores)
    hits = [precision_at_k(sp, truth, k) * k for k in range(1, len(sp) + 1)]
    assert all(b >= a - 1e-9 for a, b in zip(hits, hits[1:]))


def test_map_perfect_scores():
    g = generate_sbm_snapshot(np.repeat([0, 1], 5), 0.8, 0.2, Rng(5))
    pairs = candidate_pairs(10)
    scores = dense_adjacency(g)[pairs[:, 0], pairs[:, 1]]
    sp = ScoredPairs(pairs, scores)
    assert mean_average_precision(sp, _edge_set(g)) == 1.0


def test_map_requires_a_contributing_node():
    sp = ScoredPairs(np.array([[0, 1]]), np.array([1.0]))
    with pytest.raises(EvalError, match="no node"):
        mean_average_precision(sp, set())


def test_map_counts_nodes_without_candidates():
    # node 1's true edge has no candidate, so its AP term is 0
    sp = ScoredPairs(np.array([[0, 1]]), np.array([1.0]))
    assert mean_average_precision(sp, {(0, 1), (1, 0)}) == 0.5


# --- splits and task evaluations ---------------------------------------------


def test_split_partitions_the_edge_set():
    g = generate_sbm_snapshot(np.repeat([0, 1], 10), 0.5, 0.1, Rng(1))
    edges = _edge_set(g)
    train, hidden = static_lp_split(g, 0.2, Rng(2))
    assert _edge_set(train) | _edge_set(hidden) == edges
    assert not _edge_set(train) & _edge_set(hidden)
    assert len(hidden) == -(-len(edges) // 5)  # ceil(0.2 |E|)
    again_train, again_hidden = static_lp_split(g, 0.2, Rng(2))
    assert again_hidden == hidden and again_train == train


def test_split_validation():
    g = snapshot(3, [(0, 1, 1.0)])
    with pytest.raises(EvalError, match="2 edges"):
        static_lp_split(g, 0.5, Rng(0))
    with pytest.raises(ValueError, match="hide_fraction"):
        static_lp_split(g, 1.0, Rng(0))


def test_candidate_pairs_small():
    pairs = {tuple(p) for p in candidate_pairs(3)}
    assert pairs == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    without = {tuple(p) for p in candidate_pairs(3, exclude=_graph(3, {(0, 1), (2, 1)}))}
    assert without == pairs - {(0, 1), (2, 1)}


def test_reconstruction_perfect_scores():
    g = generate_sbm_snapshot(np.repeat([0, 1], 6), 0.7, 0.1, Rng(3))
    report = reconstruction_eval(dense_adjacency(g), g, [1, len(g)])
    assert report.task == "reconstruction"
    assert report.precision_at_k == [1.0, 1.0]
    assert report.map == 1.0
    assert not report.empty_truth


def test_reconstruction_drops_oversized_k():
    g = snapshot(3, [(0, 1, 1.0), (1, 2, 1.0)])
    report = reconstruction_eval(dense_adjacency(g), g, [2, 500])
    assert report.k_grid == [2]


def test_static_lp_eval_ranks_hidden_edges():
    g = generate_sbm_snapshot(np.repeat([0, 1], 8), 0.6, 0.1, Rng(4))
    train, hidden = static_lp_split(g, 0.3, Rng(5))
    report = static_lp_eval(dense_adjacency(g), train, hidden,
                            [1, len(hidden)])
    assert report.task == "static_lp"
    assert report.precision_at_k == [1.0, 1.0]
    assert report.map == 1.0


def test_temporal_lp_perfect_oracle():
    seq = SnapshotSequence([
        generate_sbm_snapshot(np.repeat([0, 1], 6), 0.6, 0.1, Rng(6)),
        generate_sbm_snapshot(np.repeat([0, 1], 6), 0.6, 0.1, Rng(7)),
    ])
    scores = dense_adjacency(seq[1])
    report = temporal_lp_eval(scores, seq, 0, [len(seq[1])], mode="all")
    assert report.mode == "all"
    assert report.precision_at_k == [1.0]
    assert report.map == 1.0


def test_temporal_lp_new_mode_matches_the_set_reference():
    # truth is G_{t+1}'s edges minus G_t's, and the candidates skip G_t's edges
    labels = np.repeat([0, 1], 9)
    seq = SnapshotSequence([generate_sbm_snapshot(labels, 0.4, 0.1, Rng(s)) for s in (1, 2)])
    scores = Rng(3).random((18, 18))
    cur, nxt = _edge_set(seq[0]), _edge_set(seq[1])
    assert nxt - cur and nxt & cur
    fields = dict(task="temporal_lp", mode="new", method="", seed=0, config_digest="")
    got = temporal_lp_eval(scores, seq, 0, [1, 10, 100], mode="new")
    want = ranking_report_ref(scores, nxt - cur, candidate_pairs_ref(18, exclude=cur),
                              [1, 10, 100], **fields)
    assert got.to_json() == want.to_json()


def test_temporal_lp_no_new_edges_is_flagged():
    g = generate_sbm_snapshot(np.repeat([0, 1], 5), 0.5, 0.1, Rng(8))
    seq = SnapshotSequence([g, g])
    report = temporal_lp_eval(np.zeros((10, 10)), seq, 0, [5], mode="new")
    assert report.empty_truth
    assert report.k_grid == []
    assert report.precision_at_k is None and report.map is None


def test_temporal_lp_validation():
    g = snapshot(3, [(0, 1, 1.0)])
    seq = SnapshotSequence([g, g])
    with pytest.raises(ValueError, match="unknown mode"):
        temporal_lp_eval(np.zeros((3, 3)), seq, 0, [1], mode="future")
    with pytest.raises(EvalError, match="out of range"):
        temporal_lp_eval(np.zeros((3, 3)), seq, 1, [1])
    with pytest.raises(ValueError, match="shape"):
        temporal_lp_eval(np.zeros((2, 2)), seq, 0, [1])


def test_metrics_invariant_under_monotone_transform():
    g = generate_sbm_snapshot(np.repeat([0, 1], 8), 0.5, 0.1, Rng(9))
    scores = Rng(10).random((16, 16))
    a = reconstruction_eval(scores, g, [1, 5, 20])
    b = reconstruction_eval(2.0 * scores + 5.0, g, [1, 5, 20])
    assert a.precision_at_k == b.precision_at_k
    assert a.map == b.map


# --- node classification ------------------------------------------------------


def test_classification_separable_clusters():
    rng = np.random.default_rng(11)
    emb = np.vstack([rng.normal(5.0, 0.1, (20, 4)),
                     rng.normal(-5.0, 0.1, (20, 4))])
    labels = np.repeat([0, 1], 20)
    micro, macro = node_classification(emb, labels, 0.5, seed=0)
    assert micro == 1.0 and macro == 1.0


def test_classification_random_embeddings_score_near_chance():
    micros = []
    for seed in range(20):
        emb = np.random.default_rng(seed).standard_normal((40, 8))
        labels = np.repeat([0, 1], 20)
        micro, _ = node_classification(emb, labels, 0.5, seed=seed)
        micros.append(micro)
    assert 0.35 <= np.mean(micros) <= 0.65


def test_f1_hand_fixture():
    y_true = np.array([0, 0, 1, 1, 2, 2])
    y_pred = np.array([0, 1, 1, 1, 2, 0])
    micro, macro = _f1_scores(y_true, y_pred, np.array([0, 1, 2]))
    assert micro == pytest.approx(2 / 3)
    assert macro == pytest.approx((0.5 + 0.8 + 2 / 3) / 3)


def test_classification_singleton_class_cannot_split():
    emb = np.eye(5)
    labels = np.array([0, 0, 1, 1, 2])  # class 2 has one member
    with pytest.raises(EvalError, match="class 2 absent"):
        node_classification(emb, labels, 0.5)


def test_classification_validation():
    emb = np.eye(4)
    with pytest.raises(EvalError, match="2 classes"):
        node_classification(emb, [1, 1, 1, 1], 0.5)
    with pytest.raises(ValueError, match="length mismatch"):
        node_classification(emb, [0, 1, 0], 0.5)
    with pytest.raises(ValueError, match="train_frac"):
        node_classification(emb, [0, 1, 0, 1], 1.5)


def test_classification_is_seed_dependent_but_reproducible():
    rng = np.random.default_rng(12)
    emb = rng.standard_normal((30, 4))
    labels = np.repeat([0, 1, 2], 10)
    a = node_classification(emb, labels, 0.5, seed=3)
    b = node_classification(emb, labels, 0.5, seed=3)
    assert a == b


# --- migration proximity -------------------------------------------------------


def test_migration_stat_exact_centroid_placement():
    # nodes 0-2 at x=0 (community 0), 3-5 at x=10 (community 1); node 6
    # migrated 0 -> 1 and sits exactly on community 1's centroid
    y = np.zeros((7, 2))
    y[3:6, 0] = 10.0
    y[6, 0] = 10.0
    labels = np.array([0, 0, 0, 1, 1, 1, 1])
    series = _series_from(y)
    assert migration_proximity_stat(series, labels, [(6, 0, 1)], 0) == 1.0


def test_migration_stat_tie_counts_as_failure():
    y = np.zeros((5, 2))  # everything collapses to one point
    labels = np.array([0, 0, 1, 1, 1])
    series = _series_from(y)
    assert migration_proximity_stat(series, labels, [(4, 0, 1)], 0) == 0.0


def test_migration_stat_requires_records_and_members():
    y = np.zeros((4, 2))
    series = _series_from(y)
    with pytest.raises(EvalError, match="no migrated"):
        migration_proximity_stat(series, np.zeros(4, dtype=int), [], 0)
    # origin community 0 contains only the migrating node itself
    labels = np.array([0, 1, 1, 1])
    with pytest.raises(EvalError, match="community 0"):
        migration_proximity_stat(series, labels, [(0, 0, 1)], 0)


def test_migration_stat_counts_fraction():
    y = np.zeros((8, 2))
    y[4:, 0] = 10.0
    y[2, 0] = 10.0   # migrant 2 anticipates its destination
    y[3, 0] = 0.0    # migrant 3 does not
    labels = np.array([0, 0, 1, 1, 1, 1, 1, 1])
    series = _series_from(y)
    stat = migration_proximity_stat(series, labels, [(2, 0, 1), (3, 0, 1)], 0)
    assert stat == 0.5


# --- reports and projection -----------------------------------------------------


def test_report_key_order():
    report = EvalReport(task="temporal_lp", method="optsvd", seed=1,
                        config_digest="abc", mode="all", k_grid=[1, 2],
                        precision_at_k=[1.0, 0.5], map=0.75)
    assert list(report.to_dict().keys()) == [
        "task", "method", "seed", "config_digest", "mode", "k_grid",
        "precision_at_k", "map", "empty_truth"]
    cls = EvalReport(task="classification", method="optsvd", micro_f1=0.9,
                     macro_f1=0.8)
    keys = list(cls.to_dict().keys())
    assert keys.index("micro_f1") < keys.index("macro_f1")
    stat = EvalReport(task="migration_stat", method="d2v_ae", stat=0.4)
    assert "stat" in stat.to_dict()


def test_report_json_round_trip(tmp_path):
    report = EvalReport(task="reconstruction", method="optsvd", k_grid=[1],
                        precision_at_k=[1.0], map=1.0)
    assert report.to_json() == report.to_json()
    path = tmp_path / "report.json"
    save_report(report, path)
    assert json.loads(path.read_text()) == report.to_dict()
    assert path.read_text().endswith("\n")


def test_projection_single_node_is_origin(tmp_path):
    series = _series_from(np.array([[3.0, 4.0, 5.0]]))
    path = tmp_path / "proj.txt"
    export_projection(series, 0, [2], [0], path)
    assert path.read_text() == "0 0 0 2 1\n"


def test_projection_rows_and_flags(tmp_path):
    rng = np.random.default_rng(13)
    y = rng.standard_normal((12, 6))
    labels = np.arange(12) % 3
    series = _series_from(y)
    path = tmp_path / "proj.txt"
    export_projection(series, 0, labels, {4, 7}, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 12
    for node, line in enumerate(lines):
        cols = line.split()
        assert cols[0] == str(node)
        assert cols[3] == str(labels[node])
        assert cols[4] == ("1" if node in {4, 7} else "0")
    path2 = tmp_path / "proj2.txt"
    export_projection(series, 0, labels, {4, 7}, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_projection_matches_per_node_oracle(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    n = 60
    coords = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    coords[:8].flat = [0.0, -0.0, 5e-324, -5e-324, 1e16, 2.0**53 + 2, 0.1, 1 / 3,
                       1.7976931348623157e308, -1e300, 1.0, -3.0, 1e-5, 2.5, 7.0, -0.0]
    labels = rng.integers(0, 1000, size=n)
    migrated = {0, 5, 59}
    monkeypatch.setattr(evaluation, "pca_project_2d", lambda y: coords)
    export_projection(_series_from(np.ones((n, 3))), 0, labels, migrated, tmp_path / "p.txt")
    assert (tmp_path / "p.txt").read_text() == projection_lines_ref(coords, labels, migrated)


def test_projection_length_mismatch(tmp_path):
    series = _series_from(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="length mismatch"):
        export_projection(series, 0, [0, 1], [], tmp_path / "p.txt")

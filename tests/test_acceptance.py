"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL verdict line that survives pytest's output capture.

Fixtures are seeded and sized exactly as stated in each criterion; timing
limits are asserted alongside correctness.
"""

import json
import math
import time

import numpy as np
import pytest

from dynembed.ae import AeConfig, chain_align, d2v_ae_series, static_ae_series
from dynembed.cli import main
from dynembed.evaluation import (ScoredPairs, average_precision,
                                 candidate_pairs, mean_average_precision,
                                 migration_proximity_stat, node_classification,
                                 precision_at_k)
from dynembed.graphs import SnapshotSequence, dense_adjacency
from dynembed.numerics import procrustes_rotation
from dynembed.rng import Rng
from dynembed.sbm import SbmParams, _snapshot_from_dense, diminish_series, generate_sbm_snapshot
from dynembed.svd_embed import (delta_factor,
                                incremental_update, optimal_svd_embed,
                                optimal_svd_series, rerun_svd_series)
from dynembed import ae as ae_mod

from oracles import (brute_average_precision, brute_map,
                     brute_precision_at_k, fd_gradient, plain_incremental_fold,
                     random_orthogonal, truncated_svd_ref)
from dynembed.graphs import edge_delta


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} {label}: {detail}"


def _batch_loss(adj, d):
    return float(np.sum((adj - truncated_svd_ref(adj, d).reconstruct()) ** 2))


def _rank_projector(factor, tol=1e-8):
    cols = factor.S > tol
    u = factor.U[:, cols]
    v = factor.V[:, cols]
    return u @ u.T, v @ v.T


def test_criterion_1_incremental_fidelity(capsys, drift_sbm_50):
    start = time.perf_counter()
    seq = drift_sbm_50.sequence
    _, log, _ = rerun_svd_series(seq, 8, math.inf)
    worst = 0.0
    for t in range(len(seq)):
        opt = _batch_loss(dense_adjacency(seq[t]), 8)
        worst = max(worst, log[t].cur_loss / opt - 1.0)

    # d >= rank: one block-weighted update, then subspace agreement
    groups = np.repeat([0, 1, 2], [4, 3, 3])
    b1 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    b2 = np.array([[1.0, 2.0, 0.0], [0.0, 1.5, 0.5], [0.0, 0.0, 3.0]])
    snaps = []
    for b in (b1, b2):
        snaps.append(_snapshot_from_dense(b[groups[:, None], groups[None, :]]))
    _, _, state = optimal_svd_embed(snaps[0], 4)
    p, q = delta_factor(edge_delta(snaps[0], snaps[1]), 10)
    state = incremental_update(state, p, q, 4)
    batch = truncated_svd_ref(dense_adjacency(snaps[1]), 4)
    pu_i, pv_i = _rank_projector(state.factor)
    pu_b, pv_b = _rank_projector(batch)
    sub_err = max(np.max(np.abs(pu_i - pu_b)), np.max(np.abs(pv_i - pv_b)))

    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and sub_err <= 1e-8 and elapsed < 10.0
    _verdict(capsys, 1, "incremental-SVD fidelity", ok,
             f"max loss excess {worst:.2e}, subspace err {sub_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_restart_contract(capsys):
    start = time.perf_counter()
    params = SbmParams(node_num=200, community_num=2, length=10,
                       diminish_community=1, node_change_num=10, seed=0)
    seq = diminish_series(params).sequence

    rerun_series, rerun_log, _ = rerun_svd_series(seq, 8, 0.1)
    inc_embeddings, inc_log = plain_incremental_fold(seq, 8)
    inf_series, inf_log, _ = rerun_svd_series(seq, 8, math.inf)

    bound_ok = all(e.cur_loss <= 1.1 * e.bound * (1.0 + 1e-12)
                   for e in rerun_log if e.bound > 0.0)
    dominance_ok = all(r.cur_loss <= i.cur_loss * (1.0 + 1e-9)
                       for r, i in zip(rerun_log, inc_log))
    bitwise_ok = inf_log == inc_log and all(
        np.array_equal(inf_series.src_at(t), y_src)
        and np.array_equal(inf_series.tgt_at(t), y_tgt)
        for t, (y_src, y_tgt) in enumerate(inc_embeddings))

    elapsed = time.perf_counter() - start
    ok = bound_ok and dominance_ok and bitwise_ok and elapsed < 30.0
    _verdict(capsys, 2, "rerun-SVD restart contract", ok,
             f"bound {bound_ok}, dominance {dominance_ok}, "
             f"theta=inf bitwise {bitwise_ok}, {elapsed:.1f}s")


def test_criterion_3_gradient_correctness(capsys):
    start = time.perf_counter()
    # encoder widths [8, 4]: hidden 8, embedding 4; decoder mirrors
    cfg = AeConfig(d=4, enc_units=(8,), dec_units=(8,), beta=5.0,
                   nu1=1e-6, nu2=1e-6, seed=0)
    g = generate_sbm_snapshot(np.repeat([0, 1], 10), 0.4, 0.1, Rng(2))
    adj = dense_adjacency(g)
    params = ae_mod.fresh_params(20, cfg, Rng(0))
    gw, gb = ae_mod.ae_gradient(params, adj, adj, cfg)
    fw, fb = fd_gradient(params, adj, adj, cfg, h=1e-5)
    worst = 0.0
    for w, g_, f_ in zip(params.weights, gw, fw):
        mask = np.abs(w) >= 1e-6  # L1 kink coordinates excluded
        denom = np.maximum(np.maximum(np.abs(g_), np.abs(f_)), 1e-8)
        if mask.any():
            worst = max(worst, float(np.max((np.abs(g_ - f_) / denom)[mask])))
    for g_, f_ in zip(gb, fb):
        denom = np.maximum(np.maximum(np.abs(g_), np.abs(f_)), 1e-8)
        worst = max(worst, float(np.max(np.abs(g_ - f_) / denom)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 5.0
    _verdict(capsys, 3, "gradient correctness", ok,
             f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_metric_oracle_equivalence(capsys):
    start = time.perf_counter()
    checked = 0
    seed = 0
    exact = True
    while checked < 100:
        rng = np.random.default_rng(seed)
        seed += 1
        n = int(rng.integers(3, 13))
        pairs = candidate_pairs(n)
        pairs = pairs[rng.random(len(pairs)) < 0.7]
        if not len(pairs):
            continue
        scores = np.round(rng.random(len(pairs)), 2)
        truth = {tuple(map(int, p)) for p in pairs[rng.random(len(pairs)) < 0.3]}
        if not truth:
            continue
        sp = ScoredPairs(pairs, scores)
        for k in {1, max(1, len(sp) // 2), len(sp)}:
            exact &= precision_at_k(sp, truth, k) == \
                brute_precision_at_k(pairs, scores, truth, k)
        exact &= average_precision(sp, truth) == \
            brute_average_precision(pairs, scores, truth)
        exact &= mean_average_precision(sp, truth) == \
            brute_map(pairs, scores, truth)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = exact and checked == 100 and elapsed < 5.0
    _verdict(capsys, 4, "metric oracle equivalence", ok,
             f"{checked} instances exact={exact}, {elapsed:.1f}s")


def test_criterion_5_procrustes_recovery(capsys):
    rng = np.random.default_rng(7)
    y = rng.standard_normal((40, 8))
    r = random_orthogonal(8, rng)
    r_hat = procrustes_rotation(y @ r, y)
    plant_err = max(float(np.max(np.abs(y @ r @ r_hat - y))),
                    float(np.max(np.abs(r_hat - r.T))))

    # AEalign on twin snapshots: plant a transform on Y(2), align, recover
    g = generate_sbm_snapshot(np.repeat([0, 1], 8), 0.9, 0.05, Rng(1))
    cfg = AeConfig(d=4, enc_units=(12,), dec_units=(12,), beta=5.0, nu1=1e-6,
                   nu2=1e-6, n_iter=30, xeta=1e-2, n_batch=8, seed=0)
    # twin snapshots trained with one seed have equal embeddings
    raw, _ = static_ae_series(SnapshotSequence([g]), cfg)
    y2 = raw.src_at(0)
    planted = y2 @ random_orthogonal(4, rng)
    aligned = chain_align([y2, planted])
    ae_err = float(np.max(np.abs(aligned[1] - y2)))

    ok = plant_err <= 1e-8 and ae_err <= 1e-6
    _verdict(capsys, 5, "procrustes recovery", ok,
             f"planted err {plant_err:.2e}, aealign err {ae_err:.2e}")


def _signed_margins(series, labels_t, records, t):
    """(d_old - d_new) / (d_old + d_new) per migrant, with d_old and d_new its
    distances to the origin and destination centroids of the non-migrating
    members at t: positive when it sits nearer its destination."""
    y = series.src_at(t)
    moved = {node for node, _, _ in records}
    stay = np.array([i not in moved for i in range(len(labels_t))])
    out = []
    for node, old, new in records:
        d_old, d_new = (float(np.linalg.norm(y[node] - y[stay & (labels_t == c)].mean(axis=0)))
                        for c in (old, new))
        out.append((d_old - d_new) / (d_old + d_new))
    return out


@pytest.mark.slow
def test_criterion_6_migration_anticipation(capsys):
    start = time.perf_counter()
    opt_stats, d2v_stats = [], []
    opt_margins, d2v_margins = [], []
    for seed in range(5):
        params = SbmParams(node_num=200, community_num=2, length=6,
                           diminish_community=1, node_change_num=10, seed=seed)
        series = diminish_series(params)
        seq = series.sequence
        # final evaluated step: embeddings at t=4 vs the step-5 migrants
        t, records = 4, series.migrations[5]
        labels_t = series.labels[4]

        opt = optimal_svd_series(seq, 32)
        opt_stats.append(migration_proximity_stat(opt, labels_t, records, t))
        opt_margins += _signed_margins(opt, labels_t, records, t)

        cfg = AeConfig(d=32, lookback=2, n_iter=250, seed=seed)
        d2v, _ = d2v_ae_series(seq, cfg)
        d2v_stats.append(migration_proximity_stat(d2v, labels_t, records, t))
        d2v_margins += _signed_margins(d2v, labels_t, records, t)

    mean_opt = float(np.mean(opt_stats))
    mean_d2v = float(np.mean(d2v_stats))
    elapsed = time.perf_counter() - start
    ok = mean_d2v > mean_opt and elapsed < 600.0
    # the stat counts migrants; the mean signed margin shows how far each sits
    _verdict(capsys, 6, "migration anticipation (temporal beats static)", ok,
             f"d2v {mean_d2v:.3f} > optsvd {mean_opt:.3f}, mean signed margin "
             f"d2v {np.mean(d2v_margins):+.4f}, optsvd {np.mean(opt_margins):+.4f}, "
             f"{elapsed:.0f}s")


def test_criterion_7_classification_sanity(capsys):
    start = time.perf_counter()
    labels = np.repeat([0, 1], 100)
    micros = []
    for seed in range(5):
        g = generate_sbm_snapshot(labels, 0.1, 0.01, Rng(seed))
        series = optimal_svd_series(SnapshotSequence([g]), 16)
        micro, _ = node_classification(series.src_at(0), labels, 0.5, seed=seed)
        micros.append(micro)
    mean_micro = float(np.mean(micros))
    elapsed = time.perf_counter() - start
    ok = mean_micro >= 0.9
    _verdict(capsys, 7, "node classification sanity", ok,
             f"mean micro-F1 {mean_micro:.3f}, {elapsed:.1f}s")


def test_criterion_8_manifest_determinism(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "data": {"sbm": {"node_num": 40, "community_num": 2, "length": 4,
                         "node_change_num": 2}},
        "method": {"name": "optsvd", "d": 8},
        "tasks": {
            "reconstruction": {"k_grid": [1, 10]},
            "static_lp": {"hide_fraction": 0.2, "k_grid": [1, 10]},
            "temporal_lp": {"mode": "new", "k_grid": [1, 10]},
            "classification": {},
            "migration_stat": {"anticipate": True},
            "projection": {},
        },
    }))
    code_a = main(["run", "--config", str(config), "--outdir", str(tmp_path / "a")])
    code_b = main(["run", "--config", str(config), "--outdir", str(tmp_path / "b")])
    man_a = (tmp_path / "a" / "manifest.json").read_bytes()
    man_b = (tmp_path / "b" / "manifest.json").read_bytes()
    ok = code_a == 0 and code_b == 0 and man_a == man_b
    _verdict(capsys, 8, "manifest determinism", ok,
             f"exit codes {code_a}/{code_b}, identical={man_a == man_b}")

"""Autoencoder family: forward/loss/gradient math, training behavior, and
the alignment, warm-start, and lookback variants.

Gradient correctness is checked against central finite differences; entries
within 1e-6 of an L1 kink are excluded because the subgradient is not the
two-sided limit there.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dynembed.ae import (AeConfig, AeForwardError, AeTrainingError, MlpParams,
                         LookbackPredictor, ae_forward, ae_gradient, ae_loss,
                         aealign_series, build_lookback_pairs, chain_align,
                         d2v_ae_series, dyngem_series, encode, fit_snapshot,
                         fresh_params, load_mlp_params, reconstruct,
                         save_mlp_params, static_ae_series, train_dense,
                         window_inputs)
from dynembed.graphs import GraphSnapshot, SnapshotSequence, dense_adjacency
from dynembed.pipeline import METHOD_TABLE
from dynembed.rng import Rng
from dynembed.sbm import generate_sbm_snapshot

from oracles import fd_gradient, random_orthogonal

TINY = AeConfig(d=2, enc_units=(3,), dec_units=(3,), nu1=0.0, nu2=0.0,
                n_iter=0, seed=0)


def _zero_params(dims, n_encoder_layers):
    weights = [np.zeros((a, b)) for a, b in zip(dims, dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return MlpParams(weights=weights, biases=biases,
                     n_encoder_layers=n_encoder_layers)


def _two_block_graph(n=16):
    labels = np.repeat([0, 1], n // 2)
    return generate_sbm_snapshot(labels, 1.0, 0.0, Rng(0))


# --- config and parameter containers --------------------------------------


@pytest.mark.parametrize("field,value,match", [
    ("d", 0, "d must be"),
    ("beta", 0.5, "beta"),
    ("nu1", -1.0, "nu1, nu2"),
    ("nu2", -1e-9, "nu1, nu2"),
    ("lookback", 0, "lookback"),
    ("n_batch", 0, "n_batch"),
    ("xeta", 0.0, "xeta"),
    ("n_iter", -1, "n_iter"),
])
def test_config_validation(field, value, match):
    with pytest.raises(ValueError, match=match):
        AeConfig(**{field: value})


def test_rho_accepted_with_warning():
    with pytest.warns(UserWarning, match="rho"):
        cfg = AeConfig(rho=0.3)
    assert cfg.rho == 0.3


def test_fresh_params_structure():
    cfg = AeConfig(d=4, enc_units=(10, 6), dec_units=(6, 10), seed=5)
    params = fresh_params(12, cfg, Rng(5))
    dims = [12, 10, 6, 4, 6, 10, 12]
    assert params.n_layers == 6
    assert params.n_encoder_layers == 3
    assert params.embed_dim == 4
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        assert w.shape == (dims[i], dims[i + 1])
        assert np.array_equal(b, np.zeros(dims[i + 1]))
        limit = math.sqrt(6.0 / (dims[i] + dims[i + 1]))
        assert np.max(np.abs(w)) <= limit
    again = fresh_params(12, cfg, Rng(5))
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, again.weights))
    other = fresh_params(12, cfg, Rng(6))
    assert not np.array_equal(params.weights[0], other.weights[0])


def test_mlp_params_validation():
    w = [np.zeros((3, 2)), np.zeros((2, 3))]
    b = [np.zeros(2), np.zeros(3)]
    with pytest.raises(ValueError, match="layer structure"):
        MlpParams(weights=w, biases=b, n_encoder_layers=2)
    with pytest.raises(ValueError, match="bias width"):
        MlpParams(weights=w, biases=[np.zeros(3), np.zeros(3)], n_encoder_layers=1)
    with pytest.raises(ValueError, match="breaks the chain"):
        MlpParams(weights=[np.zeros((3, 2)), np.zeros((3, 3))],
                  biases=[np.zeros(2), np.zeros(3)], n_encoder_layers=1)
    bad = [np.zeros((3, 2)), np.full((2, 3), np.nan)]
    with pytest.raises(ValueError, match="non-finite"):
        MlpParams(weights=bad, biases=b, n_encoder_layers=1)


# --- forward pass ----------------------------------------------------------


def test_zero_params_forward():
    params = _zero_params([4, 3, 2, 3, 4], n_encoder_layers=2)
    y, xhat = ae_forward(params, np.ones((5, 4)))
    assert np.array_equal(y, np.zeros((5, 2)))
    assert np.array_equal(xhat, np.full((5, 4), 0.5))


def test_scalar_chain_hand_computed():
    # dims 1-1-1-1-1: sigmoid, identity (embedding), sigmoid, sigmoid
    params = _zero_params([1, 1, 1, 1, 1], n_encoder_layers=2)
    for i in range(4):
        params.weights[i][:] = 0.5
        params.biases[i][:] = 0.1
    x = 0.8

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    h1 = sig(0.5 * x + 0.1)
    want_y = 0.5 * h1 + 0.1
    want_xhat = sig(0.5 * sig(0.5 * want_y + 0.1) + 0.1)
    y, xhat = ae_forward(params, np.array([x]))
    assert y[0] == pytest.approx(want_y, rel=1e-14)
    assert xhat[0] == pytest.approx(want_xhat, rel=1e-14)


def test_batch_matches_rowwise():
    params = fresh_params(6, TINY, Rng(1))
    x = Rng(2).random((7, 6))
    y_batch, xhat_batch = ae_forward(params, x)
    for i in range(7):
        y_i, xhat_i = ae_forward(params, x[i])
        assert np.allclose(y_batch[i], y_i, rtol=1e-12, atol=1e-15)
        assert np.allclose(xhat_batch[i], xhat_i, rtol=1e-12, atol=1e-15)


def test_forward_rejects_wrong_width():
    params = fresh_params(6, TINY, Rng(1))
    with pytest.raises(ValueError, match="input dim"):
        ae_forward(params, np.zeros((2, 5)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_forward_overflow_names_layer():
    params = fresh_params(4, AeConfig(d=2, enc_units=(4,), dec_units=(4,)), Rng(0))
    params.weights[1][:] = 1.7e308  # embedding layer is identity, so it overflows
    with pytest.raises(AeForwardError, match="layer 1") as exc:
        ae_forward(params, np.ones((2, 4)))
    assert exc.value.layer == 1


def test_encode_and_reconstruct_match_forward():
    params = fresh_params(5, TINY, Rng(3))
    x = Rng(4).random((6, 5))
    y, xhat = ae_forward(params, x)
    assert np.array_equal(encode(params, x), y)
    assert np.array_equal(reconstruct(params, x), xhat)


# --- loss and gradient ------------------------------------------------------


def test_loss_hand_computed():
    cfg = AeConfig(d=1, enc_units=(2,), dec_units=(2,), beta=5.0,
                   nu1=0.0, nu2=0.0)
    params = _zero_params([2, 2, 1, 2, 2], n_encoder_layers=2)
    # xhat = (0.5, 0.5); weights 5 where target > 0: 5*(0.5)^2 + 1*(0.5)^2
    loss = ae_loss(params, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), cfg)
    assert loss == pytest.approx(1.5, rel=1e-14)


def test_loss_reduces_to_regularizer_on_perfect_fit():
    cfg = AeConfig(d=2, enc_units=(3,), dec_units=(3,), nu1=0.01, nu2=0.02)
    params = fresh_params(4, cfg, Rng(7))
    x = Rng(8).random((5, 4))
    targets = reconstruct(params, x)
    want = cfg.nu1 * sum(np.sum(np.abs(w)) for w in params.weights) \
        + cfg.nu2 * sum(np.sum(w * w) for w in params.weights)
    assert ae_loss(params, x, targets, cfg) == pytest.approx(want, rel=1e-12)


def test_loss_beta_one_is_plain_sse():
    cfg = AeConfig(d=2, enc_units=(3,), dec_units=(3,), beta=1.0,
                   nu1=0.0, nu2=0.0)
    params = fresh_params(4, cfg, Rng(9))
    x = Rng(10).random((6, 4))
    targets = Rng(11).random((6, 4))
    xhat = reconstruct(params, x)
    assert ae_loss(params, x, targets, cfg) == pytest.approx(
        float(np.sum((xhat - targets) ** 2)), rel=1e-12)


def test_loss_validation():
    params = fresh_params(4, TINY, Rng(0))
    with pytest.raises(ValueError, match="row counts"):
        ae_loss(params, np.zeros((2, 4)), np.zeros((3, 4)), TINY)
    with pytest.raises(ValueError, match="target width"):
        ae_loss(params, np.zeros((2, 4)), np.zeros((2, 3)), TINY)


def test_regularizer_gradient_is_additive():
    cfg0 = AeConfig(d=2, enc_units=(3,), dec_units=(3,), nu1=0.0, nu2=0.0)
    cfg1 = AeConfig(d=2, enc_units=(3,), dec_units=(3,), nu1=0.1, nu2=0.2)
    params = fresh_params(4, cfg0, Rng(12))
    x = Rng(13).random((5, 4))
    targets = Rng(14).random((5, 4))
    gw0, gb0 = ae_gradient(params, x, targets, cfg0)
    gw1, gb1 = ae_gradient(params, x, targets, cfg1)
    for w, a, b in zip(params.weights, gw0, gw1):
        assert np.allclose(b - a, 0.1 * np.sign(w) + 0.4 * w, atol=1e-12)
    for a, b in zip(gb0, gb1):
        assert np.array_equal(a, b)  # biases are not regularized


def test_gradient_matches_finite_differences():
    cfg = AeConfig(d=2, enc_units=(3,), dec_units=(3,), beta=2.0,
                   nu1=1e-6, nu2=1e-6, seed=0)
    params = fresh_params(5, cfg, Rng(21))
    x = Rng(22).random((4, 5))
    targets = (Rng(23).random((4, 5)) > 0.5).astype(np.float64)
    gw, gb = ae_gradient(params, x, targets, cfg)
    fw, fb = fd_gradient(params, x, targets, cfg, h=1e-5)
    worst = 0.0
    for w, g, f in zip(params.weights, gw, fw):
        mask = np.abs(w) >= 1e-6  # keep away from the L1 kink
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-8)
        worst = max(worst, float(np.max((np.abs(g - f) / denom)[mask], initial=0.0)))
    for g, f in zip(gb, fb):
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-8)
        worst = max(worst, float(np.max(np.abs(g - f) / denom)))
    assert worst <= 1e-4


def test_gradient_zero_at_exact_fit():
    # identity embedding then sigmoid decoder; zero weights hit target 0.5
    cfg = AeConfig(d=1, enc_units=(), dec_units=(), beta=1.0, nu1=0.0, nu2=0.0)
    params = _zero_params([1, 1, 1], n_encoder_layers=1)
    gw, gb = ae_gradient(params, np.array([[0.7]]), np.array([[0.5]]), cfg)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in gw)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in gb)


# --- training ---------------------------------------------------------------


def test_n_iter_zero_returns_init():
    init = fresh_params(6, TINY, Rng(30))
    x = Rng(31).random((6, 6))
    result = train_dense(x, x, TINY, init, Rng(32))
    assert result.epoch_losses == []
    assert result.params is not init
    assert all(np.array_equal(a, b)
               for a, b in zip(result.params.weights, init.weights))


def test_training_halves_the_loss():
    g = _two_block_graph()
    adj = dense_adjacency(g)
    for seed in range(5):
        cfg = AeConfig(d=4, enc_units=(16,), dec_units=(16,), beta=5.0,
                       nu1=1e-6, nu2=1e-6, n_iter=150, xeta=1e-2, n_batch=8,
                       seed=seed)
        init_loss = ae_loss(fresh_params(16, cfg, Rng(seed)), adj, adj, cfg)
        result = train_dense(adj, adj, cfg, None, Rng(seed))
        assert len(result.epoch_losses) == cfg.n_iter
        assert result.epoch_losses[-1] < 0.5 * init_loss


def test_loss_trend_is_downward():
    g = _two_block_graph()
    cfg = AeConfig(d=4, enc_units=(16,), dec_units=(16,), beta=5.0,
                   nu1=1e-6, nu2=1e-6, n_iter=60, xeta=1e-2, n_batch=8, seed=1)
    adj = dense_adjacency(g)
    losses = train_dense(adj, adj, cfg, None, Rng(cfg.seed)).epoch_losses
    for i in range(len(losses) - 10):
        assert losses[i + 10] <= losses[i] + 1e-6


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergent_step_size_raises():
    g = _two_block_graph(8)
    cfg = AeConfig(d=2, enc_units=(4,), dec_units=(4,), nu1=0.0, nu2=1e8,
                   n_iter=200, xeta=1e8, n_batch=8, seed=0)
    with pytest.raises(AeTrainingError) as exc:
        fit_snapshot(dense_adjacency(g), cfg, 0)
    assert exc.value.epoch >= 0
    assert exc.value.batch >= -1


# --- series variants --------------------------------------------------------


def _small_cfg(**kw):
    base = dict(d=4, enc_units=(12,), dec_units=(12,), beta=5.0, nu1=1e-6,
                nu2=1e-6, n_iter=20, xeta=1e-2, n_batch=10, seed=0)
    base.update(kw)
    return AeConfig(**base)


def test_static_series_shapes_and_seeding(small_sbm):
    seq = small_sbm.sequence
    series, models = static_ae_series(seq, _small_cfg(n_iter=3))
    assert series.method == "ae_static"
    assert len(models) == len(seq)
    for t in range(len(seq)):
        assert series.src_at(t).shape == (seq.n, 4)
        assert np.array_equal(series.src_at(t), series.tgt_at(t))
    # step t is trained with seed cfg.seed + t, not with one seed for all
    for t in range(len(seq)):
        adj = dense_adjacency(seq[t])
        assert np.array_equal(series.src_at(t),
                              encode(fit_snapshot(adj, _small_cfg(n_iter=3), t), adj))
    adj = dense_adjacency(seq[1])
    shared = encode(fit_snapshot(adj, _small_cfg(n_iter=3), 0), adj)
    assert not np.array_equal(series.src_at(1), shared)


def test_aealign_identical_snapshots_collapse():
    g = _two_block_graph()
    seq = SnapshotSequence([g, g, g])
    series, _ = aealign_series(seq, _small_cfg(n_iter=5))
    raw, _ = static_ae_series(seq, _small_cfg(n_iter=5))
    assert series.method == "aealign"
    assert all(np.array_equal(a, b) for a, b in zip(series.y_src, chain_align(raw.y_src)))
    # twin snapshots trained with one seed have equal embeddings, which
    # alignment leaves in place
    twin = raw.src_at(0)
    for y in chain_align([twin, twin, twin])[1:]:
        assert np.allclose(y, twin, atol=1e-8)


def test_chain_align_keeps_first_and_undoes_planted_rotation():
    rng = np.random.default_rng(40)
    y = rng.standard_normal((30, 5))
    r0 = random_orthogonal(5, rng)
    out = chain_align([y, y @ r0])
    assert out[0] is not None and np.array_equal(out[0], y)
    assert np.max(np.abs(out[1] - y)) <= 1e-6


def test_alignment_is_non_expansive():
    rng = np.random.default_rng(41)
    prev = rng.standard_normal((20, 4))
    cur = rng.standard_normal((20, 4))
    out = chain_align([prev, cur])
    before = np.linalg.norm(cur - prev)
    after = np.linalg.norm(out[1] - prev)
    assert after <= before + 1e-12


def test_dyngem_zero_warm_iters_freezes_model():
    g = _two_block_graph()
    seq = SnapshotSequence([g, g, g])
    cfg = _small_cfg(n_iter=10)
    series, models = dyngem_series(seq, cfg)
    assert series.method == "dyngem"
    adj = dense_adjacency(g)
    # each step is trained from the previous step's model ...
    for t in (1, 2):
        again = fit_snapshot(adj, cfg, t, models[t - 1])
        assert all(np.array_equal(a, b) for a, b in zip(again.weights, models[t].weights))
    # ... so zero warm iterations keep that model as it is
    frozen = fit_snapshot(adj, replace(cfg, n_iter=0), 1, models[0])
    assert all(np.array_equal(a, b) for a, b in zip(frozen.weights, models[0].weights))
    assert np.array_equal(encode(frozen, adj), series.src_at(0))


def test_warm_start_reaches_fresh_loss_faster(small_sbm):
    seq = small_sbm.sequence
    n_iter = 40
    ratios = []
    for seed in range(5):
        cfg = _small_cfg(n_iter=n_iter, seed=seed)
        adj0, adj1 = dense_adjacency(seq[0]), dense_adjacency(seq[1])
        base = fit_snapshot(adj0, cfg, 0)
        fresh = train_dense(adj1, adj1, cfg, None, Rng(seed + 1))
        warm = train_dense(adj1, adj1, cfg, base, Rng(seed + 1))
        target = fresh.epoch_losses[-1]
        hit = next(i for i, l in enumerate(warm.epoch_losses) if l <= target)
        ratios.append((hit + 1) / n_iter)
    assert np.mean(ratios) <= 0.5


# --- lookback model ---------------------------------------------------------


def test_lookback_pairs_exact_windows(small_sbm):
    seq = small_sbm.sequence  # T = 4
    dense = [dense_adjacency(g) for g in seq]
    x, targets = build_lookback_pairs(seq, 2)
    assert np.array_equal(x, np.vstack([np.hstack(dense[0:2]),
                                        np.hstack(dense[1:3])]))
    assert np.array_equal(targets, np.vstack([dense[2], dense[3]]))
    assert x.shape == (2 * seq.n, 2 * seq.n)
    assert targets.shape == (2 * seq.n, seq.n)


def test_lookback_needs_enough_snapshots():
    g = _two_block_graph()
    with pytest.raises(ValueError, match="lookback"):
        build_lookback_pairs(SnapshotSequence([g, g]), 2)


def test_window_inputs_bounds(small_sbm):
    seq = small_sbm.sequence
    with pytest.raises(IndexError, match="window"):
        window_inputs(seq, 0, 2)
    with pytest.raises(IndexError, match="window"):
        window_inputs(seq, len(seq), 2)
    assert np.array_equal(
        window_inputs(seq, 2, 2),
        np.hstack([dense_adjacency(seq[1]), dense_adjacency(seq[2])]))


def test_d2v_series_time_axis(small_sbm):
    seq = small_sbm.sequence  # T = 4, lookback 2
    cfg = _small_cfg(n_iter=2, lookback=2)
    series, predictor, result = d2v_ae_series(seq, cfg)
    assert series.method == "d2v_ae"
    assert series.t_start == 1
    assert list(series.times()) == [1, 2, 3]
    with pytest.raises(IndexError):
        series.src_at(0)
    for t in (1, 2, 3):
        assert series.src_at(t).shape == (seq.n, cfg.d)
    assert isinstance(predictor, LookbackPredictor)
    assert len(result.epoch_losses) == 2


def test_predictor_decodes_window(small_sbm):
    seq = small_sbm.sequence
    _, predictor, _ = d2v_ae_series(seq, _small_cfg(n_iter=2, lookback=2))
    want = reconstruct(predictor.params, window_inputs(seq, 2, 2))
    assert np.array_equal(predictor.predict_next(seq, 2), want)


def test_d2v_training_halves_the_loss():
    g = _two_block_graph()
    seq = SnapshotSequence([g, g, g, g])
    cfg = _small_cfg(n_iter=40, lookback=2, enc_units=(16,), dec_units=(16,))
    x, targets = build_lookback_pairs(seq, 2)
    init_loss = ae_loss(fresh_params(x.shape[1], cfg, Rng(cfg.seed),
                                     output_dim=targets.shape[1]),
                        x, targets, cfg)
    _, _, result = d2v_ae_series(seq, cfg)
    assert result.epoch_losses[-1] < 0.5 * init_loss


def test_reconstruction_scores_are_decoded_rows():
    g = _two_block_graph()
    adj = dense_adjacency(g)
    params = fresh_params(16, _small_cfg(), Rng(2))
    for name in ("ae_static", "aealign", "dyngem"):
        scores = METHOD_TABLE[name].scores(None, SnapshotSequence([g]), None,
                                           {"models": [params]}, 0)
        assert np.array_equal(scores, reconstruct(params, adj))


# --- persistence ------------------------------------------------------------


def test_model_round_trip(tmp_path):
    params = fresh_params(6, TINY, Rng(50))
    path = tmp_path / "model.txt"
    save_mlp_params(params, path)
    loaded = load_mlp_params(path, params.n_encoder_layers)
    assert loaded.n_encoder_layers == params.n_encoder_layers
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))
    assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, params.biases))


def test_model_load_rejects_bad_shapes(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("1\n2 2\n0 0\n0 0\n0\n")  # bias row too short
    with pytest.raises(ValueError, match="shape mismatch"):
        load_mlp_params(path, 1)

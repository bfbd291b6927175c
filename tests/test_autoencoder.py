"""Autoencoder family: forward/loss/gradient math, training behavior, and
the alignment, warm-start, and lookback variants.

Gradient correctness is checked against central finite differences; entries
within 1e-6 of an L1 kink are excluded because the subgradient is not the
two-sided limit there.
"""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed import ae, series
from dynembed.ae import (AeConfig, AeTrainingError, MlpParams,
                         ae_gradient,
                         aealign_series, build_lookback_pairs, chain_align,
                         d2v_ae_series, dyngem_series, encode, fit_snapshot,
                         fresh_params, reconstruct,
                         save_mlp_params, static_ae_series, train_dense,
                         window_inputs)
from dynembed.graphs import GraphSnapshot, SnapshotSequence, dense_adjacency
from dynembed.pipeline import METHOD_TABLE, Run
from dynembed.rng import Rng
from dynembed.sbm import generate_sbm_snapshot
from dynembed.series import format_rows

from oracles import (ae_gradient_ref, ae_loss_ref, fd_gradient, load_mlp_params,
                     random_orthogonal, save_mlp_params_ref, train_dense_ref, train_epoch_ref)

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


def test_rho_is_not_a_field():
    with pytest.raises(TypeError, match="rho"):
        AeConfig(rho=0.3)


def test_fresh_params_structure():
    cfg = AeConfig(d=4, enc_units=(10, 6), dec_units=(6, 10), seed=5)
    params = fresh_params(12, cfg, Rng(5))
    dims = [12, 10, 6, 4, 6, 10, 12]
    assert params.n_layers == 6
    assert params.n_encoder_layers == 3
    assert params.weights[params.n_encoder_layers - 1].shape == (6, 4)  # embedding layer
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
    x = np.ones((5, 4))
    assert np.array_equal(encode(params, x), np.zeros((5, 2)))
    assert np.array_equal(reconstruct(params, x), np.full((5, 4), 0.5))


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
    y, xhat = encode(params, [[x]]), reconstruct(params, [[x]])
    assert y.shape == xhat.shape == (1, 1)
    assert y[0, 0] == pytest.approx(want_y, rel=1e-14)
    assert xhat[0, 0] == pytest.approx(want_xhat, rel=1e-14)


def test_batch_matches_rowwise():
    params = fresh_params(6, TINY, Rng(1))
    x = Rng(2).random((7, 6))
    y_batch, xhat_batch = encode(params, x), reconstruct(params, x)
    for i in range(7):
        y_i, xhat_i = encode(params, x[i:i + 1]), reconstruct(params, x[i:i + 1])
        assert np.allclose(y_batch[i], y_i[0], rtol=1e-12, atol=1e-15)
        assert np.allclose(xhat_batch[i], xhat_i[0], rtol=1e-12, atol=1e-15)


# --- loss and gradient ------------------------------------------------------


def test_loss_hand_computed():
    cfg = AeConfig(d=1, enc_units=(2,), dec_units=(2,), beta=5.0,
                   nu1=0.0, nu2=0.0)
    params = _zero_params([2, 2, 1, 2, 2], n_encoder_layers=2)
    # xhat = (0.5, 0.5); weights 5 where target > 0: 5*(0.5)^2 + 1*(0.5)^2
    loss = ae_loss_ref(params, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), cfg)
    assert loss == pytest.approx(1.5, rel=1e-14)


def test_loss_reduces_to_regularizer_on_perfect_fit():
    cfg = AeConfig(d=2, enc_units=(3,), dec_units=(3,), nu1=0.01, nu2=0.02)
    params = fresh_params(4, cfg, Rng(7))
    x = Rng(8).random((5, 4))
    targets = reconstruct(params, x)
    want = cfg.nu1 * sum(np.sum(np.abs(w)) for w in params.weights) \
        + cfg.nu2 * sum(np.sum(w * w) for w in params.weights)
    assert ae_loss_ref(params, x, targets, cfg) == pytest.approx(want, rel=1e-12)


def test_loss_beta_one_is_plain_sse():
    cfg = AeConfig(d=2, enc_units=(3,), dec_units=(3,), beta=1.0,
                   nu1=0.0, nu2=0.0)
    params = fresh_params(4, cfg, Rng(9))
    x = Rng(10).random((6, 4))
    targets = Rng(11).random((6, 4))
    xhat = reconstruct(params, x)
    assert ae_loss_ref(params, x, targets, cfg) == pytest.approx(
        float(np.sum((xhat - targets) ** 2)), rel=1e-12)


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


@st.composite
def small_mlps(draw):
    """(cfg, params, x, targets, seed) of a small MLP: any depth the config
    allows, nonzero biases, some weights exactly 0 (sign(0) = 0), and weights
    scaled up to saturate the sigmoids."""
    dims = st.lists(st.integers(1, 5), max_size=2).map(tuple)
    cfg = AeConfig(d=draw(st.integers(1, 3)), enc_units=draw(dims), dec_units=draw(dims),
                   beta=draw(st.sampled_from([1.0, 5.0])),
                   nu1=draw(st.sampled_from([0.0, 1e-6, 0.3])),
                   nu2=draw(st.sampled_from([0.0, 1e-6, 0.3])),
                   xeta=draw(st.sampled_from([1e-3, 0.25])),
                   n_batch=draw(st.integers(1, 4)), n_iter=1)
    n_in, n_out, n_rows = (draw(st.integers(1, 6)) for _ in range(3))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1.0, 20.0]))
    params = fresh_params(n_in, cfg, Rng(seed), output_dim=n_out)
    g = np.random.default_rng(seed)
    for w, b in zip(params.weights, params.biases):
        w *= scale * (g.random(w.shape) >= 0.2)
        b[:] = g.normal(size=b.shape)
    x = g.random((n_rows, n_in)) * (g.random((n_rows, n_in)) < 0.6)
    targets = (g.random((n_rows, n_out)) < 0.5).astype(np.float64)
    return cfg, params, x, targets, seed


def _assert_arrays_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=120, deadline=None)
@given(small_mlps())
def test_gradient_matches_expression_oracle_bitwise(case):
    cfg, params, x, targets, _ = case
    before = params.copy()
    gw, gb = ae_gradient(params, x, targets, cfg)
    rw, rb = ae_gradient_ref(params, x, targets, cfg)
    _assert_arrays_same_bits(gw, rw)
    _assert_arrays_same_bits(gb, rb)
    _assert_arrays_same_bits(params.weights + params.biases, before.weights + before.biases)


@settings(max_examples=80, deadline=None)
@given(small_mlps())
def test_training_epoch_matches_expression_oracle_bitwise(case):
    cfg, params, x, targets, seed = case
    got = train_dense(x, targets, cfg, params.copy(), Rng(seed)).params
    want = train_epoch_ref(params, x, targets, cfg, Rng(seed))
    _assert_arrays_same_bits(got.weights, want.weights)
    _assert_arrays_same_bits(got.biases, want.biases)


# --- training ---------------------------------------------------------------


def test_n_iter_zero_returns_init():
    init = fresh_params(6, TINY, Rng(30))
    before = init.copy()
    x = Rng(31).random((6, 6))
    result = train_dense(x, x, TINY, init, Rng(32))
    assert result.epoch_losses == []
    assert result.params is init
    _assert_arrays_same_bits(init.weights + init.biases, before.weights + before.biases)


def test_training_halves_the_loss():
    g = _two_block_graph()
    adj = dense_adjacency(g)
    for seed in range(5):
        cfg = AeConfig(d=4, enc_units=(16,), dec_units=(16,), beta=5.0,
                       nu1=1e-6, nu2=1e-6, n_iter=150, xeta=1e-2, n_batch=8,
                       seed=seed)
        init_loss = ae_loss_ref(fresh_params(16, cfg, Rng(seed)), adj, adj, cfg)
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


def _divergence_point(n, n_batch, nu2, xeta):
    """(epoch, batch) at which train_dense and the reference loop each stop
    on the two-block graph of n nodes."""
    adj = dense_adjacency(_two_block_graph(n))
    cfg = AeConfig(d=2, enc_units=(4,), dec_units=(4,), nu1=0.0, nu2=nu2,
                   n_iter=200, xeta=xeta, n_batch=n_batch, seed=0)
    with pytest.raises(AeTrainingError) as got:
        fit_snapshot(adj, cfg, 0)
    with pytest.raises(AeTrainingError) as want:
        train_dense_ref(adj, adj, cfg, None, Rng(cfg.seed))
    return (got.value.epoch, got.value.batch), (want.value.epoch, want.value.batch)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergent_step_size_raises():
    # the parameters overflow in an epoch's last step
    got, want = _divergence_point(8, 8, 1e8, 1e8)
    assert got == want == (9, -1)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_inside_an_epoch_raises_at_its_minibatch():
    # a step overflows a weight, and a later minibatch's gradient is the
    # first non-finite one: the finite check on the workspace's mask
    got, want = _divergence_point(16, 4, 1.0, 1e300)
    assert got == want == (0, 2)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_below_a_stepped_layer_raises_at_its_minibatch():
    # input -> 1 (identity) -> 1 (sigmoid). The rows of 1e308 meet only
    # W_0[0], which no other row moves from 0, so the forward pass stays
    # finite; but they overflow layer 0's gradient x.T @ delta, while the
    # last layer's stays finite. So the second minibatch steps the last
    # layer before it finds layer 0's gradient non-finite.
    cfg = AeConfig(d=1, enc_units=(), dec_units=(), nu1=0.0, nu2=0.0, n_iter=3,
                   xeta=1e-3, n_batch=2, seed=0)
    x = np.array([[0.0, 1.0], [0.0, 0.5], [1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
    targets = np.array([[1.0], [0.0], [1.0], [0.0], [1.0]])
    init = MlpParams(weights=[np.zeros((2, 1)), np.array([[4.0]])],
                     biases=[np.array([0.1]), np.zeros(1)], n_encoder_layers=1)
    before = init.copy()
    gw, gb = ae_gradient(init, x[2:4], targets[2:4], cfg)
    assert not np.all(np.isfinite(gw[0]))
    assert all(np.all(np.isfinite(g)) for g in gw[1:] + gb)
    rng_seed = 2  # minibatches: rows (4, 0), then (2, 1), then (3,)
    assert Rng(rng_seed).permutation(5)[:4].tolist() == [4, 0, 2, 1]
    with pytest.raises(AeTrainingError) as want:
        train_dense_ref(x, targets, cfg, init, Rng(rng_seed))
    _assert_arrays_same_bits(init.weights + init.biases, before.weights + before.biases)
    with pytest.raises(AeTrainingError) as got:
        train_dense(x, targets, cfg, init, Rng(rng_seed))
    assert (got.value.epoch, got.value.batch) == (want.value.epoch, want.value.batch) == (0, 1)
    # the first minibatch stepped init in place, and the second its last layer
    assert not np.array_equal(init.weights[1], before.weights[1])


def _one_unit_model(b0):
    """input -> 1 (identity) -> 1 (sigmoid) with zero weights and embedding
    bias b0, so that only the last layer's weight (when b0 != 0) and bias
    get a nonzero gradient at nu1 = nu2 = 0."""
    return MlpParams(weights=[np.zeros((3, 1)), np.zeros((1, 1))],
                     biases=[np.array([b0]), np.zeros(1)], n_encoder_layers=1)


@pytest.mark.parametrize("b0, xeta, overflowed", [
    (1e10, 1e300, "weight"),  # |gw| = 1e10 |gb|: only the weight overflows
    (0.0, 1e308, "bias"),     # gw = 0 and gb != 0: only the bias overflows
])
@pytest.mark.filterwarnings("ignore:overflow")
def test_epoch_ending_on_an_overflowed_parameter_raises_at_batch_minus_one(b0, xeta,
                                                                          overflowed):
    cfg = AeConfig(d=1, enc_units=(), dec_units=(), nu1=0.0, nu2=0.0, n_iter=1,
                   xeta=xeta, n_batch=8, seed=0)
    x = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    targets = np.ones((2, 1))
    init = _one_unit_model(b0)
    gw, gb = ae_gradient(init, x, targets, cfg)
    assert all(np.all(np.isfinite(g)) for g in gw + gb)
    after = train_epoch_ref(init.copy(), x, targets, cfg, Rng(1))
    assert np.isinf(after.weights[1][0, 0]) == (overflowed == "weight")
    assert np.isinf(after.biases[1][0]) == (overflowed == "bias")
    assert all(np.all(np.isfinite(a)) for a in after.weights[:1] + after.biases[:1])
    with pytest.raises(AeTrainingError) as exc:
        train_dense(x, targets, cfg, init, Rng(1))
    assert (exc.value.epoch, exc.value.batch) == (0, -1)


@st.composite
def training_runs(draw):
    """(x, targets, cfg, init, seed) of a few epochs on drawn shapes, from
    fresh weights or from a drawn warm start."""
    dims = st.lists(st.integers(1, 6), max_size=2).map(tuple)
    cfg = AeConfig(d=draw(st.integers(1, 3)), enc_units=draw(dims), dec_units=draw(dims),
                   beta=draw(st.sampled_from([1.0, 5.0])),
                   nu1=draw(st.sampled_from([0.0, 1e-6, 0.3])),
                   nu2=draw(st.sampled_from([0.0, 1e-6, 0.3])),
                   xeta=draw(st.sampled_from([1e-3, 0.05])),
                   n_batch=draw(st.integers(1, 7)), n_iter=draw(st.integers(1, 4)))
    n_in, n_out, n_rows = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed)
    x = (g.random((n_rows, n_in)) < 0.4).astype(np.float64)
    targets = (g.random((n_rows, n_out)) < 0.4).astype(np.float64)
    init = fresh_params(n_in, cfg, Rng(seed + 1), output_dim=n_out) if draw(st.booleans()) else None
    return x, targets, cfg, init, seed


def _copied(init):
    return None if init is None else init.copy()


def _assert_matches_reference_loop(x, targets, cfg, init, seed):
    params, losses = train_dense_ref(x, targets, cfg, init, Rng(seed))
    got = train_dense(x, targets, cfg, init, Rng(seed))
    _assert_arrays_same_bits(got.params.weights + got.params.biases,
                             params.weights + params.biases)
    assert len(got.epoch_losses) == len(losses) == cfg.n_iter
    assert got.epoch_losses == losses


@settings(max_examples=100, deadline=None)
@given(training_runs())
def test_training_matches_the_reference_loop(case):
    _assert_matches_reference_loop(*case)


@settings(max_examples=30, deadline=None)
@given(training_runs(), training_runs())
def test_back_to_back_trainings_match_each_run_alone(first, second):
    # each call trains in a workspace of its own: calls of other shapes in
    # between change no bit of a model; first's init is trained twice, so
    # each call trains a copy
    alone = [train_dense_ref(x, t, cfg, init, Rng(seed))[0]
             for x, t, cfg, init, seed in (first, second)]
    for (x, t, cfg, init, seed), want in zip((first, second, first), alone + alone[:1]):
        got = train_dense(x, t, cfg, _copied(init), Rng(seed)).params
        _assert_arrays_same_bits(got.weights + got.biases, want.weights + want.biases)


def _arrays_of(workspace):
    for value in vars(workspace).values():
        yield from value if isinstance(value, list) else [value]


def test_parameters_and_gradients_alias_no_workspace_buffer(monkeypatch):
    made = []

    class Recording(ae._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(ae, "_Workspace", Recording)
    x = dense_adjacency(_two_block_graph())
    cfg = _small_cfg(n_iter=2, n_batch=5)
    init = fresh_params(x.shape[1], cfg, Rng(4))
    params = train_dense(x, x, cfg, init, Rng(5)).params
    (ws,) = made
    owned = params.weights + params.biases
    for a in owned:
        for b in [*_arrays_of(ws), x]:
            assert not np.shares_memory(a, b)
    # ae_gradient's arrays are fresh on every call
    grads = [g for call in range(2) for part in ae_gradient(params, x, x, cfg) for g in part]
    for i, a in enumerate(grads):
        for b in grads[i + 1:] + owned + [x]:
            assert not np.shares_memory(a, b)


def _traced_peak(fn, *args):
    """(result of fn(*args), the most bytes it had allocated at once beyond
    what was allocated before the call), as tracemalloc counts them; numpy
    reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_training_holds_one_layer_of_gradient_not_a_model():
    # training steps init in place, so beyond the workspace's activations a
    # training run holds less than one model's weights: one layer's
    # gradient, a row block of scratch, the deltas and the gathered rows
    cfg = AeConfig(d=4, enc_units=(80, 80, 80), dec_units=(80, 80, 80), n_iter=2,
                   n_batch=8, nu1=1e-6, nu2=1e-6, seed=0)
    x = (np.random.default_rng(0).random((40, 60)) < 0.3).astype(np.float64)
    init = fresh_params(60, cfg, Rng(1))
    result, peak = _traced_peak(train_dense, x, x, cfg, init, Rng(2))
    assert result.params is init
    weight_bytes = sum(w.nbytes for w in init.weights)
    activation_bytes = 8 * cfg.n_batch * sum(w.shape[1] for w in init.weights)
    assert peak - activation_bytes < weight_bytes


def test_reconstruct_holds_two_consecutive_layers():
    # widest layers next to each other: 200 -> 200 -> 200
    cfg = AeConfig(d=4, enc_units=(200, 200, 200), dec_units=(200, 200, 200))
    params = fresh_params(40, cfg, Rng(3))
    x = np.random.default_rng(4).random((300, 40))
    out, peak = _traced_peak(reconstruct, params, x)
    assert out.shape == x.shape
    dims = [40, 200, 200, 200, 4, 200, 200, 200, 40]
    # a layer's input and output, plus the sigmoid's 1 + e temporary and
    # its sign mask; 80 KiB for numpy's casting buffer (8192 values) and
    # small objects
    bound = max(x.shape[0] * (8 * a + 17 * b) for a, b in zip(dims, dims[1:])) + 80 * 1024
    assert peak <= bound < 8 * x.shape[0] * sum(dims[1:])


@pytest.mark.parametrize("case", ["d2v", "d2v_warm", "dyngem_warm"])
def test_pipeline_trainings_match_the_reference_loop(small_sbm, case):
    cfg = _small_cfg(n_iter=4, n_batch=7)
    seq = small_sbm.sequence
    if case == "dyngem_warm":
        adj0, adj1 = dense_adjacency(seq[0]), dense_adjacency(seq[1])
        _assert_matches_reference_loop(adj1, adj1, cfg, fit_snapshot(adj0, cfg, 0), cfg.seed + 1)
        return
    x, targets = build_lookback_pairs(seq, cfg.lookback)
    init = None
    if case == "d2v_warm":
        init = train_dense(x, targets, replace(cfg, n_iter=2), None, Rng(8)).params
    _assert_matches_reference_loop(x, targets, cfg, init, cfg.seed)


# --- series variants --------------------------------------------------------


def _small_cfg(**kw):
    base = dict(d=4, enc_units=(12,), dec_units=(12,), beta=5.0, nu1=1e-6,
                nu2=1e-6, n_iter=20, xeta=1e-2, n_batch=10, seed=0)
    base.update(kw)
    return AeConfig(**base)


def test_static_series_shapes_and_seeding(small_sbm):
    seq = small_sbm.sequence
    series, models = static_ae_series(seq, _small_cfg(n_iter=3))
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
    adj = dense_adjacency(g)
    # each step is trained from the previous step's model ...
    for t in (1, 2):
        again = fit_snapshot(adj, cfg, t, models[t - 1].copy())
        assert all(np.array_equal(a, b) for a, b in zip(again.weights, models[t].weights))
    # ... so zero warm iterations keep that model as it is
    frozen = fit_snapshot(adj, replace(cfg, n_iter=0), 1, models[0].copy())
    assert all(np.array_equal(a, b) for a, b in zip(frozen.weights, models[0].weights))
    assert np.array_equal(encode(frozen, adj), series.src_at(0))


def test_warm_start_in_place_trains_init_itself():
    g = _two_block_graph()
    adj = dense_adjacency(g)
    cfg = _small_cfg(n_iter=3)
    init = fit_snapshot(adj, cfg, 0)
    copied = train_dense(adj, adj, cfg, init.copy(), Rng(cfg.seed + 1)).params
    in_place = train_dense(adj, adj, cfg, init, Rng(cfg.seed + 1)).params
    assert in_place is init
    _assert_arrays_same_bits(in_place.weights + in_place.biases, copied.weights + copied.biases)


@pytest.mark.parametrize("keep", [
    None,
    {"static_lp": {"t": 1}},
    {"static_lp": {"t": 2}},
    {"reconstruction": {"t": 1}, "temporal_lp": {"t": 1}, "static_lp": {"t": 2}},
])
def test_dyngem_fold_is_the_same_whichever_models_it_keeps(keep):
    # keep: the tasks whose reads decide what the pipeline's run keeps. Its
    # fold trains each warm start over the previous model; the scores, the
    # model copies and the last model it keeps are bitwise those of the
    # public series, which copies every model.
    g = _two_block_graph()
    seq = SnapshotSequence([g, g, g])
    cfg = SimpleNamespace(ae=_small_cfg(n_iter=3), tasks=keep or {})
    series, extras = METHOD_TABLE["dyngem"].embed(cfg, seq)
    want_series, want_models = dyngem_series(seq, cfg.ae)
    adj = dense_adjacency(g)
    for t in range(len(seq)):
        assert series.src_at(t).tobytes() == want_series.src_at(t).tobytes()
    kept = [(extras["model"], want_models[-1])]
    kept += [(model, want_models[t]) for t, model in extras["inits"].items()]
    for model, want in kept:
        _assert_arrays_same_bits(model.weights + model.biases, want.weights + want.biases)
    for t, scores in extras["scores"].items():
        assert scores.tobytes() == reconstruct(want_models[t], adj).tobytes()
    assert sorted(extras["inits"]) == ([] if keep is None else [keep["static_lp"]["t"] - 1])
    assert sorted(extras["scores"]) == ([1] if keep and "reconstruction" in keep else [])


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
    series, result = d2v_ae_series(seq, cfg)
    assert series.t_start == 1
    assert list(series.times()) == [1, 2, 3]
    with pytest.raises(IndexError):
        series.src_at(0)
    for t in (1, 2, 3):
        assert series.src_at(t).shape == (seq.n, cfg.d)
    assert len(result.epoch_losses) == 2
    assert np.array_equal(series.src_at(3), encode(result.params, window_inputs(seq, 3, 2)))


def test_predictor_decodes_window(small_sbm):
    # the method table scores snapshot 3 by the decoded window ending at 2
    seq = small_sbm.sequence
    cfg = SimpleNamespace(ae=_small_cfg(n_iter=2, lookback=2))
    _, result = d2v_ae_series(seq, cfg.ae)
    run = Run(seq, *METHOD_TABLE["d2v_ae"].embed(cfg, seq))
    want = reconstruct(result.params, window_inputs(seq, 2, 2))
    assert np.array_equal(METHOD_TABLE["d2v_ae"].scores(cfg, run, 3), want)


def test_d2v_training_halves_the_loss():
    g = _two_block_graph()
    seq = SnapshotSequence([g, g, g, g])
    cfg = _small_cfg(n_iter=40, lookback=2, enc_units=(16,), dec_units=(16,))
    x, targets = build_lookback_pairs(seq, 2)
    init_loss = ae_loss_ref(fresh_params(x.shape[1], cfg, Rng(cfg.seed),
                                         output_dim=targets.shape[1]),
                            x, targets, cfg)
    _, result = d2v_ae_series(seq, cfg)
    assert result.epoch_losses[-1] < 0.5 * init_loss


def test_reconstruction_scores_are_decoded_rows():
    # the run decodes the snapshot's rows with its model once it is trained
    g = _two_block_graph()
    adj = dense_adjacency(g)
    cfg = SimpleNamespace(ae=_small_cfg(n_iter=2), tasks={"reconstruction": {"t": 0}})
    seq = SnapshotSequence([g])
    for name in ("ae_static", "aealign", "dyngem"):
        run = Run(seq, *METHOD_TABLE[name].embed(cfg, seq))
        scores = METHOD_TABLE[name].scores(cfg, run, 0)
        assert np.array_equal(scores, reconstruct(run.extras["model"], adj))


# --- persistence ------------------------------------------------------------


def test_model_round_trip(tmp_path):
    params = fresh_params(6, TINY, Rng(50))
    path = tmp_path / "model.txt"
    save_mlp_params(params, path)
    loaded = load_mlp_params(path, params.n_encoder_layers)
    assert loaded.n_encoder_layers == params.n_encoder_layers
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))
    assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, params.biases))


def test_model_writer_matches_per_float_oracle(tmp_path):
    cfg = AeConfig(d=3, enc_units=(7, 5), dec_units=(5,))
    params = fresh_params(9, cfg, Rng(51))
    rng = np.random.default_rng(52)
    for w in params.weights:  # magnitudes from 1e-300 to 1e300, either sign
        w *= 10.0 ** rng.integers(-300, 301, size=w.shape)
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
            1.7976931348623157e308, -1e300, 1e-300]
    params.weights[0].flat[:len(edge)] = edge
    params.biases[1][:] = edge[:5]
    params.biases[-1][:] = rng.standard_normal(params.biases[-1].shape)
    save_mlp_params(params, tmp_path / "new.txt")
    save_mlp_params_ref(params, tmp_path / "ref.txt")
    new = (tmp_path / "new.txt").read_bytes()
    assert new == (tmp_path / "ref.txt").read_bytes()
    assert new.split(b"\n")[2].split()[:4] == [b"0", b"-0", b"4.9406564584124654e-324",
                                               b"-4.9406564584124654e-324"]


def test_model_load_rejects_bad_shapes(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("1\n2 2\n0 0\n0 0\n0\n")  # bias row too short
    with pytest.raises(ValueError, match="shape mismatch"):
        load_mlp_params(path, 1)


B = series._BLOCK


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (1, B + 3), (B // 7 + 1, 7), (3, B // 3 + 1)])
def test_model_writer_streams_the_joined_text(tmp_path, shape):
    # value counts that are not a multiple of the block, so blocks end
    # inside rows and the last one is short
    rows, cols = shape
    rng = np.random.default_rng(rows + cols)
    params = MlpParams(weights=[rng.normal(size=(rows, cols)), rng.normal(size=(cols, rows))],
                       biases=[rng.normal(size=cols), rng.normal(size=rows)],
                       n_encoder_layers=1)
    save_mlp_params(params, tmp_path / "model.txt")
    want = b"2\n" + b"".join(b"%d %d\n" % w.shape + format_rows(w) + format_rows(b[None, :])
                             for w, b in zip(params.weights, params.biases))
    assert (tmp_path / "model.txt").read_bytes() == want

"""Autoencoder-family embeddings with manual backpropagation.

One MLP architecture serves every method: sigmoid hidden and output layers,
identity on the embedding layer, trained by plain minibatch gradient descent
(no momentum, no adaptive steps) so runs are deterministic given a seed.
The reconstruction loss weights nonzero-target coordinates by beta and adds
L1/L2 penalties on the weight matrices:

    L = sum_rows sum_j b_j (xhat_j - t_j)^2 + nu1 sum|W| + nu2 sum W^2,
    b_j = beta where t_j > 0 else 1.

Methods built on top:
  * static AE  - independent model per snapshot,
  * AEalign    - static AE plus orthogonal-Procrustes chaining,
  * dynGEM     - warm start from the previous snapshot's weights,
  * d2v AE     - one model over lookback windows predicting the next row.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .graphs import SnapshotSequence, dense_adjacency
from .numerics import procrustes_rotation
from .rng import Rng
from .series import EmbeddingSeries, format_matrix, format_rows


class AeTrainingError(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class AeConfig:
    d: int = 128
    beta: float = 5.0
    nu1: float = 1e-6
    nu2: float = 1e-6
    enc_units: tuple = (500, 300)
    dec_units: tuple = (500, 300)
    n_iter: int = 250
    xeta: float = 1e-3
    n_batch: int = 100
    lookback: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.nu1 < 0 or self.nu2 < 0:
            raise ValueError("nu1, nu2 must be >= 0")
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.n_batch < 1:
            raise ValueError("n_batch must be >= 1")
        if self.xeta <= 0:
            raise ValueError("xeta must be > 0")
        if self.n_iter < 0:
            raise ValueError("n_iter must be >= 0")


@dataclass
class MlpParams:
    """Encoder + decoder weights; layer i maps row vectors h -> act(h W_i + b_i)."""

    weights: list
    biases: list
    n_encoder_layers: int

    def __post_init__(self):
        if not 1 <= self.n_encoder_layers < len(self.weights) or len(self.weights) != len(self.biases):
            raise ValueError("inconsistent layer structure")
        for i in range(len(self.weights)):
            w, b = self.weights[i], self.biases[i]
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: bias width {b.shape[0]} != {w.shape[1]}")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input width breaks the chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def is_sigmoid_layer(self, i: int) -> bool:
        # identity on the embedding layer, sigmoid everywhere else
        return i != self.n_encoder_layers - 1

    def copy(self) -> "MlpParams":
        return MlpParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            n_encoder_layers=self.n_encoder_layers,
        )


def fresh_params(input_dim: int, cfg: AeConfig, rng: Rng, output_dim: int | None = None) -> MlpParams:
    """Glorot-uniform weights, zero biases; draw order is encoder then decoder."""
    output_dim = input_dim if output_dim is None else output_dim
    dims = [input_dim, *cfg.enc_units, cfg.d, *cfg.dec_units, output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases, n_encoder_layers=len(cfg.enc_units) + 1)


def _forward_activations(params: MlpParams, x: np.ndarray, n_layers: int | None = None) -> list:
    """Input and the output of each of the first n_layers layers (all by default)."""
    acts = [x]
    h = x
    for i in range(params.n_layers if n_layers is None else n_layers):
        if params.is_sigmoid_layer(i):
            h = kernels.affine_sigmoid(h, params.weights[i], params.biases[i])
        else:
            h = h @ params.weights[i]
            h += params.biases[i]
        acts.append(h)
    return acts


def encode(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Embedding-layer output for a batch of row vectors."""
    x = np.asarray(x, dtype=np.float64)
    return _forward_activations(params, x, params.n_encoder_layers)[-1]


def reconstruct(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Decoder output for a batch of row vectors."""
    return _forward_activations(params, np.asarray(x, dtype=np.float64))[-1]


def _reg_terms(params: MlpParams, cfg: AeConfig) -> float:
    l1 = sum(float(np.sum(np.abs(w))) for w in params.weights)
    l2 = sum(float(np.sum(w * w)) for w in params.weights)
    return cfg.nu1 * l1 + cfg.nu2 * l2


def ae_loss(params: MlpParams, x: np.ndarray, targets: np.ndarray, cfg: AeConfig) -> float:
    """Weighted reconstruction error over all rows plus L1/L2 weight penalties."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] != targets.shape[0]:
        raise ValueError("input/target row counts differ")
    xhat = _forward_activations(params, x)[-1]
    if xhat.shape != targets.shape:
        raise ValueError(f"target width {targets.shape[1]} != output {xhat.shape[1]}")
    return kernels.weighted_sq_error(xhat, targets, cfg.beta) + _reg_terms(params, cfg)


def ae_gradient(params: MlpParams, x: np.ndarray, targets: np.ndarray, cfg: AeConfig):
    """Exact gradients of ae_loss for every weight matrix and bias.

    The L1 subgradient uses sign(W) with sign(0) = 0. The penalty terms are
    added into the matmul's buffer in the order of the expression
    acts.T @ delta + nu1 * sign(W) + (2 * nu2) * W, so the result is bitwise
    that expression's.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    acts = _forward_activations(params, x)
    delta = kernels.weighted_error_grad(acts[-1], targets, cfg.beta)
    grads_w = [None] * params.n_layers
    grads_b = [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        if params.is_sigmoid_layer(i):
            delta = kernels.sigmoid_grad(delta, acts[i + 1])
        w = params.weights[i]
        gw = acts[i].T @ delta
        reg = np.sign(w)
        reg *= cfg.nu1
        gw += reg
        gw += np.multiply(w, 2.0 * cfg.nu2, out=reg)
        grads_w[i] = gw
        grads_b[i] = delta.sum(axis=0)
        if i:
            delta = delta @ w.T
    return grads_w, grads_b


@dataclass
class TrainResult:
    params: MlpParams
    epoch_losses: list = field(default_factory=list)


def train_dense(x: np.ndarray, targets: np.ndarray, cfg: AeConfig, init: MlpParams | None, rng: Rng) -> TrainResult:
    """Minibatch gradient descent over shuffled rows; loss recorded per epoch."""
    if init is None:
        params = fresh_params(x.shape[1], cfg, rng, output_dim=targets.shape[1])
    else:
        params = init.copy()
    n_rows = x.shape[0]
    losses = []
    for epoch in range(cfg.n_iter):
        order = rng.permutation(n_rows)
        for bi, start in enumerate(range(0, n_rows, cfg.n_batch)):
            idx = order[start : start + cfg.n_batch]
            gw, gb = ae_gradient(params, x[idx], targets[idx], cfg)
            if not all(np.all(np.isfinite(g)) for g in gw):
                raise AeTrainingError(epoch, bi)
            for i in range(params.n_layers):
                gw[i] *= cfg.xeta
                params.weights[i] -= gw[i]
                gb[i] *= cfg.xeta
                params.biases[i] -= gb[i]
        loss = ae_loss(params, x, targets, cfg)
        if not np.isfinite(loss):
            raise AeTrainingError(epoch, -1)
        losses.append(loss)
    return TrainResult(params=params, epoch_losses=losses)


def fit_snapshot(adj: np.ndarray, cfg: AeConfig, t: int, init: MlpParams | None = None) -> MlpParams:
    """Model of snapshot t: its adjacency rows autoencoded with Rng(cfg.seed + t),
    from init's weights, or from fresh ones when init is None."""
    return train_dense(adj, adj, cfg, init, Rng(cfg.seed + t)).params


def _snapshot_fold(seq: SnapshotSequence, cfg: AeConfig, warm: bool):
    """One model per snapshot, from fresh weights or, with warm, from the
    previous snapshot's model; returns (series, params per t)."""
    ys, models = [], []
    for t in range(len(seq)):
        adj = dense_adjacency(seq[t])
        models.append(fit_snapshot(adj, cfg, t, models[-1] if warm and models else None))
        ys.append(encode(models[-1], adj))
    return EmbeddingSeries(y_src=ys, y_tgt=[y.copy() for y in ys]), models


def static_ae_series(seq: SnapshotSequence, cfg: AeConfig):
    """Independent static AE per snapshot; returns (series, params per t)."""
    return _snapshot_fold(seq, cfg, False)


def chain_align(ys: list) -> list:
    """Rotate each embedding onto its aligned predecessor (first unchanged)."""
    out = [ys[0]]
    for t in range(1, len(ys)):
        out.append(ys[t] @ procrustes_rotation(ys[t], out[t - 1]))
    return out


def aealign_series(seq: SnapshotSequence, cfg: AeConfig):
    """Static AE per snapshot, then Procrustes-align each step to the last."""
    raw, models = static_ae_series(seq, cfg)
    aligned = chain_align(raw.y_src)
    return EmbeddingSeries(y_src=aligned, y_tgt=[y.copy() for y in aligned]), models


def dyngem_series(seq: SnapshotSequence, cfg: AeConfig):
    """Train t=0 from scratch, then carry weights forward as the init of each
    following snapshot."""
    return _snapshot_fold(seq, cfg, True)


def build_lookback_pairs(seq: SnapshotSequence, lookback: int):
    """Training pairs for the lookback model.

    For every node u and window end tau in [lookback-1, T-2], the input is
    the concatenation of u's adjacency rows over the window and the target is
    u's row at tau+1. Rows are grouped by window end, nodes in order.
    """
    t_total = len(seq)
    if t_total < lookback + 1:
        raise ValueError(f"need at least lookback+1={lookback + 1} snapshots, have {t_total}")
    dense = [dense_adjacency(g) for g in seq]
    xs, ts = [], []
    for tau in range(lookback - 1, t_total - 1):
        xs.append(np.hstack(dense[tau - lookback + 1 : tau + 1]))
        ts.append(dense[tau + 1])
    return np.vstack(xs), np.vstack(ts)


def window_inputs(seq: SnapshotSequence, t_end: int, lookback: int) -> np.ndarray:
    """Per-node concatenated rows for the window ending at t_end."""
    if t_end < lookback - 1 or t_end >= len(seq):
        raise IndexError(f"window ending at {t_end} not available")
    dense = [dense_adjacency(seq[t]) for t in range(t_end - lookback + 1, t_end + 1)]
    return np.hstack(dense)


def d2v_ae_series(seq: SnapshotSequence, cfg: AeConfig):
    """One model over all lookback windows; embeddings exist for
    t >= lookback-1. Returns (series, train result). The model's decoded
    rows of window_inputs(seq, t, lookback) predict snapshot t+1."""
    x, targets = build_lookback_pairs(seq, cfg.lookback)
    result = train_dense(x, targets, cfg, None, Rng(cfg.seed))
    ys = [
        encode(result.params, window_inputs(seq, t, cfg.lookback))
        for t in range(cfg.lookback - 1, len(seq))
    ]
    series = EmbeddingSeries(y_src=ys, y_tgt=[y.copy() for y in ys], t_start=cfg.lookback - 1)
    return series, result


def save_mlp_params(params: MlpParams, path) -> None:
    """Text model format: layer count, then per layer `rows cols`, the weight
    rows, and the bias row; encoder layers first."""
    with open(path, "wb") as fh:
        fh.write(b"%d\n" % params.n_layers)
        for w, b in zip(params.weights, params.biases):
            fh.write(format_matrix(w) + format_rows(b[None, :]))

"""Autoencoder-family embeddings with manual backpropagation.

One MLP architecture serves every method: sigmoid hidden and output layers,
identity on the embedding layer, trained by plain minibatch gradient descent
(no momentum, no adaptive steps) so runs are deterministic given a seed.
Each epoch's recorded loss is the running loss of its minibatches (see
train_dense), so training runs one forward pass per minibatch step.
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

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .graphs import SnapshotSequence, dense_adjacency
from .numerics import procrustes_rotation
from .rng import Rng
from .series import EmbeddingSeries, write_matrix, write_rows


class AeTrainingError(RuntimeError):
    """Training diverged: a non-finite weight gradient in minibatch `batch`
    of `epoch`, or, with batch -1, non-finite parameters at the epoch's end."""

    def __init__(self, epoch: int, batch: int):
        what = (f"a non-finite gradient in batch {batch}" if batch >= 0
                else "non-finite parameters at its end")
        super().__init__(f"training diverged at epoch {epoch}: {what}")
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


def _layer(params: MlpParams, i: int, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Output of layer i for its input rows h, written into out when given."""
    if params.is_sigmoid_layer(i):
        return kernels.affine_sigmoid(h, params.weights[i], params.biases[i], out=out)
    z = np.matmul(h, params.weights[i], out=out)
    z += params.biases[i]
    return z


def _forward(params: MlpParams, x: np.ndarray, n_layers: int | None = None) -> np.ndarray:
    """Output of the first n_layers layers (all by default). Only the
    current layer's input and output are held: each input is dropped once
    its layer's output exists."""
    h = x
    for i in range(params.n_layers if n_layers is None else n_layers):
        h = _layer(params, i, h)
    return h


def encode(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Embedding-layer output for a batch of row vectors."""
    return _forward(params, np.asarray(x, dtype=np.float64), params.n_encoder_layers)


def reconstruct(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Decoder output for a batch of row vectors."""
    return _forward(params, np.asarray(x, dtype=np.float64))


def _reg_terms(params: MlpParams, cfg: AeConfig, ws: "_Workspace | None" = None) -> float:
    """nu1 sum|W| + nu2 sum W^2; with ws, |W| and W^2 go through its
    gradient buffer."""
    l1 = l2 = 0.0
    for w in params.weights:
        buf = None if ws is None else _view(ws.grad_w, w.shape)
        l1 += float(np.sum(np.abs(w, out=buf)))
        l2 += float(np.sum(np.multiply(w, w, out=buf)))
    return cfg.nu1 * l1 + cfg.nu2 * l2


def ae_loss(params: MlpParams, x: np.ndarray, targets: np.ndarray, cfg: AeConfig) -> float:
    """Weighted reconstruction error over all rows plus L1/L2 weight penalties."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] != targets.shape[0]:
        raise ValueError("input/target row counts differ")
    xhat = _forward(params, x)
    if xhat.shape != targets.shape:
        raise ValueError(f"target width {targets.shape[1]} != output {xhat.shape[1]}")
    return kernels.weighted_sq_error(xhat, targets, cfg.beta) + _reg_terms(params, cfg)


def _view(flat: np.ndarray, shape) -> np.ndarray:
    """The leading entries of a flat buffer, as an array of `shape`."""
    return flat[:math.prod(shape)].reshape(shape)


# weight-gradient cells per block of rows that the regulariser, the finite
# check and the step run through together
_STEP_CELLS = 1 << 14


def _block_rows(w: np.ndarray) -> int:
    """Rows per block of w: _STEP_CELLS cells, or one row where a row is wider."""
    return max(1, _STEP_CELLS // max(1, w.shape[1]))


class _Workspace:
    """Every array one minibatch step writes, allocated once for minibatches
    of up to `rows` rows; a minibatch of m rows uses the first m rows of each.

    It holds the gathered input and target rows, each layer's activations,
    two delta buffers that backprop alternates between, one weight and one
    bias gradient sized to the largest layer (one layer's gradient is live
    at a time), the error's beta weights, and a float and a bool scratch of
    one row block (the regulariser's sign(W) and (2 nu2) W; the mask of
    positive targets and the finite checks). No parameter aliases any of
    them.
    """

    def __init__(self, params: MlpParams, rows: int):
        widths = [w.shape[1] for w in params.weights]
        n_in, n_out = params.weights[0].shape[0], widths[-1]
        self.x_rows = np.empty((rows, n_in))
        self.t_rows = np.empty((rows, n_out))
        self.acts = [np.empty((rows, k)) for k in widths]
        self.deltas = [np.empty(rows * max(widths)) for _ in range(2)]
        self.grad_w = np.empty(max(w.size for w in params.weights))
        self.grad_b = np.empty(max(widths))
        self.beta_weights = np.empty((rows, n_out))
        block = max(min(w.shape[0], _block_rows(w)) * w.shape[1] for w in params.weights)
        self.scratch = np.empty(block)
        self.mask = np.empty(max(rows * n_out, block, max(widths)), dtype=bool)

    def gather(self, x: np.ndarray, targets: np.ndarray, idx: np.ndarray):
        """x[idx] and targets[idx] in the row buffers; the gradient's rows
        are the same either way. An autoencoder's targets are its inputs,
        gathered once."""
        m = len(idx)
        # idx is in range; with the default mode="raise" take would copy
        # through a temporary of its own
        xb = np.take(x, idx, axis=0, out=self.x_rows[:m], mode="clip")
        if targets is x:
            return xb, xb
        return xb, np.take(targets, idx, axis=0, out=self.t_rows[:m], mode="clip")

    def all_finite(self, arrays) -> bool:
        return all(np.isfinite(a, out=_view(self.mask, a.shape)).all() for a in arrays)


def ae_gradient(params: MlpParams, x: np.ndarray, targets: np.ndarray, cfg: AeConfig):
    """Exact gradients of ae_loss for every weight matrix and bias.

    The L1 subgradient uses sign(W) with sign(0) = 0. The penalty terms are
    added into the matmul's buffer in the order of the expression
    acts.T @ delta + nu1 * sign(W) + (2 * nu2) * W, so the result is bitwise
    that expression's. The arrays are fresh: _backprop's blocks are copied
    into them.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    grads_w = [np.empty_like(w) for w in params.weights]
    grads_b = [np.empty_like(b) for b in params.biases]

    def copy_w(i, rows, g):
        grads_w[i][rows] = g

    def copy_b(i, g):
        grads_b[i][:] = g

    _backprop(params, x, targets, cfg, _Workspace(params, x.shape[0]), copy_w, copy_b)
    return grads_w, grads_b


def _backprop(params: MlpParams, x: np.ndarray, targets: np.ndarray, cfg: AeConfig,
              ws: _Workspace, take_w, take_b) -> float:
    """Backpropagate the 2-D float64 rows x against targets in ws's arrays;
    returns the weighted squared error of the forward pass it ran.

    From the last layer down, once layer i's gradient is complete and the
    delta of layer i - 1 has been formed from the current W_i, it is handed
    over: take_w(i, rows, g) for each block of rows (_block_rows) of W_i,
    with g ae_gradient's gradient of W_i[rows], then take_b(i, g) with the
    gradient of b_i. Either may step layer i's parameters in place, since
    nothing below layer i reads them; g lives in ws and is overwritten
    after the call.
    """
    m = x.shape[0]
    acts = [x]
    for i, out in enumerate(ws.acts):
        acts.append(_layer(params, i, acts[-1], out=out[:m]))
    xhat = acts[-1]
    # kernels.weighted_sq_error's (b * d) * d, in the workspace
    pos = np.greater(targets, 0.0, out=_view(ws.mask, targets.shape))
    sq = ws.beta_weights[:m]
    np.copyto(sq, 1.0)
    np.copyto(sq, cfg.beta, where=pos)
    d = np.subtract(xhat, targets, out=_view(ws.deltas[1], xhat.shape))
    sq *= d
    sq *= d
    err = float(np.sum(sq))
    cur = 0
    delta = kernels.weighted_error_grad(xhat, targets, cfg.beta,
                                        out=_view(ws.deltas[cur], xhat.shape))
    for i in range(params.n_layers - 1, -1, -1):
        if params.is_sigmoid_layer(i):
            delta = kernels.sigmoid_grad(delta, acts[i + 1], out=delta)
        w = params.weights[i]
        gw = np.matmul(acts[i].T, delta, out=_view(ws.grad_w, w.shape))
        gb = np.sum(delta, axis=0, out=ws.grad_b[:w.shape[1]])
        if i:
            cur = 1 - cur
            delta = np.matmul(delta, w.T, out=_view(ws.deltas[cur], (m, w.shape[0])))
        per_block = _block_rows(w)
        for lo in range(0, w.shape[0], per_block):
            rows = slice(lo, lo + per_block)
            g, wr = gw[rows], w[rows]
            reg = np.sign(wr, out=_view(ws.scratch, g.shape))
            reg *= cfg.nu1
            g += reg
            g += np.multiply(wr, 2.0 * cfg.nu2, out=reg)
            take_w(i, rows, g)
        take_b(i, gb)
    return err


@dataclass
class TrainResult:
    params: MlpParams
    epoch_losses: list = field(default_factory=list)


def train_dense(x: np.ndarray, targets: np.ndarray, cfg: AeConfig, init: MlpParams | None, rng: Rng) -> TrainResult:
    """Minibatch gradient descent over shuffled rows, with one loss per epoch.

    An epoch's loss is the running loss of its minibatches: the sum of each
    minibatch's weighted squared error, taken from the forward pass its
    gradient ran (at the weights before that minibatch's step), plus the
    L1/L2 penalty of the weights the epoch ends with. It is not ae_loss at
    the epoch's final weights, which would take another forward pass over
    every row.

    Every minibatch runs in one workspace of this call (_Workspace), so the
    only arrays it allocates are the sigmoid kernels' own temporaries. Each
    layer is stepped as soon as its gradient is complete (_backprop), one
    block of rows at a time, so only one layer's gradient is ever held.

    AeTrainingError(epoch, batch) is raised when a minibatch's weight
    gradient is non-finite, and AeTrainingError(epoch, -1) when an epoch
    ends with a non-finite weight (the penalty is then NaN, even at
    nu1 = nu2 = 0) or bias. The blocks checked before the non-finite one
    have been stepped by then, but only in this call's copy of init. A
    model whose parameters are finite but whose forward pass overflows is
    caught by the next minibatch's gradient check; after the last epoch,
    only by the caller (EmbeddingSeries rejects a non-finite embedding).
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if init is None:
        params = fresh_params(x.shape[1], cfg, rng, output_dim=targets.shape[1])
    else:
        params = init.copy()
    n_rows = x.shape[0]
    ws = _Workspace(params, min(cfg.n_batch, n_rows))

    def step_w(i, rows, g):
        # epoch and bi are those of the minibatch the loop below is at
        if not ws.all_finite([g]):
            raise AeTrainingError(epoch, bi)
        g *= cfg.xeta
        w = params.weights[i][rows]
        w -= g

    def step_b(i, g):
        g *= cfg.xeta
        params.biases[i] -= g

    losses = []
    for epoch in range(cfg.n_iter):
        order = rng.permutation(n_rows)
        loss = 0.0
        for bi, start in enumerate(range(0, n_rows, cfg.n_batch)):
            xb, tb = ws.gather(x, targets, order[start : start + cfg.n_batch])
            loss += _backprop(params, xb, tb, cfg, ws, step_w, step_b)
        loss += _reg_terms(params, cfg, ws)
        if not (np.isfinite(loss) and ws.all_finite(params.biases)):
            raise AeTrainingError(epoch, -1)
        losses.append(loss)
    return TrainResult(params=params, epoch_losses=losses)


def fit_snapshot(adj: np.ndarray, cfg: AeConfig, t: int, init: MlpParams | None = None) -> MlpParams:
    """Model of snapshot t: its adjacency rows autoencoded with Rng(cfg.seed + t),
    from init's weights, or from fresh ones when init is None."""
    return train_dense(adj, adj, cfg, init, Rng(cfg.seed + t)).params


def _snapshot_fold(seq: SnapshotSequence, cfg: AeConfig, warm: bool, keep=None):
    """One model per snapshot, from fresh weights or, with warm, from the
    previous snapshot's model; returns (series, models). models[t] is the
    model of snapshot t when t is in keep or is the last t, and None
    otherwise; keep None keeps every model. A model that is not kept is
    dropped once the next snapshot has started from it."""
    ys, models = [], []
    prev = None
    last = len(seq) - 1
    for t in range(len(seq)):
        adj = dense_adjacency(seq[t])
        model = fit_snapshot(adj, cfg, t, prev)
        ys.append(encode(model, adj))
        models.append(model if keep is None or t in keep or t == last else None)
        prev = model if warm else None
    return EmbeddingSeries(y_src=ys, y_tgt=[y.copy() for y in ys]), models


def static_ae_series(seq: SnapshotSequence, cfg: AeConfig, keep=None):
    """Independent static AE per snapshot; returns (series, models) as
    _snapshot_fold keeps them."""
    return _snapshot_fold(seq, cfg, False, keep)


def chain_align(ys: list) -> list:
    """Rotate each embedding onto its aligned predecessor (first unchanged)."""
    out = [ys[0]]
    for t in range(1, len(ys)):
        out.append(ys[t] @ procrustes_rotation(ys[t], out[t - 1]))
    return out


def aealign_series(seq: SnapshotSequence, cfg: AeConfig, keep=None):
    """Static AE per snapshot, then Procrustes-align each step to the last."""
    raw, models = static_ae_series(seq, cfg, keep)
    aligned = chain_align(raw.y_src)
    return EmbeddingSeries(y_src=aligned, y_tgt=[y.copy() for y in aligned]), models


def dyngem_series(seq: SnapshotSequence, cfg: AeConfig, keep=None):
    """Train t=0 from scratch, then carry weights forward as the init of each
    following snapshot."""
    return _snapshot_fold(seq, cfg, True, keep)


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
    rows, and the bias row; encoder layers first. Each matrix is written
    block by block (series.write_rows)."""
    with open(path, "wb") as fh:
        fh.write(b"%d\n" % params.n_layers)
        for w, b in zip(params.weights, params.biases):
            write_matrix(fh, w)
            write_rows(fh, b[None, :])

"""Hot numeric kernels, vectorized with numpy.

The autoencoder, the SBM sampler and the ranking evaluation call these
through the module (``kernels.<name>``), so each kernel is one function that
a profiler can wrap.
"""

import numpy as np


def sigmoid(z):
    """Elementwise logistic function, overflow-safe."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_grad(g, h):
    """Backprop through sigmoid given upstream gradient g and activation h."""
    return g * h * (1.0 - h)


def affine_sigmoid(x, w, b):
    """sigmoid(x @ w + b) for a batch of row vectors."""
    return sigmoid(x @ w + b)


def weighted_sq_error(xhat, target, beta):
    """Sum of squared errors with weight beta on coordinates where target > 0."""
    w = np.where(target > 0.0, beta, 1.0)
    d = xhat - target
    return float(np.sum(w * d * d))


def weighted_error_grad(xhat, target, beta):
    """Gradient of weighted_sq_error with respect to xhat."""
    w = np.where(target > 0.0, beta, 1.0)
    return 2.0 * w * (xhat - target)


def block_sample(urand, labels, p_in, p_out):
    """Directed SBM adjacency from pre-drawn uniforms; no self-loops.

    Edge (u, v) is present iff urand[u, v] < p_in when labels match, p_out
    otherwise.
    """
    same = labels[:, None] == labels[None, :]
    probs = np.where(same, p_in, p_out)
    adj = (urand < probs).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return adj


def average_precision(hits, n_true):
    """Average precision of a ranked 0/1 hit vector against n_true relevant items.

    Adds the hit precisions one at a time in rank order. np.sum would group
    them pairwise and could change the last bits of reported MAP values.
    """
    idx = np.flatnonzero(hits)
    if idx.size == 0:
        return 0.0
    total = 0.0
    for found, rank in enumerate((idx + 1.0).tolist(), start=1):
        total += found / rank
    return total / n_true

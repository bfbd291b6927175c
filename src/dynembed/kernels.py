"""Hot numeric kernels, vectorized with numpy.

The autoencoder, the SBM sampler and the classifier call these through the
module (``kernels.<name>``), so each kernel is one function that a profiler
can wrap.

The sigmoid kernels are bitwise equal to the expression forms kept as
oracles in ``tests/oracles.py`` (``sigmoid_ref``, ``affine_sigmoid_ref``,
``sigmoid_grad_ref``): they do the same IEEE operations in the same order
and only reuse buffers, so every trained model and embedding is
byte-identical to those forms. They never write into their arguments; the
buffers they reuse are their own temporaries.
"""

import numpy as np


def _sigmoid_inplace(z):
    """Overwrite the float array z with its logistic function; returns z.

    For z >= 0 this is 1 / (1 + exp(-z)), otherwise exp(z) / (1 + exp(z)):
    both are num / (1 + e) with e = exp(-|z|) and num = 1 or e. Since
    0 <= e <= 1, num is max(e, z >= 0), a select with no data-dependent
    branch (np.where and masked copies branch per element, and on random
    signs they cost more than the exp). NaN stays NaN.
    """
    pos = z >= 0
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    denom = z + 1.0
    np.maximum(z, pos, out=z)
    return np.divide(z, denom, out=z)


def sigmoid(z):
    """Elementwise logistic function, overflow-safe."""
    return _sigmoid_inplace(np.array(z, dtype=np.float64))


def sigmoid_grad(g, h):
    """Backprop through sigmoid given upstream gradient g and activation h."""
    out = g * h
    out *= 1.0 - h
    return out


def affine_sigmoid(x, w, b):
    """sigmoid(x @ w + b) for a batch of row vectors."""
    z = x @ w
    z += b
    return _sigmoid_inplace(z)


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


"""Hot numeric kernels, vectorized with numpy.

The autoencoder, the SBM sampler and the classifier call these through the
module (``kernels.<name>``), so each kernel is one function that a profiler
can wrap.

The sigmoid kernels are bitwise equal to the expression forms kept as
oracles in ``tests/oracles.py`` (``sigmoid_ref``, ``affine_sigmoid_ref``,
``sigmoid_grad_ref``): they do the same IEEE operations in the same order
and only reuse buffers, so every trained model and embedding is
byte-identical to those forms. They never write into their arguments,
except into an `out` buffer the caller passes: the AE's training workspace
(`ae.train_dense`) hands each minibatch's activations and deltas to them
that way, so that its layers' arrays are allocated once per call.
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


def sigmoid_grad(g, h, out=None):
    """Backprop through sigmoid given upstream gradient g and activation h,
    written into out when given; out may be g itself."""
    out = np.multiply(g, h, out=out)
    out *= 1.0 - h
    return out


def affine_sigmoid(x, w, b, out=None):
    """sigmoid(x @ w + b) for a batch of row vectors, written into out when
    given; out must not overlap x."""
    z = np.matmul(x, w, out=out)
    z += b
    return _sigmoid_inplace(z)


def weighted_sq_error(xhat, target, beta):
    """Sum of squared errors with weight beta on coordinates where target > 0."""
    w = np.where(target > 0.0, beta, 1.0)
    d = xhat - target
    return float(np.sum(w * d * d))


def weighted_error_grad(xhat, target, beta, out=None):
    """Gradient of weighted_sq_error with respect to xhat, written into out
    when given; out must not overlap xhat or target.

    This is 2 b (xhat - target) with b = beta where target > 0, else 1. The
    factor 2 b takes two values, 2 * beta and 2, so each coordinate is one
    product (xhat - target) * (2 b), the same IEEE operations as the
    expression's, with a mask as the only temporary.
    """
    out = np.subtract(xhat, target, out=out)
    pos = target > 0.0
    np.multiply(out, 2.0 * beta, out=out, where=pos)
    return np.multiply(out, 2.0, out=out, where=np.logical_not(pos, out=pos))


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


"""Hot numeric kernels, vectorized with numpy.

The autoencoder and the classifier call these through the module
(``kernels.<name>``), so each kernel is one function that a profiler can
wrap.

The sigmoid kernels and weighted_error_grad are bitwise equal to the
expression forms kept as oracles in ``tests/oracles.py`` (``sigmoid_ref``,
``affine_sigmoid_ref``, ``sigmoid_grad_ref``, ``weighted_sq_error_ref``,
``weighted_error_grad_ref``): they do the same IEEE operations in the same
order and only reuse buffers, so every trained model and embedding is
byte-identical to those forms. They never write into their arguments,
except into an `out` or `scratch` buffer the caller passes: the AE's
training workspace (`ae.train_dense`) hands each minibatch's activations
and deltas to them that way, so that its layers' arrays are allocated once
per call.
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


def weighted_error_grad(xhat, target, beta, out=None, scratch=None):
    """(error, gradient) of sum b (xhat - target)^2, b = beta where target > 0
    and 1 elsewhere, from one difference d = xhat - target and one mask.

    scratch (fresh when None) holds b, then the error's terms (b d) d, then
    2 b, so the gradient d (2 b), written over d (in out when given), is the
    expression's IEEE products. Masked copies and unmasked multiplies cost
    less than masked multiplies. out and scratch must not overlap each
    other, xhat or target.
    """
    d = np.subtract(xhat, target, out=out)
    pos = target > 0.0
    b = np.empty_like(d) if scratch is None else scratch
    np.copyto(b, 1.0)
    np.copyto(b, beta, where=pos)
    b *= d
    b *= d
    err = float(np.sum(b))
    np.copyto(b, 2.0)
    np.copyto(b, 2.0 * beta, where=pos)
    d *= b
    return err, d

"""Dense numerical primitives shared by the differentiable blocks.

Every forward helper that participates in training returns a cache tuple
consumed by its matching ``*_backward`` function. Backward functions map the
gradient of the loss w.r.t. the output to gradients w.r.t. the inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EPS_GUARD",
    "normalize_rows",
    "normalize_rows_backward",
    "silu",
    "silu_backward",
    "softmax_rows",
    "softmax_rows_backward",
    "logsumexp",
]

# Guard for normalizing (near-)zero vectors: ||v|| below this is treated as
# degenerate and the vector is scaled by 1/EPS_GUARD instead of 1/||v||.
EPS_GUARD = 1e-12


def normalize_rows(x):
    """Unit-normalize each row of ``x``. Returns (y, cache).

    Each row becomes ``x / max(||x||_2, EPS_GUARD)``; the guard keeps the
    map total, so a zero row comes back as a zero row instead of NaN. The
    cache is (y, row norms); only the backward reads the guard from them.
    """
    x = np.asarray(x, dtype=np.float64)
    # np.linalg.norm's own reduction for ord=None, without its Python prologue
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    y = x / np.maximum(norms, EPS_GUARD)
    return y, (y, norms)


def normalize_rows_backward(cache, gy):
    """Backward of :func:`normalize_rows`.

    Active rows use d(x/||x||) = (g - y (y.g)) / ||x||; guarded rows are the
    linear map x/EPS_GUARD whose Jacobian is I/EPS_GUARD.
    """
    y, norms = cache
    dot = np.sum(y * gy, axis=-1, keepdims=True)
    return (gy - np.where(norms >= EPS_GUARD, dot, 0.0) * y) / np.maximum(norms, EPS_GUARD)


def silu(x):
    """x * sigmoid(x). Returns (y, cache)."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, (x, sig)


def silu_backward(cache, gy):
    x, sig = cache
    return gy * sig * (1.0 + x * (1.0 - sig))


def softmax_rows(x):
    """Row-wise softmax along the last axis. Returns (p, cache)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return p, p


def softmax_rows_backward(p, gp):
    dot = np.sum(p * gp, axis=-1, keepdims=True)
    return p * (gp - dot)


def logsumexp(x, axis=None, keepdims=False):
    mx = np.maximum.reduce(x, axis=axis, keepdims=True)  # x.max's reduction, minus its wrapper
    out = np.log(np.add.reduce(np.exp(x - mx), axis=axis, keepdims=True)) + mx
    return out if keepdims else out.squeeze(axis)

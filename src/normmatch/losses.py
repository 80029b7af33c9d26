"""Training objective: symmetric InfoNCE plus hyperspherical uniformity.

All pieces operate on unit-norm feature rows, so dot products are cosines,
and take one image as (n, d) rows or a stack as (..., n, d): a minibatch
runs each piece once, and an (n, d) call is a batch of one on that path.
``pad`` (the stack's shape without d, the mask ``decode`` takes) is True on
padding rows, which add nothing and take zero gradient; a pair's images
share it, and an entry given none makes it all False: one masked path runs
every call. The InfoNCE temperature is tau = exp(tau_raw), positive by
construction. Its denominator is "exclusive" of the positive pair (the
contrastive ratio as the loss equation is written) or "inclusive" (the
standard form, bounded below by zero; the training default).

The hyperspherical loss penalizes the best off-diagonal cosine per anchor
within one image; the layer-wise variant weights layer k by k * p and
averages the two streams. ``total_loss`` gets every layer's Gram matrices
from one product over the snapshots (L, 2, ..., n, d) and reads the final
term from the last snapshot, which is the decoder output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import logsumexp

__all__ = [
    "INFONCE_MODES",
    "LossReport",
    "info_nce",
    "info_nce_backward",
    "hyperspherical",
    "hyperspherical_backward",
    "layer_hyperspherical",
    "total_loss",
    "total_loss_backward",
]

INFONCE_MODES = ("exclusive", "inclusive")
_DIRECTIONS = np.arange(2)[:, None, None]  # InfoNCE's image-1 and image-2 anchors


@dataclass
class LossReport:
    infonce: float
    hyperspherical_final: float
    hyperspherical_layers: float

    @property
    def total(self) -> float:
        # the three terms are summed without weighting
        return self.infonce + self.hyperspherical_final + self.hyperspherical_layers


def _padding_mask(pad, shape):
    """The padding mask of rows of shape (..., n): pad, all False for None."""
    pad = np.zeros(shape, bool) if pad is None else np.asarray(pad)
    if pad.dtype != bool or pad.shape != shape:
        raise ValueError(f"pad must be a bool array of shape {shape}, got {pad.dtype} {pad.shape}")
    return pad


def info_nce(f1, f2, truth, tau_raw: float, mode: str = "inclusive", pad=None):
    """Symmetric InfoNCE over cross-image cosines, mean over each pair's 2m anchors.

    truth[..., i] is the image-2 row matching image-1 row i (ignored on
    padding rows). Returns (loss of each pair, shaped (...), cache).
    """
    if mode not in INFONCE_MODES:
        raise ValueError(f"unknown InfoNCE mode {mode!r}")
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.intp)
    if f1.ndim < 2 or f1.shape != f2.shape or truth.shape != f1.shape[:-1]:
        raise ValueError(f"f1 and f2 need one shape (..., n, d) and truth its (..., n), got "
                         f"{f1.shape}, {f2.shape} and {truth.shape}")
    pad = _padding_mask(pad, truth.shape).reshape(-1, truth.shape[-1])
    shape, n = f1.shape[:-2], f1.shape[-2]
    f1, f2 = f1.reshape(-1, n, f1.shape[-1]), f2.reshape(-1, n, f2.shape[-1])
    rows = np.arange(n)
    truth = np.where(pad, rows, truth.reshape(-1, n))  # padding rows match themselves
    if (np.sort(truth, axis=-1) != rows).any():
        raise ValueError("truth must be a permutation of each pair's keypoint indices")
    m = n - np.add.reduce(pad, axis=-1)
    if np.minimum.reduce(m) < 2:
        raise ValueError("InfoNCE needs at least 2 keypoints (no negatives otherwise)")
    tau = float(np.exp(tau_raw))
    C = f1 @ f2.swapaxes(-1, -2)
    S = C / tau
    # both directions' scores (2, B, n, n) and positives; the image-2 anchors take the
    # transposed scores, copied in C order, and the inverse permutation. A real anchor
    # ignores the other image's padding rows, which spares every positive.
    S = np.where(pad[:, None, :] > pad[:, :, None], -np.inf, np.array([S, S.swapaxes(-1, -2)]))
    positives = (_DIRECTIONS, np.arange(len(C))[:, None], rows,
                 np.array([truth, truth.argsort(axis=-1)]))
    pos = S[positives]
    if mode == "exclusive":
        S[positives] = -np.inf
    lse = logsumexp(S, axis=-1)
    terms = lse - pos
    terms[:, pad] = 0.0  # padding anchors add nothing
    sums = np.add.reduce(terms, axis=-1)
    scale = 0.5 / m  # 1 / (2m), to the bit
    loss = np.add.reduce(sums) * scale  # the two directions' sums
    return loss.reshape(shape), (f1, f2, C, tau, scale, S, lse, positives, pad, shape)


def info_nce_backward(cache):
    """Returns (g_f1, g_f2, g_tau_raw), g_tau_raw summed over the pairs."""
    f1, f2, C, tau, scale, S, lse, positives, pad, shape = cache
    dS = np.exp(S - lse[..., None])  # softmax; entries out of the denominator give 0
    dS[positives] -= 1.0
    dS[:, pad] = 0.0
    dS = dS[0] + dS[1].swapaxes(-1, -2)
    dS *= scale[:, None, None]
    dC = dS / tau
    g_f1 = dC @ f2
    g_f2 = dC.swapaxes(-1, -2) @ f1
    # S = C / exp(tau_raw): dL/dtau_raw = sum(dS * dS/dtau_raw) = -sum(dS * S)
    g_tau_raw = float(-np.sum(dS * C) / tau)
    return g_f1.reshape(shape + f1.shape[1:]), g_f2.reshape(shape + f2.shape[1:]), g_tau_raw


def hyperspherical(f, pad=None):
    """Sum over anchors of the largest cosine to another real row of the image.

    Zero for orthonormal rows; positive when two rows align; 0 with fewer
    than 2 real rows. Returns (loss of each image, shaped (...), cache).
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim < 2:
        raise ValueError(f"f must have shape (..., n, d), got {f.shape}")
    return _hyperspherical(f, _padding_mask(pad, f.shape[:-1]))


def _hyperspherical(f, pad):
    """hyperspherical of checked rows f; pad (..., n) may leave out leading axes of f's."""
    G = f @ f.swapaxes(-1, -2)
    G.reshape(G.shape[:-2] + (-1,))[..., :: G.shape[-1] + 1] = -np.inf  # the diagonals
    G = np.where(pad[..., None, :], -np.inf, G)
    best = np.maximum.reduce(G, axis=-1)
    lone = (best == -np.inf) | pad  # rows with no other real row, and padding rows, add nothing
    return np.add.reduce(np.where(lone, 0.0, best), axis=-1), (f, G, lone)


def hyperspherical_backward(cache, g_loss=1.0):
    """Returns g_f for :func:`hyperspherical`; g_loss broadcasts over its images."""
    f, G, lone = cache
    # f_i . f_arg(i) reaches both rows: g_f = (M + M^T) f, M the argmax one-hot
    hot = G.argmax(axis=-1)[..., None] == np.arange(f.shape[-2])
    M = np.where(lone[..., None], 0.0, hot * np.asarray(g_loss)[..., None, None])
    return (M + M.swapaxes(-1, -2)) @ f


def layer_hyperspherical(snapshots, p: float, pad=None):
    """Depth-weighted uniformity loss over per-layer token snapshots.

    snapshots (L, 2, ..., n, d) holds both streams' tokens after each layer;
    layer k adds k * p times the mean of its two streams' losses. Returns
    (loss, shaped (...), cache); the cache keeps each layer's stream sums.
    """
    snapshots = np.asarray(snapshots, dtype=np.float64)
    h, cache = _hyperspherical(snapshots, _padding_mask(pad, snapshots.shape[2:-1]))  # (L, 2, ...)
    pair_h = np.add.reduce(h, axis=1)
    weights = (np.arange(1, len(h) + 1) * (0.5 * p)).reshape((-1,) + (1,) * (h.ndim - 2))
    return np.add.reduce(weights * pair_h, axis=0), (cache, weights, pair_h)


def total_loss(f1_tokens, f2_tokens, snapshots, truth, tau_raw: float,
               p: float, mode: str = "inclusive", pad=None):
    """InfoNCE + final hyperspherical (two-image average) + layer-wise term.

    Tokens are (n, d) for one pair or (B, n, d) for B, truth and pad (..., n),
    and snapshots (L, 2, ..., n, d) end with the final tokens. Returns
    (report, cache): a LossReport, or a list of one per pair for B pairs,
    keeps the total's three unweighted terms apart for ablation bookkeeping.
    """
    nce, nce_cache = info_nce(f1_tokens, f2_tokens, truth, tau_raw, mode, pad)
    snapshots, shape = np.asarray(snapshots, dtype=np.float64), np.shape(f1_tokens)
    if snapshots.shape[1:] != (2,) + shape or not snapshots.shape[0]:
        raise ValueError(f"snapshots must have shape (L, 2) + {shape}, got {snapshots.shape}")
    layers, (hs_cache, weights, pair_h) = layer_hyperspherical(snapshots, p, pad)
    final = 0.5 * pair_h[-1]  # the last layer's snapshot is the decoder output
    reports = [LossReport(*t) for t in np.array([nce, final, layers]).reshape(3, -1).T.tolist()]
    return reports if nce.ndim else reports[0], (nce_cache, hs_cache, weights)


def total_loss_backward(cache):
    """Returns (g_f1, g_f2, snapshot_grads (L, 2, ..., n, d), g_tau_raw).

    The tokens take InfoNCE's gradient, the snapshots the hyperspherical
    terms', the final term's in the last layer's: callers add g_f1/g_f2 at
    the decoder output on top of the last snapshot gradient.
    """
    nce_cache, hs_cache, weights = cache
    g_f1, g_f2, g_tau_raw = info_nce_backward(nce_cache)
    weights = weights[:, None].copy()  # the final term's weight joins the last layer's
    weights[-1] += 0.5
    return g_f1, g_f2, hyperspherical_backward(hs_cache, weights), g_tau_raw

"""Training objective: symmetric InfoNCE plus hyperspherical uniformity.

All pieces operate on unit-norm feature rows, so dot products are cosines,
and take one image as (n, d) rows or a stack as (..., n, d): a minibatch
runs each piece once, and an (n, d) call is a batch of one on that path.
``pad`` (the stack's shape without d, as ``FeatureSequence.pad``) is True on
padding rows, which add nothing and take zero gradient; a pair's images
share it. The InfoNCE temperature is tau = exp(tau_raw), positive by
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


@dataclass
class LossReport:
    infonce: float
    hyperspherical_final: float
    hyperspherical_layers: float

    @property
    def total(self) -> float:
        # the three terms are summed without weighting
        return self.infonce + self.hyperspherical_final + self.hyperspherical_layers


def _nce_direction(S, positives, mode: str, pad, index):
    """Summed -log softmax ratio per pair, anchors the rows of S (B, n, n), and a cache."""
    pos = S[index + (positives,)]
    if pad is not None:  # a real anchor ignores the other image's padding rows
        S = np.where(pad[:, None, :] > pad[:, :, None], -np.inf, S)
    if mode == "exclusive":
        S = S.copy() if pad is None else S
        S[index + (positives,)] = -np.inf
    lse = logsumexp(S, axis=-1)
    terms = lse - pos
    if pad is not None:
        terms[pad] = 0.0
    return np.add.reduce(terms, axis=-1), (S, lse, positives)


def _nce_direction_backward(S, lse, positives, pad, index):
    dS = np.exp(S - lse[..., None])  # softmax; entries out of the denominator give 0
    dS[index + (positives,)] -= 1.0
    if pad is not None:
        dS[pad] = 0.0
    return dS


def info_nce(f1, f2, truth, tau_raw: float, mode: str = "inclusive", pad=None):
    """Symmetric InfoNCE over cross-image cosines, mean over each pair's 2m anchors.

    truth[..., i] is the image-2 row matching image-1 row i (ignored on
    padding rows). Returns (loss of each pair, shaped (...), cache).
    """
    if mode not in INFONCE_MODES:
        raise ValueError(f"unknown InfoNCE mode {mode!r}")
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    shape, n = f1.shape[:-2], f1.shape[-2]
    f1, f2 = f1.reshape(-1, n, f1.shape[-1]), f2.reshape(-1, n, f2.shape[-1])
    truth = np.asarray(truth, dtype=np.intp).reshape(-1, n)
    if pad is not None:
        pad = np.reshape(pad, (-1, n))
        truth = np.where(pad, np.arange(n), truth)  # padding rows match themselves
    if (np.sort(truth, axis=-1) != np.arange(n)).any():
        raise ValueError("truth must be a permutation of each pair's keypoint indices")
    m = n if pad is None else n - np.count_nonzero(pad, axis=-1)
    if (m if pad is None else m.min()) < 2:
        raise ValueError("InfoNCE needs at least 2 keypoints (no negatives otherwise)")
    tau = float(np.exp(tau_raw))
    C = f1 @ f2.swapaxes(-1, -2)
    S = C / tau
    index = (np.arange(len(S))[:, None], np.arange(n))
    loss12, cache12 = _nce_direction(S, truth, mode, pad, index)
    # image-2 anchors: the transposed scores and the inverse permutation
    loss21, cache21 = _nce_direction(S.swapaxes(-1, -2), truth.argsort(axis=-1),
                                     mode, pad, index)
    scale = 1.0 / (2 * m)
    loss = (loss12 + loss21) * scale
    return loss.reshape(shape), (f1, f2, C, tau, scale, cache12, cache21, pad, index, shape)


def info_nce_backward(cache):
    """Returns (g_f1, g_f2, g_tau_raw), g_tau_raw summed over the pairs."""
    f1, f2, C, tau, scale, cache12, cache21, pad, index, shape = cache
    dS = (_nce_direction_backward(*cache12, pad, index)
          + _nce_direction_backward(*cache21, pad, index).swapaxes(-1, -2))
    dS *= np.reshape(scale, (-1, 1, 1))
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
    n = f.shape[-2]
    G = f @ f.swapaxes(-1, -2)
    G.reshape(G.shape[:-2] + (n * n,))[..., :: n + 1] = -np.inf  # the diagonals
    if pad is not None:
        G = np.where(pad[..., None, :], -np.inf, G)
    best = np.maximum.reduce(G, axis=-1)
    lone = best == -np.inf  # rows with no other real row, and padding rows, add nothing
    if pad is not None:
        lone |= pad
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
    h, cache = hyperspherical(np.asarray(snapshots, dtype=np.float64), pad)  # (L, 2, ...)
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

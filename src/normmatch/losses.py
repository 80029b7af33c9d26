"""Training objective: symmetric InfoNCE plus hyperspherical uniformity.

All pieces operate on unit-norm feature rows, so dot products are cosines.
The InfoNCE temperature is learned through tau = exp(tau_raw), keeping it
positive by construction. Two denominator conventions are supported:

  - "exclusive": the positive pair is excluded from the denominator (the
    contrastive ratio as the loss equation is written),
  - "inclusive": the standard form with the positive included (bounded below
    by zero; the training default).

The hyperspherical loss penalizes the best off-diagonal cosine per anchor
within one image; the layer-wise variant weights layer k by k * p and
averages the two streams.
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
    "layer_hyperspherical_backward",
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


def _nce_direction(S: np.ndarray, positives: np.ndarray, mode: str):
    """Sum over anchors (rows of S) of -log softmax ratios; returns (loss, dS)."""
    m = S.shape[0]
    rows = np.arange(m)
    pos = S[rows, positives]
    if mode == "exclusive":
        masked = S.copy()
        masked[rows, positives] = -np.inf
        lse = logsumexp(masked, axis=1)
        p = np.exp(masked - lse[:, None])
        p[rows, positives] = 0.0
    else:
        lse = logsumexp(S, axis=1)
        p = np.exp(S - lse[:, None])
    loss = float(np.sum(lse - pos))
    dS = p
    dS[rows, positives] -= 1.0
    return loss, dS


def info_nce(f1, f2, truth, tau_raw: float, mode: str = "inclusive"):
    """Symmetric InfoNCE over cross-image cosines, mean over the 2m anchors.

    truth[i] is the image-2 row matching image-1 row i. Returns
    (loss, cache); see :func:`info_nce_backward` for gradients.
    """
    if mode not in INFONCE_MODES:
        raise ValueError(f"unknown InfoNCE mode {mode!r}")
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.intp)
    m = f1.shape[0]
    if m < 2:
        raise ValueError("InfoNCE needs at least 2 keypoints (no negatives otherwise)")
    tau = float(np.exp(tau_raw))
    C = f1 @ f2.T
    S = C / tau

    loss12, dS12 = _nce_direction(S, truth, mode)
    loss21, dS21 = _nce_direction(S.T, np.argsort(truth), mode)  # the inverse permutation

    scale = 1.0 / (2 * m)
    loss = (loss12 + loss21) * scale
    dS = (dS12 + dS21.T) * scale
    cache = (f1, f2, C, dS, tau)
    return loss, cache


def info_nce_backward(cache):
    """Returns (g_f1, g_f2, g_tau_raw)."""
    f1, f2, C, dS, tau = cache
    dC = dS / tau
    g_f1 = dC @ f2
    g_f2 = dC.T @ f1
    # S = C / exp(tau_raw): dL/dtau_raw = sum(dS * dS/dtau_raw) = -sum(dS * S)
    g_tau_raw = float(-np.sum(dS * C) / tau)
    return g_f1, g_f2, g_tau_raw


def hyperspherical(f):
    """Sum over anchors of the largest cosine to a different same-image row.

    Zero for orthonormal rows; positive when two rows align. Returns
    (loss, cache). m = 1 yields 0 (nothing to separate).
    """
    f = np.asarray(f, dtype=np.float64)
    m = f.shape[0]
    if m < 2:
        return 0.0, (f, None)
    G = f @ f.T
    G.flat[:: m + 1] = -np.inf  # the diagonal
    return float(G.max(axis=1).sum()), (f, G.argmax(axis=1))


def hyperspherical_backward(cache, g_loss: float = 1.0):
    """Returns g_f for :func:`hyperspherical`."""
    f, arg = cache
    g_f = np.zeros_like(f)
    if arg is None:
        return g_f
    m = f.shape[0]
    # d/df of sum_i f_i . f_{arg(i)}: product rule hits both rows
    np.add.at(g_f, np.arange(m), f[arg] * g_loss)
    np.add.at(g_f, arg, f[np.arange(m)] * g_loss)
    return g_f


def layer_hyperspherical(snapshots, p: float):
    """Depth-weighted uniformity loss over per-layer token snapshots.

    snapshots[k] is the (tokens1, tokens2) pair after layer k+1; layer k+1
    contributes (k+1) * p times the average of the two streams' losses.
    Returns (loss, cache).
    """
    total = 0.0
    caches = []
    for k, (t1, t2) in enumerate(snapshots, start=1):
        h1, c1 = hyperspherical(t1)
        h2, c2 = hyperspherical(t2)
        total += k * p * 0.5 * (h1 + h2)
        caches.append((k * p * 0.5, c1, c2))
    return float(total), caches


def layer_hyperspherical_backward(caches):
    """Per-layer (g_tokens1, g_tokens2) gradients."""
    grads = []
    for w, c1, c2 in caches:
        grads.append((hyperspherical_backward(c1, w), hyperspherical_backward(c2, w)))
    return grads


def total_loss(f1_tokens, f2_tokens, snapshots, truth, tau_raw: float,
               p: float, mode: str = "inclusive"):
    """InfoNCE + final hyperspherical (two-image average) + layer-wise term.

    Returns (report, cache). The three components are summed unweighted;
    the report keeps them separate for ablation-style bookkeeping.
    """
    nce, nce_cache = info_nce(f1_tokens, f2_tokens, truth, tau_raw, mode)
    h1, h1_cache = hyperspherical(f1_tokens)
    h2, h2_cache = hyperspherical(f2_tokens)
    hs_final = 0.5 * (h1 + h2)
    hs_layers, layer_cache = layer_hyperspherical(snapshots, p)
    report = LossReport(infonce=nce, hyperspherical_final=hs_final,
                        hyperspherical_layers=hs_layers)
    return report, (nce_cache, h1_cache, h2_cache, layer_cache)


def total_loss_backward(cache):
    """Returns (g_f1, g_f2, snapshot_grads, g_tau_raw).

    snapshot_grads contains the layer-wise term's per-layer gradients; the
    final-layer snapshot equals the decoder output, so callers must add the
    returned g_f1/g_f2 at the decoder output in addition to the last
    snapshot gradient.
    """
    nce_cache, h1_cache, h2_cache, layer_cache = cache
    g_f1, g_f2, g_tau_raw = info_nce_backward(nce_cache)
    g_f1 = g_f1 + hyperspherical_backward(h1_cache, 0.5)
    g_f2 = g_f2 + hyperspherical_backward(h2_cache, 0.5)
    snapshot_grads = layer_hyperspherical_backward(layer_cache)
    return g_f1, g_f2, snapshot_grads, g_tau_raw

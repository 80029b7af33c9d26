"""Cosine affinity, log-space Sinkhorn, and argmax decoding.

Sinkhorn runs entirely in the log domain: the kernel C / temperature has
row-wise and column-wise log-sum-exp subtracted alternately, so the
exponentiated result cannot overflow. Matching is used at inference only;
the training losses act on cosine similarities directly, so there is no
backward pass through this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import logsumexp

__all__ = ["TransportPlan", "Matching", "affinity", "sinkhorn_log",
           "decode_matching", "accuracy"]


@dataclass
class TransportPlan:
    """Sinkhorn output: a (near-)doubly-stochastic matrix with diagnostics."""

    values: np.ndarray
    iterations_used: int
    max_marginal_error: float


@dataclass
class Matching:
    """Row-argmax assignment; not guaranteed injective (see `injective`)."""

    assignment: np.ndarray
    injective: bool


def affinity(f1, f2) -> np.ndarray:
    """Pairwise cosine similarities of unit-norm rows: C = f1 @ f2.T."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.ndim != 2 or f2.ndim != 2:
        raise ValueError(f"f1 and f2 must be 2-D (rows, d), got shapes {f1.shape} and {f2.shape}")
    if f1.shape[1] != f2.shape[1]:
        raise ValueError("feature dimension mismatch")
    return f1 @ f2.T


def sinkhorn_log(C, temperature: float, iters: int) -> TransportPlan:
    """Log-domain Sinkhorn scaling of exp(C / temperature).

    One round subtracts the row-wise then the column-wise log-sum-exp. The
    returned plan records max |marginal - 1| over all rows and columns;
    convergence speed degrades sharply as temperature decreases, so treat
    the recorded error as authoritative rather than assuming convergence.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or not C.size:
        raise ValueError(f"C must be a non-empty square affinity matrix (equal keypoint "
                         f"counts), got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("affinity matrix must be finite")
    if not temperature > 0:  # NaN fails too
        raise ValueError("temperature must be positive")
    if not isinstance(iters, (int, np.integer)) or iters < 1:
        raise ValueError(f"iters must be an integer >= 1, got {iters!r}")
    K = C / temperature
    for _ in range(iters):
        K = K - logsumexp(K, axis=1, keepdims=True)
        K = K - logsumexp(K, axis=0, keepdims=True)
    A = np.exp(K)
    err = max(
        float(np.abs(A.sum(axis=1) - 1.0).max()),
        float(np.abs(A.sum(axis=0) - 1.0).max()),
    )
    return TransportPlan(values=A, iterations_used=iters, max_marginal_error=err)


def decode_matching(plan: TransportPlan | np.ndarray) -> Matching:
    """Row-argmax decode; ties resolve to the lowest column index."""
    A = plan.values if isinstance(plan, TransportPlan) else np.asarray(plan)
    if A.ndim != 2 or not A.size:
        raise ValueError(f"plan must be a non-empty 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("transport plan must be finite")
    assignment = A.argmax(axis=1)
    injective = len(np.unique(assignment)) == len(assignment)
    return Matching(assignment=assignment, injective=injective)


def accuracy(pred: Matching | np.ndarray, truth) -> float:
    """Fraction of keypoints whose decoded column equals the ground truth."""
    a = pred.assignment if isinstance(pred, Matching) else np.asarray(pred)
    truth = np.asarray(truth)
    if a.shape != truth.shape:
        raise ValueError("prediction and truth lengths differ")
    if not truth.size:
        raise ValueError("pred and truth are empty: the accuracy of no keypoints is undefined")
    return float(np.mean(a == truth))

"""Central-finite-difference gradient checking.

The contract: ``forward(params)`` returns ``(loss, backward)``; ``backward()``
adds the loss's analytic gradients into the store, and nothing else writes them.
The checker zeroes the store, runs ``backward()`` once, at the unperturbed point,
and leaves its gradients in the store; each +-eps probe of a sampled coordinate
of a trainable parameter reads only the loss. All evaluation happens in 64-bit
precision; finite differences are not trustworthy in 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ParamReport", "grad_check", "all_passed"]


@dataclass
class ParamReport:
    name: str
    max_rel_err: float
    coords_checked: int
    passed: bool
    failure: str | None = None

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.failure})" if self.failure else ""
        return (f"{status} {self.name}: max rel err {self.max_rel_err:.3e}"
                f" over {self.coords_checked} coords{extra}")


def grad_check(forward, params, eps: float = 1e-5, tol: float = 1e-4, max_coords: int = 32,
               rng: np.random.Generator | None = None) -> list[ParamReport]:
    """Compare analytic gradients with central differences.

    For each trainable parameter, checks a random subset of coordinates
    (all of them when the parameter has at most ``max_coords`` entries).
    Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-8) with
    n = (f(x + eps e_i) - f(x - eps e_i)) / (2 eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(0) if rng is None else rng

    params.zero_grads()
    base, backward = forward(params)
    if not np.isfinite(base):
        return [
            ParamReport(name, np.inf, 0, False, "non-finite forward value")
            for name in params.trainable_names()
        ]
    backward()

    reports = []
    for name in params.trainable_names():
        flat, a_flat = params.value(name).reshape(-1), params.grad(name).reshape(-1)
        idxs = (np.arange(flat.size) if flat.size <= max_coords
                else np.sort(rng.choice(flat.size, size=max_coords, replace=False)))
        max_err, failure = 0.0, None
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(forward(params)[0])
            flat[i] = orig - eps
            f_minus = float(forward(params)[0])
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                failure = "non-finite forward value"
                break
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, rel)
        passed = failure is None and max_err < tol
        reports.append(ParamReport(name, max_err, len(idxs), passed, failure))
    return reports


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)

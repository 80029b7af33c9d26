"""Named parameter registry with gradient buffers."""

from __future__ import annotations

import numpy as np

__all__ = ["ParameterStore"]


class ParameterStore:
    """Maps unique names to (value, gradient, trainable) triples.

    Values and gradients are float64 arrays of identical shape. Gradients of
    trainable parameters accumulate additively until :meth:`zero_grads` or
    an Adam step resets them. Traversals follow registration order, so they
    are deterministic.
    """

    def __init__(self) -> None:
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._trainable: dict[str, bool] = {}

    def register(self, name: str, value, trainable: bool = True) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.array(value, dtype=np.float64)
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)
        self._trainable[name] = bool(trainable)
        return arr

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def set_trainable(self, name: str, flag: bool) -> None:
        if name not in self._values:
            raise KeyError(name)
        self._trainable[name] = bool(flag)

    def set_value(self, name: str, value) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self._values[name].shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {arr.shape} vs {self._values[name].shape}"
            )
        # Write in place so views held by callers stay valid.
        self._values[name][...] = arr

    def add_grad(self, name: str, g) -> None:
        grad = self._grads[name]
        g = np.asarray(g, dtype=np.float64)
        if g.shape != grad.shape:
            raise ValueError(
                f"gradient shape mismatch for {name!r}: {g.shape} vs {grad.shape}"
            )
        if self._trainable[name]:
            grad += g

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

    def names(self) -> list[str]:
        return list(self._values)

    def trainable_names(self) -> list[str]:
        return [n for n in self._values if self._trainable[n]]

    def quantize_float32(self) -> None:
        """Snap every value to the nearest float32-representable number.

        Keeps in-memory values exactly reproducible through float32
        serialization round-trips.
        """
        for v in self._values.values():
            v[...] = v.astype(np.float32)  # the assignment widens back exactly

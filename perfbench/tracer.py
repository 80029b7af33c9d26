"""Self-time tracing of normmatch layers from outside the program.

The tracer replaces module-level names and class attributes with thin
wrappers and restores them on exit. A function layer is wrapped at every
name through which ``normmatch.model``, ``normmatch.train`` and
``normmatch.data`` call it, so a later move of a call site between those
modules is still seen. Timed wrappers keep a stack of child time, so every
layer reports self time: its CPU time minus the time of wrapped calls made
inside it. Counters are read at the same boundaries. A name that no longer
exists makes its layer absent; it is listed, not fatal.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict

from env import clock

CALLER_MODULES = ("normmatch.model", "normmatch.train", "normmatch.data")

# layer -> function names looked up in CALLER_MODULES
FUNCTION_LAYERS = {
    "features.sample": ("extract_keypoint_features",),
    "features.global": ("global_token", "global_token_backward"),
    "geometry.build_graph": ("build_graph",),
    "splineconv.forward": ("gnn_refine",),
    "splineconv.backward": ("gnn_refine_backward",),
    "decoder.forward": ("decode",),
    "decoder.backward": ("decode_backward",),
    "losses.forward": ("total_loss",),
    "losses.backward": ("total_loss_backward",),
    "matching.affinity": ("affinity",),
    "matching.sinkhorn": ("sinkhorn_log",),
    "matching.decode": ("decode_matching",),
}

# layer -> (module, class, method); class attributes are shared by all callers
METHOD_LAYERS = {
    "features.render": ("normmatch.data", "PairSample", "backbone_outputs"),
    "train.adam": ("normmatch.train", "Adam", "step"),
    "params.quantize": ("normmatch.params", "ParameterStore", "quantize_float32"),
    "params.zero_grads": ("normmatch.params", "ParameterStore", "zero_grads"),
}

TIMED_LAYERS = tuple(FUNCTION_LAYERS) + tuple(METHOD_LAYERS)

# counters that are not call counts of a timed layer
COUNTERS = (
    "splineconv.gemm_flops",
    "features.oob_samples",
    "geometry.arcs",
    "geometry.complete_fallbacks",
    "matching.sinkhorn_iters",
)

# counter -> the timed layer whose wrapper reads it
COUNTER_LAYERS = {
    "features.oob_samples": "features.sample",
    "geometry.arcs": "geometry.build_graph",
    "matching.sinkhorn_iters": "matching.sinkhorn",
}


def calls_metric(layer: str) -> str:
    return "train.adam_steps" if layer == "train.adam" else f"{layer}_calls"


def _conv_flops(features, graph, weight) -> float:
    # every arc takes four basis corners, each one (in_dim x out_dim) product
    _, in_dim, out_dim = weight.shape
    return 2.0 * 4 * len(graph.arcs) * in_dim * out_dim


def _oob_total(backbone_out) -> int:
    return backbone_out.last.oob_count + backbone_out.second_last.oob_count


class Tracer:
    """Install with ``with tracer:``; totals accumulate over installations."""

    def __init__(self):
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.marginal_err_max = 0.0

    # ---------------- installation ----------------

    def __enter__(self):
        self.absent = []
        features = importlib.import_module("normmatch.features")
        if not hasattr(getattr(features, "FeatureMap", None), "oob_count"):
            self.absent.append("features.oob_samples")
        modules = [importlib.import_module(name) for name in CALLER_MODULES]
        for layer, names in FUNCTION_LAYERS.items():
            targets = [(m, n) for m in modules for n in names if hasattr(m, n)]
            if not targets:
                self.absent.append(layer)
            for module, name in targets:
                self._wrap(module, name, layer, *self._hooks(layer))
        for layer, (module_name, class_name, attr) in METHOD_LAYERS.items():
            cls = getattr(importlib.import_module(module_name), class_name, None)
            if cls is None or not hasattr(cls, attr):
                self.absent.append(layer)
            else:
                self._wrap(cls, attr, layer)
        for counter, layer in COUNTER_LAYERS.items():
            if layer in self.absent and counter not in self.absent:
                self.absent.append(counter)
        self._install_counters()
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def _install_counters(self) -> None:
        splineconv = importlib.import_module("normmatch.splineconv")
        geometry = importlib.import_module("normmatch.geometry")

        def conv_forward(args, result, state):
            self.counts["splineconv.gemm_flops"] += _conv_flops(*args[:3])

        def conv_backward(args, result, state):
            # the cache opens with (features, graph, weight); backward runs
            # two products per forward one
            self.counts["splineconv.gemm_flops"] += 2.0 * _conv_flops(*args[0][:3])

        def fallback(args, result, state):
            self.counts["geometry.complete_fallbacks"] += 1

        for owner, name, hook, metric in (
            (splineconv, "spline_conv_forward", conv_forward, "splineconv.gemm_flops"),
            (splineconv, "spline_conv_backward", conv_backward, "splineconv.gemm_flops"),
            (geometry, "_complete_edges", fallback, "geometry.complete_fallbacks"),
        ):
            if hasattr(owner, name):
                self._wrap(owner, name, None, hook)
            elif metric not in self.absent:
                self.absent.append(metric)

    def _hooks(self, layer):
        """(hook, before) counter updates run around a wrapped call, untimed."""
        if layer == "features.sample" and "features.oob_samples" not in self.absent:
            def hook(args, result, before):
                self.counts["features.oob_samples"] += _oob_total(args[0]) - before
            return hook, lambda args: _oob_total(args[0])
        if layer == "geometry.build_graph":
            def hook(args, result, state):
                self.counts["geometry.arcs"] += len(result.arcs)
            return hook, None
        if layer == "matching.sinkhorn":
            def hook(args, result, state):
                self.counts["matching.sinkhorn_iters"] += result.iterations_used
                self.marginal_err_max = max(self.marginal_err_max,
                                            float(result.max_marginal_error))
            return hook, None
        if layer == "matching.decode":
            def hook(args, result, state):
                self.counts["matching.noninjective"] += 0 if result.injective else 1
            return hook, None
        return None, None

    def _wrap(self, owner, name: str, layer: str | None, hook=None, before=None) -> None:
        """Replace owner.name; with layer None the call is counted, not timed."""
        original = getattr(owner, name)
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            if layer is None:
                result = original(*args, **kwargs)
            else:
                stack.append(0.0)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    self_s[layer] += elapsed - stack.pop()
                    calls[layer] += 1
                    if stack:
                        stack[-1] += elapsed
            if hook is not None:
                hook(args, result, state)
            return result

        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    # ---------------- results ----------------

    def layer_metrics(self, round_s: float, rounds: int, speed: float):
        """Per-round self times, calls and counters, plus the uncovered rest.

        round_s is the CPU time of the traced rounds; speed rescales times
        to the nominal probe speed.
        """
        out: dict[str, tuple[float, str]] = {}
        covered = 0.0
        for layer in TIMED_LAYERS:
            if layer in self.absent:
                continue
            covered += self.self_s[layer]
            out[f"{layer}_s"] = (self.self_s[layer] * speed / rounds, "s")
            out[calls_metric(layer)] = (self.calls[layer] / rounds, "count")
        for counter in COUNTERS:
            if counter not in self.absent:
                out[counter] = (self.counts[counter] / rounds, "count")
        if "matching.decode" not in self.absent:
            decodes = self.calls["matching.decode"]
            rate = self.counts["matching.noninjective"] / decodes if decodes else 0.0
            out["matching.noninjective_rate"] = (rate, "fraction")
        if "matching.sinkhorn" not in self.absent:
            out["matching.marginal_err_max"] = (self.marginal_err_max, "1")
        out["model.self_s"] = ((round_s - covered) * speed / rounds, "s")
        out["model.coverage"] = (covered / round_s if round_s > 0 else 0.0, "fraction")
        return out

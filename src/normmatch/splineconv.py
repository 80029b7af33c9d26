"""Graph convolution with trainable B-spline kernels over edge attributes.

Each arc's 2-D pseudo-coordinate selects up to four entries of a degree-1
B-spline tensor basis on a uniform K x K knot grid over [0, 1]^2. The arc
message is the basis-weighted mix of per-knot linear maps applied to the
source node features; nodes aggregate incoming messages by element-wise max
(with the subgradient routed to the first maximizing arc), then add a bias.
"""

from __future__ import annotations

import numpy as np

from .ops import normalize_rows, normalize_rows_backward

__all__ = [
    "spline_conv_forward",
    "spline_conv_backward",
    "init_gnn_params",
    "gnn_refine",
    "gnn_refine_backward",
]


def _basis_arrays(pseudo: np.ndarray, kernel_size: int):
    """Vectorized basis for all arcs: flat knot indices and weights, (4, n)."""
    if pseudo.size and (pseudo.min() < -1e-12 or pseudo.max() > 1.0 + 1e-12):
        raise ValueError("pseudo-coordinates outside [0, 1]^2")
    s = np.clip(pseudo, 0.0, 1.0) * (kernel_size - 1)
    base = np.minimum(np.floor(s), kernel_size - 2).astype(np.intp)
    frac = s - base
    idx = np.empty((4, len(pseudo)), dtype=np.intp)
    wgt = np.empty((4, len(pseudo)))
    k = 0
    for a in (0, 1):
        wa = frac[:, 0] if a else 1.0 - frac[:, 0]
        for b in (0, 1):
            wb = frac[:, 1] if b else 1.0 - frac[:, 1]
            idx[k] = (base[:, 0] + a) * kernel_size + (base[:, 1] + b)
            wgt[k] = wa * wb
            k += 1
    return idx, wgt


def _max_aggregate(msgs, dst, counts):
    """Element-wise max of the messages arriving at each node.

    counts[v] is the in-degree of node v. Returns (agg, argmax_arc), both
    (m, out_dim). Each node's messages are padded, in stable arc order, into
    one row of a (m, max in-degree, out_dim) block, so argmax ties resolve
    to the lowest arc index and the -inf padding never wins.
    """
    m, out_dim = len(counts), msgs.shape[1]
    order = np.argsort(dst, kind="stable")
    starts = np.cumsum(counts) - counts
    node = dst[order]
    padded = np.full((m, counts.max(initial=0), out_dim), -np.inf)
    padded[node, np.arange(len(dst)) - starts[node]] = msgs[order]
    local = padded.argmax(axis=1)
    agg = np.take_along_axis(padded, local[:, None, :], axis=1)[:, 0]
    return agg, order[starts[:, None] + local]


def _scatter_to_argmax(argmax_arc, g_out, n_arcs):
    """Per-arc message gradients, each output coordinate's on its argmax arc.

    Every arc feeds one destination, so the argmax arcs never collide.
    """
    g_msgs = np.zeros((n_arcs, g_out.shape[1]))
    g_msgs[argmax_arc, np.arange(g_out.shape[1])] = g_out
    return g_msgs


def spline_conv_forward(features, graph, weight, bias, apply_relu: bool):
    """One spline-kernel convolution. Returns (out, cache).

    weight: (K^2, in_dim, out_dim); bias: (out_dim,). Message for arc
    (u -> v) is sum_b basis_w_b * features[u] @ weight[b]; each node takes
    the element-wise max over incoming messages, adds the bias, and applies
    ReLU when requested.
    """
    features = np.asarray(features, dtype=np.float64)
    k2, in_dim, out_dim = weight.shape
    kernel_size = int(round(np.sqrt(k2)))
    if kernel_size * kernel_size != k2:
        raise ValueError("weight leading dim must be a square K^2")
    if features.shape[1] != in_dim:
        raise ValueError(
            f"feature width {features.shape[1]} does not match kernel input {in_dim}"
        )
    m = graph.num_nodes
    arcs = graph.arcs
    src, dst = arcs[:, 0], arcs[:, 1]
    counts = np.bincount(dst, minlength=m)
    if np.any(counts == 0):
        raise ValueError("isolated vertex: aggregation undefined without self-loops")

    idx, wgt = _basis_arrays(graph.pseudo, kernel_size)
    x_src = features[src]
    msgs = np.zeros((len(arcs), out_dim))
    for c in range(4):
        for b in np.unique(idx[c]):
            rows = np.nonzero(idx[c] == b)[0]
            msgs[rows] += wgt[c, rows, None] * (x_src[rows] @ weight[b])

    agg, argmax_arc = _max_aggregate(msgs, dst, counts)
    pre = agg + bias
    out = np.maximum(pre, 0.0) if apply_relu else pre
    cache = (features, graph, weight, idx, wgt, argmax_arc, pre if apply_relu else None)
    return out, cache


def spline_conv_backward(cache, g_out):
    """Backward of :func:`spline_conv_forward`.

    Returns (g_features, g_weight, g_bias). Max aggregation routes each
    output coordinate's gradient to its recorded argmax arc only.
    """
    features, graph, weight, idx, wgt, argmax_arc, relu_pre = cache
    if relu_pre is not None:
        g_out = g_out * (relu_pre > 0.0)
    g_bias = g_out.sum(axis=0)

    g_msgs = _scatter_to_argmax(argmax_arc, g_out, len(graph.arcs))

    src = graph.arcs[:, 0]
    x_src = features[src]
    g_weight = np.zeros_like(weight)
    g_features = np.zeros_like(features)
    for c in range(4):
        for b in np.unique(idx[c]):
            rows = np.nonzero(idx[c] == b)[0]
            w_rows = wgt[c, rows, None]
            g_weight[b] += (x_src[rows] * w_rows).T @ g_msgs[rows]
            contrib = w_rows * (g_msgs[rows] @ weight[b].T)
            np.add.at(g_features, src[rows], contrib)
    return g_features, g_weight, g_bias


def init_gnn_params(store, rng, in_dim: int, d_model: int, kernel_size: int):
    """Register the two-layer GNN parameters."""
    k2 = kernel_size * kernel_size
    store.register("gnn.w1", rng.standard_normal((k2, in_dim, d_model)) / np.sqrt(in_dim))
    store.register("gnn.b1", np.zeros(d_model))
    store.register("gnn.w2", rng.standard_normal((k2, d_model, d_model)) / np.sqrt(d_model))
    store.register("gnn.b2", np.zeros(d_model))


def gnn_refine(features, graph, store):
    """Two spline convolutions (ReLU after the first only), then unit rows.

    Returns (tokens, cache) with tokens of shape (m, d_model), each row on
    the unit sphere ready for the decoder.
    """
    h1, c1 = spline_conv_forward(
        features, graph, store.value("gnn.w1"), store.value("gnn.b1"), apply_relu=True
    )
    h2, c2 = spline_conv_forward(
        h1, graph, store.value("gnn.w2"), store.value("gnn.b2"), apply_relu=False
    )
    out, nc = normalize_rows(h2)
    return out, (c1, c2, nc)


def gnn_refine_backward(cache, g_out, store):
    """Accumulates parameter gradients into the store; returns g_features."""
    c1, c2, nc = cache
    g_h2 = normalize_rows_backward(nc, g_out)
    g_h1, g_w2, g_b2 = spline_conv_backward(c2, g_h2)
    store.add_grad("gnn.w2", g_w2)
    store.add_grad("gnn.b2", g_b2)
    g_features, g_w1, g_b1 = spline_conv_backward(c1, g_h1)
    store.add_grad("gnn.w1", g_w1)
    store.add_grad("gnn.b1", g_b1)
    return g_features

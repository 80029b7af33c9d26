"""Graph convolution with trainable B-spline kernels over edge attributes.

Each arc's 2-D pseudo-coordinate selects up to four entries of a degree-1
B-spline tensor basis on a uniform K x K knot grid over [0, 1]^2. The arc
message is the basis-weighted mix of per-knot linear maps applied to the
source node features; nodes aggregate incoming messages by element-wise max
(with the subgradient routed to the first maximizing arc), then add a bias.
"""

from __future__ import annotations

import numpy as np

from .geometry import batch_graphs
from .ops import normalize_rows, normalize_rows_backward

__all__ = [
    "spline_plan",
    "knot_plan",
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
    lower_upper = np.stack([1.0 - frac, frac])  # each dimension's two knot weights
    a, b = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])  # corner c's knot offsets
    idx = (base[:, 0] + a[:, None]) * kernel_size + (base[:, 1] + b[:, None])
    return idx, lower_upper[a, :, 0] * lower_upper[b, :, 1]


def _max_aggregate(msgs, blocks):
    """(agg, padded): each node's element-wise max over its incoming messages, (m, out_dim),
    and the (m, max in-degree, out_dim) block of them that the plan's blocks lay out."""
    slots, shape, _, _ = blocks
    padded = np.full(shape + msgs.shape[1:], -np.inf)
    padded.reshape(-1, msgs.shape[1])[slots] = msgs
    return np.maximum.reduce(padded, axis=1), padded


def _argmax_arcs(padded, agg, blocks):
    """The arc of each node's max, per output coordinate: (m, out_dim); backward only.

    The first slot holding the max wins: the lowest arc on ties, never the -inf padding.
    """
    _, _, order, starts = blocks
    hit = (padded == agg[:, None]) | np.isnan(padded)  # a NaN is the max, as argmax has it
    return order[starts[:, None] + hit.transpose(0, 2, 1).argmax(axis=-1)]


def spline_plan(graph, kernel_size: int):
    """(kernel_size, knots, weights, blocks) of a graph, built once per graph.

    knots[c, a] is the flat knot of corner c of arc a and weights[c, a, 0] its
    basis weight. blocks = (slots, shape, order, starts) lays the arcs out for
    the max: order sorts them stably by destination, node v's from starts[v],
    and arc a fills flat slot slots[a] of an (m, max in-degree) shape.
    """
    dst = graph.arcs[:, 1]
    in_degree = np.bincount(dst, minlength=graph.num_nodes)
    if np.any(in_degree == 0):
        raise ValueError("isolated vertex: aggregation undefined without self-loops")
    order, starts = np.argsort(dst, kind="stable"), np.cumsum(in_degree) - in_degree
    shape, node = (graph.num_nodes, in_degree.max(initial=0)), dst[order]
    slots = np.empty_like(order)
    slots[order] = node * shape[1] + np.arange(len(dst)) - starts[node]
    knots, weights = _basis_arrays(graph.pseudo, kernel_size)
    return kernel_size, knots, weights[:, :, None], (slots, shape, order, starts)


def knot_plan(plan, graph):
    """(segments, (arcs, srcs, weights), senders) of a :func:`spline_plan`, for backward.

    Row c * n_arcs + a is (corner c, arc a). Rows are stably sorted by knot; segment
    (knot, i, j) spans one knot's rows, which never repeat an arc. senders: arcs sorted
    by source, the nodes that send, and where each starts.
    """
    kernel_size, knots, weights, _ = plan
    src = graph.arcs[:, 0]
    rows = np.argsort(knots.ravel(), kind="stable")
    arcs = rows % len(src)
    ends = np.cumsum(np.bincount(knots.ravel(), minlength=kernel_size**2)).tolist()
    segments = [(b, i, j) for b, (i, j) in enumerate(zip([0] + ends, ends)) if i < j]
    out_degree = np.bincount(src, minlength=graph.num_nodes)
    nodes = np.flatnonzero(out_degree)
    senders = (np.argsort(src, kind="stable"), nodes, (np.cumsum(out_degree) - out_degree)[nodes])
    return segments, (arcs, src[arcs], weights.reshape(-1, 1)[rows]), senders


def spline_conv_forward(features, graph, weight, bias, plan, apply_relu: bool):
    """One spline-kernel convolution. Returns (out, cache).

    weight: (K^2, in_dim, out_dim); bias: (out_dim,); plan: the graph's
    :func:`spline_plan` for the same K. Message for arc (u -> v) is
    sum_b basis_w_b * features[u] @ weight[b]; each node takes the element-wise
    max over incoming messages, adds the bias, and applies ReLU when requested.
    """
    features = np.asarray(features, dtype=np.float64)
    k2, in_dim, out_dim = weight.shape
    kernel_size, knots, weights, blocks = plan
    if kernel_size**2 != k2:
        raise ValueError(f"plan built for K = {kernel_size}, weight has {k2} knots")
    if features.shape[1] != in_dim:
        raise ValueError(f"feature width {features.shape[1]} does not match kernel input {in_dim}")
    # every node through every knot in one stacked product, then each arc's
    # corner rows gathered from it, weighted and added in corner order 0..3;
    # one corner at a time keeps the temporaries at (n_arcs, out_dim)
    products = np.matmul(features, weight).reshape(-1, out_dim)
    rows = knots * len(features) + graph.arcs[:, 0]
    msgs = weights[0] * products[rows[0]]
    for c in (1, 2, 3):
        msgs += weights[c] * products[rows[c]]

    agg, padded = _max_aggregate(msgs, blocks)
    out = agg + bias
    if apply_relu:  # out > 0 exactly where its input is, so the backward reads its mask off out
        out = np.maximum(out, 0.0)
    return out, (features, graph, weight, plan, (padded, agg), out if apply_relu else None)


def spline_conv_backward(cache, g_out, by_knot, input_grad: bool = True):
    """Backward of :func:`spline_conv_forward`.

    Returns (g_features, g_weight, g_bias), with g_features None unless
    input_grad. by_knot: the graph's :func:`knot_plan`. Max aggregation
    routes each output coordinate's gradient to its argmax arc only, found
    here from the forward's padded block.
    """
    features, graph, weight, plan, (padded, agg), relu_out = cache
    if relu_out is not None:
        g_out = g_out * (relu_out > 0.0)
    g_bias = g_out.sum(axis=0)

    g_msgs = np.zeros((len(graph.arcs), g_out.shape[1]))  # every arc feeds one node: no collisions
    g_msgs[_argmax_arcs(padded, agg, plan[3]), np.arange(g_out.shape[1])] = g_out
    g_weight = np.zeros_like(weight)
    g_arcs = np.zeros((len(graph.arcs), features.shape[1])) if input_grad else None
    segments, (arcs, srcs, weights), (by_source, nodes, starts) = by_knot
    for b, i, j in segments:
        g_seg = g_msgs[arcs[i:j]]
        g_weight[b] = (features[srcs[i:j]] * weights[i:j]).T @ g_seg
        if input_grad:
            g_arcs[arcs[i:j]] += weights[i:j] * (g_seg @ weight[b].T)
    g_features = np.zeros_like(features) if input_grad else None
    if input_grad:  # only senders: reduceat gives a node that sends none its start row
        g_features[nodes] = np.add.reduceat(g_arcs[by_source], starts)
    return g_features, g_weight, g_bias


def init_gnn_params(store, rng, in_dim: int, d_model: int, kernel_size: int):
    """Register the two-layer GNN parameters."""
    k2 = kernel_size * kernel_size
    store.register("gnn.w1", rng.standard_normal((k2, in_dim, d_model)) / np.sqrt(in_dim))
    store.register("gnn.b1", np.zeros(d_model))
    store.register("gnn.w2", rng.standard_normal((k2, d_model, d_model)) / np.sqrt(d_model))
    store.register("gnn.b2", np.zeros(d_model))


def gnn_refine(features, graphs, store, keep_caches: bool = True):
    """Two spline convolutions (ReLU after the first only), then unit rows.

    Both run once on the disjoint union of the graphs, one per (m_i, in_dim)
    array of features. Returns (tokens, cache; None without keep_caches) with
    tokens of shape (sum m_i, d_model), each row on the unit sphere.
    """
    graph, features = batch_graphs(graphs), np.concatenate(features)
    w1 = store.value("gnn.w1")
    plan = spline_plan(graph, round(len(w1) ** 0.5))
    h1, c1 = spline_conv_forward(
        features, graph, w1, store.value("gnn.b1"), plan, apply_relu=True
    )
    h2, c2 = spline_conv_forward(
        h1, graph, store.value("gnn.w2"), store.value("gnn.b2"), plan, apply_relu=False
    )
    out, nc = normalize_rows(h2)
    return out, (c1, c2, nc) if keep_caches else None


def gnn_refine_backward(cache, g_out, store):
    """Accumulates the parameter gradients into the store, through one knot plan.

    Nothing upstream of the GNN is trained, so no input gradient is computed.
    """
    c1, c2, nc = cache
    by_knot = knot_plan(c1[3], c1[1])  # from the plan and graph both layers share
    g_h1, g_w2, g_b2 = spline_conv_backward(c2, normalize_rows_backward(nc, g_out), by_knot)
    store.add_grad("gnn.w2", g_w2)
    store.add_grad("gnn.b2", g_b2)
    _, g_w1, g_b1 = spline_conv_backward(c1, g_h1, by_knot, input_grad=False)
    store.add_grad("gnn.w1", g_w1)
    store.add_grad("gnn.b1", g_b1)

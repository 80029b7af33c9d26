"""Scalar reference implementations that the vectorized code is tested against.

None of these run in the library; each one is the plain, loop-by-loop form
of a computation whose array form lives in ``src/normmatch``.
"""

import numpy as np

from normmatch import decoder, splineconv
from normmatch.ops import EPS_GUARD


def l2_normalize(v, eps_guard: float = EPS_GUARD) -> np.ndarray:
    """Return ``v / max(||v||_2, eps_guard)`` for one vector.

    The guard keeps the map total: a zero vector comes back as a zero vector
    instead of NaN. Oracle for ``normalize_rows``.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v)
    return v / max(norm, eps_guard)


def linalg_normalize_rows(x):
    """(y, denom, active) of ``normalize_rows`` with the row norms taken by
    ``np.linalg.norm``. Oracle for ``ops.normalize_rows``, which must equal
    it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    denom = np.maximum(norms, EPS_GUARD)
    return x / denom, denom, norms >= EPS_GUARD


def wrapped_logsumexp(x, axis=None, keepdims=False):
    """log-sum-exp through the ``np.max``/``np.sum``/``np.squeeze`` functions.
    Oracle for ``ops.logsumexp``, which must equal it bit for bit."""
    mx = np.max(x, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(x - mx), axis=axis, keepdims=True)) + mx
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


def bilinear_sample(fmap, point) -> np.ndarray:
    """Sample one feature vector at an image-pixel location.

    Cell-center convention: grid coordinate = point / stride - 0.5, then a
    standard 4-neighbor blend. Out-of-bounds points are clamped to the grid
    and counted in the map's diagnostics counter. Oracle for
    ``features.extract_keypoint_features``, which must equal it exactly.
    """
    grid = fmap.grid
    h, w, _ = grid.shape
    gx = point[0] / fmap.stride - 0.5
    gy = point[1] / fmap.stride - 0.5
    cx = min(max(gx, 0.0), w - 1.0)
    cy = min(max(gy, 0.0), h - 1.0)
    if cx != gx or cy != gy:
        fmap.oob_count += 1
    x0 = int(np.floor(cx))
    y0 = int(np.floor(cy))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = cx - x0
    fy = cy - y0
    return (
        grid[y0, x0] * (1 - fx) * (1 - fy)
        + grid[y0, x1] * fx * (1 - fy)
        + grid[y1, x0] * (1 - fx) * fy
        + grid[y1, x1] * fx * fy
    )


def row_global_token(pooled_row, proj) -> np.ndarray:
    """The global token of one image's pooled means (c,): the projected row,
    unit-normalized. Oracle for ``features.global_token`` on a (k, c) batch."""
    return l2_normalize(pooled_row @ proj)


def row_global_token_grad(pooled_row, proj, g_token) -> np.ndarray:
    """Gradient of ``row_global_token(pooled_row, proj) @ g_token`` w.r.t.
    proj, as one outer product. Oracle for ``features.global_token_backward``,
    whose single product sums these over the batch."""
    raw = pooled_row @ proj
    norm = np.linalg.norm(raw)
    y = raw / norm
    return np.outer(pooled_row, (g_token - y * (y @ g_token)) / norm)


def adam_update(value, g, m, v, t: int, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update of one parameter, in place, written as
    whole-array expressions. Oracle for ``train.Adam.step``, which must
    equal it exactly."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    update = lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    value[...] = value - update


def spline_basis(u, kernel_size: int) -> list[tuple[tuple[int, int], float]]:
    """Active B-spline basis entries at a point of [0, 1]^2.

    Returns up to four ((i1, i2), weight) pairs with positive weights that
    sum to 1. Degree-1 basis: per dimension the scaled coordinate
    s = u * (kernel_size - 1) activates knots floor(s) and floor(s) + 1 with
    weights (1 - frac, frac). Oracle for ``splineconv._basis_arrays``.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (2,):
        raise ValueError("u must be a 2-vector")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError(f"pseudo-coordinate {u} outside [0, 1]^2")
    if kernel_size < 2:
        raise ValueError("kernel_size must be >= 2")
    per_dim = []
    for c in range(2):
        s = u[c] * (kernel_size - 1)
        i = int(min(np.floor(s), kernel_size - 2))
        frac = s - i
        per_dim.append(((i, 1.0 - frac), (i + 1, frac)))
    pairs = []
    for i1, w1 in per_dim[0]:
        for i2, w2 in per_dim[1]:
            w = w1 * w2
            if w > 0.0:
                pairs.append(((i1, i2), w))
    return pairs


def loop_max_aggregate(msgs, dst, counts):
    """Per-node max over incoming messages. Oracle for ``splineconv._max_aggregate``.

    A stable sort keeps arc order inside each destination group, so argmax
    ties resolve to the lowest arc index.
    """
    m, out_dim = len(counts), msgs.shape[1]
    order = np.argsort(dst, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])
    agg = np.empty((m, out_dim))
    argmax_arc = np.empty((m, out_dim), dtype=np.intp)
    for v in range(m):
        rows = order[starts[v] : starts[v + 1]]
        block = msgs[rows]
        local = block.argmax(axis=0)
        agg[v] = block[local, np.arange(out_dim)]
        argmax_arc[v] = rows[local]
    return agg, argmax_arc


def loop_scatter_to_argmax(argmax_arc, g_out, n_arcs):
    """Per-node accumulation of g_out onto argmax arcs.

    Oracle for ``splineconv._scatter_to_argmax``.
    """
    m, out_dim = g_out.shape
    g_msgs = np.zeros((n_arcs, out_dim))
    cols = np.arange(out_dim)
    for v in range(m):
        np.add.at(g_msgs, (argmax_arc[v], cols), g_out[v])
    return g_msgs


def loop_spline_conv_forward(features, graph, weight, bias, apply_relu):
    """Spline convolution with the basis derived per call and one GEMM per
    (basis corner, knot) group. Oracle for ``splineconv.spline_conv_forward``.

    Returns (out, cache); the cache feeds :func:`loop_spline_conv_backward`.
    """
    features = np.asarray(features, dtype=np.float64)
    k2, _, out_dim = weight.shape
    kernel_size = int(round(np.sqrt(k2)))
    m = graph.num_nodes
    src, dst = graph.arcs[:, 0], graph.arcs[:, 1]
    counts = np.bincount(dst, minlength=m)
    idx, wgt = splineconv._basis_arrays(graph.pseudo, kernel_size)
    x_src = features[src]
    msgs = np.zeros((len(graph.arcs), out_dim))
    for c in range(4):
        for b in np.unique(idx[c]):
            rows = np.nonzero(idx[c] == b)[0]
            msgs[rows] += wgt[c, rows, None] * (x_src[rows] @ weight[b])
    agg, argmax_arc = splineconv._max_aggregate(msgs, dst, counts)
    pre = agg + bias
    out = np.maximum(pre, 0.0) if apply_relu else pre
    return out, (features, graph, weight, idx, wgt, argmax_arc, pre if apply_relu else None)


def loop_spline_conv_backward(cache, g_out):
    """Backward of :func:`loop_spline_conv_forward`: (g_features, g_weight, g_bias).

    One GEMM pair and one ``np.add.at`` scatter per (basis corner, knot)
    group. Oracle for ``splineconv.spline_conv_backward``.
    """
    features, graph, weight, idx, wgt, argmax_arc, relu_pre = cache
    if relu_pre is not None:
        g_out = g_out * (relu_pre > 0.0)
    g_bias = g_out.sum(axis=0)
    g_msgs = splineconv._scatter_to_argmax(argmax_arc, g_out, len(graph.arcs))
    src = graph.arcs[:, 0]
    x_src = features[src]
    g_weight = np.zeros_like(weight)
    g_features = np.zeros_like(features)
    for c in range(4):
        for b in np.unique(idx[c]):
            rows = np.nonzero(idx[c] == b)[0]
            w_rows = wgt[c, rows, None]
            g_weight[b] += (x_src[rows] * w_rows).T @ g_msgs[rows]
            np.add.at(g_features, src[rows], w_rows * (g_msgs[rows] @ weight[b].T))
    return g_features, g_weight, g_bias


def _lengths(seq):
    b, n = seq.tokens.shape[:2]
    return [n] * b if seq.pad is None else list((~seq.pad).sum(axis=1))


def loop_decode(f1, f2, store, layers: int, heads: int):
    """``decoder.decode`` run once per pair on its unpadded rows.

    Oracle for ``decode`` on padded (B, n, d) batches. Returns (o1, o2,
    snapshots, per-pair caches): o1/o2 and the snapshots are padded back
    with zero rows, like the batched outputs.
    """
    o1 = decoder.FeatureSequence(np.zeros_like(f1.tokens), np.zeros_like(f1.global_token))
    o2 = decoder.FeatureSequence(np.zeros_like(f2.tokens), np.zeros_like(f2.global_token))
    snapshots = [(np.zeros_like(f1.tokens), np.zeros_like(f2.tokens)) for _ in range(layers)]
    caches = []
    for i, (m1, m2) in enumerate(zip(_lengths(f1), _lengths(f2))):
        p1, p2, snaps, c = decoder.decode(
            decoder.FeatureSequence(f1.tokens[i, :m1], f1.global_token[i]),
            decoder.FeatureSequence(f2.tokens[i, :m2], f2.global_token[i]),
            store, layers, heads,
        )
        for out, part in ((o1, p1), (o2, p2)):
            out.tokens[i, :len(part.tokens)] = part.tokens
            out.global_token[i] = part.global_token
        for (s1, s2), (q1, q2) in zip(snapshots, snaps):
            s1[i, :m1], s2[i, :m2] = q1, q2
        caches.append((m1, m2, c))
    return o1, o2, snapshots, caches


def loop_decode_backward(caches, store, g_t1, g_g1, g_t2, g_g2, snapshot_grads):
    """``decoder.decode_backward`` once per pair of :func:`loop_decode`.

    Parameter gradients accumulate in the store over the pairs; the input
    gradients come back padded with zero rows.
    """
    outs = [np.zeros_like(g_t1), np.zeros_like(g_g1), np.zeros_like(g_t2), np.zeros_like(g_g2)]
    for i, (m1, m2, c) in enumerate(caches):
        grads = decoder.decode_backward(
            c, store, g_t1[i, :m1], g_g1[i], g_t2[i, :m2], g_g2[i],
            [(s1[i, :m1], s2[i, :m2]) for s1, s2 in snapshot_grads],
        )
        for out, rows, g in zip(outs, (slice(m1), (), slice(m2), ()), grads):
            out[i][rows] = g
    return tuple(outs)

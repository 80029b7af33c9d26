"""Scalar reference implementations that the vectorized code is tested against.

None of these run in the library; each one is the plain, loop-by-loop form
of a computation whose array form lives in ``src/normmatch``.
"""

import itertools

import numpy as np

from normmatch import decoder, losses, splineconv
from normmatch.data import _MARGIN, _MIN_SEP, IMAGE_SIZE
from normmatch.ops import (
    EPS_GUARD,
    logsumexp,
    normalize_rows,
    normalize_rows_backward,
    silu,
    silu_backward,
    softmax_rows,
    softmax_rows_backward,
)


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


def adam_update(value, g, m, v, t: int, lr: float, batch_size: int,
                beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update of one parameter from a gradient summed
    over batch_size pairs, in place, written as whole-array passes: average,
    update, snap the value to float32, zero the gradient. Oracle for
    ``train.Adam.step``, which must equal it exactly."""
    g[...] = g / batch_size
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    update = lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    value[...] = (value - update).astype(np.float32)
    g[...] = 0.0


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
    """Per-node max over incoming messages and its argmax arcs. Oracle for
    ``splineconv._max_aggregate`` and ``splineconv._argmax_arcs``.

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

    Oracle for the argmax scatter in ``splineconv.spline_conv_backward``.
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
    agg, argmax_arc = loop_max_aggregate(msgs, dst, counts)
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
    g_msgs = loop_scatter_to_argmax(argmax_arc, g_out, len(graph.arcs))
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
    """``decoder.decode`` run once per pair, on its real rows, unpadded.

    Oracle for ``decode`` on padded (B, n, d) batches, whose streams share one
    mask. Returns (o1, o2, snapshots, per-pair caches): o1/o2 and the
    snapshots are padded back with zero rows, like the batched outputs.
    """
    o1 = decoder.FeatureSequence(np.zeros_like(f1.tokens), np.zeros_like(f1.global_token))
    o2 = decoder.FeatureSequence(np.zeros_like(f2.tokens), np.zeros_like(f2.global_token))
    snapshots = [(np.zeros_like(f1.tokens), np.zeros_like(f2.tokens)) for _ in range(layers)]
    caches = []
    for i, n in enumerate(_lengths(f1)):
        p1, p2, snaps, c = decoder.decode(
            *(decoder.FeatureSequence(f.tokens[i, :n], f.global_token[i]) for f in (f1, f2)),
            store, layers, heads,
        )
        for out, part in ((o1, p1), (o2, p2)):
            out.tokens[i, :n] = part.tokens
            out.global_token[i] = part.global_token
        for (s1, s2), (q1, q2) in zip(snapshots, snaps):
            s1[i, :n], s2[i, :n] = q1, q2
        caches.append((n, c))
    return o1, o2, snapshots, caches


def loop_decode_backward(caches, store, g_t1, g_g1, g_t2, g_g2, snapshot_grads):
    """``decoder.decode_backward`` once per pair of :func:`loop_decode`.

    Parameter gradients accumulate in the store over the pairs; the input
    gradients come back padded with zero rows.
    """
    outs = [np.zeros_like(g_t1), np.zeros_like(g_g1), np.zeros_like(g_t2), np.zeros_like(g_g2)]
    for i, (n, c) in enumerate(caches):
        grads = decoder.decode_backward(
            c, store, g_t1[i, :n], g_g1[i], g_t2[i, :n], g_g2[i],
            [(s1[i, :n], s2[i, :n]) for s1, s2 in snapshot_grads],
        )
        for out, rows, g in zip(outs, (slice(n), (), slice(n), ()), grads):
            out[i][rows] = g
    return tuple(outs)


def _pd_rows(x):
    return x.reshape(-1, x.shape[-1])


def _pd_split_heads(rows, shape, heads: int):
    return rows.reshape(*shape[:-1], heads, shape[-1] // heads).swapaxes(-3, -2)


def _pd_merge_heads(x):
    return x.swapaxes(-3, -2).reshape(-1, x.shape[-3] * x.shape[-1])


def _pd_with_global(tokens, glob):
    return np.concatenate([tokens, glob[..., None, :]], axis=-2)


def _pd_residual(base, raw, alpha_raw):
    f_a, nc1 = normalize_rows(raw)
    out, nc2 = normalize_rows(base + np.abs(alpha_raw) * (f_a - base))
    return out, (alpha_raw, nc1, nc2)


def _pd_residual_backward(cache, g_out, base):
    alpha_raw, nc1, nc2 = cache
    alpha = np.abs(alpha_raw)
    g_z = normalize_rows_backward(nc2, g_out)
    g_alpha_raw = np.sign(alpha_raw) * _pd_rows(g_z * (nc1[0] - base)).sum(axis=0)
    g_raw = normalize_rows_backward(nc1, g_z * alpha)
    return g_z * (1.0 - alpha), g_raw, g_alpha_raw


_PD_WEIGHTS = ("wq", "wk", "wv", "wo")
_PD_ALPHA = {"sa": "alpha_a", "ca": "alpha_c"}


def _pd_attn(tokens, other, store, prefix, block, heads, q_pad, key_pad):
    wq, wk, wv, wo = (store.value(f"{prefix}{block}.{w}") for w in _PD_WEIGHTS)
    kv = _pd_with_global(tokens, other) if block == "sa" else other
    q, k, v = (_pd_split_heads(_pd_rows(x) @ w, x.shape, heads)
               for x, w in ((tokens, wq), (kv, wk), (kv, wv)))
    scores = q @ k.swapaxes(-1, -2) * (1.0 / np.sqrt(q.shape[-1]))
    if key_pad is not None:
        scores = np.where(key_pad[..., None, None, :], -np.inf, scores)
    p, _ = softmax_rows(scores)
    raw = (_pd_merge_heads(p @ v) @ wo).reshape(tokens.shape)
    if q_pad is not None:
        raw[..., q_pad, :] = 0.0
    out, rc = _pd_residual(tokens, raw, store.value(prefix + _PD_ALPHA[block]))
    return out, (q, k, v, p, rc, tokens, other, prefix, block)


def _pd_attn_backward(cache, g_out, store):
    q, k, v, p, rc, tokens, other, prefix, block = cache
    wq, wk, wv, wo = (store.value(f"{prefix}{block}.{w}") for w in _PD_WEIGHTS)
    kv = _pd_with_global(tokens, other) if block == "sa" else other
    scale = 1.0 / np.sqrt(q.shape[-1])
    g_base, g_raw, g_alpha = _pd_residual_backward(rc, g_out, tokens)
    g_raw = _pd_rows(g_raw)
    g_ctx = _pd_split_heads(g_raw @ wo.T, tokens.shape, q.shape[-3])
    g_scores = softmax_rows_backward(p, g_ctx @ v.swapaxes(-1, -2))
    g_q = _pd_merge_heads((g_scores @ k) * scale)
    g_k = _pd_merge_heads((g_scores.swapaxes(-1, -2) @ q) * scale)
    g_v = _pd_merge_heads(p.swapaxes(-1, -2) @ g_ctx)
    g_weights = (_pd_rows(tokens).T @ g_q, _pd_rows(kv).T @ g_k, _pd_rows(kv).T @ g_v,
                 _pd_merge_heads(p @ v).T @ g_raw)
    store.add_grad(prefix + _PD_ALPHA[block], g_alpha)
    for w, g in zip(_PD_WEIGHTS, g_weights):
        store.add_grad(f"{prefix}{block}.{w}", g)
    g_tokens = g_base + (g_q @ wq.T).reshape(tokens.shape)
    return g_tokens, (g_k @ wk.T + g_v @ wv.T).reshape(kv.shape)


def _pd_mlp(tokens, glob, pad, store, prefix):
    x = _pd_with_global(tokens, glob)
    w1, b1, w2, b2 = (store.value(f"{prefix}mlp.{w}") for w in ("w1", "b1", "w2", "b2"))
    h = _pd_rows(x) @ w1 + b1
    raw = (silu(h)[0] @ w2 + b2).reshape(x.shape)
    if pad is not None:
        raw[..., :-1, :][..., pad, :] = 0.0
    out, rc = _pd_residual(x, raw, store.value(prefix + "alpha_m"))
    return out[..., :-1, :], out[..., -1, :], (tokens, glob, h, rc, prefix)


def _pd_mlp_backward(cache, g_tokens, g_global, store):
    tokens, glob, h, rc, prefix = cache
    x = _pd_with_global(tokens, glob)
    g_base, g_raw, g_alpha = _pd_residual_backward(rc, _pd_with_global(g_tokens, g_global), x)
    g_raw = _pd_rows(g_raw)
    w1, w2 = store.value(prefix + "mlp.w1"), store.value(prefix + "mlp.w2")
    a, sc = silu(h)
    g_h = silu_backward(sc, g_raw @ w2.T)
    store.add_grad(prefix + "alpha_m", g_alpha)
    store.add_grad(prefix + "mlp.w2", a.T @ g_raw)
    store.add_grad(prefix + "mlp.b2", g_raw.sum(axis=0))
    store.add_grad(prefix + "mlp.w1", _pd_rows(x).T @ g_h)
    store.add_grad(prefix + "mlp.b1", g_h.sum(axis=0))
    g_x = (g_h @ w1.T).reshape(x.shape) + g_base
    return g_x[..., :-1, :], g_x[..., -1, :]


def padded_decode(f1, f2, store, layers: int, heads: int):
    """The decoder run on zero-padded (2, B, n, d) streams. Oracle for ``decoder.decode``,
    which must equal it bit for bit.

    Both streams share the (B, n) mask ``f1.pad``. Every row of the grid goes
    through the projections, the residuals and the MLP, padding included:
    padded keys get -inf scores, and padded rows have their block outputs
    zeroed so they stay zero. Returns what ``decode`` does, with caches for
    :func:`padded_decode_backward`.
    """
    pad = f1.pad
    key_pad = None if pad is None else np.pad(pad, [(0, 0), (0, 1)])
    t, g = np.array([f1.tokens, f2.tokens]), np.array([f1.global_token, f2.global_token])
    snapshots, caches = [], []
    for layer in range(layers):
        p = f"dec{layer}."
        t, c_sa = _pd_attn(t, g, store, p, "sa", heads, pad, key_pad)
        t1, c_ca1 = _pd_attn(t[0], t[1], store, p, "ca", heads, pad, pad)
        t2, c_ca2 = _pd_attn(t[1], t1, store, p, "ca", heads, pad, pad)
        t = np.array([t1, t2])
        h, nc = normalize_rows(t * g[..., None, :])
        c_mod, t = (t, g, nc), h
        t, g, c_mlp = _pd_mlp(t, g, pad, store, p)
        snapshots.append(t)
        caches.append((c_sa, c_ca1, c_ca2, c_mod, c_mlp))
    return (decoder.FeatureSequence(t[0], g[0], pad),
            decoder.FeatureSequence(t[1], g[1], pad), snapshots, caches)


def padded_decode_backward(caches, store, g_f1_tokens, g_f1_global, g_f2_tokens,
                           g_f2_global, snapshot_grads):
    """Backward of :func:`padded_decode`; oracle for ``decoder.decode_backward``."""
    g_t, g_g = np.array([g_f1_tokens, g_f2_tokens]), np.array([g_f1_global, g_f2_global])
    for layer in reversed(range(len(caches))):
        c_sa, c_ca1, c_ca2, (tokens, glob, nc), c_mlp = caches[layer]
        g_t, g_g = _pd_mlp_backward(c_mlp, g_t + snapshot_grads[layer], g_g, store)
        g_h = normalize_rows_backward(nc, g_t)
        g_t, g_g = g_h * glob[..., None, :], g_g + np.sum(g_h * tokens, axis=-2)
        g_t2, g_t1_keys = _pd_attn_backward(c_ca2, g_t[1], store)
        g_t1, g_t2_keys = _pd_attn_backward(c_ca1, g_t[0] + g_t1_keys, store)
        g_t, g_kv = _pd_attn_backward(c_sa, np.array([g_t1, g_t2 + g_t2_keys]), store)
        g_t, g_g = g_t + g_kv[..., :-1, :], g_g + g_kv[..., -1, :]
    return g_t[0], g_g[0], g_t[1], g_g[1]


def _loop_nce_direction(S, positives, mode: str):
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


def loop_info_nce(f1, f2, truth, tau_raw: float, mode: str):
    """(loss, (g_f1, g_f2, g_tau_raw)) of one pair's (m, d) rows, each
    direction on its own matrix. Oracle for ``losses.info_nce``."""
    m = f1.shape[0]
    if m < 2:
        raise ValueError("InfoNCE needs at least 2 keypoints (no negatives otherwise)")
    tau = float(np.exp(tau_raw))
    C = f1 @ f2.T
    S = C / tau
    loss12, dS12 = _loop_nce_direction(S, truth, mode)
    loss21, dS21 = _loop_nce_direction(S.T, np.argsort(truth), mode)
    scale = 1.0 / (2 * m)
    dS = (dS12 + dS21.T) * scale
    dC = dS / tau
    return (loss12 + loss21) * scale, (dC @ f2, dC.T @ f1, float(-np.sum(dS * C) / tau))


def loop_hyperspherical(f, g_loss: float = 1.0):
    """(loss, g_f) of one image's (m, d) rows, the gradient scattered row by
    row with ``np.add.at``. Oracle for ``losses.hyperspherical``."""
    m = f.shape[0]
    g_f = np.zeros_like(f)
    if m < 2:
        return 0.0, g_f
    G = f @ f.T
    G.flat[:: m + 1] = -np.inf  # the diagonal
    arg = G.argmax(axis=1)
    np.add.at(g_f, np.arange(m), f[arg] * g_loss)
    np.add.at(g_f, arg, f[np.arange(m)] * g_loss)
    return float(G.max(axis=1).sum()), g_f


def layer_hyperspherical_backward(cache):
    """Gradients of the snapshots, (L, 2, ..., n, d), for the cache of
    ``losses.layer_hyperspherical`` alone. ``losses.total_loss_backward``
    runs the same ``hyperspherical_backward`` with the final term's weight
    added to the last layer's."""
    hs_cache, weights, _ = cache
    return losses.hyperspherical_backward(hs_cache, weights[:, None])


def loop_total_loss(f1, f2, snapshots, truth, tau_raw: float, p: float, mode: str, pad=None):
    """``losses.total_loss`` and its backward, one pair at a time on its real rows.

    f1, f2 are (B, n, d), snapshots (L, 2, B, n, d), truth and pad (B, n).
    Each pair runs InfoNCE, the final term on its tokens and every layer's
    term as separate per-image calls, summed in plain Python. Returns
    (reports, g_tokens (2, B, n, d), g_snapshots (L, 2, B, n, d), g_tau_raw)
    with zero gradient on padding rows. The final term's gradient is given
    in the last snapshot's, where ``total_loss_backward`` puts it.
    """
    snapshots = np.asarray(snapshots, dtype=np.float64)
    g_tokens, g_snapshots = np.zeros((2,) + f1.shape), np.zeros_like(snapshots)
    reports, g_tau = [], 0.0
    for i in range(len(f1)):
        m = f1.shape[1] if pad is None else int(np.count_nonzero(~pad[i]))
        nce, (g1, g2, g_t) = loop_info_nce(f1[i, :m], f2[i, :m], truth[i, :m], tau_raw, mode)
        g_tokens[0, i, :m], g_tokens[1, i, :m] = g1, g2
        g_tau += g_t
        (h1, g1), (h2, g2) = (loop_hyperspherical(t[i, :m], 0.5) for t in (f1, f2))
        final = 0.5 * (h1 + h2)
        g_snapshots[-1, 0, i, :m] += g1
        g_snapshots[-1, 1, i, :m] += g2
        layers = 0.0
        for k, snap in enumerate(snapshots, start=1):
            h1, g1 = loop_hyperspherical(snap[0, i, :m], k * p * 0.5)
            h2, g2 = loop_hyperspherical(snap[1, i, :m], k * p * 0.5)
            layers += k * p * 0.5 * (h1 + h2)
            g_snapshots[k - 1, 0, i, :m] += g1
            g_snapshots[k - 1, 1, i, :m] += g2
        reports.append(losses.LossReport(nce, final, layers))
    return reports, g_tokens, g_snapshots, g_tau


def loop_sample_keypoints(rng, m: int):
    """(points, attempts) of the min-separation loop ``data._sample_keypoints``
    replaced: one ``np.linalg.norm`` per accepted point and candidate;
    attempts counts the candidates drawn."""
    lo, hi = _MARGIN, IMAGE_SIZE - _MARGIN
    pts: list[np.ndarray] = []
    attempts = 0
    while len(pts) < m:
        cand = rng.uniform(lo, hi, size=2)
        attempts += 1
        if all(np.linalg.norm(cand - p) >= _MIN_SEP for p in pts):
            pts.append(cand)
        elif attempts > 200 * m:
            pts.append(cand)  # crowded; accept rather than loop forever
    return np.asarray(pts), attempts


def _orient(a, b, c) -> float:
    """Twice the signed area of triangle (a, b, c); positive when counter-clockwise."""
    return float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _complete_edges(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def _is_degenerate(points: np.ndarray) -> bool:
    m = len(points)
    if m < 3:
        return True
    if len({tuple(p) for p in points}) < m:  # exact duplicates
        return True
    a, b = points[0], points[1]
    return all(abs(_orient(a, b, c)) <= 1e-12 for c in points[2:])  # all collinear


def _tie_blocks(points, a: int, b: int, c: int, o: int) -> bool:
    # c's contribution, -orient(a, b, o), is never the first nonzero one:
    # zero contributions of a and b put a, b, c and o on one line
    contrib = {
        a: -_orient(points[b], points[c], points[o]),
        b: _orient(points[a], points[c], points[o]),
        o: _orient(points[a], points[b], points[c]),
    }
    for idx in sorted(contrib):
        if contrib[idx] != 0.0:
            return contrib[idx] > 0.0
    return False


def _connected(m: int, edges: set[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(m)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m


def triple_test_delaunay(points) -> list[tuple[int, int]]:
    """Delaunay edges from counter-clockwise copies of the triples, a
    member mask and a per-point degeneracy loop. Oracle for
    ``geometry.delaunay``/``geometry.build_graph``, which must give the
    same edges bit for bit, fallbacks and co-circular ties included.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an m x 2 array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    m = len(points)
    if _is_degenerate(points):
        return _complete_edges(m)

    trips = np.asarray(list(itertools.combinations(range(m), 3)), dtype=np.intp)
    av, bv, cv = (points[trips[:, i]] for i in range(3))
    orient = (bv[:, 0] - av[:, 0]) * (cv[:, 1] - av[:, 1]) - (
        bv[:, 1] - av[:, 1]
    ) * (cv[:, 0] - av[:, 0])
    ccw = trips.copy()
    flip = orient < 0.0
    ccw[flip, 1], ccw[flip, 2] = trips[flip, 2], trips[flip, 1]
    ccw = ccw[orient != 0.0]

    rel_a, rel_b, rel_c = (points[ccw[:, i], None, :] - points[None, :, :] for i in range(3))
    na, nb, nc = ((r * r).sum(axis=-1) for r in (rel_a, rel_b, rel_c))
    det = (
        rel_a[..., 0] * (rel_b[..., 1] * nc - nb * rel_c[..., 1])
        - rel_a[..., 1] * (rel_b[..., 0] * nc - nb * rel_c[..., 0])
        + na * (rel_b[..., 0] * rel_c[..., 1] - rel_b[..., 1] * rel_c[..., 0])
    )
    member = np.zeros((len(ccw), m), dtype=bool)
    member[np.arange(len(ccw))[:, None], ccw] = True
    blocked = ((det > 0.0) & ~member).any(axis=1)

    tie_rows, tie_cols = np.nonzero((det == 0.0) & ~member & ~blocked[:, None])
    for r, o in zip(tie_rows.tolist(), tie_cols.tolist()):
        if not blocked[r] and _tie_blocks(
            points, int(ccw[r, 0]), int(ccw[r, 1]), int(ccw[r, 2]), o
        ):
            blocked[r] = True

    edges = {(min(u, v), max(u, v)) for triangle in ccw[~blocked].tolist()
             for u, v in itertools.combinations(triangle, 2)}
    if not edges or not _connected(m, edges):
        return _complete_edges(m)
    return sorted(edges)


def triple_test_build_graph(points):
    """(edges, arcs, pseudo): the :func:`triple_test_delaunay` edges and the
    arcs and pseudo-coordinates ``geometry.build_graph`` makes of them, with
    the pseudo-coordinates rescaled through ``np.ptp``."""
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    edge_list = triple_test_delaunay(points)
    edges = np.asarray(edge_list, dtype=np.intp).reshape(-1, 2)
    arcs = np.stack([edges, edges[:, ::-1]], axis=1).reshape(-1, 2)
    pseudo = np.zeros((0, 2))
    if len(arcs):
        offsets = points[arcs[:, 1]] - points[arcs[:, 0]]
        lo, span = offsets.min(axis=0), np.ptp(offsets, axis=0)
        flat = span <= 1e-12
        pseudo = np.where(flat, 0.5, (offsets - lo) / np.where(flat, 1.0, span))
    loops = np.repeat(np.arange(m), 2).reshape(-1, 2)
    return edge_list, np.concatenate([arcs, loops]), np.vstack([pseudo, np.full((m, 2), 0.5)])

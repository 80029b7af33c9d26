"""Two-stream transformer decoder on the unit hypersphere.

Every sub-block (self-attention, cross-attention, global-token modulation,
MLP) re-projects token representations to unit norm and blends them with the
block input through learned element-wise step vectors used via absolute
value:

    f_A = Norm(Block(f));  f <- Norm(f + |alpha| * (f_A - f))

Per decoder layer, in order: self-attention on each stream (the global token
joins the keys/values as an extra element but is itself left unchanged),
cross-attention stream 1 <- 2 and then stream 2 <- 1 against the
just-updated stream 1, global-token modulation of each stream, and a shared
MLP over tokens plus global. Both streams use one set of layer parameters:
`decode` stacks them and runs all but cross-attention once per layer on
both. It packs a padded minibatch's rows once: the two images of a pair
have one keypoint count, so both streams share one (B, n) padding mask; the
projections, residuals, global modulation and MLP run on the pair's real
rows, and only the attention core scatters them into per-pair grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (
    normalize_rows,
    normalize_rows_backward,
    silu,
    silu_backward,
    softmax_rows,
    softmax_rows_backward,
)

__all__ = [
    "FeatureSequence",
    "init_decoder_params",
    "norm_self_attn",
    "norm_cross_attn",
    "modulate_global",
    "norm_mlp",
    "decode",
    "decode_backward",
]


@dataclass
class FeatureSequence:
    """Decoder state: unit-norm tokens plus one global token per image.

    tokens is (m, d_model) for one image or (B, n, d_model) for B images;
    pad, a (B, n) mask that both streams of a decode share, is True on zero
    padding rows, which attention ignores, or None. decode runs its row-wise
    steps on the pair's real rows only and returns outputs padded.
    """

    tokens: np.ndarray  # (..., n, d_model)
    global_token: np.ndarray  # (..., d_model)
    pad: np.ndarray | None = None


def init_decoder_params(store, rng, d_model: int, layers: int, mlp_mult: int) -> None:
    """Register per-layer decoder parameters (shared by both streams)."""
    hidden = mlp_mult * d_model
    alpha0 = 1.0 / layers
    for layer in range(layers):
        p = f"dec{layer}."
        for block in ("sa", "ca"):
            for w in ("wq", "wk", "wv", "wo"):
                store.register(p + f"{block}.{w}",
                               rng.standard_normal((d_model, d_model)) / np.sqrt(d_model))
        store.register(p + "mlp.w1", rng.standard_normal((d_model, hidden)) / np.sqrt(d_model))
        store.register(p + "mlp.b1", np.zeros(hidden))
        store.register(p + "mlp.w2", rng.standard_normal((hidden, d_model)) / np.sqrt(hidden))
        store.register(p + "mlp.b2", np.zeros(d_model))
        store.register(p + "alpha_a", np.full(d_model, alpha0))
        store.register(p + "alpha_c", np.full(d_model, alpha0))
        store.register(p + "alpha_m", np.full(d_model, alpha0))


class _Layout:
    """How decode packs rows: per pair, its real rows, then its global row.

    keep (slots, grid shape) places them in the (B, n + 1) grid with the
    global at slot n, keep_tok the token rows in the (B, n) grid; both are
    None when the rows are the grid. tok, glob and gi index the token rows,
    global rows and each token row's global; order interleaves [tokens,
    globals]. pad marks the grid's padding slots, or is None.
    """

    def __init__(self, pad):
        self.keep = self.keep_tok = self.order = self.pad = None
        self.tok, self.glob, self.gi = np.s_[:-1], -1, np.s_[-1:]
        if pad is not None and pad.any():
            self.pad = np.pad(pad, [(0, 0), (0, 1)])  # a global slot is never padding
            keep = ~self.pad
            (b, w), slots = keep.shape, np.flatnonzero(keep)
            self.keep, self.keep_tok = (slots, (b, w)), (np.flatnonzero(keep[:, :-1]), (b, w - 1))
            is_glob = slots % w == w - 1
            self.tok, self.glob = np.flatnonzero(~is_glob), np.flatnonzero(is_glob)
            self.gi = self.glob[self.keep_tok[0] // (w - 1)]
            self.order = np.argsort(np.concatenate([self.tok, self.glob]))


def _rows(x):
    """(..., n, d) -> (rows, d): each weight is one GEMM over every image's rows."""
    return x.reshape(-1, x.shape[-1])


def _grid(rows, keep):
    """Packed rows (..., R, d) -> their per-pair grid (..., B, w, d), zero off keep."""
    if keep is None:
        return rows
    (slots, shape), lead = keep, rows.shape[:-2]
    grid = np.zeros(lead + (shape[0] * shape[1], rows.shape[-1]))
    grid[..., slots, :] = rows
    return grid.reshape(lead + shape + rows.shape[-1:])


def _packed(grid, keep):
    """The rows on keep of a grid (..., B, w, d), the inverse of _grid."""
    if keep is None:
        return grid
    return np.take(grid.reshape(grid.shape[:-3] + (-1, grid.shape[-1])), keep[0], axis=-2)


def _split_heads(rows, x, heads: int, keep=None):
    """GEMM rows of x (..., R, d) -> (..., heads, n, d // heads), over x's rows
    or, with keep, scattered into the per-pair grid."""
    if keep is not None:
        x = rows = _grid(rows.reshape(x.shape), keep)
    return rows.reshape(*x.shape[:-1], heads, x.shape[-1] // heads).swapaxes(-3, -2)


def _merge_heads(x, keep=None):
    """(..., heads, n, dh) -> (rows, heads * dh), the inverse of _split_heads."""
    d = x.shape[-3] * x.shape[-1]
    x = x.swapaxes(-3, -2)
    return (x if keep is None else _packed(x.reshape(*x.shape[:-2], d), keep)).reshape(-1, d)


def _with_global(tokens, glob, order=None):
    """Tokens followed by the global token: (..., n + 1, d), or packed rows in order."""
    if order is None:
        return np.concatenate([tokens, glob[..., None, :]], axis=-2)
    return np.take(np.concatenate([tokens, glob], axis=-2), order, axis=-2)


def _norm_residual_forward(base, raw, alpha_raw):
    """out = Norm(base + |alpha| * (Norm(raw) - base)). Returns (out, cache)."""
    f_a, nc1 = normalize_rows(raw)
    out, nc2 = normalize_rows(base + np.abs(alpha_raw) * (f_a - base))
    return out, (alpha_raw, nc1, nc2)


def _norm_residual_backward(cache, g_out, base):
    """Returns (g_base, g_raw, g_alpha_raw); base is the forward's."""
    alpha_raw, nc1, nc2 = cache
    alpha = np.abs(alpha_raw)
    g_z = normalize_rows_backward(nc2, g_out)
    g_alpha_raw = np.sign(alpha_raw) * _rows(g_z * (nc1[0] - base)).sum(axis=0)
    g_raw = normalize_rows_backward(nc1, g_z * alpha)
    g_base = g_z * (1.0 - alpha)
    return g_base, g_raw, g_alpha_raw


_ATTN_WEIGHTS = ("wq", "wk", "wv", "wo")
_ALPHA = {"sa": "alpha_a", "ca": "alpha_c"}


def _norm_attn(tokens, kv, store, prefix: str, block: str, heads: int, masks=(None,) * 3):
    """Norm(tokens + |alpha| * (Norm(MHA(tokens, kv)) - tokens)). Returns (out, cache).

    masks is (q_keep, kv_keep, key_pad). The keep masks scatter the projected
    rows into per-pair grids for the scores, or are None when the rows are
    the grid. Keys on key_pad (a grid mask, or None) get probability 0.
    """
    q_keep, kv_keep, key_pad = masks
    wq, wk, wv, wo = (store.value(f"{prefix}{block}.{w}") for w in _ATTN_WEIGHTS)
    q, k, v = (_split_heads(_rows(x) @ w, x, heads, keep)
               for x, w, keep in ((tokens, wq, q_keep), (kv, wk, kv_keep), (kv, wv, kv_keep)))
    scores = q @ k.swapaxes(-1, -2) * (1.0 / np.sqrt(q.shape[-1]))  # (..., heads, nq, nk)
    if key_pad is not None:
        scores = np.where(key_pad[..., None, None, :], -np.inf, scores)
    p, _ = softmax_rows(scores)
    ctx = _merge_heads(p @ v, q_keep)
    raw = (ctx @ wo).reshape(tokens.shape)
    out, rc = _norm_residual_forward(tokens, raw, store.value(prefix + _ALPHA[block]))
    return out, (q, k, v, p, ctx, rc, tokens, kv, prefix, block, q_keep, kv_keep)


def _norm_attn_backward(cache, g_out, store):
    """Returns (g_tokens, g_kv) and accumulates parameter grads."""
    q, k, v, p, ctx, rc, tokens, kv, prefix, block, q_keep, kv_keep = cache
    wq, wk, wv, wo = (store.value(f"{prefix}{block}.{w}") for w in _ATTN_WEIGHTS)
    scale = 1.0 / np.sqrt(q.shape[-1])
    g_base, g_raw, g_alpha = _norm_residual_backward(rc, g_out, tokens)
    g_raw = _rows(g_raw)
    g_ctx = _split_heads(g_raw @ wo.T, tokens, q.shape[-3], q_keep)
    g_scores = softmax_rows_backward(p, g_ctx @ v.swapaxes(-1, -2))
    g_q = _merge_heads((g_scores @ k) * scale, q_keep)
    g_k = _merge_heads((g_scores.swapaxes(-1, -2) @ q) * scale, kv_keep)
    g_v = _merge_heads(p.swapaxes(-1, -2) @ g_ctx, kv_keep)
    g_weights = (_rows(tokens).T @ g_q, _rows(kv).T @ g_k, _rows(kv).T @ g_v, ctx.T @ g_raw)
    store.add_grad(prefix + _ALPHA[block], g_alpha)
    for w, g in zip(_ATTN_WEIGHTS, g_weights):
        store.add_grad(f"{prefix}{block}.{w}", g)
    g_tokens = g_base + (g_q @ wq.T).reshape(tokens.shape)
    return g_tokens, (g_k @ wk.T + g_v @ wv.T).reshape(kv.shape)


def _unpadded(*seqs):
    if any(seq.pad is not None for seq in seqs):
        raise ValueError("a single decoder block takes unpadded sequences; decode takes padded")


def norm_self_attn(seq: FeatureSequence, store, prefix: str, heads: int):
    """Normalized self-attention over one stream.

    The global token is appended to the keys/values so every keypoint can
    read whole-image context, but only the m keypoint tokens are updated;
    the global token passes through unchanged.
    """
    _unpadded(seq)
    out, cache = _norm_attn(seq.tokens, _with_global(seq.tokens, seq.global_token), store, prefix,
                            "sa", heads)
    return FeatureSequence(out, seq.global_token), cache


def norm_cross_attn(seq: FeatureSequence, other: FeatureSequence, store,
                    prefix: str, heads: int):
    """Normalized cross-attention: seq tokens query the other stream's tokens."""
    _unpadded(seq, other)
    out, cache = _norm_attn(seq.tokens, other.tokens, store, prefix, "ca", heads)
    return FeatureSequence(out, seq.global_token), cache


def modulate_global(seq: FeatureSequence):
    """Replace each token by Norm(token * global), element-wise product."""
    out, nc = normalize_rows(seq.tokens * seq.global_token[..., None, :])
    return FeatureSequence(out, seq.global_token, seq.pad), (seq.tokens, seq.global_token, nc)


def _norm_mlp(x, store, prefix: str):
    """The MLP block on rows x of tokens and globals."""
    w1, b1, w2, b2 = (store.value(f"{prefix}mlp.{w}") for w in ("w1", "b1", "w2", "b2"))
    h = _rows(x) @ w1 + b1
    a, sc = silu(h)
    raw = (a @ w2 + b2).reshape(x.shape)
    out, rc = _norm_residual_forward(x, raw, store.value(prefix + "alpha_m"))
    return out, (x, a, sc, rc, prefix)


def _norm_mlp_backward(cache, g_out, store):
    """Returns g_x and accumulates parameter grads."""
    x, a, sc, rc, prefix = cache
    g_base, g_raw, g_alpha = _norm_residual_backward(rc, g_out, x)
    g_raw = _rows(g_raw)
    w1, w2 = store.value(prefix + "mlp.w1"), store.value(prefix + "mlp.w2")
    g_h = silu_backward(sc, g_raw @ w2.T)
    store.add_grad(prefix + "alpha_m", g_alpha)
    store.add_grad(prefix + "mlp.w2", a.T @ g_raw)
    store.add_grad(prefix + "mlp.b2", g_raw.sum(axis=0))
    store.add_grad(prefix + "mlp.w1", _rows(x).T @ g_h)
    store.add_grad(prefix + "mlp.b1", g_h.sum(axis=0))
    return (g_h @ w1.T).reshape(x.shape) + g_base


def norm_mlp(seq: FeatureSequence, store, prefix: str):
    """Normalized MLP block over the m tokens and the global token."""
    _unpadded(seq)
    out, cache = _norm_mlp(_with_global(seq.tokens, seq.global_token), store, prefix)
    return FeatureSequence(out[..., :-1, :], out[..., -1, :]), cache


def decode(f1: FeatureSequence, f2: FeatureSequence, store, layers: int, heads: int,
           keep_caches: bool = True):
    """Run the full decoder stack on two streams of one token shape.

    Both share one padding mask, (B, n) with (B, n, d) tokens: a pair's
    images have one keypoint count. Returns (f1, f2, snapshots, caches) where
    snapshots[k] holds the post-layer tokens of both streams after layer k,
    stacked as (2, ..., n, d), for the layer-wise uniformity loss. Padding
    rows are dropped on entry (see _Layout) and come back as zero rows.
    Without keep_caches (no backward follows), caches is None.
    """
    pad = f1.pad
    if (f1.tokens.shape != f2.tokens.shape or f2.pad is not pad and not np.array_equal(f2.pad, pad)
            or pad is not None and (pad.ndim != 2 or pad.shape != f1.tokens.shape[:-1])):
        raise ValueError("both decoder streams need one token shape and one (B, n) padding mask")
    lay = _Layout(pad)
    x = _packed(_with_global(np.array([f1.tokens, f2.tokens]),
                             np.array([f1.global_token, f2.global_token])), lay.keep)
    sa, ca = (lay.keep_tok, lay.keep, lay.pad), (lay.keep_tok, lay.keep_tok, pad)
    snapshots, caches = [], []
    for layer in range(layers):
        p = f"dec{layer}."
        t, c_sa = _norm_attn(x[..., lay.tok, :], x, store, p, "sa", heads, sa)
        t1, c_ca1 = _norm_attn(t[0], t[1], store, p, "ca", heads, ca)
        t2, c_ca2 = _norm_attn(t[1], t1, store, p, "ca", heads, ca)
        t, g = np.array([t1, t2]), x[..., lay.gi, :]  # global modulation, per token row
        h, nc = normalize_rows(t * g)
        x, c_mlp = _norm_mlp(_with_global(h, x[..., lay.glob, :], lay.order), store, p)
        snapshots.append(_grid(x, lay.keep)[..., :-1, :])
        if keep_caches:
            caches.append((c_sa, c_ca1, c_ca2, (t, g, nc), c_mlp))
    g, caches = x[..., lay.glob, :], (lay, caches) if keep_caches else None
    return (FeatureSequence(snapshots[-1][0], g[0], pad),
            FeatureSequence(snapshots[-1][1], g[1], pad), snapshots, caches)


def decode_backward(caches, store, g_f1_tokens, g_f1_global, g_f2_tokens,
                    g_f2_global, snapshot_grads):
    """Backward through the decoder stack.

    snapshot_grads is a list of per-layer (g_tokens1, g_tokens2) pairs
    injected at each layer boundary (gradients of losses that read the layer
    snapshots). Returns input gradients
    (g_f1_tokens, g_f1_global, g_f2_tokens, g_f2_global). Gradients given on
    padding rows must be zero; those returned there are zero.
    """
    lay, caches = caches
    g_x = _packed(_with_global(np.array([g_f1_tokens, g_f2_tokens]),
                               np.array([g_f1_global, g_f2_global])), lay.keep)
    g_snap = np.asarray(snapshot_grads)  # as rows, zero on the global ones
    g_snap = _packed(_with_global(g_snap, np.zeros_like(g_snap[..., 0, :])), lay.keep)
    for layer in reversed(range(len(caches))):
        c_sa, c_ca1, c_ca2, (t, g, nc), c_mlp = caches[layer]
        g_x = _norm_mlp_backward(c_mlp, g_x + g_snap[layer], store)
        g_h = normalize_rows_backward(nc, g_x[..., lay.tok, :])  # global modulation
        g_glob = g_x[..., lay.glob, :] + np.sum(_grid(g_h * t, lay.keep_tok), axis=-2)
        g_t = g_h * g
        g_t2, g_t1_keys = _norm_attn_backward(c_ca2, g_t[1], store)
        g_t1, g_t2_keys = _norm_attn_backward(c_ca1, g_t[0] + g_t1_keys, store)
        g_t, g_kv = _norm_attn_backward(c_sa, np.array([g_t1, g_t2 + g_t2_keys]), store)
        g_x = g_kv + _with_global(g_t, g_glob, lay.order)  # self-attention's kv are the rows
    g_x = _grid(g_x, lay.keep)
    return g_x[0, ..., :-1, :], g_x[0, ..., -1, :], g_x[1, ..., :-1, :], g_x[1, ..., -1, :]

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
`decode` stacks them as (2, ..., n, d) and runs all but cross-attention
once per layer on both.
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

    tokens is (m, d_model) for one image, (B, n, d_model) for B images or
    (2, B, n, d_model) for both streams; pad, tokens' shape without d_model,
    is True on zero padding rows, which attention ignores, or None.
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


def _rows(x):
    """(..., n, d) -> (rows, d): each weight is one GEMM over every image's rows."""
    return x.reshape(-1, x.shape[-1])


def _split_heads(rows, shape, heads: int):
    """GEMM rows of a (..., n, d) input -> (..., heads, n, d // heads)."""
    return rows.reshape(*shape[:-1], heads, shape[-1] // heads).swapaxes(-3, -2)


def _merge_heads(x):
    """(..., heads, n, dh) -> (rows, heads * dh), the inverse of _split_heads."""
    return x.swapaxes(-3, -2).reshape(-1, x.shape[-3] * x.shape[-1])


def _with_global(tokens, glob):
    """Tokens followed by the global token: (..., n + 1, d)."""
    return np.concatenate([tokens, glob[..., None, :]], axis=-2)


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


def _norm_attn(tokens, other, store, prefix: str, block: str, heads: int, q_pad, key_pad):
    """Norm(tokens + |alpha| * (Norm(MHA(tokens, keys)) - tokens)). Returns (out, cache).

    The keys are other's tokens, or for self-attention the tokens and then
    the global token passed as other, rebuilt in backward rather than cached.
    Keys on key_pad get probability 0 and rows on q_pad stay zero; both masks
    are None when nothing is padded.
    """
    wq, wk, wv, wo = (store.value(f"{prefix}{block}.{w}") for w in _ATTN_WEIGHTS)
    kv = _with_global(tokens, other) if block == "sa" else other
    q, k, v = (_split_heads(_rows(x) @ w, x.shape, heads)
               for x, w in ((tokens, wq), (kv, wk), (kv, wv)))
    scores = q @ k.swapaxes(-1, -2) * (1.0 / np.sqrt(q.shape[-1]))  # (..., heads, nq, nk)
    if key_pad is not None:
        scores = np.where(key_pad[..., None, None, :], -np.inf, scores)
    p, _ = softmax_rows(scores)
    raw = (_merge_heads(p @ v) @ wo).reshape(tokens.shape)
    if q_pad is not None:
        raw[q_pad] = 0.0
    out, rc = _norm_residual_forward(tokens, raw, store.value(prefix + _ALPHA[block]))
    return out, (q, k, v, p, rc, tokens, other, prefix, block)


def _norm_attn_backward(cache, g_out, store):
    """Returns (g_tokens, g_keys) and accumulates parameter grads; recomputes p @ v."""
    q, k, v, p, rc, tokens, other, prefix, block = cache
    wq, wk, wv, wo = (store.value(f"{prefix}{block}.{w}") for w in _ATTN_WEIGHTS)
    kv = _with_global(tokens, other) if block == "sa" else other
    scale = 1.0 / np.sqrt(q.shape[-1])
    g_base, g_raw, g_alpha = _norm_residual_backward(rc, g_out, tokens)
    g_raw = _rows(g_raw)
    g_ctx = _split_heads(g_raw @ wo.T, tokens.shape, q.shape[-3])
    g_scores = softmax_rows_backward(p, g_ctx @ v.swapaxes(-1, -2))
    g_q = _merge_heads((g_scores @ k) * scale)
    g_k = _merge_heads((g_scores.swapaxes(-1, -2) @ q) * scale)
    g_v = _merge_heads(p.swapaxes(-1, -2) @ g_ctx)
    g_weights = (_rows(tokens).T @ g_q, _rows(kv).T @ g_k, _rows(kv).T @ g_v,
                 _merge_heads(p @ v).T @ g_raw)
    store.add_grad(prefix + _ALPHA[block], g_alpha)
    for w, g in zip(_ATTN_WEIGHTS, g_weights):
        store.add_grad(f"{prefix}{block}.{w}", g)
    g_tokens = g_base + (g_q @ wq.T).reshape(tokens.shape)
    return g_tokens, (g_k @ wk.T + g_v @ wv.T).reshape(kv.shape)


def norm_self_attn(seq: FeatureSequence, store, prefix: str, heads: int):
    """Normalized self-attention over one stream.

    The global token is appended to the keys/values so every keypoint can
    read whole-image context, but only the m keypoint tokens are updated;
    the global token passes through unchanged.
    """
    pad = seq.pad
    key_pad = None if pad is None else np.pad(pad, [(0, 0)] * (pad.ndim - 1) + [(0, 1)])
    out, cache = _norm_attn(seq.tokens, seq.global_token, store, prefix, "sa", heads, pad, key_pad)
    return FeatureSequence(out, seq.global_token, pad), cache


def norm_cross_attn(seq: FeatureSequence, other: FeatureSequence, store,
                    prefix: str, heads: int):
    """Normalized cross-attention: seq tokens query the other stream's tokens."""
    out, cache = _norm_attn(seq.tokens, other.tokens, store, prefix, "ca", heads,
                            seq.pad, other.pad)
    return FeatureSequence(out, seq.global_token, seq.pad), cache


def modulate_global(seq: FeatureSequence):
    """Replace each token by Norm(token * global), element-wise product."""
    h = seq.tokens * seq.global_token[..., None, :]
    out, nc = normalize_rows(h)
    return FeatureSequence(out, seq.global_token, seq.pad), (seq.tokens, seq.global_token, nc)


def _modulate_global_backward(cache, g_tokens, g_global):
    tokens, glob, nc = cache
    g_h = normalize_rows_backward(nc, g_tokens)
    return g_h * glob[..., None, :], g_global + np.sum(g_h * tokens, axis=-2)


def norm_mlp(seq: FeatureSequence, store, prefix: str):
    """Normalized MLP block over the m tokens and the global token."""
    x = _with_global(seq.tokens, seq.global_token)
    w1, b1, w2, b2 = (store.value(f"{prefix}mlp.{w}") for w in ("w1", "b1", "w2", "b2"))
    h = _rows(x) @ w1 + b1
    raw = (silu(h)[0] @ w2 + b2).reshape(x.shape)
    if seq.pad is not None:
        raw[..., :-1, :][seq.pad] = 0.0
    out, rc = _norm_residual_forward(x, raw, store.value(prefix + "alpha_m"))
    seq_out = FeatureSequence(out[..., :-1, :], out[..., -1, :], seq.pad)
    return seq_out, (seq.tokens, seq.global_token, h, rc, prefix)


def _norm_mlp_backward(cache, g_tokens, g_global, store):
    """Returns (g_tokens_in, g_global_in) and accumulates parameter grads."""
    tokens, glob, h, rc, prefix = cache
    x = _with_global(tokens, glob)
    g_base, g_raw, g_alpha = _norm_residual_backward(rc, _with_global(g_tokens, g_global), x)
    g_raw = _rows(g_raw)
    w1, w2 = store.value(prefix + "mlp.w1"), store.value(prefix + "mlp.w2")
    # SiLU is recomputed from h rather than cached: two fewer hidden-width arrays
    a, sc = silu(h)
    g_h = silu_backward(sc, g_raw @ w2.T)
    store.add_grad(prefix + "alpha_m", g_alpha)
    store.add_grad(prefix + "mlp.w2", a.T @ g_raw)
    store.add_grad(prefix + "mlp.b2", g_raw.sum(axis=0))
    store.add_grad(prefix + "mlp.w1", _rows(x).T @ g_h)
    store.add_grad(prefix + "mlp.b1", g_h.sum(axis=0))
    g_x = (g_h @ w1.T).reshape(x.shape) + g_base
    return g_x[..., :-1, :], g_x[..., -1, :]


def decode(f1: FeatureSequence, f2: FeatureSequence, store, layers: int, heads: int):
    """Run the full decoder stack on two streams of one shape.

    Returns (f1, f2, snapshots, caches) where snapshots[k] holds the
    post-layer tokens of stream 1 and stream 2 after layer k, stacked as
    (2, ..., n, d), feeding the layer-wise uniformity loss.
    """
    if f1.tokens.shape != f2.tokens.shape:
        raise ValueError("both decoder streams must have one token shape; pad the shorter")
    pad = None if f1.pad is None and f2.pad is None else np.array(
        [np.zeros(f.tokens.shape[:-1], bool) if f.pad is None else f.pad for f in (f1, f2)])
    f = FeatureSequence(np.array([f1.tokens, f2.tokens]),
                        np.array([f1.global_token, f2.global_token]), pad)
    pad1, pad2 = f1.pad, f2.pad  # a stream without a mask has no padding row
    snapshots, caches = [], []
    for layer in range(layers):
        p = f"dec{layer}."
        f, c_sa = norm_self_attn(f, store, p, heads)
        t1, c_ca1 = _norm_attn(f.tokens[0], f.tokens[1], store, p, "ca", heads, pad1, pad2)
        t2, c_ca2 = _norm_attn(f.tokens[1], t1, store, p, "ca", heads, pad2, pad1)
        f, c_mod = modulate_global(FeatureSequence(np.array([t1, t2]), f.global_token, pad))
        f, c_mlp = norm_mlp(f, store, p)
        snapshots.append(f.tokens)
        caches.append((c_sa, c_ca1, c_ca2, c_mod, c_mlp))
    return (FeatureSequence(f.tokens[0], f.global_token[0], pad1),
            FeatureSequence(f.tokens[1], f.global_token[1], pad2), snapshots, caches)


def decode_backward(caches, store, g_f1_tokens, g_f1_global, g_f2_tokens,
                    g_f2_global, snapshot_grads):
    """Backward through the decoder stack.

    snapshot_grads is a list of per-layer (g_tokens1, g_tokens2) pairs
    injected at each layer boundary (gradients of losses that read the layer
    snapshots). Returns input gradients
    (g_f1_tokens, g_f1_global, g_f2_tokens, g_f2_global). Gradients given on
    padding rows must be zero; those returned there are zero.
    """
    g_t, g_g = np.array([g_f1_tokens, g_f2_tokens]), np.array([g_f1_global, g_f2_global])
    for layer in reversed(range(len(caches))):
        c_sa, c_ca1, c_ca2, c_mod, c_mlp = caches[layer]
        g_t, g_g = _norm_mlp_backward(c_mlp, g_t + snapshot_grads[layer], g_g, store)
        g_t, g_g = _modulate_global_backward(c_mod, g_t, g_g)
        g_t2, g_t1_keys = _norm_attn_backward(c_ca2, g_t[1], store)
        g_t1, g_t2_keys = _norm_attn_backward(c_ca1, g_t[0] + g_t1_keys, store)
        # self-attention keys end with the global token
        g_t, g_kv = _norm_attn_backward(c_sa, np.array([g_t1, g_t2 + g_t2_keys]), store)
        g_t, g_g = g_t + g_kv[..., :-1, :], g_g + g_kv[..., -1, :]
    return g_t[0], g_g[0], g_t[1], g_g[1]

import numpy as np
import pytest

from normmatch.decoder import (
    FeatureSequence,
    decode,
    decode_backward,
    init_decoder_params,
    modulate_global,
    norm_cross_attn,
    norm_mlp,
    norm_self_attn,
)
from normmatch.gradcheck import all_passed, grad_check
from normmatch.params import ParameterStore
from oracles import (
    l2_normalize,
    loop_decode,
    loop_decode_backward,
    padded_decode,
    padded_decode_backward,
)


def _make_store(d_model, layers, mlp_mult=2, seed=0):
    store = ParameterStore()
    init_decoder_params(store, np.random.default_rng(seed), d_model, layers, mlp_mult)
    return store


def _unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _copy(seq):
    return FeatureSequence(seq.tokens.copy(), seq.global_token.copy())


def _seq(rng, m, d):
    return FeatureSequence(_unit_rows(rng, m, d), _unit_rows(rng, 1, d)[0])


def _set_alphas(store, layers, value, blocks=("a", "c", "m")):
    for layer in range(layers):
        for b in blocks:
            name = f"dec{layer}.alpha_{b}"
            store.set_value(name, np.full_like(store.value(name), value))


def _dense_attention(q_rows, kv_rows, wq, wk, wv, wo, heads):
    """Straightforward per-query, per-head attention used as an oracle."""
    d = q_rows.shape[1]
    dh = d // heads
    q = q_rows @ wq
    k = kv_rows @ wk
    v = kv_rows @ wv
    out = np.zeros((len(q_rows), d))
    for i in range(len(q_rows)):
        merged = []
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = k[:, sl] @ q[i, sl] / np.sqrt(dh)
            scores -= scores.max()
            p = np.exp(scores)
            p /= p.sum()
            merged.append(p @ v[:, sl])
        out[i] = np.concatenate(merged)
    return out @ wo


class TestNormSelfAttn:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(0)
        store = _make_store(8, 1)
        _set_alphas(store, 1, 0.0, blocks=("a",))
        seq = _seq(rng, 4, 8)
        out, _ = norm_self_attn(seq, store, "dec0.", heads=2)
        np.testing.assert_allclose(out.tokens, seq.tokens, atol=1e-12)
        np.testing.assert_allclose(out.global_token, seq.global_token, atol=1e-12)

    def test_unit_alpha_gives_normalized_attention_output(self):
        rng = np.random.default_rng(1)
        store = _make_store(8, 1)
        _set_alphas(store, 1, 1.0, blocks=("a",))
        seq = _seq(rng, 3, 8)
        out, _ = norm_self_attn(seq, store, "dec0.", heads=2)
        kv = np.vstack([seq.tokens, seq.global_token])
        raw = _dense_attention(
            seq.tokens, kv,
            store.value("dec0.sa.wq"), store.value("dec0.sa.wk"),
            store.value("dec0.sa.wv"), store.value("dec0.sa.wo"), heads=2,
        )
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        np.testing.assert_allclose(out.tokens, expected, atol=1e-12)

    def test_single_token_attending_to_itself_is_value_projection(self):
        # with the global equal to the lone token, every key/value row is the
        # token, so attention reduces to its value-path projection
        rng = np.random.default_rng(2)
        store = _make_store(6, 1)
        _set_alphas(store, 1, 1.0, blocks=("a",))
        token = _unit_rows(rng, 1, 6)
        seq = FeatureSequence(token.copy(), token[0].copy())
        out, _ = norm_self_attn(seq, store, "dec0.", heads=1)
        expected = l2_normalize(
            token[0] @ store.value("dec0.sa.wv") @ store.value("dec0.sa.wo")
        )
        np.testing.assert_allclose(out.tokens[0], expected, atol=1e-12)

    def test_global_token_participates_in_keys_and_values(self):
        rng = np.random.default_rng(3)
        store = _make_store(8, 1)
        seq = _seq(rng, 4, 8)
        other_global = FeatureSequence(seq.tokens.copy(), _unit_rows(rng, 1, 8)[0])
        out1, _ = norm_self_attn(seq, store, "dec0.", heads=2)
        out2, _ = norm_self_attn(other_global, store, "dec0.", heads=2)
        assert not np.allclose(out1.tokens, out2.tokens)

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(4)
        store = _make_store(16, 1)
        seq = _seq(rng, 6, 16)
        out, _ = norm_self_attn(seq, store, "dec0.", heads=4)
        np.testing.assert_allclose(np.linalg.norm(out.tokens, axis=1), 1.0, atol=1e-6)

    def test_full_scale_shape(self):
        rng = np.random.default_rng(5)
        store = _make_store(648, 1, mlp_mult=4, seed=5)
        seq = _seq(rng, 23, 648)
        out, _ = norm_self_attn(seq, store, "dec0.", heads=12)
        assert out.tokens.shape == (23, 648)
        np.testing.assert_allclose(np.linalg.norm(out.tokens, axis=1), 1.0, atol=1e-6)


class TestNormCrossAttn:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(0)
        store = _make_store(8, 1)
        _set_alphas(store, 1, 0.0, blocks=("c",))
        seq, other = _seq(rng, 4, 8), _seq(rng, 5, 8)
        out, _ = norm_cross_attn(seq, other, store, "dec0.", heads=2)
        np.testing.assert_allclose(out.tokens, seq.tokens, atol=1e-12)

    def test_identical_other_tokens_collapse_outputs(self):
        # every query sees the same keys/values, so with full step size all
        # updated rows coincide
        rng = np.random.default_rng(1)
        store = _make_store(8, 1)
        _set_alphas(store, 1, 1.0, blocks=("c",))
        seq = _seq(rng, 4, 8)
        t = _unit_rows(rng, 1, 8)
        other = FeatureSequence(np.repeat(t, 3, axis=0), _unit_rows(rng, 1, 8)[0])
        out, _ = norm_cross_attn(seq, other, store, "dec0.", heads=2)
        for row in out.tokens[1:]:
            np.testing.assert_allclose(row, out.tokens[0], atol=1e-12)

    def test_matches_dense_attention_oracle(self):
        rng = np.random.default_rng(2)
        store = _make_store(8, 1)
        seq, other = _seq(rng, 2, 8), _seq(rng, 3, 8)
        out, _ = norm_cross_attn(seq, other, store, "dec0.", heads=2)
        raw = _dense_attention(
            seq.tokens, other.tokens,
            store.value("dec0.ca.wq"), store.value("dec0.ca.wk"),
            store.value("dec0.ca.wv"), store.value("dec0.ca.wo"), heads=2,
        )
        f_a = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        alpha = np.abs(store.value("dec0.alpha_c"))
        mixed = seq.tokens + alpha * (f_a - seq.tokens)
        expected = mixed / np.linalg.norm(mixed, axis=1, keepdims=True)
        np.testing.assert_allclose(out.tokens, expected, atol=1e-12)

    def test_global_tokens_ignored(self):
        rng = np.random.default_rng(3)
        store = _make_store(8, 1)
        seq, other = _seq(rng, 4, 8), _seq(rng, 4, 8)
        swapped_global = FeatureSequence(other.tokens.copy(), _unit_rows(rng, 1, 8)[0])
        out1, _ = norm_cross_attn(seq, other, store, "dec0.", heads=2)
        out2, _ = norm_cross_attn(seq, swapped_global, store, "dec0.", heads=2)
        np.testing.assert_allclose(out1.tokens, out2.tokens, atol=1e-15)


class TestModulateGlobal:
    def test_uniform_global_is_noop(self):
        rng = np.random.default_rng(0)
        d = 8
        tokens = _unit_rows(rng, 5, d)
        seq = FeatureSequence(tokens.copy(), np.full(d, 1.0 / np.sqrt(d)))
        out, _ = modulate_global(seq)
        np.testing.assert_allclose(out.tokens, tokens, atol=1e-12)

    def test_disjoint_support_guards_to_zero(self):
        d = 4
        tokens = np.array([[1.0, 0.0, 0.0, 0.0]])
        glob = np.array([0.0, 1.0, 0.0, 0.0])
        out, _ = modulate_global(FeatureSequence(tokens, glob))
        np.testing.assert_allclose(out.tokens, np.zeros((1, 4)))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        seq = _seq(rng, 6, 8)
        out, _ = modulate_global(seq)
        for i in range(6):
            np.testing.assert_allclose(
                out.tokens[i], l2_normalize(seq.tokens[i] * seq.global_token), atol=1e-12
            )
        np.testing.assert_allclose(out.global_token, seq.global_token)


class TestNormMlp:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(0)
        store = _make_store(8, 1)
        _set_alphas(store, 1, 0.0, blocks=("m",))
        seq = _seq(rng, 4, 8)
        out, _ = norm_mlp(seq, store, "dec0.")
        np.testing.assert_allclose(out.tokens, seq.tokens, atol=1e-12)
        np.testing.assert_allclose(out.global_token, seq.global_token, atol=1e-12)

    def test_zero_weights_collapse_to_normalized_bias(self):
        rng = np.random.default_rng(1)
        store = _make_store(6, 1)
        _set_alphas(store, 1, 1.0, blocks=("m",))
        store.set_value("dec0.mlp.w1", np.zeros_like(store.value("dec0.mlp.w1")))
        store.set_value("dec0.mlp.w2", np.zeros_like(store.value("dec0.mlp.w2")))
        bias = np.array([0.5, -1.0, 0.25, 0.0, 2.0, -0.5])
        store.set_value("dec0.mlp.b2", bias)
        seq = _seq(rng, 3, 6)
        out, _ = norm_mlp(seq, store, "dec0.")
        expected = l2_normalize(bias)
        for row in out.tokens:
            np.testing.assert_allclose(row, expected, atol=1e-12)
        np.testing.assert_allclose(out.global_token, expected, atol=1e-12)

    def test_updates_global_token_too(self):
        rng = np.random.default_rng(2)
        store = _make_store(8, 1)
        seq = _seq(rng, 4, 8)
        out, _ = norm_mlp(seq, store, "dec0.")
        assert not np.allclose(out.global_token, seq.global_token)
        np.testing.assert_allclose(np.linalg.norm(out.global_token), 1.0, atol=1e-6)


class TestDecode:
    def test_snapshots_one_per_layer(self):
        rng = np.random.default_rng(0)
        layers = 4
        store = _make_store(8, layers)
        f1, f2 = _seq(rng, 5, 8), _seq(rng, 5, 8)
        o1, o2, snapshots, _ = decode(f1, f2, store, layers, heads=2)
        assert len(snapshots) == layers
        for s1, s2 in snapshots:
            assert s1.shape == (5, 8)
            assert s2.shape == (5, 8)
        np.testing.assert_allclose(snapshots[-1][0], o1.tokens)
        np.testing.assert_allclose(snapshots[-1][1], o2.tokens)

    def test_zero_steps_and_uniform_globals_is_identity(self):
        rng = np.random.default_rng(1)
        layers, d = 3, 16
        store = _make_store(d, layers)
        _set_alphas(store, layers, 0.0)
        uniform = np.full(d, 1.0 / np.sqrt(d))
        f1 = FeatureSequence(_unit_rows(rng, 6, d), uniform.copy())
        f2 = FeatureSequence(_unit_rows(rng, 6, d), uniform.copy())
        o1, o2, _, _ = decode(f1, f2, store, layers, heads=4)
        np.testing.assert_allclose(o1.tokens, f1.tokens, atol=1e-9)
        np.testing.assert_allclose(o2.tokens, f2.tokens, atol=1e-9)
        np.testing.assert_allclose(o1.global_token, uniform, atol=1e-9)

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(2)
        store = _make_store(16, 2)
        f1, f2 = _seq(rng, 7, 16), _seq(rng, 7, 16)
        o1, o2, snapshots, _ = decode(f1, f2, store, 2, heads=4)
        for seq in (o1, o2):
            np.testing.assert_allclose(np.linalg.norm(seq.tokens, axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(np.linalg.norm(seq.global_token), 1.0, atol=1e-6)
        for s1, s2 in snapshots:
            np.testing.assert_allclose(np.linalg.norm(s1, axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(np.linalg.norm(s2, axis=1), 1.0, atol=1e-6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        store = _make_store(8, 2)
        f1, f2 = _seq(rng, 6, 8), _seq(rng, 6, 8)
        o1, o2, _, _ = decode(_copy(f1), _copy(f2), store, 2, heads=2)

        perm = rng.permutation(6)
        f1_perm = FeatureSequence(f1.tokens[perm], f1.global_token.copy())
        p1, p2, _, _ = decode(f1_perm, _copy(f2), store, 2, heads=2)
        np.testing.assert_allclose(p1.tokens, o1.tokens[perm], atol=1e-12)
        np.testing.assert_allclose(p2.tokens, o2.tokens, atol=1e-12)

    def test_streams_of_different_shapes_rejected(self):
        # both streams run stacked and share one (B, n) padding mask, as the
        # two images of a pair have one keypoint count
        store = _make_store(8, 1)
        rng = np.random.default_rng(5)
        unpadded = _padded(rng, [5, 5], 8)
        lone = np.arange(5) >= 3  # an (n,) mask on (m, d) tokens
        for f1, f2 in [
            (_seq(rng, 4, 8), _seq(rng, 6, 8)),  # different keypoint counts
            (_padded(rng, [2, 5], 8), _padded(rng, [4, 1], 8, 5)),  # streams padded differently
            (_padded(rng, [2, 5], 8), unpadded),  # a mask on one stream only
            (FeatureSequence(_unit_rows(rng, 5, 8), _unit_rows(rng, 1, 8)[0], lone),
             FeatureSequence(_unit_rows(rng, 5, 8), _unit_rows(rng, 1, 8)[0], lone)),
        ]:
            with pytest.raises(ValueError, match="one token shape and one"):
                decode(f1, f2, store, 1, heads=2)

    def test_blocks_reject_padded_sequences(self):
        # a single block takes unpadded sequences; only decode packs padded batches
        store = _make_store(8, 1)
        rng = np.random.default_rng(6)
        padded, plain = _padded(rng, [2, 3], 8), _padded(rng, [3, 3], 8)
        for block in (lambda: norm_self_attn(padded, store, "dec0.", heads=2),
                      lambda: norm_cross_attn(plain, padded, store, "dec0.", heads=2),
                      lambda: norm_cross_attn(padded, plain, store, "dec0.", heads=2),
                      lambda: norm_mlp(padded, store, "dec0.")):
            with pytest.raises(ValueError, match="unpadded"):
                block()

    def test_swapping_streams_swaps_outputs_when_cross_step_zero(self):
        # the f2 stream cross-attends to the already-updated f1 stream, so
        # full swap symmetry holds once cross-attention steps are zeroed
        rng = np.random.default_rng(4)
        layers = 2
        store = _make_store(8, layers)
        _set_alphas(store, layers, 0.0, blocks=("c",))
        f1, f2 = _seq(rng, 5, 8), _seq(rng, 5, 8)
        a1, a2, _, _ = decode(_copy(f1), _copy(f2), store, layers, heads=2)
        b1, b2, _, _ = decode(_copy(f2), _copy(f1), store, layers, heads=2)
        np.testing.assert_allclose(a1.tokens, b2.tokens, atol=1e-12)
        np.testing.assert_allclose(a2.tokens, b1.tokens, atol=1e-12)

    # eps is per-config: the single-layer setup leaves some probe gradients
    # near 1e-7 where small-eps differences drown in round-off, while the
    # deeper stacks have strongly curved coordinates that need small eps to
    # keep truncation error down; both regimes were verified to converge to
    # the analytic values quadratically
    @pytest.mark.parametrize(
        "d_model,m,layers,heads,eps",
        [(8, 3, 1, 2, 5e-4), (8, 5, 2, 2, 1e-5), (16, 3, 2, 4, 1e-5)],
    )
    def test_gradients_pass_check(self, d_model, m, layers, heads, eps):
        rng = np.random.default_rng(10 + d_model + m)
        store = _make_store(d_model, layers, seed=d_model * 7 + m)
        f1, f2 = _seq(rng, m, d_model), _seq(rng, m, d_model)
        r_t1 = rng.standard_normal((m, d_model))
        r_t2 = rng.standard_normal((m, d_model))
        r_g1 = rng.standard_normal(d_model)
        r_g2 = rng.standard_normal(d_model)
        snap_probes = [
            (rng.standard_normal((m, d_model)), rng.standard_normal((m, d_model)))
            for _ in range(layers)
        ]

        def forward(params):
            o1, o2, snapshots, caches = decode(_copy(f1), _copy(f2), params, layers, heads)
            loss = (
                float((o1.tokens * r_t1).sum())
                + float((o2.tokens * r_t2).sum())
                + float(o1.global_token @ r_g1)
                + float(o2.global_token @ r_g2)
            )
            # snapshot probes exercise the layer-boundary gradient injection
            snap_grads = []
            for k, (s1, s2) in enumerate(snapshots):
                loss += float((s1 * snap_probes[k][0]).sum())
                loss += float((s2 * snap_probes[k][1]).sum())
                snap_grads.append((snap_probes[k][0], snap_probes[k][1]))
            return loss, lambda: decode_backward(caches, params, r_t1, r_g1, r_t2, r_g2,
                                                 snap_grads)

        reports = grad_check(forward, store, eps=eps, rng=np.random.default_rng(99))
        assert all_passed(reports), "\n".join(str(r) for r in reports if not r.passed)


def _padded(rng, lengths, d, n=None):
    """Unit-norm tokens of len(lengths) images, zero-padded to a (B, n, d) batch;
    n defaults to the longest."""
    lengths = np.asarray(lengths)
    pad = np.arange(n or lengths.max()) >= lengths[:, None]
    tokens = _unit_rows(rng, pad.size, d).reshape(pad.shape + (d,))
    tokens[pad] = 0.0
    return FeatureSequence(tokens, _unit_rows(rng, len(lengths), d), pad if pad.any() else None)


def _probe(rng, seq):
    g = rng.standard_normal(seq.tokens.shape)
    if seq.pad is not None:
        g[seq.pad] = 0.0
    return g


def _batch_store(d, layers, seed=0):
    """A decoder store with nonzero MLP biases, under which a zero padding
    row would leave the MLP nonzero unless masked."""
    store = _make_store(d, layers, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in store.names():
        if ".mlp.b" in name:
            store.set_value(name, 0.5 * rng.standard_normal(store.value(name).shape))
    return store


def _assert_rel(got, expected, what):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale, what


class TestBatchedDecode:
    """A padded batch through decode/decode_backward equals a per-pair loop."""

    LAYERS, D, HEADS = 2, 16, 4

    @pytest.mark.parametrize("lengths1,lengths2", [
        ([1, 2, 5, 3], [1, 2, 5, 3]),  # m = 1 and m = 2 among padded pairs
        ([4], [4]),                    # B = 1: nothing padded, no mask
        ([6, 6, 6, 4], [6, 6, 6, 4]),  # only the last pair padded
    ])
    def test_matches_per_pair_loop(self, lengths1, lengths2):
        rng = np.random.default_rng(len(lengths1) * 10 + lengths1[-1])
        n = max(lengths1 + lengths2)  # both streams share one shape
        f1 = _padded(rng, lengths1, self.D, n)
        f2 = _padded(rng, lengths2, self.D, n)
        probes = [_probe(rng, f1), rng.standard_normal(f1.global_token.shape),
                  _probe(rng, f2), rng.standard_normal(f2.global_token.shape)]
        snap_grads = [(_probe(rng, f1), _probe(rng, f2)) for _ in range(self.LAYERS)]

        batched, looped = _batch_store(self.D, self.LAYERS), _batch_store(self.D, self.LAYERS)
        o1, o2, snaps, caches = decode(f1, f2, batched, self.LAYERS, self.HEADS)
        r1, r2, r_snaps, r_caches = loop_decode(f1, f2, looped, self.LAYERS, self.HEADS)
        grads = decode_backward(caches, batched, *probes, snap_grads)
        r_grads = loop_decode_backward(r_caches, looped, *probes, snap_grads)

        for got, expected, what in [
            (o1.tokens, r1.tokens, "f1 tokens"), (o1.global_token, r1.global_token, "f1 global"),
            (o2.tokens, r2.tokens, "f2 tokens"), (o2.global_token, r2.global_token, "f2 global"),
        ] + [(s, r, f"snapshot {k}") for k, pair in enumerate(zip(snaps, r_snaps))
             for s, r in zip(*pair)] + [
            (g, r, f"input grad {k}") for k, (g, r) in enumerate(zip(grads, r_grads))
        ]:
            _assert_rel(got, expected, what)
        for name in batched.names():
            _assert_rel(batched.grad(name), looped.grad(name), name)

        # padding rows stay zero and finite, and take exactly zero gradient
        for seq, out, g_in in ((f1, o1, grads[0]), (f2, o2, grads[2])):
            if seq.pad is None:
                continue
            assert np.all(np.isfinite(out.tokens))
            assert not np.any(out.tokens[seq.pad])
            assert not np.any(g_in[seq.pad])

    def test_gradients_pass_check_on_padded_batch(self):
        rng = np.random.default_rng(41)
        d, layers, heads = 8, 2, 2
        store = _batch_store(d, layers, seed=43)
        f1, f2 = _padded(rng, [3, 5], d), _padded(rng, [3, 5], d)
        probes = [_probe(rng, f1), rng.standard_normal((2, d)),
                  _probe(rng, f2), rng.standard_normal((2, d))]
        snap_probes = [(_probe(rng, f1), _probe(rng, f2)) for _ in range(layers)]

        def forward(params):
            o1, o2, snapshots, caches = decode(f1, f2, params, layers, heads)
            outs = [o1.tokens, o1.global_token, o2.tokens, o2.global_token]
            loss = sum(float((o * r).sum()) for o, r in zip(outs, probes))
            for (s1, s2), (r1, r2) in zip(snapshots, snap_probes):
                loss += float((s1 * r1).sum()) + float((s2 * r2).sum())
            return loss, lambda: decode_backward(caches, params, *probes, snap_probes)

        reports = grad_check(forward, store, eps=1e-5, rng=np.random.default_rng(99))
        assert all_passed(reports), "\n".join(str(r) for r in reports if not r.passed)


class TestPackedDecode:
    """decode runs its row-wise steps on the pairs' real rows; it equals the
    padded decoder of tests/oracles.py bit for bit."""

    LAYERS = 2

    @pytest.mark.parametrize("lengths1,lengths2,d,heads", [
        ([5, 10, 7, 6, 9, 8, 10, 5], [5, 10, 7, 6, 9, 8, 10, 5], 64, 4),  # a desk minibatch
        ([1, 2, 5, 2], [1, 2, 5, 2], 16, 4),  # m = 1 and m = 2 pairs
    ])
    def test_equals_padded_decoder(self, lengths1, lengths2, d, heads):
        rng = np.random.default_rng(sum(lengths1) + d)
        n = max(lengths1 + lengths2)
        f1, f2 = _padded(rng, lengths1, d, n), _padded(rng, lengths2, d, n)
        probes = [_probe(rng, f1), rng.standard_normal(f1.global_token.shape),
                  _probe(rng, f2), rng.standard_normal(f2.global_token.shape)]
        snap_grads = np.array([(_probe(rng, f1), _probe(rng, f2)) for _ in range(self.LAYERS)])

        packed, padded = _batch_store(d, self.LAYERS), _batch_store(d, self.LAYERS)
        o1, o2, snaps, caches = decode(f1, f2, packed, self.LAYERS, heads)
        r1, r2, r_snaps, r_caches = padded_decode(f1, f2, padded, self.LAYERS, heads)
        grads = decode_backward(caches, packed, *probes, snap_grads)
        r_grads = padded_decode_backward(r_caches, padded, *probes, snap_grads)

        pairs = [(o1.tokens, r1.tokens), (o1.global_token, r1.global_token),
                 (o2.tokens, r2.tokens), (o2.global_token, r2.global_token)]
        pairs += list(zip(snaps, r_snaps)) + list(zip(grads, r_grads))
        for k, (got, expected) in enumerate(pairs):
            assert np.array_equal(got, expected), k
        for name in packed.names():
            assert np.array_equal(packed.grad(name), padded.grad(name)), name

import re

import numpy as np
import pytest

from normmatch.losses import (
    hyperspherical,
    hyperspherical_backward,
    info_nce,
    info_nce_backward,
    layer_hyperspherical,
    total_loss,
    total_loss_backward,
)
from oracles import layer_hyperspherical_backward, loop_total_loss


def _unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestInfoNCE:
    def test_m2_exclusive_closed_form(self):
        # positives at cosine 1, the lone negative at cosine 0; with the
        # positive excluded the denominator is e^0, so each anchor scores -1
        f = np.eye(2)
        loss, _ = info_nce(f, f, np.array([0, 1]), tau_raw=0.0, mode="exclusive")
        assert abs(loss - (-1.0)) < 1e-12

    def test_m2_inclusive_closed_form(self):
        f = np.eye(2)
        loss, _ = info_nce(f, f, np.array([0, 1]), tau_raw=0.0, mode="inclusive")
        expected = -np.log(np.e / (np.e + 1.0))
        assert abs(loss - expected) < 1e-12

    def test_m4_orthogonal_inclusive_closed_form(self):
        f = np.eye(4)
        loss, _ = info_nce(f, f, np.arange(4), tau_raw=0.0, mode="inclusive")
        expected = -np.log(np.e / (np.e + 3.0))
        assert abs(loss - expected) < 1e-10

    def test_single_keypoint_rejected(self):
        f = np.ones((1, 4))
        with pytest.raises(ValueError, match="at least 2"):
            info_nce(f, f, np.array([0]), tau_raw=0.0)

    def test_unknown_mode_rejected(self):
        f = np.eye(2)
        with pytest.raises(ValueError, match="mode"):
            info_nce(f, f, np.array([0, 1]), tau_raw=0.0, mode="literal")

    @pytest.mark.parametrize("mode", ["exclusive", "inclusive"])
    def test_invariant_under_common_permutation_of_f2_and_truth(self, mode):
        rng = np.random.default_rng(0)
        m, d = 6, 8
        f1, f2 = _unit_rows(rng, m, d), _unit_rows(rng, m, d)
        truth = rng.permutation(m)
        base, _ = info_nce(f1, f2, truth, tau_raw=-1.0, mode=mode)

        sigma = rng.permutation(m)
        inv_sigma = np.empty(m, dtype=int)
        inv_sigma[sigma] = np.arange(m)
        relabeled, _ = info_nce(f1, f2[sigma], inv_sigma[truth], tau_raw=-1.0, mode=mode)
        assert abs(base - relabeled) < 1e-12

    def test_mode_difference_is_log_denominator_ratio(self):
        rng = np.random.default_rng(1)
        m, d = 5, 8
        f1, f2 = _unit_rows(rng, m, d), _unit_rows(rng, m, d)
        truth = rng.permutation(m)
        tau_raw = np.log(0.2)
        inc, _ = info_nce(f1, f2, truth, tau_raw, mode="inclusive")
        exc, _ = info_nce(f1, f2, truth, tau_raw, mode="exclusive")

        S = (f1 @ f2.T) / np.exp(tau_raw)
        inverse = np.empty(m, dtype=int)
        inverse[truth] = np.arange(m)
        ratio_sum = 0.0
        for row_scores, pos in [(S, truth), (S.T, inverse)]:
            for i in range(m):
                expd = np.exp(row_scores[i] - row_scores[i].max())
                d_inc = expd.sum()
                d_exc = d_inc - expd[pos[i]]
                ratio_sum += np.log(d_inc / d_exc)
        assert abs((inc - exc) - ratio_sum / (2 * m)) < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        m, d = 5, 6
        f1, f2 = _unit_rows(rng, m, d), _unit_rows(rng, m, d)
        truth = rng.permutation(m)
        tau_raw = np.log(0.15)

        for mode in ("exclusive", "inclusive"):
            _, cache = info_nce(f1, f2, truth, tau_raw, mode)
            g_f1, g_f2, g_tau = info_nce_backward(cache)

            eps = 1e-6
            hi, _ = info_nce(f1, f2, truth, tau_raw + eps, mode)
            lo, _ = info_nce(f1, f2, truth, tau_raw - eps, mode)
            numeric_tau = (hi - lo) / (2 * eps)
            assert abs(g_tau - numeric_tau) / max(abs(g_tau), 1e-8) < 1e-6

            for arr, grad in ((f1, g_f1), (f2, g_f2)):
                flat = arr.ravel()
                for c in rng.choice(flat.size, size=10, replace=False):
                    orig = flat[c]
                    flat[c] = orig + eps
                    hi, _ = info_nce(f1, f2, truth, tau_raw, mode)
                    flat[c] = orig - eps
                    lo, _ = info_nce(f1, f2, truth, tau_raw, mode)
                    flat[c] = orig
                    numeric = (hi - lo) / (2 * eps)
                    analytic = grad.ravel()[c]
                    assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-5


class TestHyperspherical:
    def test_orthonormal_rows_score_zero(self):
        loss, _ = hyperspherical(np.eye(4))
        assert loss == 0.0

    def test_identical_pair_scores_two(self):
        f = np.array([[0.6, 0.8], [0.6, 0.8]])
        loss, _ = hyperspherical(f)
        assert abs(loss - 2.0) < 1e-12

    def test_equiangular_triple_scores_minus_three_halves(self):
        # three unit vectors at 120 degrees: every best-other cosine is -0.5
        f = np.array(
            [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]]
        )
        loss, _ = hyperspherical(f)
        assert abs(loss - (-1.5)) < 1e-12

    def test_single_row_returns_zero(self):
        loss, cache = hyperspherical(np.array([[1.0, 0.0]]))
        assert loss == 0.0
        np.testing.assert_array_equal(hyperspherical_backward(cache), np.zeros((1, 2)))

    def test_bounded_by_row_count(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 12))
            f = _unit_rows(rng, m, 5)
            loss, _ = hyperspherical(f)
            assert -m <= loss <= m

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        f = _unit_rows(rng, 6, 5)
        _, cache = hyperspherical(f)
        g = hyperspherical_backward(cache)
        eps = 1e-6
        flat = f.ravel()
        for c in rng.choice(flat.size, size=12, replace=False):
            orig = flat[c]
            flat[c] = orig + eps
            hi, _ = hyperspherical(f)
            flat[c] = orig - eps
            lo, _ = hyperspherical(f)
            flat[c] = orig
            numeric = (hi - lo) / (2 * eps)
            analytic = g.ravel()[c]
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-5


class TestLayerHyperspherical:
    def test_depth_weights_increase_linearly(self):
        # stream pair with per-stream loss 2.0 placed at a single depth k
        # contributes exactly k * p * 2.0; snapshots stack, so every image
        # has 3 rows
        pair_hot = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pair_cold = np.eye(3)
        for k in range(1, 5):
            snapshots = [
                (pair_hot, pair_hot) if layer == k else (pair_cold, pair_cold)
                for layer in range(1, 5)
            ]
            total, _ = layer_hyperspherical(snapshots, p=0.3)
            assert abs(total - k * 0.3 * 2.0) < 1e-12

    def test_orthogonal_snapshots_score_zero(self):
        snapshots = [(np.eye(3), np.eye(3))] * 4
        total, _ = layer_hyperspherical(snapshots, p=0.3)
        assert total == 0.0

    def test_single_layer_weight(self):
        rng = np.random.default_rng(0)
        t = _unit_rows(rng, 4, 6)
        h, _ = hyperspherical(t)
        total, _ = layer_hyperspherical([(t, t)], p=0.3)
        assert abs(total - 0.3 * h) < 1e-12

    def test_streams_averaged(self):
        rng = np.random.default_rng(1)
        t1, t2 = _unit_rows(rng, 4, 6), _unit_rows(rng, 4, 6)  # stacked streams share n
        h1, _ = hyperspherical(t1)
        h2, _ = hyperspherical(t2)
        total, _ = layer_hyperspherical([(t1, t2)], p=0.5)
        assert abs(total - 0.5 * 0.5 * (h1 + h2)) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        snapshots = [
            (_unit_rows(rng, 4, 5), _unit_rows(rng, 4, 5)) for _ in range(3)
        ]
        _, cache = layer_hyperspherical(snapshots, p=0.3)
        grads = layer_hyperspherical_backward(cache)
        eps = 1e-6
        for k, (t1, _) in enumerate(snapshots):
            flat = t1.ravel()
            for c in rng.choice(flat.size, size=6, replace=False):
                orig = flat[c]
                flat[c] = orig + eps
                hi, _ = layer_hyperspherical(snapshots, p=0.3)
                flat[c] = orig - eps
                lo, _ = layer_hyperspherical(snapshots, p=0.3)
                flat[c] = orig
                numeric = (hi - lo) / (2 * eps)
                analytic = grads[k][0].ravel()[c]
                assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-5


class TestTotalLoss:
    def test_contrived_zero_total(self):
        # orthogonal across images (exclusive InfoNCE with all-zero cosines
        # scores 0), orthonormal within images, orthonormal snapshots
        f1 = np.eye(4)[:2]
        f2 = np.eye(4)[2:]
        snapshots = [(np.eye(4)[:2], np.eye(4)[2:])]
        report, _ = total_loss(
            f1, f2, snapshots, np.array([0, 1]), tau_raw=0.0, p=0.3, mode="exclusive"
        )
        assert abs(report.infonce) < 1e-12
        assert report.hyperspherical_final == 0.0
        assert report.hyperspherical_layers == 0.0
        assert abs(report.total) < 1e-12

    def test_total_is_unweighted_sum_of_components(self):
        rng = np.random.default_rng(0)
        m, d = 5, 8
        f1, f2 = _unit_rows(rng, m, d), _unit_rows(rng, m, d)
        # the last snapshot is the final tokens, as the decoder returns them
        snapshots = [(_unit_rows(rng, m, d), _unit_rows(rng, m, d)), (f1, f2)]
        truth = rng.permutation(m)
        report, _ = total_loss(f1, f2, snapshots, truth, tau_raw=np.log(0.07), p=0.3)

        nce, _ = info_nce(f1, f2, truth, np.log(0.07))
        h1, _ = hyperspherical(f1)
        h2, _ = hyperspherical(f2)
        layers, _ = layer_hyperspherical(snapshots, 0.3)
        assert abs(report.infonce - nce) < 1e-12
        assert abs(report.hyperspherical_final - 0.5 * (h1 + h2)) < 1e-12
        assert abs(report.hyperspherical_layers - layers) < 1e-12
        assert abs(report.total - (nce + 0.5 * (h1 + h2) + layers)) < 1e-12

    def test_backward_covers_all_inputs(self):
        rng = np.random.default_rng(1)
        m, d = 4, 6
        f1, f2 = _unit_rows(rng, m, d), _unit_rows(rng, m, d)
        snapshots = [(_unit_rows(rng, m, d), _unit_rows(rng, m, d)) for _ in range(2)]
        truth = rng.permutation(m)
        tau_raw = np.log(0.1)

        def scalar():
            report, _ = total_loss(f1, f2, snapshots, truth, tau_raw, p=0.3)
            return report.total

        _, cache = total_loss(f1, f2, snapshots, truth, tau_raw, p=0.3)
        g_f1, g_f2, snapshot_grads, g_tau = total_loss_backward(cache)

        eps = 1e-6
        hi_report, _ = total_loss(f1, f2, snapshots, truth, tau_raw + eps, p=0.3)
        lo_report, _ = total_loss(f1, f2, snapshots, truth, tau_raw - eps, p=0.3)
        numeric_tau = (hi_report.total - lo_report.total) / (2 * eps)
        assert abs(g_tau - numeric_tau) / max(abs(g_tau), 1e-8) < 1e-6

        targets = [(f1, g_f1), (f2, g_f2)]
        targets += [(snapshots[k][s], snapshot_grads[k][s]) for k in range(2) for s in range(2)]
        for arr, grad in targets:
            flat = arr.ravel()
            for c in rng.choice(flat.size, size=6, replace=False):
                orig = flat[c]
                flat[c] = orig + eps
                hi = scalar()
                flat[c] = orig - eps
                lo = scalar()
                flat[c] = orig
                numeric = (hi - lo) / (2 * eps)
                analytic = grad.ravel()[c]
                assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-5


def _padded_minibatch(rng, ms, n, garbage=True):
    """Tokens, 2 layers' snapshots, truth and pad of pairs with ms[i] real rows of n.

    The final tokens are the last snapshot, as the decoder returns them;
    padding rows hold random values (and truth random indices) that the
    losses must ignore, unless garbage is False.
    """
    snaps = rng.standard_normal((2, 2, len(ms), n, 6))
    snaps /= np.linalg.norm(snaps, axis=-1, keepdims=True)
    pad = np.arange(n) >= np.reshape(ms, (-1, 1))
    truth = rng.integers(0, n, (len(ms), n))
    for i, m in enumerate(ms):
        truth[i, :m] = rng.permutation(m)
    if not garbage:
        snaps[:, :, pad] = 0.0
    return snaps[-1, 0], snaps[-1, 1], snaps, truth, pad


class TestStackedAgainstLoopOracle:
    """One stacked call over padded pairs against the per-pair loop oracle."""

    @pytest.mark.parametrize("mode", ["exclusive", "inclusive"])
    def test_padded_minibatches_match(self, mode):
        rng = np.random.default_rng(11)
        for batch in range(1, 9):
            ms = rng.integers(2, 11, batch)
            f1, f2, snaps, truth, pad = _padded_minibatch(rng, ms, int(ms.max()) + batch % 2)
            reports, cache = total_loss(f1, f2, snaps, truth, -1.7, 0.3, mode, pad)
            g_f1, g_f2, g_snaps, g_tau = total_loss_backward(cache)
            want, want_tokens, want_snaps, want_tau = loop_total_loss(
                f1, f2, snaps, truth, -1.7, 0.3, mode, pad)
            assert len(reports) == batch
            for got, exp in zip(reports, want):
                for field in ("infonce", "hyperspherical_final", "hyperspherical_layers"):
                    assert abs(getattr(got, field) - getattr(exp, field)) <= 1e-12, field
            np.testing.assert_allclose(np.array([g_f1, g_f2]), want_tokens, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g_snaps, want_snaps, rtol=0, atol=1e-12)
            assert abs(g_tau - want_tau) <= 1e-12

    @pytest.mark.parametrize("mode", ["exclusive", "inclusive"])
    def test_batch_of_one_is_bit_equal(self, mode):
        rng = np.random.default_rng(12)
        for m in range(2, 11):
            f1, f2, snaps, truth, pad = _padded_minibatch(rng, [m], m)  # pad is all False
            want = loop_total_loss(f1, f2, snaps, truth, -1.7, 0.3, mode)[0][0]
            stacked, cache = total_loss(f1, f2, snaps, truth, -1.7, 0.3, mode)
            masked, masked_cache = total_loss(f1, f2, snaps, truth, -1.7, 0.3, mode, pad)
            single = total_loss(f1[0], f2[0], snaps[:, :, 0], truth[0], -1.7, 0.3, mode)[0]
            assert stacked == [want] and masked == [want] and single == want
            # an all-False mask is no mask, to the bit, in every backward output
            for got, exp in zip(total_loss_backward(masked_cache), total_loss_backward(cache)):
                assert np.array_equal(got, exp)

    @pytest.mark.parametrize("real, bad", [
        ([3, 4], [-1, 1, 2]),   # wrapped to the last column before
        ([3, 4], [0, 1, 3]),    # == m: the padding row of a padded pair
        ([4, 4], [0, 1, 4, 2]),  # == n: an IndexError before
        ([3, 4], [0, 0, 2]),    # repeated: a wrong inverse before
    ])
    def test_truth_that_is_not_a_permutation_rejected(self, real, bad):
        rng = np.random.default_rng(14)
        f1, f2, snaps, truth, pad = _padded_minibatch(rng, real, 4, garbage=False)
        truth[0, :len(bad)] = bad
        with pytest.raises(ValueError, match="truth must be a permutation"):
            total_loss(f1, f2, snaps, truth, -1.7, 0.3, "inclusive", pad if pad.any() else None)

    def test_all_padding_rows_raise_nothing(self):
        # pairs of 2 real rows among 10, and a pair with a single padding row
        rng = np.random.default_rng(13)
        for mode in ("exclusive", "inclusive"):
            for garbage in (True, False):
                batch = _padded_minibatch(rng, [2, 10, 9, 2], 10, garbage=garbage)
                with np.errstate(all="raise"):
                    reports, cache = total_loss(*batch[:4], -1.7, 0.3, mode, batch[4])
                    g_f1, g_f2, g_snaps, _ = total_loss_backward(cache)
                assert all(np.isfinite(r.total) for r in reports)
                pad = batch[4]
                assert not g_f1[pad].any() and not g_f2[pad].any()
                assert not g_snaps[:, :, pad].any()

    def test_fewer_than_two_keypoints_rejected(self):
        rng = np.random.default_rng(14)
        f1, f2, snaps, truth, pad = _padded_minibatch(rng, [4, 1, 3], 4)
        with pytest.raises(ValueError, match="InfoNCE needs at least 2 keypoints"):
            total_loss(f1, f2, snaps, truth, -1.7, 0.3, "inclusive", pad)
        with pytest.raises(ValueError, match="InfoNCE needs at least 2 keypoints"):
            total_loss(f1[1, :1], f2[1, :1], snaps[:, :, 1, :1], truth[1, :1], -1.7, 0.3)


@pytest.mark.parametrize("call, message", [
    (lambda f1, f2, s, t, p: total_loss(f1, f2[..., :5], s, t, -1.7, 0.3),
     "f1 and f2 need one shape (..., n, d) and truth its (..., n), got (3, 4, 6), (3, 4, 5)"),
    (lambda f1, f2, s, t, p: info_nce(f1[0, :3], f2[0], t[0, :3], -1.7),
     "got (3, 6), (4, 6) and (3,)"),
    (lambda f1, f2, s, t, p: info_nce(f1[0, 0], f2[0, 0], t[0, :1], -1.7),
     "got (6,), (6,) and (1,)"),
    (lambda f1, f2, s, t, p: total_loss(f1, f2, s, t[0], -1.7, 0.3),
     "got (3, 4, 6), (3, 4, 6) and (4,)"),
    (lambda f1, f2, s, t, p: total_loss(f1, f2, s, t, -1.7, 0.3, "inclusive", p[0]),
     "pad must be a bool array of shape (3, 4), got bool (4,)"),
    (lambda f1, f2, s, t, p: total_loss(f1, f2, s, t, -1.7, 0.3, "inclusive", p.astype(np.int64)),
     "pad must be a bool array of shape (3, 4), got int64 (3, 4)"),
    (lambda f1, f2, s, t, p: total_loss(f1, f2, s[..., :3, :], t, -1.7, 0.3),
     "snapshots must have shape (L, 2) + (3, 4, 6), got (2, 2, 3, 3, 6)"),
    (lambda f1, f2, s, t, p: total_loss(f1, f2, s[:0], t, -1.7, 0.3),
     "snapshots must have shape (L, 2) + (3, 4, 6), got (0, 2, 3, 4, 6)"),
    (lambda f1, f2, s, t, p: hyperspherical(f1[0, 0]), "f must have shape (..., n, d), got (6,)"),
    (lambda f1, f2, s, t, p: hyperspherical(f1, p.astype(np.int64)),
     "pad must be a bool array of shape (3, 4), got int64 (3, 4)"),
], ids=["f2-width", "rows-3-of-4", "tokens-1d", "truth-of-one-pair", "pad-of-one-pair",
        "pad-int", "snapshots-n", "snapshots-no-layer", "hyperspherical-1d",
        "hyperspherical-pad-int"])
def test_bad_input_fails_where_it_enters(call, message):
    # each fails with a ValueError naming its argument, not deep in numpy or not at all
    f1, f2, snaps, truth, pad = _padded_minibatch(np.random.default_rng(15), [4, 4, 4], 4)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(f1, f2, snaps, truth, pad)

import re
import struct

import numpy as np
import pytest

from normmatch.features import (
    BackboneOutput,
    FeatureMap,
    extract_keypoint_features,
    global_token,
    global_token_backward,
    read_feature_file,
    synthetic_backbone,
    write_feature_file,
)
from normmatch.gradcheck import all_passed, grad_check
from normmatch.params import ParameterStore
from oracles import bilinear_sample, row_global_token, row_global_token_grad


def _map(grid, stride=2.0):
    return FeatureMap(grid=np.asarray(grid, dtype=np.float64), stride=stride)


def _random_backbone(rng, h=4, w=5, c_last=3, c_second=2, stride=2.0):
    return BackboneOutput(
        last=_map(rng.standard_normal((h, w, c_last)), stride),
        second_last=_map(rng.standard_normal((h, w, c_second)), stride),
    )


def _concat_width(bb):
    return bb.last.grid.shape[2] + bb.second_last.grid.shape[2]


def _cell_center(row, col, stride):
    return ((col + 0.5) * stride, (row + 0.5) * stride)


class TestBilinearSample:
    def test_exact_at_cell_center(self):
        rng = np.random.default_rng(0)
        fmap = _map(rng.standard_normal((3, 4, 2)))
        for row, col in [(0, 0), (2, 3), (1, 2)]:
            got = bilinear_sample(fmap, _cell_center(row, col, fmap.stride))
            assert np.allclose(got, fmap.grid[row, col], atol=1e-12)
        assert fmap.oob_count == 0

    def test_midpoint_of_adjacent_centers_is_average(self):
        rng = np.random.default_rng(1)
        fmap = _map(rng.standard_normal((3, 4, 2)))
        x = (1 + 1.0) * fmap.stride  # halfway between columns 1 and 2
        y = (1 + 0.5) * fmap.stride
        got = bilinear_sample(fmap, (x, y))
        expected = 0.5 * (fmap.grid[1, 1] + fmap.grid[1, 2])
        assert np.allclose(got, expected, atol=1e-12)

    def test_2x2_grid_centroid_averages_all_four(self):
        a, b, c, d = 1.0, 2.0, 4.0, 8.0
        fmap = _map(np.array([[[a], [b]], [[c], [d]]]), stride=2.0)
        # geometric center of the four cell centers
        got = bilinear_sample(fmap, (2.0, 2.0))
        assert np.allclose(got, [(a + b + c + d) / 4.0], atol=1e-12)

    def test_linear_along_an_axis(self):
        rng = np.random.default_rng(2)
        fmap = _map(rng.standard_normal((2, 2, 3)))
        left, right = fmap.grid[0, 0], fmap.grid[0, 1]
        y = 0.5 * fmap.stride
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = (0.5 + t) * fmap.stride
            got = bilinear_sample(fmap, (x, y))
            assert np.allclose(got, (1 - t) * left + t * right, atol=1e-12)

    def test_out_of_bounds_clamps_and_counts(self):
        rng = np.random.default_rng(3)
        fmap = _map(rng.standard_normal((3, 3, 1)))
        got = bilinear_sample(fmap, (-10.0, -10.0))
        assert np.allclose(got, fmap.grid[0, 0])
        assert fmap.oob_count == 1
        got = bilinear_sample(fmap, (1000.0, 1000.0))
        assert np.allclose(got, fmap.grid[-1, -1])
        assert fmap.oob_count == 2
        bilinear_sample(fmap, _cell_center(1, 1, fmap.stride))
        assert fmap.oob_count == 2

    def test_half_pixel_offset_convention(self):
        # point at stride/2 lands exactly on grid cell (0, 0)
        fmap = _map(np.arange(4.0).reshape(2, 2, 1), stride=8.0)
        got = bilinear_sample(fmap, (4.0, 4.0))
        assert np.allclose(got, fmap.grid[0, 0])


class TestExtractKeypointFeatures:
    def test_concatenates_last_then_second(self):
        last = _map(np.full((3, 3, 5), 2.0))
        second = _map(np.full((3, 3, 3), -1.0))
        out = extract_keypoint_features(BackboneOutput(last, second), [(3.0, 3.0)])
        assert out.shape == (1, 8)
        assert np.allclose(out[0], [2.0] * 5 + [-1.0] * 3)

    def test_matches_individual_samples(self):
        # the gather equals the scalar oracle bit for bit and counts the same
        # clamped samples, inside, on and beyond the borders of the 4 x 5
        # grid: at the outer cell centres (9, 7) and on the far image border
        # (10, 8), given here in units of stride / 2
        rng = np.random.default_rng(4)
        for stride in (2.0, 3.5):
            bb = _random_backbone(rng, stride=stride)
            oracle_bb = BackboneOutput(_map(bb.last.grid, stride),
                                       _map(bb.second_last.grid, stride))
            kps = np.vstack([
                rng.uniform(-3.0, 13.0, size=(40, 2)),
                [(1.0, 1.0), (9.0, 7.0), (0.0, 4.0), (5.0, 8.0), (9.5, 7.5), (3.0, 3.0),
                 (10.0, 8.0), (10.0, 3.0), (4.0, 8.0), (0.0, 0.0)],
            ]) * (stride / 2.0)
            out = extract_keypoint_features(bb, kps)
            expected = [
                np.concatenate([bilinear_sample(oracle_bb.last, kp),
                                bilinear_sample(oracle_bb.second_last, kp)])
                for kp in kps
            ]
            assert np.array_equal(out, np.asarray(expected)), stride
            assert bb.last.oob_count == oracle_bb.last.oob_count > 0
            assert bb.second_last.oob_count == oracle_bb.second_last.oob_count

    def test_duplicate_keypoints_give_identical_rows(self):
        rng = np.random.default_rng(5)
        bb = _random_backbone(rng)
        out = extract_keypoint_features(bb, [(3.1, 4.2), (3.1, 4.2), (3.1, 4.2)])
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[1], out[2])

    def test_row_order_follows_keypoint_order(self):
        rng = np.random.default_rng(6)
        bb = _random_backbone(rng)
        kps = rng.uniform(1.0, 7.0, size=(5, 2))
        perm = rng.permutation(5)
        base = extract_keypoint_features(bb, kps)
        shuffled = extract_keypoint_features(bb, kps[perm])
        assert np.allclose(shuffled, base[perm], atol=1e-12)


class TestGlobalToken:
    def _store(self, rng, in_width, d_model):
        store = ParameterStore()
        store.register("backbone.global_proj", rng.standard_normal((in_width, d_model)))
        return store

    def test_constant_maps_project_the_constant(self):
        rng = np.random.default_rng(7)
        last = _map(np.full((4, 4, 2), 3.0))
        second = _map(np.full((4, 4, 3), -0.5))
        store = self._store(rng, 5, 6)
        token, _ = global_token(BackboneOutput(last, second).pooled[None], store)
        raw = np.array([3.0, 3.0, -0.5, -0.5, -0.5]) @ store.value("backbone.global_proj")
        assert np.allclose(token[0], raw / np.linalg.norm(raw), atol=1e-12)

    def test_pooled_input_is_the_spatial_mean(self):
        bb = _random_backbone(np.random.default_rng(8))
        pooled = np.concatenate(
            [bb.last.grid.mean(axis=(0, 1)), bb.second_last.grid.mean(axis=(0, 1))]
        )
        assert np.array_equal(bb.pooled, pooled)

    def test_unit_norm(self):
        rng = np.random.default_rng(12)
        pooled = np.stack([_random_backbone(rng).pooled for _ in range(5)])
        pooled[2] = 0.0  # a zero row stays zero under the norm guard
        tokens, _ = global_token(pooled, self._store(rng, pooled.shape[1], 8))
        norms = np.linalg.norm(tokens, axis=1)
        np.testing.assert_allclose(np.delete(norms, 2), 1.0, atol=1e-12)
        assert norms[2] == 0.0

    def test_batch_matches_per_row_oracle(self):
        rng = np.random.default_rng(9)
        store = self._store(rng, 5, 8)
        proj = store.value("backbone.global_proj")
        for k in (1, 2, 7):
            pooled = np.stack([_random_backbone(rng).pooled for _ in range(k)])
            g_tokens = rng.standard_normal((k, 8))
            store.zero_grads()
            tokens, cache = global_token(pooled, store)
            global_token_backward(cache, g_tokens, store)
            for row, token in zip(pooled, tokens):
                np.testing.assert_allclose(token, row_global_token(row, proj),
                                           rtol=1e-12, atol=1e-12)
            expected = sum(row_global_token_grad(row, proj, g)
                           for row, g in zip(pooled, g_tokens))
            np.testing.assert_allclose(store.grad("backbone.global_proj"), expected,
                                       rtol=1e-12, atol=1e-12)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        bb = _random_backbone(rng)
        store = self._store(rng, _concat_width(bb) + 1, 4)
        with pytest.raises(ValueError, match="backbone width"):
            global_token(bb.pooled[None], store)

    def test_projection_gradient(self):
        rng = np.random.default_rng(11)
        pooled = np.stack([_random_backbone(rng).pooled for _ in range(3)])
        store = self._store(rng, pooled.shape[1], 6)
        probe = rng.standard_normal((3, 6))

        def forward(params):
            tokens, cache = global_token(pooled, params)
            return (float(np.sum(tokens * probe)),
                    lambda: global_token_backward(cache, probe, params))

        reports = grad_check(forward, store, rng=np.random.default_rng(0))
        assert all_passed(reports), [r.failure for r in reports if not r.passed]


class TestSyntheticBackbone:
    def _well_separated(self):
        kps = np.array([[6.0, 6.0], [26.0, 6.0], [6.0, 26.0], [26.0, 26.0]])
        rng = np.random.default_rng(12)
        latents = rng.standard_normal((4, 8))
        return latents, kps

    def test_output_shapes_and_tags(self):
        latents, kps = self._well_separated()
        bb = synthetic_backbone(latents, kps, noise_level=0.0, seed=0)
        assert bb.last.grid.shape == (16, 16, 4)
        assert bb.second_last.grid.shape == (16, 16, 4)
        assert bb.last.stride == 2.0
        assert _concat_width(bb) == 8

    def test_noise_free_round_trip_recovers_latents(self):
        latents, kps = self._well_separated()
        bb = synthetic_backbone(latents, kps, noise_level=0.0, seed=0)
        feats = extract_keypoint_features(bb, kps)
        for row, latent in zip(feats, latents):
            cos = row @ latent / (np.linalg.norm(row) * np.linalg.norm(latent))
            assert cos >= 0.99

    def test_same_seed_bit_identical(self):
        latents, kps = self._well_separated()
        a = synthetic_backbone(latents, kps, noise_level=0.7, seed=42)
        b = synthetic_backbone(latents, kps, noise_level=0.7, seed=42)
        assert np.array_equal(a.last.grid, b.last.grid)
        assert np.array_equal(a.second_last.grid, b.second_last.grid)

    def test_different_seeds_differ_when_noisy(self):
        latents, kps = self._well_separated()
        a = synthetic_backbone(latents, kps, noise_level=0.7, seed=1)
        b = synthetic_backbone(latents, kps, noise_level=0.7, seed=2)
        assert not np.array_equal(a.last.grid, b.last.grid)

    def test_noise_free_output_is_seed_independent(self):
        latents, kps = self._well_separated()
        a = synthetic_backbone(latents, kps, noise_level=0.0, seed=1)
        b = synthetic_backbone(latents, kps, noise_level=0.0, seed=2)
        assert np.array_equal(a.last.grid, b.last.grid)
        assert np.array_equal(a.second_last.grid, b.second_last.grid)

    def test_noise_degrades_recovery_monotonically(self):
        latents, kps = self._well_separated()

        def mean_cosine(noise):
            total = 0.0
            for seed in range(5):
                bb = synthetic_backbone(latents, kps, noise_level=noise, seed=seed)
                feats = extract_keypoint_features(bb, kps)
                total += np.mean(
                    [
                        r @ l / (np.linalg.norm(r) * np.linalg.norm(l))
                        for r, l in zip(feats, latents)
                    ]
                )
            return total / 5.0

        scores = [mean_cosine(n) for n in (0.0, 0.5, 2.0)]
        assert scores[0] > scores[1] > scores[2]

    def test_latent_count_must_match_keypoints(self):
        with pytest.raises(ValueError, match="one latent per keypoint"):
            synthetic_backbone(np.ones((2, 4)), np.ones((3, 2)), 0.0, seed=0)

    def test_latent_width_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            synthetic_backbone(np.ones((2, 5)), np.ones((2, 2)), 0.0, seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_level"):
            synthetic_backbone(np.ones((2, 4)), np.ones((2, 2)), -0.1, seed=0)


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        bb = _random_backbone(rng, h=6, w=7, c_last=4, c_second=3, stride=2.0)
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, bb)
        back = read_feature_file(path)
        # payload is stored as float32, so compare after the same quantization
        assert np.array_equal(back.last.grid, bb.last.grid.astype(np.float32))
        assert np.array_equal(back.second_last.grid, bb.second_last.grid.astype(np.float32))
        assert back.last.stride == back.second_last.stride == 2.0

    def test_float32_payload_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(14)
        bb = _random_backbone(rng, h=3, w=3, c_last=2, c_second=2)
        bb.last.grid[...] = bb.last.grid.astype(np.float32)
        bb.second_last.grid[...] = bb.second_last.grid.astype(np.float32)
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, bb)
        back = read_feature_file(path)
        assert np.array_equal(back.last.grid, bb.last.grid)
        assert np.array_equal(back.second_last.grid, bb.second_last.grid)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nmtf"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_feature_file(path)

    def test_bad_version_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        bb = _random_backbone(rng, h=2, w=2, c_last=1, c_second=1)
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, bb)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_feature_file(path)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(16)
        bb = _random_backbone(rng, h=4, w=4, c_last=2, c_second=2)
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, bb)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(ValueError, match="truncated"):
            read_feature_file(path)

    def test_errors_name_the_file(self, tmp_path):
        rng = np.random.default_rng(18)
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, _random_backbone(rng, h=2, w=2, c_last=1, c_second=1))
        raw = path.read_bytes()
        for broken, message in ((b"XXXX" + raw[4:], "not a feature-map file"),
                                (raw[:4] + (99).to_bytes(4, "little") + raw[8:],
                                 "unsupported feature-map version 99"),
                                (raw[:20], "truncated feature-map file")):
            path.write_bytes(broken)
            with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
                read_feature_file(path)

    # header layout: magic, then <IIIII version h w c_last c_second, then <f stride
    @pytest.mark.parametrize("field,offset,fmt,value", [
        ("stride", 24, "<f", 0.0),
        ("stride", 24, "<f", -2.0),
        ("stride", 24, "<f", float("inf")),
        ("stride", 24, "<f", float("nan")),
        ("h", 8, "<I", 0),
        ("w", 12, "<I", 0),
        ("c_last", 16, "<I", 0),
        ("c_second", 20, "<I", 0),
    ])
    def test_hostile_header_field_rejected_with_path(self, tmp_path, field, offset, fmt, value):
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, _random_backbone(np.random.default_rng(19), h=2, w=3))
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: '{field}' must be positive")):
            read_feature_file(path)

    def test_oversized_header_rejected_before_any_read(self, tmp_path):
        # h * w * c of 2**31 each would size a read past any index; the
        # payload is checked against the file first
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, _random_backbone(np.random.default_rng(20), h=2, w=2))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<III", raw, 8, 2**31, 2**31, 2**31)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated feature-map file")):
            read_feature_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected_with_path(self, tmp_path, bad):
        bb = _random_backbone(np.random.default_rng(21), h=2, w=2)
        bb.second_last.grid[1, 0, 1] = bad
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, bb)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: 'second_last' grid values must be finite")):
            read_feature_file(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "pair.nmtf"
        write_feature_file(path, _random_backbone(np.random.default_rng(22)))
        before = path.read_bytes()
        bb = _random_backbone(np.random.default_rng(23))
        # fails to convert after the header and the last map are written
        bb.second_last.grid = np.full(bb.second_last.grid.shape, "x")
        with pytest.raises(ValueError, match="could not convert"):
            write_feature_file(path, bb)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pair.nmtf"]

    def test_mismatched_maps_rejected_on_write(self, tmp_path):
        last = _map(np.zeros((3, 3, 2)))
        second = _map(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError, match="share grid shape"):
            write_feature_file(tmp_path / "pair.nmtf", BackboneOutput(last, second))


class TestBackboneSwap:
    def test_hand_built_maps_flow_through_unchanged(self):
        # downstream stages only see FeatureMap grids, so any backbone that
        # produces the same grids produces the same features and token
        rng = np.random.default_rng(17)
        latents = rng.standard_normal((3, 8))
        kps = np.array([[8.0, 8.0], [24.0, 8.0], [16.0, 24.0]])
        bb = synthetic_backbone(latents, kps, noise_level=0.3, seed=5)
        mock = BackboneOutput(
            last=_map(bb.last.grid.copy(), bb.last.stride),
            second_last=_map(bb.second_last.grid.copy(), bb.second_last.stride),
        )
        store = ParameterStore()
        store.register("backbone.global_proj", rng.standard_normal((8, 6)))
        assert np.array_equal(
            extract_keypoint_features(bb, kps), extract_keypoint_features(mock, kps)
        )
        token_a, _ = global_token(bb.pooled[None], store)
        token_b, _ = global_token(mock.pooled[None], store)
        assert np.array_equal(token_a, token_b)

    def test_maps_with_two_strides_rejected_where_built(self):
        # one gather samples both maps with the last map's stride, so a
        # second map with another stride must fail at construction (another
        # grid shape: test_mismatched_maps_rejected_on_write); the channel
        # counts may differ
        grid = np.zeros((3, 3, 2))
        with pytest.raises(ValueError, match="both maps must share grid shape and stride"):
            BackboneOutput(_map(grid, stride=2.0), _map(grid, stride=4.0))
        assert BackboneOutput(_map(grid), _map(np.zeros((3, 3, 5)))).pooled.shape == (7,)

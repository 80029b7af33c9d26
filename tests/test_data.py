import hashlib
import json
import re

import numpy as np
import oracles
import pytest

from normmatch.config import DataConfig, TrainConfig
from normmatch.data import (
    _MIN_SEP,
    IMAGE_SIZE,
    _sample_keypoints,
    class_latent_bank,
    generate_dataset,
    generate_pair,
    pair_to_record,
    read_dataset,
    record_to_pair,
    write_dataset,
)
from normmatch.features import write_feature_file
from normmatch.model import MatchingModel


def _identity_spec(**overrides):
    base = dict(
        rotation_deg=0.0,
        scale_min=1.0,
        scale_max=1.0,
        translation_max=0.0,
        jitter_sigma=0.0,
        noise_level=0.0,
    )
    base.update(overrides)
    return DataConfig(**base)


class TestClassLatentBank:
    def test_rows_are_unit_norm(self):
        bank = class_latent_bank(3, latent_dim=16, slots=10)
        assert bank.shape == (10, 16)
        assert np.allclose(np.linalg.norm(bank, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = class_latent_bank(7, latent_dim=8, slots=12)
        b = class_latent_bank(7, latent_dim=8, slots=12)
        assert np.array_equal(a, b)

    def test_classes_differ(self):
        a = class_latent_bank(0, latent_dim=8, slots=12)
        b = class_latent_bank(1, latent_dim=8, slots=12)
        assert not np.array_equal(a, b)

    def test_memoized_read_only_and_copied_into_pairs(self):
        bank = class_latent_bank(5, latent_dim=8, slots=8)
        assert class_latent_bank(5, latent_dim=8, slots=8) is bank
        assert not bank.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 1.0
        spec = DataConfig(m_min=5, m_max=8)
        pair = generate_pair(spec, class_id=5, seed=2, latent_dim=8)
        before = pair.latents.copy()
        assert pair.latents.flags.writeable
        for shared in (bank, class_latent_bank(5, 8, 8)):
            assert not np.shares_memory(pair.latents, shared)
        pair.latents[...] = 0.0  # a caller's edit reaches no later pair
        assert np.array_equal(generate_pair(spec, class_id=5, seed=2, latent_dim=8).latents,
                              before)


class TestSampleKeypoints:
    """The sampler against the loop it replaced: same points, same draws."""

    @staticmethod
    def _both(seed, m):
        rng_got, rng_want = np.random.default_rng([seed, m]), np.random.default_rng([seed, m])
        got = _sample_keypoints(rng_got, m)
        want, attempts = oracles.loop_sample_keypoints(rng_want, m)
        assert got.tobytes() == want.tobytes(), (seed, m)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state, (seed, m)
        return got, attempts

    # 3047 (seed, m) draws with the crowded test below; m 5-20 spans the desk and
    # full-scale ranges, and near m = 23 the fallback starts to fire
    @pytest.mark.parametrize("ms, seeds", [
        ((1, 2), 650),
        (range(5, 11), 250),
        (range(11, 21), 24),
        (range(21, 26), 1),
    ], ids=["m1-2", "m5-10", "m11-20", "m21-25"])
    def test_matches_loop_oracle(self, ms, seeds):
        for m in ms:
            for seed in range(seeds):
                self._both(seed, m)

    def test_candidate_at_the_separation_decided_as_np_linalg_norm_does(self):
        # 5 px from the first point by np.linalg.norm; with a fused multiply-add
        # in its dot product, an elementwise square-and-sum rounds below 5
        draws = [[10.0, 10.0], [12.337343531541615, 14.420048101046024], [25.0, 25.0]]

        class Replay:
            def __init__(self):
                self.rows = iter(draws)

            def uniform(self, lo, hi, size):
                return np.array(next(self.rows))

        want, _ = oracles.loop_sample_keypoints(Replay(), 2)
        assert _sample_keypoints(Replay(), 2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [30, 40])
    def test_crowded_fallback_matches_loop_oracle(self, m):
        points, attempts = self._both(0, m)
        assert attempts > 200 * m
        diff = points[:, None, :] - points[None, :, :]
        dist = np.linalg.norm(diff, axis=2) + np.diag(np.full(m, np.inf))
        assert dist.min() < _MIN_SEP  # the fallback accepted a point too close


def _digests(pairs) -> dict[str, str]:
    out = {}
    for field in ("keypoints1", "keypoints2", "truth", "latents"):
        h = hashlib.sha256()
        for pair in pairs:
            dtype = "<i8" if field == "truth" else "<f8"
            h.update(np.ascontiguousarray(getattr(pair, field), dtype=dtype).tobytes())
        out[field] = h.hexdigest()
    return out


class TestPinnedData:
    """Generated data, pinned: any moved bit in any pair fails.

    The digests were computed with the per-point np.linalg.norm sampler.
    """

    DESK = dict(num_classes=10, noise_level=0.02, jitter_sigma=0.3)

    def test_desk_dataset(self):
        spec = DataConfig(num_pairs=300, m_min=5, m_max=10, **self.DESK)
        assert _digests(generate_dataset(spec, latent_dim=32, seed=12)) == {
            "keypoints1": "de8a5bef7de981360e880ec55591a095caaa2388fd2b1401a94ba0ad286c158e",
            "keypoints2": "e1e2548a12d2b26a262e4d60607abe757c708e6cb7200dcd47b96d3221cc9e7e",
            "truth": "8a083b79ee63eb9962ea131a90bcadc78c190a79d31d956c5c173e1be9958b4e",
            "latents": "b96a92959fee9355143d98e680208567689f2ba3617ff321c57065ed3708eba7",
        }

    def test_full_scale_range_dataset(self):
        spec = DataConfig(num_pairs=100, m_min=10, m_max=20, **self.DESK)
        assert _digests(generate_dataset(spec, latent_dim=32, seed=13)) == {
            "keypoints1": "5903c82f8c2834074193a29a48c8ea674a9fe657544d44815737203c7d3cb704",
            "keypoints2": "5a6b6632868d9a2dbf455281eee8be0a509ed0e8d04871178f35c506e663a4b7",
            "truth": "9724bda0863d192f46049bb4ce3b0a65847641ae6c41fcf5bf52c606e5aa9de3",
            "latents": "c25d4adfa329f880cbef8f8c59639feb7ae599a5a14ae89d4b5bc5379ce1b0b9",
        }


class TestGeneratePair:
    def test_same_seed_identical(self):
        spec = DataConfig()
        a = generate_pair(spec, class_id=2, seed=11, latent_dim=16)
        b = generate_pair(spec, class_id=2, seed=11, latent_dim=16)
        assert np.array_equal(a.keypoints1, b.keypoints1)
        assert np.array_equal(a.keypoints2, b.keypoints2)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.latents, b.latents)

    def test_truth_records_the_shuffle(self):
        # with an identity warp, row truth[i] of image 2 is keypoint i of image 1
        pair = generate_pair(_identity_spec(), class_id=0, seed=4, latent_dim=8)
        assert sorted(pair.truth.tolist()) == list(range(pair.m))
        assert np.allclose(pair.keypoints2[pair.truth], pair.keypoints1, atol=1e-12)

    def test_keypoint_count_in_range(self):
        spec = DataConfig(m_min=4, m_max=7)
        for seed in range(10):
            pair = generate_pair(spec, class_id=1, seed=seed, latent_dim=8)
            assert 4 <= pair.m <= 7

    def test_keypoints_respect_margin_and_separation(self):
        spec = DataConfig()
        for seed in range(10):
            kp1 = generate_pair(spec, class_id=0, seed=seed, latent_dim=8).keypoints1
            assert np.all(kp1 >= 3.0) and np.all(kp1 <= IMAGE_SIZE - 3.0)
            diff = kp1[:, None, :] - kp1[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= 5.0

    def test_warped_keypoints_stay_in_image(self):
        spec = DataConfig()
        for seed in range(20):
            kp2 = generate_pair(spec, class_id=0, seed=seed, latent_dim=8).keypoints2
            assert np.all(kp2 >= 0.0) and np.all(kp2 <= IMAGE_SIZE)

    def test_latents_drawn_from_class_bank(self):
        spec = DataConfig(m_min=5, m_max=8)
        pair = generate_pair(spec, class_id=4, seed=9, latent_dim=16)
        bank = class_latent_bank(4, latent_dim=16, slots=8)
        for latent in pair.latents:
            assert any(np.array_equal(latent, row) for row in bank)

    @pytest.mark.parametrize("overrides, args, message", [
        (dict(m_min=0, m_max=0), {}, "1 <= m_min <= m_max"),
        (dict(m_min=6, m_max=5), {}, "1 <= m_min <= m_max"),
        (dict(jitter_sigma=-0.1), {}, "jitter_sigma"),
        (dict(scale_min=-0.5), {}, "scale_min"),
        (dict(), dict(latent_dim=7), "latent_dim must be even and >= 2, got 7"),
        (dict(), dict(latent_dim=0), "latent_dim must be even and >= 2, got 0"),
        (dict(), dict(class_id=-1), "0 <= class_id < 10, got seed 0, class_id -1"),
        (dict(num_classes=3), dict(class_id=3), "0 <= class_id < 3, got seed 0, class_id 3"),
        (dict(), dict(class_id=99), "0 <= class_id < 10, got seed 0, class_id 99"),
        (dict(), dict(seed=-1), "need seed >= 0 and 0 <= class_id < 10, got seed -1, class_id 0"),
    ], ids=["m_max-0", "m_min-above-m_max", "jitter-negative", "scale_min-negative",
            "latent_dim-odd", "latent_dim-0", "class_id-negative", "class_id-num_classes",
            "class_id-99", "seed-negative"])
    def test_bad_inputs_rejected_where_they_enter(self, overrides, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_pair(DataConfig(**overrides), **dict(class_id=0, seed=0, latent_dim=8) | args)

    def test_latents2_reorders_by_truth(self):
        pair = generate_pair(DataConfig(), class_id=2, seed=5, latent_dim=8)
        lat2 = pair.latents2()
        assert np.array_equal(lat2[pair.truth], pair.latents)

    def test_backbone_outputs_deterministic_and_distinct(self):
        pair = generate_pair(DataConfig(noise_level=0.1), class_id=1, seed=6,
                             latent_dim=8)
        b1a, b2a = pair.backbone_outputs()
        b1b, b2b = pair.backbone_outputs()
        assert np.array_equal(b1a.last.grid, b1b.last.grid)
        assert np.array_equal(b2a.last.grid, b2b.last.grid)
        # the two images get independent noise streams
        assert not np.array_equal(b1a.last.grid, b2a.last.grid)


class TestGenerateDataset:
    def test_negative_num_pairs_rejected(self):
        with pytest.raises(ValueError, match=re.escape("num_pairs must be >= 0, got -1")):
            generate_dataset(DataConfig(), latent_dim=8, seed=0, num_pairs=-1)
        assert generate_dataset(DataConfig(), latent_dim=8, seed=0, num_pairs=0) == []

    def test_size_and_round_robin_classes(self):
        spec = DataConfig(num_pairs=7, num_classes=3)
        pairs = generate_dataset(spec, latent_dim=8, seed=0)
        assert len(pairs) == 7
        assert [p.class_id for p in pairs] == [0, 1, 2, 0, 1, 2, 0]

    def test_deterministic(self):
        spec = DataConfig(num_pairs=4, num_classes=2)
        a = generate_dataset(spec, latent_dim=8, seed=5)
        b = generate_dataset(spec, latent_dim=8, seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.keypoints1, pb.keypoints1)
            assert np.array_equal(pa.truth, pb.truth)

    def test_seeds_do_not_collide_across_dataset_seeds(self):
        spec = DataConfig(num_pairs=3, num_classes=1)
        a = generate_dataset(spec, latent_dim=8, seed=1)
        b = generate_dataset(spec, latent_dim=8, seed=2)
        assert not np.array_equal(a[0].keypoints1, b[0].keypoints1)

    def test_num_pairs_override(self):
        spec = DataConfig(num_pairs=50, num_classes=5)
        pairs = generate_dataset(spec, latent_dim=8, seed=0, num_pairs=6)
        assert len(pairs) == 6


class TestDatasetIO:
    def test_jsonl_round_trip_exact(self, tmp_path):
        spec = DataConfig(num_pairs=5, num_classes=2)
        pairs = generate_dataset(spec, latent_dim=8, seed=3)
        path = tmp_path / "pairs.jsonl"
        write_dataset(path, pairs)
        back = read_dataset(path)
        assert len(back) == len(pairs)
        for orig, got in zip(pairs, back):
            assert got.image1 == orig.image1
            assert got.class_id == orig.class_id
            assert np.array_equal(got.keypoints1, orig.keypoints1)
            assert np.array_equal(got.keypoints2, orig.keypoints2)
            assert np.array_equal(got.truth, orig.truth)
            assert np.array_equal(got.latents, orig.latents)
            assert got.noise_level == orig.noise_level
            assert got.seed == orig.seed

    def test_failed_write_keeps_previous_file(self, tmp_path):
        pairs = generate_dataset(DataConfig(num_pairs=2, num_classes=1), latent_dim=8, seed=0)
        path = tmp_path / "pairs.jsonl"
        write_dataset(path, pairs)
        before = path.read_bytes()

        def cut_after_one_line():
            yield pairs[1]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_dataset(path, cut_after_one_line())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]

    def test_blank_lines_skipped(self, tmp_path):
        pairs = generate_dataset(DataConfig(num_pairs=2, num_classes=1),
                                 latent_dim=8, seed=0)
        path = tmp_path / "pairs.jsonl"
        text = "\n".join(
            line for pair in pairs
            for line in ("", json.dumps(pair_to_record(pair)))
        )
        path.write_text(text + "\n\n", encoding="utf-8")
        assert len(read_dataset(path)) == 2

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "pairs.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty pair file")):
            read_dataset(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        pair = generate_pair(DataConfig(), class_id=0, seed=0, latent_dim=8)
        good = json.dumps(pair_to_record(pair))
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(path)

    def test_undecodable_line_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        pair = generate_pair(DataConfig(), class_id=0, seed=0, latent_dim=8)
        path.write_bytes(json.dumps(pair_to_record(pair)).encode() + b'\n{"image1": "\xff"}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: invalid JSON")):
            read_dataset(path)

    @pytest.mark.parametrize("line", ["1", "null", "true", "[]", '"pair"'])
    def test_non_object_record_reports_line(self, tmp_path, line):
        path = tmp_path / "pairs.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: pair record must be a JSON object"):
            read_dataset(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        pair = generate_pair(DataConfig(), class_id=0, seed=0, latent_dim=8)
        record = pair_to_record(pair)
        del record["truth"]
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1.*truth"):
            read_dataset(path)

    def test_truth_must_be_permutation(self):
        pair = generate_pair(DataConfig(), class_id=0, seed=0, latent_dim=8)
        record = pair_to_record(pair)
        record["truth"] = [0] * pair.m
        with pytest.raises(ValueError, match="permutation"):
            record_to_pair(record)

    @pytest.mark.parametrize("field, value", [
        ("keypoints1", []),
        ("keypoints1", [[1.0, 2.0, 3.0]] * 6),
        ("keypoints1", [[1.0, float("inf")]] + [[1.0, 2.0]] * 5),
        ("keypoints2", [[1.0, 2.0]] * 5),
        ("keypoints2", [[1.0, 2.0]] * 5 + [[float("nan"), 2.0]]),
        ("keypoints2", [[1.0, 2.0], [3.0]]),
        ("truth", [[0, 1, 2, 3, 4, 5]]),
        ("truth", [0, 1, 2, 3, 4, 5, 6]),
        ("truth", [0.5, 1, 2, 3, 4, 5]),
        ("latents", [[0.0] * 8] * 5),
        ("latents", [[0.0] * 7] * 6),
        ("class_id", None),
        ("class_id", 1.7),
        ("class_id", True),
        ("seed", None),
        ("seed", 2.0),
        ("seed", -1),
        ("noise_level", None),
        ("noise_level", -1),
        ("noise_level", float("nan")),
        ("noise_level", float("inf")),
        pytest.param("noise_level", 2 ** 1024, id="noise_level-2**1024"),
        ("noise_level", "0.1"),
    ])
    def test_record_field_shapes_checked(self, field, value):
        pair = generate_pair(DataConfig(m_min=6, m_max=6), class_id=0, seed=0,
                             latent_dim=8)
        record = pair_to_record(pair)
        record[field] = value
        with pytest.raises(ValueError, match=repr(field)):
            record_to_pair(record)

    def test_single_keypoint_record_accepted(self):
        pair = generate_pair(DataConfig(m_min=1, m_max=1), class_id=0, seed=0,
                             latent_dim=8)
        assert record_to_pair(pair_to_record(pair)).m == 1

    def test_record_requires_latents_or_feature_files(self):
        pair = generate_pair(DataConfig(), class_id=0, seed=0, latent_dim=8)
        record = pair_to_record(pair)
        del record["latents"]
        with pytest.raises(ValueError, match="latents"):
            record_to_pair(record)

    def test_feature_file_records_round_trip(self, tmp_path):
        pair = generate_pair(_identity_spec(), class_id=0, seed=1, latent_dim=8)
        b1, b2 = pair.backbone_outputs()
        f1, f2 = str(tmp_path / "a.nmtf"), str(tmp_path / "b.nmtf")
        write_feature_file(f1, b1)
        write_feature_file(f2, b2)
        pair.feature_files = (f1, f2)
        pair.latents = None

        record = pair_to_record(pair)
        assert "latents" not in record
        got = record_to_pair(record)
        assert got.feature_files == (f1, f2)
        r1, r2 = got.backbone_outputs()
        assert np.array_equal(r1.last.grid, b1.last.grid.astype(np.float32))
        assert np.array_equal(r2.last.grid, b2.last.grid.astype(np.float32))

    def _feature_dataset(self, tmp_path):
        """Two feature-file records in tmp_path/data, naming maps/<n>.nmtf relatively."""
        data_dir = tmp_path / "data"
        (data_dir / "maps").mkdir(parents=True)
        records = []
        for seed in (1, 2):
            pair = generate_pair(_identity_spec(), class_id=0, seed=seed, latent_dim=8)
            record = pair_to_record(pair)
            del record["latents"]
            for key, out in zip(("features1", "features2"), pair.backbone_outputs()):
                record[key] = f"maps/{seed}-{key}.nmtf"
                write_feature_file(data_dir / record[key], out)
            records.append(record)
        return data_dir / "pairs.jsonl", records

    def test_feature_files_resolve_against_the_dataset_dir(self, tmp_path, monkeypatch):
        path, records = self._feature_dataset(tmp_path)
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # not the dataset's directory
        pairs = read_dataset(path)
        assert pairs[1].feature_files == (str(tmp_path / "data/maps/2-features1.nmtf"),
                                          str(tmp_path / "data/maps/2-features2.nmtf"))
        assert pairs[1].backbone_outputs()[1].last.grid.shape == (16, 16, 4)

    @pytest.mark.parametrize("field, value", [
        ("features1", "maps/absent.nmtf"),
        ("features2", "maps"),  # a directory
        ("features2", 3),
        ("features1", None),
    ])
    def test_bad_feature_file_reports_line_and_field(self, tmp_path, field, value):
        path, records = self._feature_dataset(tmp_path)
        records[1][field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 2: {field!r} must name an existing file"):
            read_dataset(path)

    def test_truncated_feature_file_named_when_its_pair_is_prepared(self, tmp_path):
        path, records = self._feature_dataset(tmp_path)
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        broken = tmp_path / "data" / "maps" / "2-features1.nmtf"
        broken.write_bytes(broken.read_bytes()[:100])
        pair = read_dataset(path)[1]  # the file exists, so the record reads
        model = MatchingModel(TrainConfig(d_model=16, heads=2, decoder_layers=1,
                                          gnn_input_dim=8, mlp_mult=2))
        with pytest.raises(ValueError, match=re.escape(f"{broken}: truncated feature-map file")):
            model.prepare(pair)

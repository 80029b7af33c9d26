import re
import zipfile

import numpy as np
import pytest

from normmatch import checkpoint
from normmatch.checkpoint import (
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from normmatch.config import DataConfig, TrainConfig, config_to_text
from normmatch.data import generate_dataset, generate_pair
from normmatch.model import MatchingModel
from normmatch.train import Adam, train


def _config(**overrides):
    base = dict(d_model=16, heads=2, decoder_layers=2, gnn_input_dim=8,
                kernel_size=5, mlp_mult=2, batch_size=2, epochs=1, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _data(**overrides):
    base = dict(num_pairs=4, num_classes=2, m_min=4, m_max=5,
                jitter_sigma=0.1, noise_level=0.01)
    base.update(overrides)
    return DataConfig(**base)


class TestRoundTrip:
    def test_forward_outputs_bit_identical(self, tmp_path):
        config = _config()
        pairs = generate_dataset(_data(), latent_dim=config.gnn_input_dim, seed=0)
        model, optimizer, history, _ = train(config, pairs)
        probe = generate_pair(_data(), class_id=0, seed=99,
                              latent_dim=config.gnn_input_dim)
        f1, f2, snaps = model.forward_pair(probe)

        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model, optimizer, epoch=config.epochs, history=history)
        loaded, _, _ = model_from_checkpoint(path)
        g1, g2, gsnaps = loaded.forward_pair(probe)

        assert np.array_equal(f1.tokens, g1.tokens)
        assert np.array_equal(f1.global_token, g1.global_token)
        assert np.array_equal(f2.tokens, g2.tokens)
        for a, b in zip(snaps, gsnaps):
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])

    def test_matching_identical_after_reload(self, tmp_path):
        config = _config()
        model = MatchingModel(config)
        probe = generate_pair(_data(), class_id=1, seed=7,
                              latent_dim=config.gnn_input_dim)
        match, plan, C = model.match_pair(probe)

        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        loaded, optimizer, _ = model_from_checkpoint(path)
        match2, plan2, C2 = loaded.match_pair(probe)

        assert optimizer is None
        assert np.array_equal(match.assignment, match2.assignment)
        assert np.array_equal(plan.values, plan2.values)
        assert np.array_equal(C, C2)

    def test_config_and_meta_round_trip(self, tmp_path):
        config = _config(base_lr=1e-3, lr_decay_epochs=(1, 3))
        model = MatchingModel(config)
        history = [{"epoch": 1, "lr": 1e-3, "train_loss": 2.5, "val_accuracy": None}]
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model, epoch=1, history=history)
        loaded_config, _, meta = load_checkpoint(path)
        assert loaded_config == config
        assert meta["epoch"] == 1
        assert meta["history"] == history
        assert meta["opt_t"] is None

    def test_optimizer_state_round_trip(self, tmp_path):
        config = _config()
        pairs = generate_dataset(_data(), latent_dim=config.gnn_input_dim, seed=1)
        model, optimizer, _, _ = train(config, pairs)
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model, optimizer, epoch=1)
        _, loaded_opt, meta = model_from_checkpoint(path)
        assert loaded_opt is not None
        assert loaded_opt.t == optimizer.t
        for name in model.store.trainable_names():
            # moments are f32-quantized on disk
            assert np.array_equal(loaded_opt.m[name],
                                  optimizer.m[name].astype(np.float32))
            assert np.array_equal(loaded_opt.v[name],
                                  optimizer.v[name].astype(np.float32))

    def test_scalar_parameters_survive(self, tmp_path):
        model = MatchingModel(_config())
        model.store.set_value("loss.tau_raw", np.float32(-1.25))
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        loaded, _, _ = model_from_checkpoint(path)
        assert float(loaded.store.value("loss.tau_raw")) == -1.25


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nmtc"
        path.write_bytes(b"ZZZZ" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        model = MatchingModel(_config())
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        _replace_members(path, version=np.array(255))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_arrays(self, tmp_path):
        model = MatchingModel(_config())
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        # a 2-layer checkpoint relabeled as 3-layer lacks the dec2.* arrays
        model = MatchingModel(_config())
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        _replace_members(path, config=np.array(config_to_text(_config(decoder_layers=3))))
        with pytest.raises(ValueError, match="missing parameter"):
            model_from_checkpoint(path)

    def test_moment_of_same_size_and_another_shape_rejected(self, tmp_path):
        model = MatchingModel(_config())
        path = tmp_path / "run.nmtc"
        optimizer = Adam(model.store)
        save_checkpoint(path, model, optimizer)
        flat = optimizer.m["gnn.w1"].reshape(-1, 16).astype(np.float32)
        _replace_members(path, **{"opt.m.gnn.w1": flat})
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint member "
                                                       f"'opt.m.gnn.w1' has shape {flat.shape}")):
            model_from_checkpoint(path)

    def test_edited_config_names_path_and_member(self, tmp_path):
        model = MatchingModel(_config())
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        _replace_members(path, config=np.array(config_to_text(_config(d_model=32))))
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint member "
                                                       "'param.gnn.w1' has shape (25, 8, 16)")):
            model_from_checkpoint(path)


class TestAtomicSave:
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        model = MatchingModel(_config())
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        before = path.read_bytes()

        original, written = checkpoint.write_array, []

        def failing_write(fh, arr, **kwargs):  # fails on the third member
            if len(written) == 2:
                raise OSError("disk full")
            written.append(arr)
            original(fh, arr, **kwargs)

        monkeypatch.setattr(checkpoint, "write_array", failing_write)
        model.store.set_value("loss.tau_raw", np.float32(-3.0))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        assert len(written) == 2
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.nmtc"]

    def test_successful_save_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "fresh.nmtc"
        save_checkpoint(path, MatchingModel(_config()))
        load_checkpoint(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.nmtc"]


class TestCorruption:
    def test_corrupted_desk_checkpoints_fail_cleanly(self, tmp_path):
        # a third truncations, a third 1-3 byte overwrites anywhere, a third
        # 1-3 byte overwrites in the zip headers and central directory
        config = TrainConfig(epochs=1)
        pairs = generate_dataset(DataConfig(), latent_dim=config.gnn_input_dim, seed=0,
                                 num_pairs=config.batch_size)
        model, optimizer, history, _ = train(config, pairs)
        path = tmp_path / "desk.nmtc"
        save_checkpoint(path, model, optimizer, epoch=1, history=history)
        raw = path.read_bytes()
        in_data = np.zeros(len(raw), dtype=bool)
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                start = _member_data_start(raw, info.header_offset)
                in_data[start:start + info.compress_size] = True
        saved = [model.store.value(n) for n in model.store.names()]
        saved += [moments[n].astype(np.float32)
                  for moments in (optimizer.m, optimizer.v) for n in moments]

        rng = np.random.default_rng(20261018)
        bad = tmp_path / "bad.nmtc"
        escapes, accepted, altered = [], [], []
        for case in range(1002):
            corrupt = bytearray(raw)
            if case % 3 == 0:
                offsets = np.array([], dtype=int)
                del corrupt[rng.integers(len(raw)):]
            else:
                pool = len(raw) if case % 3 == 1 else np.flatnonzero(~in_data)
                offsets = rng.choice(pool, size=rng.integers(1, 4), replace=False)
                for off in offsets:
                    corrupt[off] = (corrupt[off] + rng.integers(1, 256)) % 256
            bad.write_bytes(bytes(corrupt))
            try:
                loaded, loaded_opt, _ = model_from_checkpoint(bad)
            except (ValueError, OSError):
                continue
            except Exception as exc:
                escapes.append(f"case {case}: {exc!r}")
                continue
            # truncations and changes to stored member bytes must be caught
            if len(offsets) == 0 or in_data[offsets].any():
                accepted.append(case)
            # a header field the reader ignores may change; the state may not
            got = [loaded.store.value(n) for n in loaded.store.names()]
            got += [moments[n] for moments in (loaded_opt.m, loaded_opt.v) for n in moments]
            if not all(np.array_equal(a, b) for a, b in zip(saved, got, strict=True)):
                altered.append(case)
        assert escapes == []
        assert accepted == []
        assert altered == []


def _replace_members(path, **members) -> None:
    """Rewrite the archive at path with some members replaced."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays.update(members)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _member_data_start(raw: bytes, header_offset: int) -> int:
    """Offset of a member's stored bytes, past its local header."""
    name_len, extra_len = (int.from_bytes(raw[header_offset + k:header_offset + k + 2], "little")
                           for k in (26, 28))
    return header_offset + 30 + name_len + extra_len

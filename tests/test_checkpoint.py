import numpy as np
import pytest

from normmatch import checkpoint
from normmatch.checkpoint import (
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from normmatch.config import DataConfig, TrainConfig
from normmatch.data import generate_dataset, generate_pair
from normmatch.model import MatchingModel
from normmatch.train import train


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
        raw = bytearray(path.read_bytes())
        raw[4:8] = (255).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
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
        relabeled = _swap_config(path.read_bytes(), _config(decoder_layers=3))
        path_bad = tmp_path / "bad.nmtc"
        path_bad.write_bytes(relabeled)
        with pytest.raises(ValueError, match="missing parameter"):
            model_from_checkpoint(path_bad)


class TestAtomicSave:
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        model = MatchingModel(_config())
        path = tmp_path / "run.nmtc"
        save_checkpoint(path, model)
        before = path.read_bytes()

        original, written = checkpoint._write_array, []

        def failing_write(fh, name, arr):  # fails on the third array
            if len(written) == 2:
                raise OSError("disk full")
            written.append(name)
            original(fh, name, arr)

        monkeypatch.setattr(checkpoint, "_write_array", failing_write)
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


def _swap_config(raw: bytes, config) -> bytes:
    import struct

    from normmatch.config import config_to_text

    clen = struct.unpack("<I", raw[8:12])[0]
    rest = raw[12 + clen:]
    blob = config_to_text(config).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(blob)) + blob + rest

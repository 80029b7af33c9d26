import math
import re
from dataclasses import fields

import numpy as np
import pytest

from normmatch.config import (
    DataConfig,
    TrainConfig,
    config_to_text,
    full_scale,
    parse_config_file,
    parse_config_text,
)


class TestDefaults:
    def test_desk_scale_defaults(self):
        cfg = TrainConfig()
        assert cfg.d_model == 64
        assert cfg.heads == 4
        assert cfg.decoder_layers == 2
        assert cfg.gnn_input_dim == 32
        assert cfg.kernel_size == 5
        assert cfg.base_lr == 5e-4
        assert cfg.backbone_lr_factor == 0.03
        assert cfg.lr_decay_epochs == (2, 5)
        assert cfg.lr_decay_factor == 0.1
        assert cfg.epochs == 6
        cfg.validate()

    def test_full_scale(self):
        cfg = full_scale()
        assert cfg.d_model == 648
        assert cfg.heads == 12
        assert cfg.decoder_layers == 4
        assert cfg.gnn_input_dim == 1024
        assert cfg.kernel_size == 5
        cfg.validate()

    def test_data_defaults_valid(self):
        DataConfig().validate()


class TestParsing:
    def test_round_trip_through_text(self):
        cfg = TrainConfig(d_model=32, heads=2, epochs=3, base_lr=1e-3,
                          lr_decay_epochs=(1,), infonce_mode="exclusive")
        parsed, _ = parse_config_text(config_to_text(cfg))
        assert parsed == cfg

    def test_comments_and_blank_lines(self):
        text = """
        # model size
        d_model = 16
        heads = 2  # inline comment

        epochs = 1
        """
        cfg, _ = parse_config_text(text)
        assert cfg.d_model == 16
        assert cfg.heads == 2
        assert cfg.epochs == 1

    def test_data_keys_parse_from_same_file(self):
        cfg, data = parse_config_text("d_model = 16\nheads = 2\nnum_pairs = 12\nm_max = 6\n")
        assert cfg.d_model == 16
        assert data.num_pairs == 12
        assert data.m_max == 6

    def test_decay_epochs_list(self):
        cfg, _ = parse_config_text("lr_decay_epochs = 1,3,4\n")
        assert cfg.lr_decay_epochs == (1, 3, 4)

    def test_decay_epochs_empty(self):
        cfg, _ = parse_config_text("lr_decay_epochs =\n")
        assert cfg.lr_decay_epochs == ()

    def test_unknown_key_is_an_error_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*d_modle"):
            parse_config_text("d_model = 16\nd_modle = 32\n")

    @pytest.mark.parametrize("line, message", [
        ("d_model = abc", "line 2: 'd_model': expected an integer, got 'abc'"),
        ("seed = 1.5", "line 2: 'seed': expected an integer, got '1.5'"),
        ("lr_decay_epochs = 1,x", "line 2: 'lr_decay_epochs': expected comma-separated integers"),
        ("base_lr = fast", "line 2: 'base_lr': expected a number, got 'fast'"),
        ("base_lr = nan", "line 2: 'base_lr': must be finite, got 'nan'"),
        ("noise_level = inf", "line 2: 'noise_level': must be finite"),
        ("lr_decay_factor = -inf", "line 2: 'lr_decay_factor': must be finite"),
        ("layer_loss_p = 1e400", "line 2: 'layer_loss_p': must be finite"),
    ])
    def test_bad_value_names_line_and_key(self, line, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            parse_config_text(f"heads = 2\n{line}\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("just some words\n")

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d_model = 24\nheads = 3\n", encoding="utf-8")
        cfg, _ = parse_config_file(path)
        assert cfg.d_model == 24
        assert cfg.heads == 3

    @pytest.mark.parametrize("text, message", [
        ("d_model = 24\nheads = x\n", "line 2: 'heads': expected an integer"),
        ("d_modle = 24\n", "line 1: unknown config key"),
        ("val_pairs_per_class = 0\n", "val_pairs_per_class"),
        ("backbone_lr_factor = -5\n", "backbone_lr_factor and layer_loss_p must be >= 0"),
        ("layer_loss_p = -3\n", "backbone_lr_factor and layer_loss_p must be >= 0"),
        ("lr_decay_epochs = 2,0\n", "lr_decay_epochs entries must be >= 1"),
        ("rotation_deg = -30\n", "rotation_deg and translation_max must be >= 0"),
        ("translation_max = -1\n", "rotation_deg and translation_max must be >= 0"),
        ("d_model = \xe9\n", "codec can't decode"),
    ])
    def test_file_errors_start_with_the_path(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            parse_config_file(path)


class TestValidation:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError, match="divide"):
            TrainConfig(d_model=10, heads=3).validate()

    def test_gnn_input_dim_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            TrainConfig(gnn_input_dim=7).validate()

    def test_kernel_size_floor(self):
        with pytest.raises(ValueError, match="kernel_size"):
            TrainConfig(kernel_size=1).validate()

    def test_unknown_infonce_mode(self):
        with pytest.raises(ValueError, match="infonce_mode"):
            TrainConfig(infonce_mode="softmaxed").validate()

    def test_parse_validates(self):
        with pytest.raises(ValueError, match="divide"):
            parse_config_text("d_model = 10\nheads = 3\n")

    def test_bad_sinkhorn_settings(self):
        with pytest.raises(ValueError, match="sinkhorn"):
            TrainConfig(sinkhorn_temperature=0.0).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in (TrainConfig, DataConfig)
                                           for f in fields(cls) if isinstance(f.default, float)])
    def test_non_finite_float_fields_named(self, cls, name, bad):
        # validate() is the entry check of library callers, whom _coerce's
        # line-numbered check of config files does not cover
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad!r}$"):
            cls(**{name: bad}).validate()

    @pytest.mark.parametrize("cast", [float, bool])
    @pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in (TrainConfig, DataConfig)
                                           for f in fields(cls) if type(f.default) is int])
    def test_integer_fields_hold_integers(self, cls, name, cast):
        # a float or bool of an in-range value passes every range check, so
        # only the type check stops it before it fails deep in a run
        default = getattr(cls(), name)
        bad = cast(default)
        with pytest.raises(ValueError, match=rf"^{name} must hold integers, got {bad!r}$"):
            cls(**{name: bad}).validate()
        cls(**{name: np.int64(default)}).validate()  # numpy integers are integers

    @pytest.mark.parametrize("bad", [(2.0, 5), (2, True), (np.float64(2.0),)])
    def test_lr_decay_epochs_entries_are_integers(self, bad):
        with pytest.raises(ValueError, match=r"^lr_decay_epochs must hold integers"):
            TrainConfig(lr_decay_epochs=bad).validate()
        TrainConfig(lr_decay_epochs=(np.int64(2), 5)).validate()

    @pytest.mark.parametrize("cls, name, bad, kind", [
        (TrainConfig, "lr_decay_epochs", 3, "a tuple"),
        (TrainConfig, "lr_decay_epochs", [2, 5], "a tuple"),
        (TrainConfig, "base_lr", "1", "a real number"),
        (TrainConfig, "base_lr", True, "a real number"),
        (TrainConfig, "sinkhorn_temperature", None, "a real number"),
        (TrainConfig, "infonce_mode", 1, "a str"),
        (DataConfig, "noise_level", "0.1", "a real number"),
        (DataConfig, "data", 5, "a str"),
    ])
    def test_fields_of_the_wrong_kind_named(self, cls, name, bad, kind):
        # the kind is checked before any range check could fail inside Python
        # or numpy (or, for data, open a file descriptor), against the default's
        message = f"{name} must be {kind}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{name: bad}).validate()

    def test_data_range_checks(self):
        with pytest.raises(ValueError, match="m_min"):
            DataConfig(m_min=5, m_max=3).validate()
        with pytest.raises(ValueError, match="scale"):
            DataConfig(scale_min=0.0).validate()
        with pytest.raises(ValueError, match="val_pairs_per_class .*>= 1"):
            DataConfig(val_pairs_per_class=0).validate()

"""Run configuration: model/training hyperparameters and dataset knobs.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Unknown keys are hard errors so typos cannot silently fall back to defaults.
Model hyperparameters live in TrainConfig; dataset-generation knobs live in
DataConfig; both parse from the same file.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

from .losses import INFONCE_MODES

__all__ = [
    "TrainConfig",
    "DataConfig",
    "full_scale",
    "parse_config_text",
    "parse_config_file",
    "config_to_text",
]


# each field's kind, its default's type, is checked before validate()'s ranges
_KINDS = {int: (numbers.Integral, "hold integers"), float: (numbers.Real, "be a real number"),
          tuple: (tuple, "be a tuple"), str: (str, "be a str")}


def _check_fields(config) -> None:
    for f in fields(config):
        value, (kind, must) = getattr(config, f.name), _KINDS[type(f.default)]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{f.name} must {must}, got {value!r}")
        if kind is numbers.Real and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if kind is tuple and any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
                                 for v in value):
            raise ValueError(f"{f.name} must hold integers, got {value!r}")


@dataclass
class TrainConfig:
    """Model and optimizer hyperparameters.

    Defaults are the desk scale used throughout the tests; :func:`full_scale`
    returns the reference large configuration.
    """

    d_model: int = 64
    heads: int = 4
    decoder_layers: int = 2
    gnn_input_dim: int = 32
    kernel_size: int = 5
    mlp_mult: int = 4
    layer_loss_p: float = 0.3
    batch_size: int = 8
    epochs: int = 6
    base_lr: float = 5e-4
    backbone_lr_factor: float = 0.03
    lr_decay_epochs: tuple[int, ...] = (2, 5)
    lr_decay_factor: float = 0.1
    sinkhorn_temperature: float = 0.1
    sinkhorn_iters: int = 20
    infonce_mode: str = "inclusive"
    seed: int = 0

    def validate(self) -> None:
        _check_fields(self)
        if self.d_model <= 0 or self.heads <= 0:
            raise ValueError("d_model and heads must be positive")
        if self.d_model % self.heads:
            raise ValueError("heads must divide d_model")
        if self.gnn_input_dim <= 0 or self.gnn_input_dim % 2:
            raise ValueError("gnn_input_dim must be positive and even")
        if self.kernel_size < 2:
            raise ValueError("kernel_size must be >= 2")
        if self.decoder_layers < 1:
            raise ValueError("decoder_layers must be >= 1")
        if self.mlp_mult < 1:
            raise ValueError("mlp_mult must be >= 1")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.base_lr < 0 or self.lr_decay_factor <= 0:
            raise ValueError("base_lr must be >= 0 and lr_decay_factor > 0")
        if self.backbone_lr_factor < 0 or self.layer_loss_p < 0:
            raise ValueError("backbone_lr_factor and layer_loss_p must be >= 0")
        if any(e < 1 for e in self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs entries must be >= 1")
        if self.sinkhorn_temperature <= 0 or self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_temperature must be > 0 and iters >= 1")
        if self.infonce_mode not in INFONCE_MODES:
            raise ValueError(f"unknown infonce_mode {self.infonce_mode!r}")


def full_scale() -> TrainConfig:
    """The reference large configuration (648-dim model, 12 heads, 4 layers)."""
    return TrainConfig(
        d_model=648,
        heads=12,
        decoder_layers=4,
        gnn_input_dim=1024,
        batch_size=8,
    )


@dataclass
class DataConfig:
    """Synthetic dataset knobs (plus an optional path to a prebuilt dataset)."""

    num_pairs: int = 2000
    val_pairs_per_class: int = 100
    num_classes: int = 10
    m_min: int = 5
    m_max: int = 10
    jitter_sigma: float = 0.3
    noise_level: float = 0.02
    rotation_deg: float = 30.0
    scale_min: float = 0.8
    scale_max: float = 1.25
    translation_max: float = 3.0
    data: str = ""  # path to a JSONL dataset; empty = generate on the fly

    def validate(self) -> None:
        _check_fields(self)
        if min(self.num_pairs, self.val_pairs_per_class, self.num_classes) < 1:
            raise ValueError("num_pairs, val_pairs_per_class and num_classes must be >= 1")
        if not (1 <= self.m_min <= self.m_max):
            raise ValueError("need 1 <= m_min <= m_max")
        if self.jitter_sigma < 0 or self.noise_level < 0:
            raise ValueError("jitter_sigma and noise_level must be >= 0")
        if not (0 < self.scale_min <= self.scale_max):
            raise ValueError("need 0 < scale_min <= scale_max")
        if self.rotation_deg < 0 or self.translation_max < 0:
            raise ValueError("rotation_deg and translation_max must be >= 0")


_EXPECTED = {int: "an integer", float: "a number", tuple: "comma-separated integers"}


def _coerce(raw: str, current, where: str):
    """raw as a value of current's type; where ("line N: 'key'") opens any error."""
    raw = raw.strip()
    try:
        if isinstance(current, tuple):
            return tuple(int(part) for part in raw.split(",")) if raw else ()
        value = type(current)(raw)
    except ValueError:
        raise ValueError(f"{where}: expected {_EXPECTED[type(current)]}, got {raw!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> tuple[TrainConfig, DataConfig]:
    """Parse ``key = value`` lines into (TrainConfig, DataConfig)."""
    defaults = TrainConfig(), DataConfig()
    owner = {f.name: i for i, cfg in enumerate(defaults) for f in fields(cfg)}
    updates: tuple[dict, dict] = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        i = owner.get(key)
        if i is None:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        updates[i][key] = _coerce(raw, getattr(defaults[i], key), f"line {lineno}: {key!r}")
    train_cfg, data_cfg = (replace(cfg, **u) for cfg, u in zip(defaults, updates))
    train_cfg.validate()
    data_cfg.validate()
    return train_cfg, data_cfg


def parse_config_file(path) -> tuple[TrainConfig, DataConfig]:
    """parse_config_text of the file at path; its errors start with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def config_to_text(cfg: TrainConfig) -> str:
    """Serialize a TrainConfig as config-file text (round-trips via parse)."""
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"

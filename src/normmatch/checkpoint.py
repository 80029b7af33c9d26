"""Checkpoint persistence as a numpy ``.npz`` (zip) archive.

Members, one ``.npy`` each: ``version``, ``config`` (the config text as a 0-d
unicode array), ``meta`` (JSON: epoch, history, optimizer step),
``param.<name>`` and, with optimizer state, ``opt.m.<name>``/``opt.v.<name>``.
Every float array is stored as float32. train() and every Adam step keep
parameter values float32-representable in memory, so a load reproduces
bit-identical forward passes; the Adam moments lose precision. Each member
carries a CRC-32, which zipfile checks when it reads the member.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np
from numpy.lib.format import read_array, write_array

from .atomic import atomic_write
from .config import config_to_text, parse_config_text
from .model import MatchingModel
from .train import Adam

__all__ = ["save_checkpoint", "load_checkpoint", "model_from_checkpoint"]

CHECKPOINT_VERSION = 2


def _members(model: MatchingModel, optimizer: Adam | None, meta: dict):
    """(name, array) pairs, converted one at a time as the writer asks."""
    yield "version", np.array(CHECKPOINT_VERSION)
    yield "config", np.array(config_to_text(model.config))
    yield "meta", np.array(json.dumps(meta))
    store = model.store
    for n in store.names():
        yield f"param.{n}", store.value(n).astype(np.float32)
    if optimizer is not None:
        for n in store.trainable_names():
            yield f"opt.m.{n}", optimizer.m[n].astype(np.float32)
            yield f"opt.v.{n}", optimizer.v[n].astype(np.float32)


def save_checkpoint(path, model: MatchingModel, optimizer: Adam | None = None,
                    epoch: int = 0, history=None) -> None:
    meta = {
        "epoch": int(epoch),
        "history": history or [],
        "opt_t": int(optimizer.t) if optimizer is not None else None,
    }
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, arr in _members(model, optimizer, meta):
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                write_array(member, arr, allow_pickle=False)


def load_checkpoint(path):
    """Returns (TrainConfig, {member name: stored array}, meta dict).

    A file that does not parse raises ValueError naming the path; OSError
    passes through.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"PK\x03\x04":
            raise ValueError(f"{path}: not a checkpoint archive (magic {magic!r})")
        try:
            # read each member whole, so zipfile checks its CRC-32 before numpy parses it
            with zipfile.ZipFile(fh) as archive:
                arrays = {info.filename.removesuffix(".npy"):
                          read_array(io.BytesIO(archive.read(info)), allow_pickle=False)
                          for info in archive.infolist()}
            version = int(arrays.pop("version"))
            if version == CHECKPOINT_VERSION:
                config, _ = parse_config_text(str(arrays.pop("config")))
                meta = json.loads(str(arrays.pop("meta")))
                if not isinstance(meta, dict) or type(meta.get("opt_t")) not in (int, type(None)):
                    raise ValueError("meta is not a JSON object with an integer 'opt_t'")
        except OSError:
            raise
        except Exception as exc:  # zipfile, numpy and the parsers raise many kinds
            raise ValueError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    return config, arrays, meta


def _member(path, arrays, key: str, what: str, shape):
    """arrays[key], which must exist (zipfile silently drops the entries after a
    corrupt directory entry) and have the model's shape."""
    if key not in arrays:
        raise ValueError(f"{path}: checkpoint missing {what} {key!r}")
    if arrays[key].shape != shape:
        raise ValueError(f"{path}: checkpoint member {key!r} has shape {arrays[key].shape}, "
                         f"but the model's {what} has {shape}")
    return arrays[key]


def model_from_checkpoint(path) -> tuple[MatchingModel, Adam | None, dict]:
    """Rebuild a model (and optimizer state if present) from a checkpoint."""
    config, arrays, meta = load_checkpoint(path)
    model = MatchingModel(config)
    for n in model.store.names():
        model.store.set_value(n, _member(path, arrays, f"param.{n}", "parameter",
                                         model.store.value(n).shape))
    optimizer = None
    if meta.get("opt_t") is not None:
        optimizer = Adam(model.store, backbone_lr_factor=config.backbone_lr_factor)
        optimizer.t = meta["opt_t"]
        for n in model.store.trainable_names():
            for moments, key in ((optimizer.m, f"opt.m.{n}"), (optimizer.v, f"opt.v.{n}")):
                moments[n] = _member(path, arrays, key, "Adam moment",
                                     moments[n].shape).astype(np.float64)
    return model, optimizer, meta

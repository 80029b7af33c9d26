"""Binary checkpoint persistence.

Layout (little-endian throughout):

    magic "NMTC" | version u32 | config u32+utf8 | meta u32+utf8 (JSON)
    | n_arrays u32 | arrays

Each array: name (u32 length + utf8), ndim u32, dims u32 each, then f32
data. Parameter values are float32-quantized in memory after every
optimizer step, so the f32 serialization is exact and a load reproduces
bit-identical forward passes.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .config import config_to_text, parse_config_text
from .model import MatchingModel
from .train import Adam

__all__ = ["CHECKPOINT_MAGIC", "save_checkpoint", "load_checkpoint",
           "model_from_checkpoint"]

CHECKPOINT_MAGIC = b"NMTC"
CHECKPOINT_VERSION = 1


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError("truncated checkpoint file")
    return raw


def _read_array(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
    name = _read_exact(fh, name_len).decode("utf-8")
    (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
    shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim)) if ndim else ()
    count = int(np.prod(shape)) if shape else 1
    raw = _read_exact(fh, 4 * count)
    arr = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
    return name, arr


def save_checkpoint(path, model: MatchingModel, optimizer: Adam | None = None,
                    epoch: int = 0, history=None) -> None:
    store = model.store
    meta = {
        "epoch": int(epoch),
        "history": history or [],
        "opt_t": int(optimizer.t) if optimizer is not None else None,
    }
    arrays: list[tuple[str, np.ndarray]] = [
        (f"param.{n}", np.atleast_1d(store.value(n))) for n in store.names()
    ]
    if optimizer is not None:
        for n in store.trainable_names():
            arrays.append((f"opt.m.{n}", np.atleast_1d(optimizer.m[n])))
            arrays.append((f"opt.v.{n}", np.atleast_1d(optimizer.v[n])))
    config_blob = config_to_text(model.config).encode("utf-8")
    meta_blob = json.dumps(meta).encode("utf-8")
    # write a temporary file beside the target and rename it over the
    # target, so a failed save leaves the previous checkpoint intact
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(config_blob)))
            fh.write(config_blob)
            fh.write(struct.pack("<I", len(meta_blob)))
            fh.write(meta_blob)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays:
                _write_array(fh, name, arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (TrainConfig, arrays dict, meta dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (clen,) = struct.unpack("<I", _read_exact(fh, 4))
        config_text = _read_exact(fh, clen).decode("utf-8")
        (mlen,) = struct.unpack("<I", _read_exact(fh, 4))
        meta = json.loads(_read_exact(fh, mlen).decode("utf-8"))
        (n_arrays,) = struct.unpack("<I", _read_exact(fh, 4))
        arrays = dict(_read_array(fh) for _ in range(n_arrays))
    config, _ = parse_config_text(config_text)
    return config, arrays, meta


def model_from_checkpoint(path) -> tuple[MatchingModel, Adam | None, dict]:
    """Rebuild a model (and optimizer state if present) from a checkpoint."""
    config, arrays, meta = load_checkpoint(path)
    model = MatchingModel(config)
    for name in model.store.names():
        stored = arrays.get(f"param.{name}")
        if stored is None:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        model.store.set_value(name, stored.reshape(model.store.value(name).shape))
    optimizer = None
    if meta.get("opt_t") is not None:
        optimizer = Adam(model.store, backbone_lr_factor=config.backbone_lr_factor)
        optimizer.t = int(meta["opt_t"])
        for n in model.store.trainable_names():
            if f"opt.m.{n}" in arrays:
                optimizer.m[n] = arrays[f"opt.m.{n}"].reshape(optimizer.m[n].shape)
                optimizer.v[n] = arrays[f"opt.v.{n}"].reshape(optimizer.v[n].shape)
    return model, optimizer, meta

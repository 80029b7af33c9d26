"""Backbone feature maps, keypoint sampling, and the global token.

A backbone here is anything producing two spatial feature maps (last and
second-to-last layer) on one grid. Keypoint features are bilinearly sampled
from both maps at once, last map first; the global token is the spatial
mean of the concatenated maps pushed through a learned projection and
normalized. The bundled synthetic backbone renders per-keypoint latent
vectors into the maps as Gaussian splats, which keeps the whole pipeline
image-free while preserving the sampling geometry.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .ops import normalize_rows, normalize_rows_backward

__all__ = [
    "FeatureMap",
    "BackboneOutput",
    "extract_keypoint_features",
    "global_token",
    "global_token_backward",
    "synthetic_backbone",
    "write_feature_file",
    "read_feature_file",
]

FEATURE_MAGIC = b"NMTF"
FEATURE_VERSION = 1


@dataclass
class FeatureMap:
    """H x W x c grid of features; stride = image pixels per grid cell."""

    grid: np.ndarray
    stride: float
    oob_count: int = field(default=0, compare=False)


@dataclass
class BackboneOutput:
    """Both maps of one image, on one grid, plus their concatenated spatial means (c,)."""

    last: FeatureMap
    second_last: FeatureMap
    pooled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.last.grid.shape[:2] != self.second_last.grid.shape[:2]
                or self.last.stride != self.second_last.stride):
            raise ValueError("both maps must share grid shape and stride")
        sums = [np.add.reduce(m.grid, axis=(0, 1)) for m in (self.last, self.second_last)]
        self.pooled = np.concatenate(sums) / (self.last.grid.shape[0] * self.last.grid.shape[1])


def extract_keypoint_features(backbone_out: BackboneOutput, keypoints) -> np.ndarray:
    """Per-keypoint samples of both maps, concatenated (last first): (k, c).

    Cell-center convention: grid coordinate = point / stride - 0.5, then a
    4-neighbor blend of both maps' corner rows on their shared grid.
    Out-of-bounds points are clamped and counted in both maps' counters.
    """
    last, second = backbone_out.last, backbone_out.second_last
    h, w, _ = last.grid.shape
    g = np.asarray(keypoints, dtype=np.float64).reshape(-1, 2) / last.stride - 0.5
    c = np.clip(g, 0.0, (w - 1.0, h - 1.0))
    clamped = int(np.count_nonzero((c != g).any(axis=1)))
    last.oob_count += clamped
    second.oob_count += clamped
    lo = np.floor(c).astype(np.intp)
    (x0, y0), (x1, y1) = lo.T, np.minimum(lo + 1, (w - 1, h - 1)).T
    fx, fy = (c - lo).T[:, :, None]
    rows = np.array([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
    q = np.concatenate([m.grid.reshape(h * w, -1)[rows] for m in (last, second)], axis=2)
    return (
        q[0] * (1 - fx) * (1 - fy)
        + q[1] * fx * (1 - fy)
        + q[2] * (1 - fx) * fy
        + q[3] * fx * fy
    )


def global_token(pooled, store):
    """Pooled means (k, c) of k images, projected to d_model and row-normalized."""
    proj = store.value("backbone.global_proj")
    if pooled.shape[1] != proj.shape[0]:
        raise ValueError(
            f"backbone width {pooled.shape[1]} does not match gnn_input_dim {proj.shape[0]}"
        )
    out, nc = normalize_rows(pooled @ proj)
    return out, (pooled, nc)


def global_token_backward(cache, g_tokens, store):
    pooled, nc = cache
    store.add_grad("backbone.global_proj", pooled.T @ normalize_rows_backward(nc, g_tokens))


def synthetic_backbone(latents, keypoints, noise_level: float, seed,
                       grid_shape=(16, 16), stride: float = 2.0,
                       sigma: float = 2.0) -> BackboneOutput:
    """Render per-keypoint latents into two feature maps as Gaussian splats.

    The latent width splits equally between the maps (last half first), so
    sampling the concatenated maps at a well-separated keypoint recovers a
    vector nearly proportional to its latent. Seeded Gaussian noise scaled
    by noise_level is added to every grid cell.
    """
    latents = np.asarray(latents, dtype=np.float64)
    keypoints = np.asarray(keypoints, dtype=np.float64)
    if len(latents) != len(keypoints):
        raise ValueError("one latent per keypoint required")
    if latents.shape[1] % 2:
        raise ValueError("latent width must be even (equal split across maps)")
    if noise_level < 0:
        raise ValueError("noise_level must be >= 0")
    h, w = grid_shape
    half = latents.shape[1] // 2
    ys = (np.arange(h) + 0.5) * stride
    xs = (np.arange(w) + 0.5) * stride
    dy = ys[:, None] - keypoints[:, 1][None, :]
    dx = xs[:, None] - keypoints[:, 0][None, :]
    # (h, w, m) splat weights from squared distances to cell centers
    d2 = dy[:, None, :] ** 2 + dx[None, :, :] ** 2
    weights = np.exp(-d2 / (2.0 * sigma * sigma))

    # both maps' noise in one draw, at any level: fixed stream positions
    grids = np.random.default_rng(seed).standard_normal((2, h, w, half))
    grids *= noise_level
    splat = weights.reshape(h * w, -1)
    for grid, part in zip(grids, (latents[:, :half], latents[:, half:])):
        grid += np.dot(splat, part).reshape(h, w, half)  # tensordot's product
    return BackboneOutput(*(FeatureMap(grid=grid, stride=stride) for grid in grids))


def write_feature_file(path, backbone_out: BackboneOutput) -> None:
    """Serialize both maps: header then row-major f32 grids, last layer first."""
    last, second = backbone_out.last, backbone_out.second_last
    h, w, c_last = last.grid.shape
    c_second = second.grid.shape[2]
    with atomic_write(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIIII", FEATURE_VERSION, h, w, c_last, c_second))
        fh.write(struct.pack("<f", float(last.stride)))
        fh.write(np.ascontiguousarray(last.grid, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(second.grid, dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"{fh.name}: truncated feature-map file")
    return raw


def read_feature_file(path) -> BackboneOutput:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: not a feature-map file (magic {magic!r})")
        version, h, w, c_last, c_second = struct.unpack("<IIIII", _read_exact(fh, 20))
        if version != FEATURE_VERSION:
            raise ValueError(f"{path}: unsupported feature-map version {version}")
        (stride,) = struct.unpack("<f", _read_exact(fh, 4))
        for name, value in dict(h=h, w=w, c_last=c_last, c_second=c_second, stride=stride).items():
            if not 0 < value < np.inf:  # NaN fails too
                raise ValueError(f"{path}: '{name}' must be positive and finite, got {value}")
        if 4 * h * w * (c_last + c_second) > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated feature-map file")  # before sizing a read
        maps = [FeatureMap(np.frombuffer(_read_exact(fh, 4 * h * w * c), dtype="<f4")
                           .reshape(h, w, c).astype(np.float64), stride)
                for c in (c_last, c_second)]
    for name, fmap in zip(("last", "second_last"), maps):
        if not np.isfinite(fmap.grid).all():
            raise ValueError(f"{path}: '{name}' grid values must be finite")
    return BackboneOutput(*maps)

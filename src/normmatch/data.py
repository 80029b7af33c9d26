"""Synthetic correspondence pairs and the JSONL dataset format.

Each pair is two views of the same set of class-conditioned latent points:
image 1 samples keypoints in the image with a minimum separation, image 2
applies a similarity warp (rotation, isotropic scale, translation) plus
coordinate jitter, shuffles the keypoint order, and records the shuffle as
the ground-truth permutation. Latents are rows copied from a per-class bank
(class-conditioned, not pair-local); the last _BANK_MEMO_SIZE banks are memoized.

Dataset files are line-delimited JSON. Every record carries image ids,
both coordinate arrays, the truth permutation, the class id, and either the
latent array (image-1 order) or paths to precomputed feature-map files.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .config import DataConfig
from .features import BackboneOutput, read_feature_file, synthetic_backbone

__all__ = [
    "IMAGE_SIZE",
    "PairSample",
    "class_latent_bank",
    "generate_pair",
    "generate_dataset",
    "write_dataset",
    "read_dataset",
    "pair_to_record",
    "record_to_pair",
]

IMAGE_SIZE = 32.0  # square synthetic image, pixels
_MARGIN = 3.0  # keep sampled keypoints away from the border
_MIN_SEP = 5.0  # minimum pairwise keypoint distance, pixels
_BANK_MEMO_SIZE = 64  # latent banks kept by class_latent_bank's memo


@dataclass
class PairSample:
    """One correspondence problem: two keypoint sets plus supervision."""

    image1: str
    image2: str
    class_id: int
    keypoints1: np.ndarray  # (m, 2) pixels
    keypoints2: np.ndarray  # (m, 2) pixels, shuffled order
    truth: np.ndarray  # truth[i] = row of keypoints2 matching keypoints1[i]
    latents: np.ndarray | None  # (m, latent_dim), image-1 order
    noise_level: float = 0.0
    seed: int = 0
    feature_files: tuple[str, str] | None = None

    def __post_init__(self):
        """Checks the arrays against keypoints1's m however the pair is built; truth is intp."""
        kp1 = np.asarray(self.keypoints1)
        m = len(kp1) if kp1.ndim else 0
        for key in ("keypoints1", "keypoints2"):
            kp = np.asarray(getattr(self, key))
            if m < 1 or kp.shape != (m, 2):
                raise ValueError(f"{key!r} must have shape (m, 2) with m >= 1 matching "
                                 f"'keypoints1', got {kp.shape}")
            if not np.isfinite(kp).all():
                raise ValueError(f"{key!r} must be finite")
        truth = np.asarray(self.truth)
        if truth.shape != (m,):
            raise ValueError(f"'truth' must have shape ({m},), got {truth.shape}")
        if sorted(truth.tolist()) != list(range(m)):
            raise ValueError("'truth' must be a permutation")
        self.truth = truth.astype(np.intp, copy=False)
        if self.feature_files is None or self.latents is not None:  # latents render the maps
            latents = np.asarray(self.latents)
            if latents.ndim != 2 or len(latents) != m or latents.shape[1] % 2:
                raise ValueError(f"'latents' must have shape ({m}, even width), "
                                 f"got {latents.shape}")

    @property
    def m(self) -> int:
        return len(self.keypoints1)

    def latents2(self) -> np.ndarray:
        """Image-2 latents: image-1 latents reordered by the truth permutation."""
        out = np.empty_like(self.latents)
        out[self.truth] = self.latents
        return out

    def backbone_outputs(self) -> tuple[BackboneOutput, BackboneOutput]:
        """Render (or load) the two backbone outputs for this pair."""
        if self.feature_files is not None:
            return tuple(map(read_feature_file, self.feature_files))
        b1 = synthetic_backbone(
            self.latents, self.keypoints1, self.noise_level, seed=[self.seed, 1]
        )
        b2 = synthetic_backbone(
            self.latents2(), self.keypoints2, self.noise_level, seed=[self.seed, 2]
        )
        return b1, b2


@functools.lru_cache(maxsize=_BANK_MEMO_SIZE)
def class_latent_bank(class_id: int, latent_dim: int, slots: int) -> np.ndarray:
    """Deterministic per-class latent bank, memoized and read-only: unit-norm rows."""
    rng = np.random.default_rng([97561, class_id, latent_dim, slots])
    bank = rng.standard_normal((slots, latent_dim))
    bank /= np.linalg.norm(bank, axis=1, keepdims=True)
    bank.setflags(write=False)
    return bank


def _require_integers(**values) -> None:
    """ValueError naming the first value that is not an integer >= 0 (a bool is not one)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name!r} must be a non-negative integer, got {value!r}")


def _sample_keypoints(rng, m: int) -> np.ndarray:
    lo, hi = _MARGIN, IMAGE_SIZE - _MARGIN
    pts = np.empty((m, 2))
    k = attempts = 0
    while k < m:
        cand = pts[k] = rng.uniform(lo, hi, size=2)  # row k holds it until accepted
        attempts += 1
        if k and attempts <= 200 * m:  # past that the set is crowded: accept, not loop
            # (1, 2) @ (2, 1) runs np.linalg.norm's 1-D dot (d * d summed can differ in the
            # last bit); sqrt is monotone, so one root of the least square decides for all
            d = (cand - pts[:k])[:, None, :]
            if np.sqrt(min((d @ d.transpose(0, 2, 1)).ravel().tolist())) < _MIN_SEP:
                continue
        k += 1
    return pts


def _warp(rng, points: np.ndarray, spec: DataConfig) -> np.ndarray:
    theta = np.deg2rad(rng.uniform(-spec.rotation_deg, spec.rotation_deg))
    scale = rng.uniform(spec.scale_min, spec.scale_max)
    shift = rng.uniform(-spec.translation_max, spec.translation_max, size=2)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    center = IMAGE_SIZE / 2
    return (points - center) @ (scale * rot).T + center + shift


def generate_pair(spec: DataConfig, class_id: int, seed: int,
                  latent_dim: int) -> PairSample:
    """One synthetic correspondence pair; fully determined by its arguments."""
    spec.validate()
    if latent_dim < 2 or latent_dim % 2:
        raise ValueError(f"latent_dim must be even and >= 2, got {latent_dim}")
    if seed < 0 or not 0 <= class_id < spec.num_classes:
        raise ValueError(f"need seed >= 0 and 0 <= class_id < {spec.num_classes}, "
                         f"got seed {seed}, class_id {class_id}")
    _require_integers(class_id=class_id, seed=seed, latent_dim=latent_dim)  # a float passes above
    rng = np.random.default_rng([31415, seed])
    m = int(rng.integers(spec.m_min, spec.m_max + 1))
    bank = class_latent_bank(class_id, latent_dim, slots=spec.m_max)
    slot_ids = rng.choice(len(bank), size=m, replace=False)
    latents = bank[slot_ids]

    # keep resampling until the warp leaves at least 90% of points in bounds
    for _ in range(64):
        kp1 = _sample_keypoints(rng, m)
        kp2_aligned = _warp(rng, kp1, spec)
        if spec.jitter_sigma > 0:
            kp2_aligned = kp2_aligned + rng.normal(0.0, spec.jitter_sigma, kp2_aligned.shape)
        inside = np.all((kp2_aligned >= 0.0) & (kp2_aligned <= IMAGE_SIZE), axis=1)
        if inside.mean() >= 0.9:
            break
    kp2_aligned = np.clip(kp2_aligned, 0.0, IMAGE_SIZE)

    truth = rng.permutation(m)
    kp2 = np.empty_like(kp2_aligned)
    kp2[truth] = kp2_aligned

    return PairSample(
        image1=f"c{class_id}-s{seed}-a",
        image2=f"c{class_id}-s{seed}-b",
        class_id=class_id,
        keypoints1=kp1,
        keypoints2=kp2,
        truth=truth,
        latents=latents,
        noise_level=spec.noise_level,
        seed=seed,
    )


def generate_dataset(spec: DataConfig, latent_dim: int, seed: int,
                     num_pairs: int | None = None) -> list[PairSample]:
    """num_pairs samples with classes cycling round-robin, seeds derived from seed."""
    n = spec.num_pairs if num_pairs is None else num_pairs
    if n < 0:
        raise ValueError(f"num_pairs must be >= 0, got {n}")
    _require_integers(latent_dim=latent_dim, seed=seed, num_pairs=n)
    return [
        generate_pair(spec, class_id=i % spec.num_classes,
                      seed=seed * 1_000_003 + i, latent_dim=latent_dim)
        for i in range(n)
    ]


def pair_to_record(pair: PairSample) -> dict:
    record = {
        "image1": pair.image1,
        "image2": pair.image2,
        "class_id": int(pair.class_id),
        "keypoints1": np.asarray(pair.keypoints1).tolist(),
        "keypoints2": np.asarray(pair.keypoints2).tolist(),
        "truth": np.asarray(pair.truth).tolist(),
        "noise_level": float(pair.noise_level),
        "seed": int(pair.seed),
    }
    if pair.feature_files is not None:
        record["features1"], record["features2"] = pair.feature_files
    else:
        record["latents"] = np.asarray(pair.latents).tolist()
    return record


def _numeric_field(record: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(record[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key!r} is not a numeric array ({exc})") from None


def _feature_file(record: dict, key: str, base_dir: str) -> str:
    value = record[key]
    path = os.path.join(base_dir, value) if isinstance(value, str) else ""
    if not os.path.isfile(path):
        raise ValueError(f"{key!r} must name an existing file, got {value!r}")
    return path


def record_to_pair(record: dict, base_dir: str = "") -> PairSample:
    """Checks every field; relative feature-file paths resolve against base_dir."""
    if not isinstance(record, dict):
        raise ValueError(f"pair record must be a JSON object, got {type(record).__name__}")
    required = ["image1", "image2", "class_id", "keypoints1", "keypoints2", "truth"]
    for key in required:
        if key not in record:
            raise ValueError(f"pair record missing field {key!r}")
    has_latents = "latents" in record
    has_files = "features1" in record and "features2" in record
    if not has_latents and not has_files:
        raise ValueError("pair record needs either 'latents' or 'features1'/'features2'")
    noise_level = record.get("noise_level", 0.0)
    if (isinstance(noise_level, bool) or not isinstance(noise_level, (int, float))
            or not 0 <= noise_level <= sys.float_info.max):
        raise ValueError(f"'noise_level' must be finite and >= 0, got {noise_level!r}")
    class_id, seed = record["class_id"], record.get("seed", 0)
    _require_integers(class_id=class_id, seed=seed)
    return PairSample(  # which checks the arrays' shapes and values
        image1=str(record["image1"]),
        image2=str(record["image2"]),
        class_id=class_id,
        keypoints1=_numeric_field(record, "keypoints1"),
        keypoints2=_numeric_field(record, "keypoints2"),
        truth=_numeric_field(record, "truth"),
        latents=_numeric_field(record, "latents") if has_latents else None,
        noise_level=float(noise_level),
        seed=seed,
        feature_files=tuple(_feature_file(record, key, base_dir)
                            for key in ("features1", "features2")) if has_files else None,
    )


def write_dataset(path, pairs) -> None:
    with atomic_write(path, "w") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair_to_record(pair)) + "\n")


def read_dataset(path) -> list[PairSample]:
    """Pairs of a nonempty JSONL file; feature-file paths are relative to its directory."""
    pairs = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # not JSON, or bytes that do not decode
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            try:
                pairs.append(record_to_pair(record, os.path.dirname(path)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not pairs:
        raise ValueError(f"{path}: empty pair file")
    return pairs

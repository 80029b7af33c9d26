"""Digests of training and inference results, for bit-identity checks.

    python tests/fingerprint.py

prints one SHA-256 digest per line:

- ``train seed=<s>`` for seeds 0 and 1: a 2-epoch desk-config training on
  48 generated pairs with batch size 8, covering every parameter, every Adam
  moment and the history JSON;
- ``prepare``: ``MatchingModel.prepare`` of 400 generated desk pairs (each
  image's keypoint features, graph arcs and pseudo-coordinates, and the
  pair's pooled map means), which pins the synthetic render;
- ``match``: 400 ``match_pair`` results (assignment, plan, affinity) of the
  frozen desk model read from ``perfbench/frozen_desk.npz``, on the same
  400 pairs.
- ``loss``: for the same frozen model and pairs, ``forward_pair``, then
  ``total_loss`` without a padding mask in both InfoNCE modes and
  ``total_loss_backward``: the three loss terms and every backward output,
  which pins the unpadded loss entry.

A change that claims bit-identical results prints the same digests as its
parent on the same machine. The script imports normmatch from this
checkout's ``src/``, pins the BLAS libraries to one thread, and writes no
files. pytest does not collect it.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS: one summation order

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from normmatch import DataConfig, MatchingModel, TrainConfig, generate_dataset, train  # noqa: E402
from normmatch.losses import total_loss, total_loss_backward  # noqa: E402

TRAIN_SEEDS = (0, 1)
TRAIN_PAIRS, MATCH_PAIRS = 48, 400
MATCH_DATA_SEED = 20_000


def _digest(arrays, text: str = "") -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(text.encode())
    return h.hexdigest()


def train_digest(seed: int) -> str:
    config = TrainConfig(epochs=2, batch_size=8, seed=seed)
    pairs = generate_dataset(DataConfig(), config.gnn_input_dim, seed=seed,
                             num_pairs=TRAIN_PAIRS)
    model, optimizer, history, _ = train(config, pairs)
    names = model.store.names()
    arrays = [model.store.value(n) for n in names]
    arrays += [moments[n] for moments in (optimizer.m, optimizer.v) for n in sorted(moments)]
    return _digest(arrays, json.dumps(history, sort_keys=True))


def frozen_model_and_pairs():
    model = MatchingModel(TrainConfig())  # the desk configuration of the frozen model
    with np.load(ROOT / "perfbench" / "frozen_desk.npz") as frozen:
        for name in model.store.names():
            model.store.set_value(name, frozen[name].astype(np.float64))
    pairs = generate_dataset(DataConfig(), model.config.gnn_input_dim, seed=MATCH_DATA_SEED,
                             num_pairs=MATCH_PAIRS)
    return model, pairs


def prepare_digest(model, pairs) -> str:
    arrays = []
    for pair in pairs:
        prepared = model.prepare(pair)
        arrays += prepared.features
        arrays += [a for g in prepared.graphs for a in (g.arcs, g.pseudo)]
        arrays.append(prepared.pooled)
    return _digest(arrays)


def match_digest(model, pairs) -> str:
    arrays = []
    for pair in pairs:
        matching, plan, C = model.match_pair(pair)
        arrays += [matching.assignment, plan.values, C]
    return _digest(arrays)


def loss_digest(model, pairs) -> str:
    cfg, arrays = model.config, []
    tau_raw = float(model.store.value("loss.tau_raw"))
    for pair in pairs:
        f1, f2, snapshots = model.forward_pair(pair)
        for mode in ("exclusive", "inclusive"):
            report, cache = total_loss(f1.tokens, f2.tokens, snapshots, pair.truth, tau_raw,
                                       cfg.layer_loss_p, mode)
            g_f1, g_f2, g_snaps, g_tau = total_loss_backward(cache)
            arrays += [np.array([report.infonce, report.hyperspherical_final,
                                 report.hyperspherical_layers, g_tau]), g_f1, g_f2, g_snaps]
    return _digest(arrays)


def main() -> None:
    for seed in TRAIN_SEEDS:
        print(f"train seed={seed}: {train_digest(seed)}", flush=True)
    model, pairs = frozen_model_and_pairs()
    print(f"prepare: {prepare_digest(model, pairs)}", flush=True)
    print(f"match: {match_digest(model, pairs)}", flush=True)
    print(f"loss: {loss_digest(model, pairs)}", flush=True)


if __name__ == "__main__":
    main()

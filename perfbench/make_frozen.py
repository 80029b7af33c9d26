"""Regenerate the frozen trained desk model that the desk_infer workload loads.

    python3 perfbench/make_frozen.py

Trains the desk configuration for its full 6 epochs on the same 2000
synthetic pairs as the end-to-end acceptance test, measures held-out
accuracy on its 300 held-out pairs, and writes:

- ``frozen_desk.npz``: every parameter by its ParameterStore name, as
  float32 (training snaps values to float32, so the round trip is exact);
- ``frozen_desk.json``: the configurations, the training history and the
  held-out accuracy the benchmark checks desk_infer against.

Takes about six minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import env

nm = env.import_normmatch()

import numpy as np  # noqa: E402

from workloads import DESK_DATA, FROZEN_JSON, FROZEN_NPZ  # noqa: E402

TRAIN_SEED = 0
HELDOUT_SEED = 777_000_001
HELDOUT_PAIRS = 300


def main() -> int:
    config = nm.TrainConfig(seed=TRAIN_SEED)
    data = nm.DataConfig(num_pairs=2000, num_classes=10, m_min=5, m_max=10, **DESK_DATA)
    train_pairs = nm.generate_dataset(data, config.gnn_input_dim, seed=TRAIN_SEED)
    heldout = nm.generate_dataset(data, config.gnn_input_dim, seed=HELDOUT_SEED,
                                  num_pairs=HELDOUT_PAIRS)
    t0 = time.perf_counter()
    model, _, history, aborted = nm.train(config, train_pairs,
                                          log=lambda msg: print(msg, flush=True))
    if aborted:
        print("error: training aborted on a non-finite loss")
        return 1
    accuracy = nm.evaluate(model, heldout)["mean"]
    print(f"held-out accuracy {accuracy:.4f} after {time.perf_counter() - t0:.0f} s")

    store = model.store
    np.savez_compressed(
        FROZEN_NPZ, **{name: store.value(name).astype(np.float32) for name in store.names()}
    )
    record = {
        "train_config": dataclasses.asdict(config),
        "data_config": dataclasses.asdict(data),
        "train_seed": TRAIN_SEED,
        "heldout_seed": HELDOUT_SEED,
        "heldout_pairs": HELDOUT_PAIRS,
        "heldout_accuracy": accuracy,
        "history": history,
        "provenance": env.provenance(),
    }
    with open(FROZEN_JSON, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(FROZEN_NPZ, env.CHECKOUT)} and "
          f"{os.path.relpath(FROZEN_JSON, env.CHECKOUT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark workloads.

Every workload is a closed loop with one caller: each pair or minibatch
starts only after the previous one has finished. A run repeats one *round*
of the workload on the same inputs: set-up (data generation plus building
or loading the model), then the timed work, then a held-out evaluation.
Rounds of one run must agree bit for bit.

Keypoint counts are stratified (see make_pairs), so every seed yields the
same multiset of sizes and the amount of work does not depend on the seed;
positions, latents and classes do.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from env import BENCH_DIR, PROBE_NOMINAL_S, SetupError, clock, probe

FROZEN_NPZ = os.path.join(BENCH_DIR, "frozen_desk.npz")
FROZEN_JSON = os.path.join(BENCH_DIR, "frozen_desk.json")

# Data knobs of the end-to-end acceptance test; the frozen model is trained on them.
DESK_DATA = dict(noise_level=0.02, jitter_sigma=0.3)
NUM_CLASSES = 10

# desk_infer accuracy may differ from the frozen model's recorded held-out
# accuracy by sampling noise only; an untrained model scores about 0.66.
ACCURACY_TOLERANCE = 0.03

# match_pair calls between two speed probes (a probe costs about 1% of them)
PROBE_EVERY = 50


def make_pairs(nm, count: int, m_range: tuple[int, int], data_seed: int, latent_dim: int):
    """count synthetic pairs from data_seed, stratified over the keypoint counts.

    Candidates come from the generator's own m range, so latent banks and
    every other property keep the generator's distribution; a candidate is
    kept while its m still has quota left. The quotas spread the count
    evenly over the range: pair i of count gets m_min + i * span // count.
    """
    lo, hi = m_range
    quota = Counter(lo + i * (hi - lo + 1) // count for i in range(count))
    spec = nm.DataConfig(m_min=lo, m_max=hi, num_classes=NUM_CLASSES, **DESK_DATA)
    pairs = []
    for i in range(100 * count):
        pair = nm.generate_pair(spec, class_id=i % NUM_CLASSES,
                                seed=data_seed * 1_000_003 + i, latent_dim=latent_dim)
        if quota[pair.m] > 0:
            quota[pair.m] -= 1
            pairs.append(pair)
            if len(pairs) == count:
                return pairs
    raise SetupError(f"generator gave no pairs for keypoint counts {sorted(+quota)}")


@dataclass
class Round:
    """What one round measured and produced.

    Timed work is cut into segments at speed probes (env.probe). A segment's
    CPU time, and every match_pair latency inside it, is rescaled by the
    mean speed of the probes at its two ends.
    """

    work_pairs: int  # pairs the timed work processed (epochs x pairs for training)
    work_s: float = 0.0  # rescaled CPU seconds of the timed work
    round_s: float = 0.0  # CPU seconds of the round after set-up, probes left out
    pair_ms: list[float] = field(default_factory=list)  # rescaled match_pair latencies
    probes: list[float] = field(default_factory=list)
    segments: list[float] = field(default_factory=list)  # rescaled CPU seconds
    probe_s: float = 0.0  # CPU seconds spent in checkpoints
    loss: float = float("nan")
    accuracy: float = float("nan")
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _open: tuple[float, float, int] | None = None  # (start CPU, probe, first sample)

    def checkpoint(self, *_) -> None:
        """Probe the speed; close the segment since the previous checkpoint."""
        end = clock()
        speed = probe()
        if self._open is not None:
            start, previous, first = self._open
            factor = PROBE_NOMINAL_S / ((previous + speed) / 2)
            self.segments.append((end - start) * factor)
            self.pair_ms[first:] = [ms * factor for ms in self.pair_ms[first:]]
        self.probes.append(speed)
        self._open = (clock(), speed, len(self.pair_ms))
        self.probe_s += self._open[0] - end

    def since(self, t0: float) -> float:
        """CPU seconds since t0, less the checkpoints taken so far (all after t0)."""
        return clock() - t0 - self.probe_s

    def speed(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.probes)

    def fingerprint(self) -> tuple[float, float]:
        return (self.loss, self.accuracy)


def _match_all(model, pairs, rnd: Round) -> None:
    """Closed-loop match_pair over pairs; records latency, accuracy, failures.

    Expects an open segment; leaves one open after the last pair.
    """
    correct = total = 0
    for i, pair in enumerate(pairs):
        if i and i % PROBE_EVERY == 0:
            rnd.checkpoint()
        t0 = clock()
        matching, plan, _ = model.match_pair(pair)
        rnd.pair_ms.append((clock() - t0) * 1e3)
        rnd.attempted += 1
        if not np.all(np.isfinite(plan.values)):
            rnd.failed += 1
            continue
        correct += int(np.sum(matching.assignment == pair.truth))
        total += pair.m
    rnd.checkpoint()
    if rnd.failed:
        rnd.problems.append(f"{rnd.failed} transport plans not finite")
    rnd.accuracy = correct / total if total else float("nan")


class Workload:
    name = ""
    why = ""

    def setup(self, nm, seed: int):
        """Generate the inputs and build or load the model; returns the state."""
        raise NotImplementedError

    def run_round(self, nm, state) -> Round:
        raise NotImplementedError


class TrainWorkload(Workload):
    """train() over a fixed synthetic set, then held-out matching."""

    config: dict
    full_scale = False
    train_pairs = 0
    heldout_pairs = 0
    m_range = (0, 0)
    data_base = 0

    def train_config(self, nm):
        base = nm.full_scale() if self.full_scale else nm.TrainConfig()
        return dataclasses.replace(base, **self.config)

    def setup(self, nm, seed: int):
        config = self.train_config(nm)
        dim = config.gnn_input_dim
        pairs = make_pairs(nm, self.train_pairs, self.m_range, self.data_base + seed, dim)
        heldout = make_pairs(nm, self.heldout_pairs, self.m_range,
                             self.data_base + 5_000 + seed, dim)
        return config, pairs, heldout, nm.MatchingModel(config)

    def run_round(self, nm, state) -> Round:
        config, pairs, heldout, model = state
        rnd = Round(work_pairs=config.epochs * len(pairs))
        rnd.attempted = rnd.work_pairs
        t0 = clock()
        rnd.checkpoint()
        # train() calls log once per epoch, which ends a segment there
        model, _, history, aborted = nm.train(config, pairs, model=model,
                                              log=rnd.checkpoint)
        rnd.work_s = sum(rnd.segments)
        losses = [entry["train_loss"] for entry in history]
        if aborted or len(history) != config.epochs or not np.all(np.isfinite(losses)):
            rnd.failed = rnd.work_pairs
            rnd.problems.append(f"training aborted or non-finite loss: {losses}")
        rnd.loss = float(losses[-1]) if losses else float("nan")
        _match_all(model, heldout, rnd)
        rnd.round_s = rnd.since(t0)
        return rnd


class DeskTrain(TrainWorkload):
    name = "desk_train"
    why = ("desk config through train() for 2 epochs: spline GNN forward/backward "
           "dominate and per-pair preparation repeats every epoch")
    config = dict(epochs=2)
    train_pairs = 160
    heldout_pairs = 200
    m_range = (5, 10)
    data_base = 10_000


class FullTrain(TrainWorkload):
    name = "full_train"
    why = ("full_scale() model (54.65M parameters): GNN backward and the "
           "Adam + float32 snap step dominate; peak memory about 2 GB")
    full_scale = True
    config = dict(epochs=1)
    train_pairs = 16
    heldout_pairs = 16
    m_range = (10, 20)
    data_base = 30_000


class DeskInfer(Workload):
    """The frozen trained desk model matches each held-out pair once."""

    name = "desk_infer"
    why = ("frozen trained desk model, match_pair once per held-out pair: forward "
           "only, the only workload where Sinkhorn runs on peaked affinities")
    pairs = 400
    loss_pairs = 150
    m_range = (5, 10)
    data_base = 20_000

    def setup(self, nm, seed: int):
        frozen = load_frozen_record()
        config = nm.TrainConfig()  # the desk configuration the frozen model was trained with
        model = nm.MatchingModel(config)
        load_frozen_params(model.store)
        pairs = make_pairs(nm, self.pairs, self.m_range, self.data_base + seed,
                           config.gnn_input_dim)
        return frozen, model, pairs

    def run_round(self, nm, state) -> Round:
        frozen, model, pairs = state
        rnd = Round(work_pairs=len(pairs))
        t0 = clock()
        rnd.checkpoint()
        _match_all(model, pairs, rnd)
        rnd.work_s = sum(rnd.segments)
        expected = frozen["heldout_accuracy"]
        if not abs(rnd.accuracy - expected) <= ACCURACY_TOLERANCE:
            rnd.problems.append(
                f"match_accuracy {rnd.accuracy:.4f} is not within {ACCURACY_TOLERANCE} "
                f"of the frozen model's recorded {expected:.4f}"
            )
        # training objective of the frozen model, forward only, as a fingerprint
        tau_raw = float(model.store.value("loss.tau_raw"))
        cfg = model.config
        totals = []
        for pair in pairs[: self.loss_pairs]:
            f1, f2, snapshots = model.forward_pair(pair)
            report, _ = nm.total_loss(f1.tokens, f2.tokens, snapshots, pair.truth,
                                      tau_raw, cfg.layer_loss_p, cfg.infonce_mode)
            totals.append(report.total)
        if not np.all(np.isfinite(totals)):
            rnd.problems.append("non-finite loss on held-out pairs")
        rnd.loss = float(np.mean(totals))
        rnd.round_s = rnd.since(t0)
        return rnd


WORKLOADS = {w.name: w for w in (DeskTrain(), DeskInfer(), FullTrain())}


def load_frozen_record() -> dict:
    if not os.path.isfile(FROZEN_JSON):
        raise SetupError(f"missing {FROZEN_JSON}; run perfbench/make_frozen.py")
    with open(FROZEN_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def load_frozen_params(store) -> None:
    """Set every parameter by name from the frozen file; names must match exactly."""
    if not os.path.isfile(FROZEN_NPZ):
        raise SetupError(f"missing {FROZEN_NPZ}; run perfbench/make_frozen.py")
    with np.load(FROZEN_NPZ) as arrays:
        saved = set(arrays.files)
        names = set(store.names())
        if saved != names:
            raise SetupError(
                f"frozen parameters do not match the model: missing {sorted(names - saved)}, "
                f"unexpected {sorted(saved - names)}"
            )
        for name in store.names():
            store.set_value(name, arrays[name].astype(np.float64))

"""Training loop (Adam with step decay) and evaluation tables."""

from __future__ import annotations

import numpy as np

from .config import TrainConfig
from .matching import accuracy
from .model import MatchingModel

__all__ = ["Adam", "lr_at_epoch", "train", "evaluate", "format_accuracy_table"]


class Adam:
    """Bias-corrected moment-adaptive updates, one (m, v) pair per parameter.

    Moment decays are 0.9 and 0.999 with denominator guard 1e-8. Parameters
    whose names start with "backbone." take the learning rate scaled by
    backbone_lr_factor. step(lr, batch_size) averages each summed gradient,
    updates, snaps the value to float32 and zeroes the gradient, one slice
    at a time while the slice is in cache.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    # a step runs over slices of this many elements, with buffers held across
    # steps as its temporaries, so they stay small and in cache
    chunk = 1 << 14

    def __init__(self, store, backbone_lr_factor: float = 1.0):
        self.store = store
        self.backbone_lr_factor = backbone_lr_factor
        self.t = 0
        self.m = {n: np.zeros_like(store.value(n)) for n in store.trainable_names()}
        self.v = {n: np.zeros_like(store.value(n)) for n in store.trainable_names()}
        self._temps = np.empty(self.chunk), np.empty(self.chunk), np.empty(self.chunk, np.float32)

    def step(self, lr: float, batch_size: int) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name in self.store.trainable_names():
            group_lr = lr * (self.backbone_lr_factor if name.startswith("backbone.") else 1.0)
            arrays = (self.store.value(name), self.store.grad(name), self.m[name], self.v[name])
            flat = [a.reshape(-1) for a in arrays]  # views: every one is contiguous
            for start in range(0, flat[0].size, self.chunk):
                value, g, m, v = (a[start:start + self.chunk] for a in flat)
                t1, t2, t32 = (t[:len(g)] for t in self._temps)
                g /= batch_size
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, g, out=t1)
                v *= self.beta2
                v += np.multiply(np.multiply(1.0 - self.beta2, g, out=t1), g, out=t1)
                np.multiply(group_lr, np.divide(m, b1t, out=t1), out=t1)
                np.sqrt(np.divide(v, b2t, out=t2), out=t2)
                t2 += self.eps
                value -= np.divide(t1, t2, out=t1)
                t32[...] = value
                value[...] = t32
                g[...] = 0.0


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Scheduled learning rate for a 1-based epoch index.

    The rate is multiplied by lr_decay_factor after each epoch listed in
    lr_decay_epochs, so epoch e uses base_lr * factor^|{d in decay : d < e}|.
    """
    k = sum(1 for d in config.lr_decay_epochs if d < epoch)
    return config.base_lr * config.lr_decay_factor ** k


def train(config: TrainConfig, train_pairs, val_pairs=None,
          model: MatchingModel | None = None, log=None):
    """Run the optimization loop.

    Returns (model, optimizer, history, aborted). history has one entry per
    completed epoch: epoch index, learning rate, mean train loss, and
    validation accuracy (None when no validation pairs are given). A
    non-finite batch loss aborts training before its backward pass, so the
    model keeps the last good state and zero gradients. Train and validation
    pairs are prepared once, before the first epoch; train_pairs must not be
    empty, and a training pair needs at least 2 keypoints.
    """
    if not train_pairs:
        raise ValueError("no training pairs")
    short = next((pair for pair in train_pairs if pair.m < 2), None)
    if short is not None:  # InfoNCE has no negatives; fail before any pair is prepared
        raise ValueError(f"training pair {short.image1}, {short.image2} has {short.m} "
                         "keypoint, but training needs at least 2")
    if model is None:
        model = MatchingModel(config)
    optimizer = Adam(model.store, backbone_lr_factor=config.backbone_lr_factor)
    prepared = [model.prepare(pair) for pair in train_pairs]
    val_prepared = [model.prepare(pair) for pair in val_pairs or ()]
    # every gradient zero and every value float32-representable, frozen ones
    # too; each optimizer.step keeps that for the parameters it trains
    model.store.zero_grads()
    model.store.quantize_float32()
    history: list[dict] = []
    aborted = False
    for epoch in range(1, config.epochs + 1):
        lr = lr_at_epoch(config, epoch)
        order = np.random.default_rng([config.seed, epoch]).permutation(len(prepared))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [prepared[i] for i in order[start : start + config.batch_size]]
            reports, backward = model.loss(batch)
            batch_loss = sum(r.total for r in reports) / len(batch)
            if not np.isfinite(batch_loss):
                aborted = True
                break
            backward()
            del backward  # its caches must not live through the next minibatch's forward
            optimizer.step(lr, len(batch))
            losses.append(batch_loss)
        if aborted:
            if log:
                log(f"epoch {epoch}: non-finite loss, aborting with last good parameters")
            break
        entry = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(losses)),
            "val_accuracy": None,
        }
        if val_prepared:
            entry["val_accuracy"] = evaluate(model, val_pairs, val_prepared)["mean"]
        history.append(entry)
        if log:
            va = entry["val_accuracy"]
            log(
                f"epoch {epoch}: lr {lr:g}, train loss {entry['train_loss']:.4f}"
                + (f", val accuracy {va:.3f}" if va is not None else "")
            )
    return model, optimizer, history, aborted


def evaluate(model: MatchingModel, pairs, prepared=None) -> dict:
    """Per-class and mean matching accuracy over a dataset.

    The mean is the unweighted average of the per-class accuracies.
    prepared, when given, holds model.prepare(pair) of every pair;
    otherwise each pair is prepared as it is matched.
    """
    if not pairs:
        raise ValueError("cannot evaluate an empty dataset")
    per_class: dict[int, list[float]] = {}
    for pair, prep in zip(pairs, prepared or map(model.prepare, pairs)):
        matching, _, _ = model.match_prepared(prep)
        per_class.setdefault(pair.class_id, []).append(accuracy(matching, pair.truth))
    classes = [
        {"class_id": cid, "count": len(vals), "accuracy": float(np.mean(vals))}
        for cid, vals in sorted(per_class.items())
    ]
    mean = float(np.mean([c["accuracy"] for c in classes]))
    return {"classes": classes, "mean": mean}


def format_accuracy_table(result: dict) -> str:
    """Aligned plain-text rendering of an evaluation result."""
    lines = [f"{'class':>8} {'count':>7} {'accuracy':>9}"]
    for row in result["classes"]:
        lines.append(f"{row['class_id']:>8d} {row['count']:>7d} {row['accuracy']:>9.4f}")
    lines.append(f"{'mean':>8} {'':>7} {result['mean']:>9.4f}")
    return "\n".join(lines)

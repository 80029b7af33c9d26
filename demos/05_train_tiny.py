"""Train a small matcher end to end and round-trip it through a checkpoint.

Everything is seeded, so rerunning this script reproduces the history
bit for bit. The checkpoint keeps parameters in float32. train() snaps
every value to float32 once before its first step, and each Adam step
snaps the values it updates, so the reload is exact and the reloaded
model's forward pass is bit-identical.
"""

import tempfile
from pathlib import Path

import numpy as np

from normmatch.checkpoint import model_from_checkpoint, save_checkpoint
from normmatch.config import DataConfig, TrainConfig
from normmatch.data import generate_dataset
from normmatch.model import MatchingModel
from normmatch.train import evaluate, format_accuracy_table, train

config = TrainConfig(d_model=64, heads=4, decoder_layers=2, gnn_input_dim=8,
                     kernel_size=5, mlp_mult=2, batch_size=8, epochs=6,
                     base_lr=5e-4, seed=1)
data = DataConfig(num_pairs=480, num_classes=4, m_min=4, m_max=7,
                  jitter_sigma=0.3, noise_level=0.05)

train_pairs = generate_dataset(data, config.gnn_input_dim, seed=config.seed)
heldout = generate_dataset(data, config.gnn_input_dim, seed=9997, num_pairs=60)

print(f"{len(train_pairs)} training pairs, {len(heldout)} held-out pairs")
before = evaluate(MatchingModel(config), heldout)["mean"]
print(f"untrained held-out accuracy: {before:.3f}")

model, optimizer, history, aborted = train(config, train_pairs, val_pairs=heldout,
                                           log=print)
assert not aborted
print("\nepoch  lr        train loss  val acc")
for row in history:
    print(f"{row['epoch']:5d}  {row['lr']:.2e}  {row['train_loss']:10.4f}"
          f"  {row['val_accuracy']:.3f}")

result = evaluate(model, heldout)
print("\n" + format_accuracy_table(result))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "tiny.nmtc"
    save_checkpoint(path, model, optimizer, epoch=config.epochs, history=history)
    print(f"checkpoint: {path.stat().st_size} bytes")
    reloaded, _, meta = model_from_checkpoint(path)
    pair = heldout[0]
    a, _, _ = model.match_pair(pair)
    b, _, _ = reloaded.match_pair(pair)
    print(f"reloaded at epoch {meta['epoch']}, "
          f"same assignment: {np.array_equal(a.assignment, b.assignment)}")

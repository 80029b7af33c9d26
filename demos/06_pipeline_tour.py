"""Walk one pair through every stage of the matcher, printing shapes.

backbone maps -> keypoint descriptors + global token -> Delaunay graph
-> spline GNN -> two-stream normalized decoder -> cosine affinity ->
Sinkhorn -> matching. Along the way, check the invariant the whole
architecture is built around: token rows stay exactly unit-norm.
"""

import numpy as np

from normmatch.config import DataConfig, TrainConfig
from normmatch.data import generate_pair
from normmatch.features import extract_keypoint_features, global_token
from normmatch.geometry import build_graph, delaunay
from normmatch.matching import accuracy, affinity, decode_matching, sinkhorn_log
from normmatch.model import MatchingModel
from normmatch.splineconv import gnn_refine


def norms(x):
    return np.linalg.norm(np.atleast_2d(x), axis=1)


config = TrainConfig(d_model=64, heads=4, decoder_layers=2, seed=0)
data = DataConfig(m_min=6, m_max=6, jitter_sigma=0.3, noise_level=0.05)
pair = generate_pair(data, class_id=1, seed=42, latent_dim=config.gnn_input_dim)
model = MatchingModel(config)

b1, b2 = pair.backbone_outputs()
print(f"backbone maps: last {b1.last.grid.shape}, "
      f"second-to-last {b1.second_last.grid.shape}, stride {b1.last.stride}")

desc = extract_keypoint_features(b1, pair.keypoints1)
print(f"keypoint descriptors: {desc.shape}")

# the global token takes the pooled map means of any number of images
g, _ = global_token(np.stack([b1.pooled, b2.pooled]), model.store)
print(f"global tokens of both images: {g.shape}, max |norm - 1| {abs(norms(g) - 1).max():.1e}")

graph = build_graph(pair.keypoints1)
print(f"graph: {graph.num_nodes} nodes, {len(graph.arcs)} arcs "
      f"({len(delaunay(pair.keypoints1))} Delaunay edges + {graph.num_nodes} self-loops)")

tokens, _ = gnn_refine([desc], [graph], model.store)
print(f"GNN tokens: {tokens.shape}, "
      f"norm spread [{norms(tokens).min():.12f}, {norms(tokens).max():.12f}]")

# everything above that does not depend on the parameters is what
# model.prepare keeps per pair; training prepares each pair once
prepared = model.prepare(pair)
print(f"prepared: features {[f.shape for f in prepared.features]}, "
      f"pooled {prepared.pooled.shape}")

f1, f2, snapshots = model.forward_pair(pair)
print(f"decoder: {len(snapshots)} layers of snapshots, "
      f"output tokens {f1.tokens.shape}")
for k, (s1, s2) in enumerate(snapshots):
    dev = max(abs(norms(s1) - 1.0).max(), abs(norms(s2) - 1.0).max())
    print(f"  layer {k}: max |norm - 1| = {dev:.2e}")

C = affinity(f1.tokens, f2.tokens)
print(f"affinity in [{C.min():.3f}, {C.max():.3f}]")

plan = sinkhorn_log(C, config.sinkhorn_temperature, config.sinkhorn_iters)
matching = decode_matching(plan)
print(f"matching: {matching.assignment}, truth: {pair.truth}")
print(f"untrained accuracy on this pair: {accuracy(matching, pair.truth):.3f}")
print("(training moves the affinity, not the plumbing; see 05_train_tiny.py)")

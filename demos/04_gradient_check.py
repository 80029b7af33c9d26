"""Verify the hand-written backward passes against finite differences.

Every layer ships its own reverse-mode backward; grad_check compares the
analytic gradients with central differences on randomly chosen
coordinates of every trainable parameter. This runs the full composed
model: backbone projection -> spline GNN -> normalized decoder -> loss.
"""

from normmatch.config import DataConfig, TrainConfig
from normmatch.data import generate_pair
from normmatch.gradcheck import all_passed, grad_check
from normmatch.model import MatchingModel

config = TrainConfig(d_model=8, heads=2, decoder_layers=2, gnn_input_dim=8,
                     kernel_size=5, mlp_mult=2, seed=6)
data = DataConfig(m_min=4, m_max=4, num_classes=3, jitter_sigma=0.2,
                  noise_level=0.02)
pair = generate_pair(data, class_id=0, seed=106, latent_dim=8)
model = MatchingModel(config)
# maps, keypoint features and graphs do not depend on the parameters
prepared = [model.prepare(pair)]


def forward(store):
    # the scalar loss and the closure that adds its analytic grads to the store
    reports, backward = model.loss(prepared)
    return reports[0].total, backward


reports = grad_check(forward, model.store, eps=1e-5, tol=1e-4)
for report in reports:
    print(report)

worst = max(reports, key=lambda r: r.max_rel_err)
print(f"\n{len(reports)} parameters, all passed = {all_passed(reports)}")
print(f"worst: {worst.name} at {worst.max_rel_err:.2e}")
if not all_passed(reports):
    raise SystemExit(1)

# tip: finite differences have a validity window. Parameters whose
# gradients are many orders smaller than the loss (attention projections
# behind all the normalization) hit the round-off floor at small eps,
# and stiff coordinates hit truncation error at large eps. When a check
# looks off, sweep eps before suspecting the backward pass.

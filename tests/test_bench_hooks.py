"""The names the benchmark tracer hooks must keep resolving.

``perfbench/tracer.py`` wraps functions and methods by name from outside the
package; a renamed or moved name makes its layer absent from every traced
run. These tests run one inference, one training step and a short train() under
the tracer and require every layer those calls reach to be found and counted.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from normmatch.config import DataConfig, TrainConfig
from normmatch.data import generate_pair
from normmatch.model import MatchingModel
from normmatch.train import train

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# layers reached by match_pair and by loss and its backward
INFERENCE_LAYERS = (
    "features.render", "features.sample", "features.global", "geometry.build_graph",
    "splineconv.forward", "decoder.forward", "matching.affinity", "matching.sinkhorn",
    "matching.decode",
)
TRAINING_LAYERS = (
    "splineconv.backward", "decoder.backward", "losses.forward", "losses.backward",
)


@pytest.fixture
def tracer_module():
    """perfbench's tracer, imported with os.environ and sys.path restored after.

    perfbench/env.py sets the BLAS thread variables at import; later
    subprocess tests must not inherit them.
    """
    environ = dict(os.environ)
    path = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        importlib.import_module("env")
        yield importlib.import_module("tracer")
    finally:
        for name in ("env", "tracer"):
            sys.modules.pop(name, None)
        sys.path[:] = path
        os.environ.clear()
        os.environ.update(environ)


def test_traced_layers_present_and_counted(tracer_module):
    config = TrainConfig()
    data = DataConfig(m_min=5, m_max=8, num_classes=3)
    p1, p2 = (generate_pair(data, class_id=i, seed=i, latent_dim=config.gnn_input_dim)
              for i in range(2))
    model = MatchingModel(config)
    with tracer_module.Tracer() as t:
        # a single pair is a batch of one: one GNN and one decoder call
        for done, run in enumerate((model.match_pair, model.forward_pair), start=1):
            run(p1)
            assert t.calls["splineconv.forward"] == t.calls["decoder.forward"] == done
        model.loss([model.prepare(p1), model.prepare(p2)])[1]()
        # the losses, like every layer, run once over the minibatch
        assert t.calls["losses.forward"] == t.calls["losses.backward"] == 1
    assert t.absent == []
    for layer in INFERENCE_LAYERS + TRAINING_LAYERS:
        assert t.calls[layer] > 0, layer
    assert t.counts["splineconv.gemm_flops"] > 0
    assert t.counts["geometry.arcs"] > 0


def test_oob_samples_count_each_clamped_keypoint_once_per_map(tracer_module):
    # the tracer sums both maps' counters; one gather per image must still
    # add each clamped keypoint to both of them
    config = TrainConfig()
    pair = generate_pair(DataConfig(m_min=6, m_max=6), class_id=0, seed=3,
                         latent_dim=config.gnn_input_dim)
    pair.keypoints1[0] = (0.2, 31.5)  # beyond the outer cell centres at 1 and 31
    pair.keypoints2[:2] = (40.0, 16.0)
    clamped = sum(np.count_nonzero(((kp < 1.0) | (kp > 31.0)).any(axis=1))
                  for kp in (pair.keypoints1, pair.keypoints2))
    assert clamped == 3
    with tracer_module.Tracer() as t:
        MatchingModel(config).match_pair(pair)
    assert t.absent == []
    assert t.counts["features.oob_samples"] == 2 * clamped


def test_training_preparation_stays_traced(tracer_module):
    # train() prepares each pair once; the rendering must stay inside the
    # traced features.render layer, which also computes the pooled means
    config = TrainConfig(epochs=2, batch_size=2)
    data = DataConfig(m_min=5, m_max=8, num_classes=3)
    pairs = [generate_pair(data, class_id=i, seed=i, latent_dim=config.gnn_input_dim)
             for i in range(2)]
    model = MatchingModel(config)  # its initial snap is not train()'s
    with tracer_module.Tracer() as t:
        train(config, pairs, model=model)
    assert t.absent == []
    assert t.calls["features.render"] == 2
    assert t.calls["geometry.build_graph"] == t.calls["features.sample"] == 4
    assert t.calls["train.adam"] == 2
    # the store is zeroed and snapped once, before the first step; each step
    # then averages, updates, snaps and zeroes what it trains
    assert t.calls["params.quantize"] == t.calls["params.zero_grads"] == 1


def test_complete_graph_fallbacks_and_arcs_counted(tracer_module):
    # a collinear image and an image with a duplicate point each take the
    # complete-graph fallback once; geometry.arcs sums every graph built
    config = TrainConfig()
    data = DataConfig(m_min=6, m_max=6)
    collinear, duplicate = (generate_pair(data, class_id=i, seed=20 + i,
                                          latent_dim=config.gnn_input_dim) for i in range(2))
    collinear.keypoints1[:] = np.linspace((4.0, 6.0), (28.0, 22.0), 6)
    duplicate.keypoints2[3] = duplicate.keypoints2[0]
    model = MatchingModel(config)
    graphs = [model.prepare(pair).graphs for pair in (collinear, duplicate)]
    complete = 6 * 5 + 6  # both directions of 15 edges, plus the loops
    assert len(graphs[0][0].arcs) == len(graphs[1][1].arcs) == complete
    with tracer_module.Tracer() as t:
        for pair in (collinear, duplicate):
            model.match_pair(pair)
    assert t.absent == []
    assert t.counts["geometry.complete_fallbacks"] == 2
    assert t.counts["geometry.arcs"] == sum(len(g.arcs) for pair in graphs for g in pair)

"""Properties of the whole model: degenerate keypoint clouds, and
permutation equivariance of the whole pipeline."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normmatch import splineconv
from normmatch.config import DataConfig, TrainConfig
from normmatch.data import IMAGE_SIZE, PairSample, generate_pair
from normmatch.model import MatchingModel

LATENT_DIM = 8


@functools.lru_cache(maxsize=1)
def _model():
    return MatchingModel(TrainConfig(d_model=16, heads=2, decoder_layers=2,
                                     gnn_input_dim=LATENT_DIM, kernel_size=5, mlp_mult=2))


def _cloud(kind: str, m: int, rng) -> np.ndarray:
    """m keypoints (pixels) of one degenerate kind."""
    if kind == "random":  # with m = 1 or 2, the lone self-loop or a complete graph
        return rng.uniform(0.0, IMAGE_SIZE, size=(m, 2))
    if kind == "duplicates":  # a few distinct points, each repeated
        distinct = rng.uniform(0.0, IMAGE_SIZE, size=(int(rng.integers(1, m + 1)), 2))
        return distinct[rng.integers(0, len(distinct), size=m)]
    if kind == "collinear":  # the complete-graph fallback
        t = rng.uniform(0.0, 1.0, size=(m, 1))
        start, end = rng.uniform(0.0, IMAGE_SIZE, size=(2, 2))
        return start + t * (end - start)
    # on the image border: the gather clamps onto the outer cell centres
    edge = rng.integers(0, 4, size=m)
    t = rng.uniform(0.0, IMAGE_SIZE, size=m)
    side = np.where(edge % 2, IMAGE_SIZE, 0.0)
    return np.where((edge < 2)[:, None], np.stack([side, t], 1), np.stack([t, side], 1))


@given(
    kind=st.sampled_from(["random", "duplicates", "collinear", "border"]),
    m=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_match_pair_on_degenerate_clouds(kind, m, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        m = min(m, 2)
    kp1 = _cloud(kind, m, rng)
    truth = rng.permutation(m)
    kp2 = np.empty_like(kp1)
    kp2[truth] = kp1
    pair = PairSample("a", "b", 0, kp1, kp2, truth,
                      rng.standard_normal((m, LATENT_DIM)), noise_level=0.02, seed=seed)
    model = _model()

    f1, f2, snapshots = model.forward_pair(pair)
    for tokens in [f1.tokens, f2.tokens] + [t for snap in snapshots for t in snap]:
        assert tokens.shape == (m, model.config.d_model)
        assert np.all(np.isfinite(tokens))
        np.testing.assert_allclose(np.linalg.norm(tokens, axis=1), 1.0, atol=1e-9)

    matching, plan, C = model.match_pair(pair)
    assert C.shape == plan.values.shape == (m, m)
    assert np.all(np.isfinite(plan.values)) and np.all(plan.values >= 0.0)
    assert np.isfinite(plan.max_marginal_error)
    np.testing.assert_allclose(plan.values.sum(axis=0), 1.0, atol=1e-9)  # columns last
    assert matching.assignment.shape == (m,)
    assert np.all((0 <= matching.assignment) & (matching.assignment < m))
    assert matching.injective == (len(set(matching.assignment.tolist())) == m)


def test_match_pair_never_looks_for_argmax_arcs(monkeypatch):
    # the arcs of each node's max matter to the backward only
    def refuse(*args):
        raise AssertionError("argmax arcs looked up")

    monkeypatch.setattr(splineconv, "_argmax_arcs", refuse)
    config = TrainConfig()
    model = MatchingModel(config)
    pair = generate_pair(DataConfig(), class_id=0, seed=3, latent_dim=config.gnn_input_dim)
    matching, plan, _ = model.match_pair(pair)
    assert matching.assignment.shape == (pair.m,) and np.all(np.isfinite(plan.values))
    with pytest.raises(AssertionError, match="argmax arcs"):  # training does need them
        model.loss([model.prepare(pair)])[1]()


def test_forward_without_caches_gives_the_same_outputs():
    # inference keeps no GNN or decoder cache; what it returns is unchanged
    config = TrainConfig()
    model = MatchingModel(config)
    pairs = [generate_pair(DataConfig(m_min=5, m_max=10), class_id=i, seed=40 + i,
                           latent_dim=config.gnn_input_dim) for i in range(3)]
    prepared = [model.prepare(p) for p in pairs]
    f1, f2, snapshots, caches = model._forward(prepared)
    g1, g2, got_snapshots, got_caches = model._forward(prepared, keep_caches=False)
    assert caches[2] is not None and caches[3] is not None
    assert got_caches[2] is None and got_caches[3] is None
    for want, got in zip([f1.tokens, f1.global_token, f2.tokens, f2.global_token, *snapshots],
                         [g1.tokens, g1.global_token, g2.tokens, g2.global_token, *got_snapshots]):
        assert np.array_equal(want, got)


def _permuted_image2(pair, rng):
    """The pair with image 2's keypoints in another order and the truth relabelled;
    returns (pair, perm) where new row j of image 2 is old row perm[j]."""
    perm = rng.permutation(pair.m)
    inverse = np.argsort(perm)
    return dataclasses.replace(pair, keypoints2=pair.keypoints2[perm],
                               truth=inverse[pair.truth]), perm


class TestPipelinePermutationEquivariance:
    """Reordering image 2's keypoints reorders everything downstream of it.

    Generated keypoints are jittered, so no Delaunay tie depends on point
    order; the rendered maps sum the splats in another order, so the checks
    allow 1e-12.
    """

    def test_match_pair_assignment_and_plan_columns_follow(self):
        config = TrainConfig()
        model = MatchingModel(config)
        rng = np.random.default_rng(7)
        for seed in range(12):
            pair = generate_pair(DataConfig(), class_id=seed % 5, seed=seed,
                                 latent_dim=config.gnn_input_dim)
            moved, perm = _permuted_image2(pair, rng)
            matching, plan, C = model.match_pair(pair)
            got, got_plan, got_C = model.match_pair(moved)
            np.testing.assert_array_equal(perm[got.assignment], matching.assignment)
            np.testing.assert_allclose(got_plan.values, plan.values[:, perm], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_C, C[:, perm], rtol=0, atol=1e-12)

    def test_padded_minibatch_loss_reports_follow(self):
        config = TrainConfig()
        model = MatchingModel(config)
        rng = np.random.default_rng(8)
        pairs = [generate_pair(DataConfig(m_min=5, m_max=10), class_id=i, seed=100 + i,
                               latent_dim=config.gnn_input_dim) for i in range(4)]
        assert len({p.m for p in pairs}) > 1  # the minibatch is padded
        reports, _ = model.loss([model.prepare(p) for p in pairs])
        moved = [_permuted_image2(p, rng)[0] for p in pairs]
        for got, want in zip(model.loss([model.prepare(p) for p in moved])[0], reports):
            for field in ("infonce", "hyperspherical_final", "hyperspherical_layers"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field

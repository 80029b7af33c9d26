"""Properties of the whole model on degenerate keypoint clouds."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from normmatch.config import TrainConfig
from normmatch.data import IMAGE_SIZE, PairSample
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

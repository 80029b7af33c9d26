import numpy as np
import pytest

from normmatch.config import DataConfig, TrainConfig
from normmatch.data import generate_pair
from normmatch.gradcheck import all_passed, grad_check
from normmatch.model import MatchingModel
from normmatch.params import ParameterStore


def _quadratic_store():
    store = ParameterStore()
    store.register("theta", np.array([1.0, 2.0, 3.0]))
    return store


def test_exact_polynomial_passes():
    store = _quadratic_store()

    def forward(params):
        theta = params.value("theta")
        return float(np.sum(theta**2)), lambda: params.add_grad("theta", 2.0 * theta)

    reports = grad_check(forward, store, eps=1e-5, tol=1e-4)
    assert len(reports) == 1
    assert reports[0].passed
    assert reports[0].max_rel_err < 1e-9
    assert reports[0].coords_checked == 3


def test_wrong_by_two_gradient_fails():
    store = _quadratic_store()

    def forward(params):
        theta = params.value("theta")
        # deliberately 2x the true gradient
        return float(np.sum(theta**2)), lambda: params.add_grad("theta", 4.0 * theta)

    reports = grad_check(forward, store, eps=1e-5, tol=1e-4)
    assert not reports[0].passed
    # |a - n| / max(|a|, |n|) with a = 2n gives exactly 1/2
    np.testing.assert_allclose(reports[0].max_rel_err, 0.5, rtol=1e-6)
    assert not all_passed(reports)


def test_non_finite_forward_reports_named_failure():
    store = _quadratic_store()
    backward_calls = []

    def forward(params):
        return float("nan"), lambda: backward_calls.append(1)

    reports = grad_check(forward, store, eps=1e-5, tol=1e-4)
    assert reports[0].failure == "non-finite forward value"
    assert not reports[0].passed
    assert backward_calls == []  # no gradient of a non-finite loss is read


def test_coordinate_sampling_respects_cap():
    store = ParameterStore()
    store.register("big", np.linspace(0.5, 1.5, 100))

    def forward(params):
        v = params.value("big")
        return float(np.sum(np.sin(v))), lambda: params.add_grad("big", np.cos(v))

    reports = grad_check(forward, store, eps=1e-5, tol=1e-4, max_coords=32)
    assert reports[0].coords_checked == 32
    assert reports[0].passed


def test_non_trainable_parameters_skipped():
    store = ParameterStore()
    store.register("a", np.array([1.0]))
    store.register("frozen", np.array([2.0]), trainable=False)

    def forward(params):
        a = params.value("a")
        return float(a[0] ** 2), lambda: params.add_grad("a", 2 * a)

    reports = grad_check(forward, store, eps=1e-5, tol=1e-4)
    assert [r.name for r in reports] == ["a"]


@pytest.mark.slow
def test_full_pipeline_loss_on_four_keypoint_pair():
    # every parameter of the composed model (backbone projection, GNN,
    # decoder, temperature) against central differences on one 4-keypoint
    # pair. The instance is frozen where finite differences are
    # well-conditioned at eps 1e-5; see the gradient notes in the README.
    config = TrainConfig(d_model=8, heads=2, decoder_layers=2, gnn_input_dim=8,
                         kernel_size=5, mlp_mult=2, seed=6)
    data = DataConfig(m_min=4, m_max=4, num_classes=3, jitter_sigma=0.2,
                      noise_level=0.02)
    pair = generate_pair(data, class_id=0, seed=106, latent_dim=8)
    model = MatchingModel(config)
    prepared = [model.prepare(pair)]

    def forward(store):
        reports, backward = model.loss(prepared)
        return reports[0].total, backward

    reports = grad_check(forward, model.store, eps=1e-5, tol=1e-4)
    assert len(reports) == 36
    assert all_passed(reports), [str(r) for r in reports if not r.passed]


@pytest.mark.slow
def test_full_pipeline_loss_on_ragged_minibatch():
    # three pairs of unequal m in one minibatch: the decoder packs their rows
    # and scatters them into padded per-pair grids for attention only
    config = TrainConfig(d_model=8, heads=2, decoder_layers=2, gnn_input_dim=8,
                         kernel_size=5, mlp_mult=2, seed=6)
    pairs = [generate_pair(DataConfig(m_min=m, m_max=m, num_classes=3, jitter_sigma=0.2,
                                      noise_level=0.02), class_id=c, seed=106, latent_dim=8)
             for c, m in enumerate((4, 6, 5))]
    model = MatchingModel(config)
    prepared = [model.prepare(pair) for pair in pairs]

    def forward(store):
        reports, backward = model.loss(prepared)
        return sum(report.total for report in reports), backward

    reports = grad_check(forward, model.store, eps=1e-5, tol=1e-4)
    assert len(reports) == 36
    assert all_passed(reports), [str(r) for r in reports if not r.passed]


def test_analytic_gradients_restored_after_check():
    store = _quadratic_store()

    def forward(params):
        theta = params.value("theta")
        return float(np.sum(theta**2)), lambda: params.add_grad("theta", 2.0 * theta)

    grad_check(forward, store, eps=1e-5, tol=1e-4)
    np.testing.assert_allclose(store.grad("theta"), 2.0 * store.value("theta"))


def test_backward_runs_once_and_probes_run_forward_only():
    store = _quadratic_store()
    store.grad("theta")[...] = 7.0  # left over from earlier work: zeroed first
    calls = {"forward": 0, "backward": 0}

    def forward(params):
        calls["forward"] += 1
        theta = params.value("theta").copy()

        def backward():
            calls["backward"] += 1
            params.add_grad("theta", 2.0 * theta)

        return float(np.sum(theta**2)), backward

    reports = grad_check(forward, store, eps=1e-5, tol=1e-4)
    assert reports[0].passed and reports[0].coords_checked == 3
    # the unperturbed forward and its backward, then a forward at +eps and
    # one at -eps per checked coordinate
    assert calls == {"forward": 1 + 2 * 3, "backward": 1}
    np.testing.assert_array_equal(store.grad("theta"), 2.0 * store.value("theta"))

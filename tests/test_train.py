import copy
import weakref

import numpy as np
import pytest

from normmatch.config import DataConfig, TrainConfig
from normmatch.data import PairSample, generate_dataset, generate_pair
from normmatch.losses import total_loss
from normmatch.matching import Matching, affinity, sinkhorn_log
from normmatch import model as model_module
from normmatch import splineconv
from normmatch.model import MatchingModel
from normmatch.params import ParameterStore
from normmatch.train import Adam, evaluate, format_accuracy_table, lr_at_epoch, train
from oracles import adam_update


def _snapshot(store):
    return {name: store.value(name).copy() for name in store.names()}


def _tiny_config(**overrides):
    base = dict(d_model=16, heads=2, decoder_layers=2, gnn_input_dim=8,
                kernel_size=5, mlp_mult=2, batch_size=2, epochs=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _tiny_data(**overrides):
    base = dict(num_pairs=6, num_classes=2, m_min=4, m_max=5,
                jitter_sigma=0.1, noise_level=0.01)
    base.update(overrides)
    return DataConfig(**base)


class TestAdam:
    def test_single_step_closed_form(self):
        store = ParameterStore()
        store.register("w", np.array([1.0, -2.0]))
        g = np.array([0.5, -0.25])
        store.add_grad("w", g)
        opt = Adam(store)
        opt.step(lr=0.1, batch_size=1)
        # bias correction makes the first step lr * g / (|g| + eps), and the
        # value is snapped to float32
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(store.value("w"), expected.astype(np.float32), atol=1e-12)

    def test_backbone_prefix_scales_learning_rate(self):
        store = ParameterStore()
        store.register("backbone.p", np.zeros(3))
        store.register("core.p", np.zeros(3))
        g = np.array([1.0, -2.0, 0.5])
        store.add_grad("backbone.p", g)
        store.add_grad("core.p", g)
        opt = Adam(store, backbone_lr_factor=0.03)
        opt.step(lr=1.0, batch_size=1)
        # the first-step closed form at each group's rate, snapped to float32
        first = -g / (np.abs(g) + 1e-8)
        assert np.allclose(store.value("backbone.p"), (0.03 * first).astype(np.float32),
                           atol=1e-12)
        assert np.allclose(store.value("core.p"), first.astype(np.float32), atol=1e-12)

    def test_frozen_parameters_untouched(self):
        store = ParameterStore()
        store.register("w", np.ones(2))
        store.register("frozen", np.ones(2), trainable=False)
        store.add_grad("w", np.ones(2))
        opt = Adam(store)
        opt.step(lr=0.1, batch_size=1)
        assert np.array_equal(store.value("frozen"), np.ones(2))
        assert not np.array_equal(store.value("w"), np.ones(2))

    def test_matches_reference_update_exactly(self):
        # parameters below, at and across the slice length of a step, plus a
        # scalar and a backbone parameter with its scaled rate; gradients are
        # sums over 3 pairs, so averaging is not a power-of-two scaling, and
        # each step must leave them zero for the next sums
        rng = np.random.default_rng(7)
        store = ParameterStore()
        shapes = {"a": (3, 5), "b": (Adam.chunk,), "c": (2, Adam.chunk + 17), "d": (),
                  "backbone.e": (4, 4)}
        for name, shape in shapes.items():
            store.register(name, rng.standard_normal(shape))
        expected = {n: [store.value(n).copy(), np.zeros(shape), np.zeros(shape)]
                    for n, shape in shapes.items()}
        opt = Adam(store, backbone_lr_factor=0.03)
        for t, lr in ((1, 1e-3), (2, 1e-3), (3, 1e-4)):
            for name, shape in shapes.items():
                store.add_grad(name, rng.standard_normal(shape))
                value, m, v = expected[name]
                group_lr = lr * (0.03 if name.startswith("backbone.") else 1.0)
                adam_update(value, store.grad(name).copy(), m, v, t, group_lr, 3)
            opt.step(lr, 3)
            for name in shapes:
                assert not store.grad(name).any(), name
        for name, (value, m, v) in expected.items():
            assert np.array_equal(store.value(name), value), name
            assert np.array_equal(opt.m[name], m), name
            assert np.array_equal(opt.v[name], v), name

    def test_zero_lr_is_a_null_step(self):
        store = ParameterStore()
        store.register("w", np.array([3.0]))
        store.add_grad("w", np.array([7.0]))
        Adam(store).step(lr=0.0, batch_size=1)
        assert np.array_equal(store.value("w"), np.array([3.0]))


class TestSchedule:
    def test_reference_trace(self):
        cfg = TrainConfig(epochs=6, lr_decay_epochs=(2, 5), lr_decay_factor=0.1,
                          base_lr=5e-4)
        trace = [lr_at_epoch(cfg, e) for e in range(1, 7)]
        assert np.allclose(trace, [5e-4, 5e-4, 5e-5, 5e-5, 5e-5, 5e-6], rtol=1e-12)

    def test_no_decay_epochs(self):
        cfg = TrainConfig(lr_decay_epochs=(), base_lr=1e-3)
        assert lr_at_epoch(cfg, 1) == 1e-3
        assert lr_at_epoch(cfg, 9) == 1e-3


class TestTrain:
    def test_fixed_batch_loss_decreases(self):
        # one pair, 50 optimizer steps; a correct gradient drives the loss
        # down in nearly every step. lr is kept small enough that all 50
        # steps stay in the descent phase instead of bouncing at the floor.
        config = _tiny_config()
        pair = generate_pair(_tiny_data(m_min=4, m_max=4), class_id=0, seed=1,
                             latent_dim=config.gnn_input_dim)
        model = MatchingModel(config)
        opt = Adam(model.store, backbone_lr_factor=config.backbone_lr_factor)
        prepared = [model.prepare(pair)]
        losses = []
        for _ in range(50):
            reports, backward = model.loss(prepared)
            backward()
            losses.append(reports[0].total)
            opt.step(lr=1e-4, batch_size=1)
        decreases = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert decreases >= 45, f"only {decreases}/49 decreasing steps"
        assert losses[-1] < losses[0] - 1.0

    def test_leftover_gradients_and_unsnapped_values_train_like_a_clean_model(self):
        # train() zeroes every gradient and snaps every value once, before its
        # first step; each Adam.step keeps that state for what it updates
        config = _tiny_config()
        pairs = generate_dataset(_tiny_data(), latent_dim=config.gnn_input_dim, seed=0)
        frozen, trainable = "backbone.global_proj", "loss.tau_raw"
        models = [MatchingModel(config), MatchingModel(config)]
        for model in models:
            model.store.set_trainable(frozen, False)
        clean, dirty = models
        rng = np.random.default_rng(5)
        for name in dirty.store.names():
            dirty.store.add_grad(name, rng.standard_normal(dirty.store.grad(name).shape))
        start = clean.store.value(frozen).copy()
        for name in (frozen, trainable):  # one float64 step up rounds back in float32
            dirty.store.set_value(name, np.nextafter(clean.store.value(name), np.inf))
        assert not np.array_equal(dirty.store.value(frozen), start)
        histories = [train(config, pairs, model=model)[2] for model in models]
        assert histories[0] == histories[1]
        for name in clean.store.names():
            value = dirty.store.value(name)
            assert np.array_equal(value, clean.store.value(name)), name
            assert np.array_equal(value, value.astype(np.float32)), name
        assert np.array_equal(dirty.store.value(frozen), start)

    def test_zero_lr_leaves_parameters_and_metrics_flat(self):
        config = _tiny_config(base_lr=0.0, epochs=3)
        pairs = generate_dataset(_tiny_data(), latent_dim=config.gnn_input_dim, seed=0)
        model = MatchingModel(config)
        before = _snapshot(model.store)
        model, _, history, aborted = train(config, pairs, model=model)
        assert not aborted
        after = _snapshot(model.store)
        for name in before:
            assert np.array_equal(before[name], after[name])
        # per-pair losses are identical; the epoch mean may differ in the
        # last ulp because the shuffle changes summation order
        first = history[0]["train_loss"]
        assert all(abs(h["train_loss"] - first) < 1e-9 for h in history)

    def test_batch_gradient_is_mean_of_pair_gradients(self):
        config = _tiny_config()
        pairs = generate_dataset(_tiny_data(num_pairs=4), seed=2,
                                 latent_dim=config.gnn_input_dim)
        model = MatchingModel(config)
        prepared = [model.prepare(pair) for pair in pairs]

        model.store.zero_grads()
        reports, backward = model.loss(prepared)
        backward()
        batched = {}
        for name in model.store.trainable_names():
            batched[name] = model.store.grad(name) / len(pairs)

        singles = {name: np.zeros_like(g) for name, g in batched.items()}
        for prep, report in zip(prepared, reports, strict=True):
            model.store.zero_grads()
            [single], backward = model.loss([prep])
            backward()
            assert single.total == pytest.approx(report.total, rel=1e-12)
            for name in singles:
                singles[name] += model.store.grad(name) / len(pairs)

        for name, expected in singles.items():
            err = np.max(np.abs(batched[name] - expected))
            assert err < 1e-10, f"{name}: {err:.3e}"

    def test_decoder_runs_once_per_minibatch(self, monkeypatch):
        # three pairs of unequal size share one padded decoder call each way
        config = _tiny_config()
        pairs = [generate_pair(_tiny_data(m_min=m, m_max=m), class_id=0, seed=m,
                               latent_dim=config.gnn_input_dim) for m in (3, 5, 4)]
        calls = {"decode": 0, "decode_backward": 0}
        pads = []
        for name in calls:
            original = getattr(model_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                if _name == "decode":
                    pads.append(args[5])  # the one mask of both streams
                return _original(*args)

            monkeypatch.setattr(model_module, name, counted)
        model = MatchingModel(config)
        reports, backward = model.loss([model.prepare(pair) for pair in pairs])
        backward()
        assert len(reports) == 3
        assert calls == {"decode": 1, "decode_backward": 1}
        assert np.array_equal(pads[0], np.arange(5) >= np.array([[3], [5], [4]]))

        # a single pair is a batch of one: one decode call, an all-False mask
        for run in (model.match_pair, model.forward_pair):
            calls["decode"], pads[:] = 0, []
            run(pairs[1])
            assert calls == {"decode": 1, "decode_backward": 1}
            assert len(pads) == 1 and pads[0].shape == (1, 5) and not pads[0].any()

    def test_batch_of_one_equals_forward_pair(self):
        # a pair's training loss and its match are computed from the same
        # decoder outputs as forward_pair's, bit for bit
        config = TrainConfig()
        model = MatchingModel(config)
        tau_raw = float(model.store.value("loss.tau_raw"))
        for seed in range(3):
            pair = generate_pair(DataConfig(), class_id=seed, seed=seed,
                                 latent_dim=config.gnn_input_dim)
            [batched], _ = model.loss([model.prepare(pair)])
            f1, f2, snapshots = model.forward_pair(pair)
            direct, _ = total_loss(f1.tokens, f2.tokens, snapshots, pair.truth, tau_raw,
                                   config.layer_loss_p, config.infonce_mode)
            assert batched.infonce == direct.infonce
            assert batched.hyperspherical_final == direct.hyperspherical_final
            assert batched.hyperspherical_layers == direct.hyperspherical_layers
            _, plan, C = model.match_pair(pair)
            want = affinity(f1.tokens, f2.tokens)
            assert np.array_equal(C, want)
            assert np.array_equal(plan.values, sinkhorn_log(want, config.sinkhorn_temperature,
                                                            config.sinkhorn_iters).values)

    def test_backbone_width_mismatch_rejected(self):
        config = _tiny_config()
        pair = generate_pair(_tiny_data(), class_id=0, seed=1,
                             latent_dim=config.gnn_input_dim + 2)
        model = MatchingModel(config)
        for run in (model.match_pair, lambda p: model.loss([model.prepare(p)])):
            with pytest.raises(ValueError, match="backbone width 10 does not match "
                                                 "gnn_input_dim 8"):
                run(pair)

    def test_non_finite_loss_aborts_and_keeps_parameters(self):
        config = _tiny_config(epochs=3)
        bad = generate_pair(_tiny_data(), class_id=0, seed=3,
                            latent_dim=config.gnn_input_dim)
        bad.latents = bad.latents * np.inf
        model = MatchingModel(config)
        before = _snapshot(model.store)
        model, _, history, aborted = train(config, [bad], model=model)
        assert aborted
        assert history == []
        after = _snapshot(model.store)
        for name in before:
            assert np.array_equal(before[name], after[name])
        # the aborted minibatch ran no backward
        for name in model.store.names():
            assert not model.store.grad(name).any(), name

    def test_minibatch_caches_freed_before_the_next_forward(self, monkeypatch):
        # a step's backward closure holds its minibatch's caches; two
        # minibatches' caches must never be alive at once
        config = _tiny_config()
        pairs = generate_dataset(_tiny_data(), latent_dim=config.gnn_input_dim, seed=2)
        original, closures = MatchingModel.loss, []

        def loss(self, prepared):
            assert all(ref() is None for ref in closures)
            reports, backward = original(self, prepared)
            closures.append(weakref.ref(backward))
            return reports, backward

        monkeypatch.setattr(MatchingModel, "loss", loss)
        train(config, pairs, model=MatchingModel(config))
        assert len(closures) == 2 * 3  # 2 epochs of 3 minibatches

    def test_frozen_parameter_gradient_stays_zero(self):
        config = _tiny_config()
        pairs = generate_dataset(_tiny_data(), latent_dim=config.gnn_input_dim, seed=2)
        model = MatchingModel(config)
        model.store.set_trainable("backbone.global_proj", False)
        start = model.store.value("backbone.global_proj").copy()
        train(config, pairs, model=model)
        assert not np.any(model.store.grad("backbone.global_proj"))
        assert np.array_equal(model.store.value("backbone.global_proj"), start)

    def test_pair_with_one_keypoint_rejected_before_preparation(self, monkeypatch):
        config = _tiny_config()
        pairs = generate_dataset(_tiny_data(), latent_dim=config.gnn_input_dim, seed=2)
        lone = generate_pair(_tiny_data(m_min=1, m_max=1), class_id=1, seed=9,
                             latent_dim=config.gnn_input_dim)
        renders = []
        _counted(monkeypatch, PairSample, "backbone_outputs", renders)
        with pytest.raises(ValueError, match=f"training pair {lone.image1}, {lone.image2} "
                                             "has 1 keypoint, but training needs at least 2"):
            train(config, pairs + [lone])
        assert renders == []
        # such a pair still validates
        _, _, history, aborted = train(config, pairs, val_pairs=[lone])
        assert not aborted and 0.0 <= history[-1]["val_accuracy"] <= 1.0

    def test_empty_training_list_rejected(self):
        # an epoch with no minibatch would have no mean loss to record
        with pytest.raises(ValueError, match="no training pairs"):
            train(_tiny_config(), [])

    def test_history_schema_and_lr_column(self):
        config = _tiny_config(epochs=2, lr_decay_epochs=(1,), lr_decay_factor=0.5)
        pairs = generate_dataset(_tiny_data(), latent_dim=config.gnn_input_dim, seed=1)
        _, _, history, aborted = train(config, pairs, val_pairs=pairs[:2])
        assert not aborted
        assert [h["epoch"] for h in history] == [1, 2]
        assert history[0]["lr"] == config.base_lr
        assert history[1]["lr"] == config.base_lr * 0.5
        for h in history:
            assert np.isfinite(h["train_loss"])
            assert 0.0 <= h["val_accuracy"] <= 1.0

    def test_full_run_determinism(self):
        config = _tiny_config(epochs=2)
        pairs = generate_dataset(_tiny_data(), latent_dim=config.gnn_input_dim, seed=4)
        model_a, _, hist_a, _ = train(config, pairs)
        model_b, _, hist_b, _ = train(config, pairs)
        assert hist_a == hist_b
        for name in model_a.store.names():
            assert np.array_equal(model_a.store.value(name), model_b.store.value(name))


def _counted(monkeypatch, owner, name, calls):
    """Replace owner.name with a wrapper that appends each result to calls."""
    original = getattr(owner, name)

    def counted(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(owner, name, counted)


class TestPrepare:
    def test_train_prepares_each_pair_once(self, monkeypatch):
        config = _tiny_config(epochs=3)
        pairs = generate_dataset(_tiny_data(num_pairs=4), latent_dim=config.gnn_input_dim,
                                 seed=5)
        renders, graphs = [], []
        _counted(monkeypatch, PairSample, "backbone_outputs", renders)
        _counted(monkeypatch, model_module, "build_graph", graphs)
        _, _, history, aborted = train(config, pairs)
        assert not aborted and len(history) == 3
        assert (len(renders), len(graphs)) == (4, 8)

    def test_validation_pairs_prepared_once(self, monkeypatch):
        config = _tiny_config(epochs=3)
        pairs = generate_dataset(_tiny_data(num_pairs=4), latent_dim=config.gnn_input_dim,
                                 seed=5)
        renders = []
        _counted(monkeypatch, PairSample, "backbone_outputs", renders)
        _, _, history, _ = train(config, pairs[:2], val_pairs=pairs[2:])
        assert len(renders) == 4
        assert all(0.0 <= h["val_accuracy"] <= 1.0 for h in history)

    def test_pure_function_of_the_pair(self, monkeypatch):
        config = _tiny_config()
        pair = generate_pair(_tiny_data(m_min=6, m_max=6), class_id=1, seed=3,
                             latent_dim=config.gnn_input_dim)
        pair.keypoints1[0] = (0.2, 31.5)  # beyond the outer cell centres: clamped
        before = copy.deepcopy(pair)
        renders = []
        _counted(monkeypatch, PairSample, "backbone_outputs", renders)
        model = MatchingModel(config)
        a, b = model.prepare(pair), model.prepare(pair)

        assert a.pair is pair
        for x, y in zip(a.features + [a.pooled], b.features + [b.pooled]):
            assert np.array_equal(x, y)
        for g, h in zip(a.graphs, b.graphs):
            assert g.num_nodes == h.num_nodes == pair.m
            assert np.array_equal(g.arcs, h.arcs) and np.array_equal(g.pseudo, h.pseudo)
        assert a.pooled.shape == (2, config.gnn_input_dim)
        for name, value in vars(before).items():
            assert np.array_equal(getattr(pair, name), value), name
        # each map counts the keypoints its gather clamped onto the grid
        for outs in renders:
            for out, kp in zip(outs, (pair.keypoints1, pair.keypoints2)):
                clamped = np.count_nonzero(((kp < 1.0) | (kp > 31.0)).any(axis=1))
                assert out.last.oob_count == out.second_last.oob_count == clamped
        assert renders[0][0].last.oob_count >= 1


class TestKnotPlan:
    def test_built_for_each_backward_only(self, monkeypatch):
        config = _tiny_config(epochs=2)
        pairs = generate_dataset(_tiny_data(num_pairs=6), latent_dim=config.gnn_input_dim,
                                 seed=5)
        plans = []
        _counted(monkeypatch, splineconv, "knot_plan", plans)
        model = MatchingModel(config)
        for pair in pairs:
            model.match_pair(pair)
        assert plans == []  # inference runs the stacked forward only

        prepared = [model.prepare(pair) for pair in pairs[:3]]
        model.loss(prepared)[1]()
        _, (arcs, _, _), _ = plans[0]
        assert len(plans) == 1  # one plan for the minibatch union, shared by both layers
        assert len(arcs) == 4 * sum(len(g.arcs) for p in prepared for g in p.graphs)

        # 2 epochs x 2 minibatches of 2 pairs; matching the validation pairs adds none
        train(config, pairs[:4], val_pairs=pairs[4:], model=model)
        assert len(plans) == 1 + 4


class _OracleModel:
    """Stand-in predictor: always right for class 0, always wrong otherwise."""

    def prepare(self, pair):
        return pair

    def match_prepared(self, pair):
        if pair.class_id == 0:
            assignment = pair.truth
        else:
            assignment = np.roll(pair.truth, 1)
        return Matching(assignment=np.asarray(assignment), injective=True), None, None


class TestEvaluate:
    def test_perfect_predictor_scores_one(self):
        pairs = generate_dataset(_tiny_data(num_pairs=4, num_classes=1),
                                 latent_dim=8, seed=0)
        result = evaluate(_OracleModel(), pairs)
        assert result["mean"] == 1.0
        assert result["classes"][0]["count"] == 4

    def test_mean_is_unweighted_over_classes(self):
        # 1 perfect pair of class 0 and 3 failed pairs of class 1: the mean
        # averages class accuracies, not pairs
        data = _tiny_data(num_pairs=4, num_classes=2)
        pairs = generate_dataset(data, latent_dim=8, seed=1)
        pairs = [p for p in pairs if p.class_id == 0][:1] + [
            p for p in pairs if p.class_id == 1
        ]
        result = evaluate(_OracleModel(), pairs)
        by_class = {c["class_id"]: c["accuracy"] for c in result["classes"]}
        assert by_class[0] == 1.0
        assert by_class[1] == 0.0
        assert result["mean"] == 0.5

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(_OracleModel(), [])

    def test_table_rendering(self):
        pairs = generate_dataset(_tiny_data(num_pairs=2, num_classes=2),
                                 latent_dim=8, seed=2)
        table = format_accuracy_table(evaluate(_OracleModel(), pairs))
        lines = table.splitlines()
        assert "class" in lines[0] and "accuracy" in lines[0]
        assert lines[-1].strip().startswith("mean")
        assert "0.5000" in lines[-1]

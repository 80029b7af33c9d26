import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normmatch import splineconv
from normmatch.geometry import KeypointGraph, batch_graphs, build_graph
from normmatch.gradcheck import all_passed, grad_check
from normmatch.ops import normalize_rows, normalize_rows_backward
from normmatch.params import ParameterStore
from normmatch.splineconv import (
    _basis_arrays,
    gnn_refine,
    gnn_refine_backward,
    init_gnn_params,
    knot_plan,
    spline_conv_backward,
    spline_conv_forward,
    spline_plan,
)
from oracles import (
    loop_max_aggregate,
    loop_spline_conv_backward,
    loop_spline_conv_forward,
    spline_basis,
)


def _manual_graph(num_nodes, arcs, pseudo):
    return KeypointGraph(
        num_nodes=num_nodes,
        arcs=np.asarray(arcs, dtype=np.intp).reshape(-1, 2),
        pseudo=np.asarray(pseudo, dtype=np.float64).reshape(-1, 2),
    )


class TestSplineBasis:
    def test_origin_corner_is_single_knot(self):
        assert spline_basis(np.array([0.0, 0.0]), 5) == [((0, 0), 1.0)]

    def test_center_hits_exact_knot(self):
        assert spline_basis(np.array([0.5, 0.5]), 5) == [((2, 2), 1.0)]

    def test_far_corner_clamps_to_last_knot(self):
        assert spline_basis(np.array([1.0, 1.0]), 3) == [((2, 2), 1.0)]

    def test_mixed_coordinate_splits_weight(self):
        pairs = spline_basis(np.array([0.3, 0.0]), 5)
        assert [idx for idx, _ in pairs] == [(1, 0), (2, 0)]
        weights = [w for _, w in pairs]
        np.testing.assert_allclose(weights, [0.8, 0.2], atol=1e-12)

    def test_interior_point_activates_four_knots(self):
        pairs = spline_basis(np.array([0.3, 0.7]), 5)
        assert len(pairs) == 4
        assert {idx for idx, _ in pairs} == {(1, 2), (1, 3), (2, 2), (2, 3)}

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(2, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, u1, u2, kernel_size):
        pairs = spline_basis(np.array([u1, u2]), kernel_size)
        assert 1 <= len(pairs) <= 4
        total = 0.0
        for (i1, i2), w in pairs:
            assert 0 <= i1 < kernel_size
            assert 0 <= i2 < kernel_size
            assert w > 0.0
            total += w
        assert abs(total - 1.0) < 1e-12

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            spline_basis(np.array([1.0001, 0.0]), 5)
        with pytest.raises(ValueError):
            spline_basis(np.array([0.5, -0.0001]), 5)

    def test_kernel_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            spline_basis(np.array([0.5, 0.5]), 1)

    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        st.integers(2, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_basis_arrays_match_scalar_oracle(self, points, kernel_size):
        pseudo = np.asarray(points, dtype=np.float64)
        idx, wgt = _basis_arrays(pseudo, kernel_size)
        assert np.all(wgt >= 0.0)
        for n, u in enumerate(pseudo):
            expected = {i1 * kernel_size + i2: w for (i1, i2), w in spline_basis(u, kernel_size)}
            active = {int(i): float(w) for i, w in zip(idx[:, n], wgt[:, n]) if w > 0.0}
            assert active == expected


def _dense_reference(features, graph, weight, bias, apply_relu):
    """Per-arc dense (K^2, in, out) contraction, then max, bias, ReLU."""
    k2, _, out_dim = weight.shape
    kernel = int(round(np.sqrt(k2)))
    best = np.full((graph.num_nodes, out_dim), -np.inf)
    for arc_idx in range(len(graph.arcs)):
        u, v = graph.arcs[arc_idx]
        dense = np.zeros(k2)
        s = graph.pseudo[arc_idx] * (kernel - 1)
        lo = np.minimum(s.astype(int), kernel - 2)
        frac = s - lo
        for a, wa in ((0, 1.0 - frac[0]), (1, frac[0])):
            for b, wb in ((0, 1.0 - frac[1]), (1, frac[1])):
                dense[(lo[0] + a) * kernel + (lo[1] + b)] = wa * wb
        msg = np.einsum("b,i,bio->o", dense, features[u], weight)
        best[v] = np.maximum(best[v], msg)
    out = best + bias
    return np.maximum(out, 0.0) if apply_relu else out


class TestSplineConv:
    def test_identity_kernel_single_node(self):
        graph = _manual_graph(1, [(0, 0)], [(0.5, 0.5)])
        weight = np.zeros((25, 2, 2))
        weight[2 * 5 + 2] = np.eye(2)  # the knot that (0.5, 0.5) activates
        out, _ = spline_conv_forward(
            np.array([[1.0, -1.0]]), graph, weight, np.zeros(2), spline_plan(graph, 5),
            apply_relu=True,
        )
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_zero_weights_output_relu_of_bias(self):
        graph = _manual_graph(2, [(0, 1), (1, 0), (0, 0), (1, 1)], [(0.2, 0.9)] * 4)
        weight = np.zeros((9, 3, 2))
        bias = np.array([0.5, -0.25])
        feats = np.arange(6.0).reshape(2, 3)
        out, _ = spline_conv_forward(feats, graph, weight, bias, spline_plan(graph, 3),
                                     apply_relu=True)
        np.testing.assert_allclose(out, [[0.5, 0.0], [0.5, 0.0]])

    @pytest.mark.parametrize("apply_relu", [False, True])
    def test_matches_dense_contraction_reference(self, apply_relu):
        rng = np.random.default_rng(11)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        graph = build_graph(pts)
        feats = rng.standard_normal((4, 3))
        weight = rng.standard_normal((25, 3, 4))
        bias = rng.standard_normal(4)
        out, _ = spline_conv_forward(feats, graph, weight, bias, spline_plan(graph, 5),
                                     apply_relu)
        ref = _dense_reference(feats, graph, weight, bias, apply_relu)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_matches_dense_reference_on_random_graphs(self):
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            m = int(rng.integers(3, 9))
            graph = build_graph(rng.uniform(0.0, 8.0, size=(m, 2)))
            feats = rng.standard_normal((m, 5))
            weight = rng.standard_normal((16, 5, 3))
            bias = rng.standard_normal(3)
            out, _ = spline_conv_forward(feats, graph, weight, bias, spline_plan(graph, 4),
                                         apply_relu=True)
            ref = _dense_reference(feats, graph, weight, bias, apply_relu=True)
            np.testing.assert_allclose(out, ref, atol=1e-12, err_msg=f"seed {seed}")

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        m = 6
        graph = build_graph(rng.uniform(0.0, 5.0, size=(m, 2)))
        feats = rng.standard_normal((m, 4))
        weight = rng.standard_normal((9, 4, 4))
        bias = rng.standard_normal(4)
        out1, _ = spline_conv_forward(feats, graph, weight, bias, spline_plan(graph, 3),
                                      apply_relu=True)

        perm = rng.permutation(m)
        reorder = rng.permutation(len(graph.arcs))
        relabeled = KeypointGraph(
            num_nodes=m,
            arcs=perm[graph.arcs][reorder],
            pseudo=graph.pseudo[reorder],
        )
        feats_perm = np.empty_like(feats)
        feats_perm[perm] = feats
        out2, _ = spline_conv_forward(feats_perm, relabeled, weight, bias,
                                      spline_plan(relabeled, 3), apply_relu=True)
        np.testing.assert_allclose(out2[perm], out1, atol=1e-12)

    def test_isolated_vertex_rejected(self):
        graph = _manual_graph(2, [(0, 0)], [(0.5, 0.5)])
        with pytest.raises(ValueError, match="isolated"):
            spline_plan(graph, 2)

    def test_width_mismatch_rejected(self):
        graph = _manual_graph(1, [(0, 0)], [(0.5, 0.5)])
        with pytest.raises(ValueError, match="width"):
            spline_conv_forward(np.ones((1, 3)), graph, np.zeros((4, 2, 2)), np.zeros(2),
                                spline_plan(graph, 2), True)

    def test_max_tie_routes_gradient_to_lowest_arc(self):
        # nodes 0 and 1 send identical messages to node 2; the subgradient
        # must pick the (0 -> 2) arc because it comes first
        graph = _manual_graph(
            3,
            [(0, 2), (1, 2), (0, 0), (1, 1), (2, 2)],
            [(0.5, 0.5)] * 5,
        )
        weight = np.zeros((9, 2, 2))
        weight[4] = np.eye(2)  # (0.5, 0.5) with K=3 activates knot (1,1)
        feats = np.array([[1.0, 1.0], [1.0, 1.0], [-5.0, -5.0]])
        plan = spline_plan(graph, 3)
        out, cache = spline_conv_forward(feats, graph, weight, np.zeros(2), plan,
                                         apply_relu=False)
        np.testing.assert_allclose(out[2], [1.0, 1.0])
        g_feats, _, _ = spline_conv_backward(cache, np.ones((3, 2)), knot_plan(plan, graph))
        # node 0 receives gradient from its self-loop and from node 2's pick;
        # node 1 only from its own self-loop
        np.testing.assert_allclose(g_feats[0], [2.0, 2.0])
        np.testing.assert_allclose(g_feats[1], [1.0, 1.0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        m = 5
        graph = build_graph(rng.uniform(0.0, 6.0, size=(m, 2)))
        feats = rng.standard_normal((m, 3))
        weight = rng.standard_normal((9, 3, 4))
        bias = rng.standard_normal(4)
        probe = rng.standard_normal((m, 4))
        plan = spline_plan(graph, 3)

        def scalar(f, w, b):
            out, _ = spline_conv_forward(f, graph, w, b, plan, apply_relu=True)
            return float((out * probe).sum())

        _, cache = spline_conv_forward(feats, graph, weight, bias, plan, apply_relu=True)
        g_feats, g_weight, g_bias = spline_conv_backward(cache, probe,
                                                         knot_plan(plan, graph))

        eps = 1e-6
        for arr, grad, name in ((feats, g_feats, "f"), (weight, g_weight, "w"), (bias, g_bias, "b")):
            flat = arr.ravel()
            coords = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for c in coords:
                orig = flat[c]
                flat[c] = orig + eps
                hi = scalar(feats, weight, bias)
                flat[c] = orig - eps
                lo = scalar(feats, weight, bias)
                flat[c] = orig
                numeric = (hi - lo) / (2 * eps)
                analytic = grad.ravel()[c]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                assert rel < 1e-4, f"{name}[{c}]: analytic {analytic}, numeric {numeric}"


def _oracle_graphs():
    """(name, graph, features) cases where argmax ties and NaN routing matter."""
    rng = np.random.default_rng(70)
    cases = [
        ("lone self-loop", build_graph(np.array([[4.0, 4.0]])), np.array([[1.0, -2.0, 0.0]])),
    ]
    # on a square, equal offsets give equal pseudo-coordinates, so equal
    # integer features send exactly tied messages
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    cases.append(("tied messages", build_graph(square), np.ones((4, 3))))
    cases.append(("integer ties", build_graph(square),
                  rng.integers(-2, 3, size=(4, 3)).astype(np.float64)))
    nan_feats = rng.standard_normal((6, 3))
    nan_feats[2] = np.nan
    cases.append(("NaN feature row", build_graph(rng.uniform(0.0, 8.0, size=(6, 2))), nan_feats))
    dup = rng.uniform(0.0, 8.0, size=(5, 2))
    dup[3] = dup[1]
    cases.append(("duplicate points", build_graph(dup), rng.standard_normal((5, 3))))
    for _ in range(4):
        m = int(rng.integers(2, 12))
        cases.append((f"random m={m}", build_graph(rng.uniform(0.0, 8.0, size=(m, 2))),
                      rng.standard_normal((m, 3))))
    return cases


class TestMaxAggregationOracle:
    """The block aggregation, and the argmax arcs that the backward finds in the
    block, reproduce the per-node loop bit for bit."""

    def _run(self, monkeypatch, graph, feats, integer_weights):
        """(agg, messages, routed arcs, backward, the backward's args) of one conv."""
        rng = np.random.default_rng(71)
        if integer_weights:
            weight = rng.integers(-1, 2, size=(9, 3, 4)).astype(np.float64)
        else:
            weight = rng.standard_normal((9, 3, 4))
        bias = rng.standard_normal(4)
        g_out = rng.standard_normal((graph.num_nodes, 4))
        plan = spline_plan(graph, 3)
        seen = {}
        aggregate, argmax_arcs = splineconv._max_aggregate, splineconv._argmax_arcs

        def spy_aggregate(msgs, blocks):
            seen["msgs"] = msgs
            return aggregate(msgs, blocks)

        def spy_arcs(*args):
            seen["arcs"] = argmax_arcs(*args)
            return seen["arcs"]

        with monkeypatch.context() as patch:
            patch.setattr(splineconv, "_max_aggregate", spy_aggregate)
            patch.setattr(splineconv, "_argmax_arcs", spy_arcs)
            _, cache = spline_conv_forward(feats, graph, weight, bias, plan, apply_relu=True)
            args = (cache, g_out, knot_plan(plan, graph))
            grads = spline_conv_backward(*args)
        return cache[4][1], seen["msgs"], seen["arcs"], grads, args

    @pytest.mark.parametrize("integer_weights", [False, True])
    def test_matches_per_node_loop(self, monkeypatch, integer_weights):
        for name, graph, feats in _oracle_graphs():
            agg, msgs, arcs, grads, args = self._run(monkeypatch, graph, feats, integer_weights)
            dst = graph.arcs[:, 1]
            want_agg, want_arcs = loop_max_aggregate(msgs, dst, np.bincount(dst))
            np.testing.assert_array_equal(agg, want_agg, err_msg=f"{name}: aggregate")
            np.testing.assert_array_equal(arcs, want_arcs, err_msg=f"{name}: argmax arcs")
            with monkeypatch.context() as patch:  # gradients go where the loop's arcs say
                patch.setattr(splineconv, "_argmax_arcs", lambda *_: want_arcs)
                want = spline_conv_backward(*args)
            for label, g, w in zip(("features", "weight", "bias"), grads, want):
                np.testing.assert_array_equal(g, w, err_msg=f"{name}: g_{label}")

    def test_ties_and_nan_pick_the_lowest_arc(self):
        # three arcs into node 0 carry tied messages, except a NaN in arc 1;
        # node 1 has in-degree 1
        msgs = np.array([[1.0, 2.0], [1.0, np.nan], [1.0, 2.0], [5.0, 5.0]])
        graph = _manual_graph(2, [(0, 0), (1, 0), (1, 0), (1, 1)], [(0.5, 0.5)] * 4)
        blocks = spline_plan(graph, 2)[3]
        agg, padded = splineconv._max_aggregate(msgs, blocks)
        argmax_arc = splineconv._argmax_arcs(padded, agg, blocks)
        want_agg, want_arc = loop_max_aggregate(msgs, graph.arcs[:, 1], np.array([3, 1]))
        np.testing.assert_array_equal(agg, want_agg)
        np.testing.assert_array_equal(argmax_arc, want_arc)
        np.testing.assert_array_equal(argmax_arc, [[0, 1], [3, 3]])


def _plan_oracle_cases():
    """(name, graph) cases for the knot plan against the per-group loop."""
    rng = np.random.default_rng(80)
    cases = [(f"delaunay m={m}", build_graph(rng.uniform(0.0, 8.0, size=(m, 2))))
             for m in (3, 5, 8, 12)]
    members = [build_graph(rng.uniform(0.0, 8.0, size=(int(rng.integers(1, 13)), 2)))
               for _ in range(16)]
    cases.append(("16-member union", batch_graphs(members)))
    cases.append(("m = 1", build_graph(np.array([[4.0, 4.0]]))))
    collinear = build_graph(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    assert len(collinear.arcs) == 4 * 3 + 4  # complete-graph fallback plus loops
    cases.append(("collinear fallback", collinear))
    # nodes 1 and 3 receive arcs but send none, so reduceat must skip them
    arcs = [(0, 1), (2, 1), (0, 0), (2, 2), (0, 3), (2, 3), (0, 2), (2, 0)]
    cases.append(("no outgoing arc", _manual_graph(4, arcs, rng.uniform(0.0, 1.0, (8, 2)))))
    return cases


class TestKnotPlanOracle:
    """The knot-plan conv against the per-(corner, knot) loop it replaced."""

    @staticmethod
    def _rel(got, want):
        return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)

    @pytest.mark.parametrize("apply_relu", [False, True])
    def test_matches_loop_oracle(self, apply_relu):
        rng = np.random.default_rng(81)
        for name, graph in _plan_oracle_cases():
            m = graph.num_nodes
            feats = rng.standard_normal((m, 6))
            weight = rng.standard_normal((16, 6, 5))
            bias = rng.standard_normal(5)
            g_out = rng.standard_normal((m, 5))
            plan = spline_plan(graph, 4)
            out, cache = spline_conv_forward(feats, graph, weight, bias, plan, apply_relu)
            want_out, want_cache = loop_spline_conv_forward(feats, graph, weight, bias,
                                                            apply_relu)
            assert self._rel(out, want_out) < 1e-12, f"{name}: output"
            got = spline_conv_backward(cache, g_out, knot_plan(plan, graph))
            want = loop_spline_conv_backward(want_cache, g_out)
            for label, g, w in zip(("features", "weight", "bias"), got, want):
                assert self._rel(g, w) < 1e-12, f"{name}: g_{label}"

    @pytest.mark.parametrize("apply_relu", [False, True])
    def test_stacked_forward_builds_no_knot_plan(self, monkeypatch, apply_relu):
        def refuse(*args):
            raise AssertionError("the forward built a knot plan")

        monkeypatch.setattr(splineconv, "knot_plan", refuse)
        rng = np.random.default_rng(82)
        for name, graph in _plan_oracle_cases():
            feats = rng.standard_normal((graph.num_nodes, 6))
            weight = rng.standard_normal((16, 6, 5))
            bias = rng.standard_normal(5)
            out, _ = spline_conv_forward(feats, graph, weight, bias, spline_plan(graph, 4),
                                         apply_relu)
            want, _ = loop_spline_conv_forward(feats, graph, weight, bias, apply_relu)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12, err_msg=name)

    def test_backward_with_given_plan_and_without_input_gradient(self):
        rng = np.random.default_rng(83)
        for name, graph in _plan_oracle_cases():
            m = graph.num_nodes
            plan = spline_plan(graph, 4)
            _, cache = spline_conv_forward(rng.standard_normal((m, 6)), graph,
                                           rng.standard_normal((16, 6, 5)),
                                           rng.standard_normal(5), plan, True)
            g_out = rng.standard_normal((m, 5))
            by_knot = knot_plan(plan, graph)
            full = spline_conv_backward(cache, g_out, by_knot)
            g_none, g_weight, g_bias = spline_conv_backward(cache, g_out, by_knot,
                                                            input_grad=False)
            assert g_none is None and full[0] is not None, name
            assert np.array_equal(g_weight, full[1]) and np.array_equal(g_bias, full[2]), name

    def test_plan_for_other_kernel_size_rejected(self):
        graph = build_graph(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]))
        plan = spline_plan(graph, 3)
        with pytest.raises(ValueError, match="plan built for K = 3"):
            spline_conv_forward(np.ones((3, 2)), graph, np.zeros((25, 2, 2)), np.zeros(2),
                                plan, True)


class TestGnnRefine:
    def _setup(self, m=5, in_dim=32, d_model=16, kernel_size=5, seed=0):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        init_gnn_params(store, rng, in_dim, d_model, kernel_size)
        graph = build_graph(rng.uniform(0.0, 10.0, size=(m, 2)))
        feats = rng.standard_normal((m, in_dim))
        return store, graph, feats

    def test_shapes_and_unit_rows(self):
        store, graph, feats = self._setup()
        out, _ = gnn_refine([feats], [graph], store)
        assert out.shape == (5, 16)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_width_mismatch_raises(self):
        store, graph, feats = self._setup()
        with pytest.raises(ValueError, match="width"):
            gnn_refine([feats[:, :-1]], [graph], store)

    def test_permutation_equivariance(self):
        store, graph, feats = self._setup(m=7)
        rng = np.random.default_rng(9)
        out1, _ = gnn_refine([feats], [graph], store)

        perm = rng.permutation(7)
        reorder = rng.permutation(len(graph.arcs))
        relabeled = KeypointGraph(
            num_nodes=7,
            arcs=perm[graph.arcs][reorder],
            pseudo=graph.pseudo[reorder],
        )
        feats_perm = np.empty_like(feats)
        feats_perm[perm] = feats
        out2, _ = gnn_refine([feats_perm], [relabeled], store)
        np.testing.assert_allclose(out2[perm], out1, atol=1e-12)

    def test_parameter_gradients_pass_check(self):
        store, graph, feats = self._setup(m=4, in_dim=6, d_model=8, kernel_size=3, seed=1)
        rng = np.random.default_rng(2)
        probe = rng.standard_normal((4, 8))

        def forward(params):
            out, cache = gnn_refine([feats], [graph], params)
            return float((out * probe).sum()), lambda: gnn_refine_backward(cache, probe, params)

        reports = grad_check(forward, store, rng=np.random.default_rng(3))
        assert all_passed(reports), "\n".join(str(r) for r in reports)

    def test_feature_gradient_matches_finite_differences(self):
        # gnn_refine_backward computes no input gradient (nothing upstream
        # trains); the second layer's input gradient, which it does use, is
        # checked at the spline_conv_backward level
        store, graph, feats = self._setup(m=4, in_dim=6, d_model=8, kernel_size=3, seed=1)
        rng = np.random.default_rng(4)
        probe = rng.standard_normal((4, 8))
        _, cache = gnn_refine([feats], [graph], store)
        assert gnn_refine_backward(cache, probe, store) is None
        g_h1 = _second_layer_input_grad(cache, probe)
        h1, plan = cache[1][0].copy(), cache[1][3]

        def scalar():
            h2, _ = spline_conv_forward(h1, graph, store.value("gnn.w2"), store.value("gnn.b2"),
                                        plan, apply_relu=False)
            return float((normalize_rows(h2)[0] * probe).sum())

        eps = 1e-6
        flat = h1.ravel()
        for c in rng.choice(flat.size, size=12, replace=False):
            orig = flat[c]
            flat[c] = orig + eps
            hi = scalar()
            flat[c] = orig - eps
            lo = scalar()
            flat[c] = orig
            numeric = (hi - lo) / (2 * eps)
            analytic = g_h1.ravel()[c]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            assert rel < 1e-4


def _second_layer_input_grad(cache, g_out):
    """Gradient at the second conv's input, as gnn_refine_backward computes it."""
    _, c2, nc = cache
    return spline_conv_backward(c2, normalize_rows_backward(nc, g_out),
                                knot_plan(c2[3], c2[1]))[0]


class TestDisjointUnion:
    """One GNN call on the union of several graphs against one call per member."""

    def _members(self, in_dim=12):
        rng = np.random.default_rng(11)
        points = [
            rng.uniform(0.0, 10.0, size=(6, 2)),
            np.array([[4.0, 4.0]]),  # m = 1: a lone self-loop
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),  # collinear
            rng.uniform(0.0, 10.0, size=(9, 2)),
        ]
        graphs = [build_graph(p) for p in points]
        assert len(graphs[2].arcs) == 4 * 3 + 4  # complete-graph fallback plus loops
        feats = [rng.standard_normal((len(p), in_dim)) for p in points]
        probes = [rng.standard_normal((len(p), 8)) for p in points]
        store = ParameterStore()
        init_gnn_params(store, rng, in_dim, 8, 5)
        return store, graphs, feats, probes

    def test_forward_matches_per_graph_outputs(self):
        store, graphs, feats, _ = self._members()
        union_out, _ = gnn_refine(feats, graphs, store)
        splits = np.cumsum([len(f) for f in feats])[:-1]
        for got, graph, f in zip(np.split(union_out, splits), graphs, feats):
            expected, _ = gnn_refine([f], [graph], store)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_backward_matches_per_graph_sums(self):
        store, graphs, feats, probes = self._members()
        names = store.trainable_names()
        store.zero_grads()
        _, cache = gnn_refine(feats, graphs, store)
        gnn_refine_backward(cache, np.vstack(probes), store)
        g_union = _second_layer_input_grad(cache, np.vstack(probes))
        union_grads = {n: store.grad(n).copy() for n in names}

        store.zero_grads()
        g_members = []
        for graph, f, probe in zip(graphs, feats, probes):
            _, cache = gnn_refine([f], [graph], store)
            gnn_refine_backward(cache, probe, store)
            g_members.append(_second_layer_input_grad(cache, probe))
        for name in names:
            expected = store.grad(name)
            err = np.max(np.abs(union_grads[name] - expected)) / np.max(np.abs(expected))
            assert err < 1e-12, f"{name}: {err:.3e}"
        np.testing.assert_allclose(g_union, np.vstack(g_members), rtol=0, atol=1e-12)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles

from normmatch.geometry import batch_graphs, build_graph, delaunay, pseudo_coords


def _non_loop(graph):
    """Arcs and pseudo-coordinates of the graph without its self-loops."""
    keep = graph.arcs[:, 0] != graph.arcs[:, 1]
    return graph.arcs[keep], graph.pseudo[keep]


def _edge_set(graph):
    """Undirected non-loop edges as (min, max) pairs."""
    return {(min(u, v), max(u, v)) for u, v in _non_loop(graph)[0].tolist()}


def _circumcircle(a, b, c):
    """Center and squared radius, or None for collinear points."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        return None
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return (ux, uy), r2


def _empty_triple_edges(points, strict_slack=1e-9):
    """Union of edges of triangles whose circumcircle is empty of other points."""
    m = len(points)
    edges = set()
    for i, j, k in itertools.combinations(range(m), 3):
        circ = _circumcircle(points[i], points[j], points[k])
        if circ is None:
            continue
        (ux, uy), r2 = circ
        empty = all(
            (points[o][0] - ux) ** 2 + (points[o][1] - uy) ** 2 > r2 - strict_slack
            for o in range(m)
            if o not in (i, j, k)
        )
        if empty:
            edges.update({(i, j), (i, k), (j, k)})
    return edges


class TestDelaunay:
    def test_triangle(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
        assert delaunay(pts).tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_two_points_fall_back_to_single_edge(self):
        assert delaunay(np.array([[0.0, 0.0], [1.0, 2.0]])).tolist() == [[0, 1]]

    def test_single_point(self):
        edges = delaunay(np.array([[0.3, 0.7]]))
        assert edges.shape == (0, 2) and edges.dtype == np.intp

    def test_collinear_points_fall_back_to_complete_graph(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert delaunay(pts).tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_duplicate_points_fall_back_to_complete_graph(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert delaunay(pts).tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_unit_square_keeps_sides_plus_one_diagonal(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        edges = set(map(tuple, delaunay(pts).tolist()))
        sides = {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert sides <= edges
        assert len(edges) == 5
        diagonal = edges - sides
        assert diagonal in ({(0, 2)}, {(1, 3)})
        # brute force (on-circle points do not block) admits both diagonals,
        # so whichever one appeared is admissible
        assert diagonal <= _empty_triple_edges(pts)

    def test_matches_empty_circumcircle_oracle_on_random_points(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 12))
            pts = rng.uniform(0.0, 10.0, size=(m, 2))
            edges = set(map(tuple, delaunay(pts).tolist()))
            assert edges == _empty_triple_edges(pts), f"seed {seed}"

    def test_every_vertex_connected(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            m = int(rng.integers(2, 15))
            pts = rng.uniform(0.0, 5.0, size=(m, 2))
            touched = set(delaunay(pts).ravel().tolist())
            assert touched == set(range(m))

    def test_edges_never_cross_and_obey_planar_bound(self):
        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        def properly_cross(p1, p2, p3, p4):
            d1 = orient(p3, p4, p1)
            d2 = orient(p3, p4, p2)
            d3 = orient(p1, p2, p3)
            d4 = orient(p1, p2, p4)
            return d1 * d2 < 0 and d3 * d4 < 0

        for seed in range(15):
            rng = np.random.default_rng(300 + seed)
            m = int(rng.integers(4, 16))
            pts = rng.uniform(0.0, 10.0, size=(m, 2))
            edges = delaunay(pts).tolist()
            assert len(edges) <= 3 * m - 6
            for (a, b), (c, d) in itertools.combinations(edges, 2):
                if {a, b} & {c, d}:
                    continue  # shared endpoint, crossing impossible
                assert not properly_cross(pts[a], pts[b], pts[c], pts[d]), (
                    f"seed {seed}: edges ({a},{b}) and ({c},{d}) cross"
                )

    @given(
        st.integers(0, 500),
        st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0),
        st.floats(0.1, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_translation_and_scaling(self, seed, tx, ty, scale):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        pts = rng.uniform(0.0, 4.0, size=(m, 2))
        base = delaunay(pts)
        moved = delaunay(pts * scale + np.array([tx, ty]))
        np.testing.assert_array_equal(base, moved)


class TestPseudoCoords:
    def test_two_point_graph_extremes_and_constant_guard(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        arcs = np.array([[0, 1], [1, 0]])
        ps = pseudo_coords(pts, arcs)
        np.testing.assert_allclose(ps[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(ps[:, 1], [0.5, 0.5])  # constant dim maps to 0.5

    def test_square_offsets_rescale_to_three_levels(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        arcs, pseudo = _non_loop(build_graph(pts))
        assert len(arcs) == 10  # 5 undirected edges
        levels = np.unique(np.round(pseudo, 12))
        np.testing.assert_allclose(levels, [0.0, 0.5, 1.0])

    def test_bounds_and_extremes_attained(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 8.0, size=(7, 2))
        _, ps = _non_loop(build_graph(pts))
        assert ps.min() >= 0.0 and ps.max() <= 1.0
        for c in range(2):
            assert np.isclose(ps[:, c].min(), 0.0)
            assert np.isclose(ps[:, c].max(), 1.0)

    def test_arc_reversal_reflects_pseudo(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 8.0, size=(6, 2))
        arcs, pseudo = _non_loop(build_graph(pts))
        lookup = {(u, v): p for (u, v), p in zip(map(tuple, arcs), pseudo)}
        for (u, v), p in lookup.items():
            np.testing.assert_allclose(lookup[(v, u)], 1.0 - p, atol=1e-12)

    def test_max_offset_arc_hits_one_one(self):
        pts = np.array([[0.0, 0.0], [2.0, 3.0], [1.0, 1.0]])
        arcs = np.array([[0, 1], [1, 0], [0, 2], [2, 0]])
        ps = pseudo_coords(pts, arcs)
        np.testing.assert_allclose(ps[0], [1.0, 1.0])  # offset (2,3) is max in both dims


class TestBuildGraph:
    def test_self_loops_pinned_at_center(self):
        pts = np.random.default_rng(5).uniform(0.0, 4.0, size=(5, 2))
        graph = build_graph(pts)
        loops = graph.arcs[:, 0] == graph.arcs[:, 1]
        assert loops.sum() == 5
        np.testing.assert_allclose(graph.pseudo[loops], 0.5)

    def test_arcs_paired_and_unique(self):
        pts = np.random.default_rng(6).uniform(0.0, 4.0, size=(8, 2))
        graph = build_graph(pts)
        seen = set(map(tuple, graph.arcs))
        assert len(seen) == len(graph.arcs)
        for u, v in graph.arcs:
            assert (v, u) in seen

    def test_degenerate_input_still_connected(self):
        graph = build_graph(np.zeros((3, 2)))
        assert _edge_set(graph) == {(0, 1), (0, 2), (1, 2)}

    def test_graph_connected_for_small_m(self):
        graph = build_graph(np.array([[0.0, 0.0], [3.0, 1.0]]))
        assert _edge_set(graph) == {(0, 1)}


class TestBatchGraphs:
    def test_union_offsets_arcs_and_stacks_pseudo(self):
        rng = np.random.default_rng(7)
        graphs = [build_graph(rng.uniform(0.0, 10.0, size=(m, 2))) for m in (5, 1, 3)]
        union = batch_graphs(graphs)
        assert union.num_nodes == 9
        starts = np.cumsum([0] + [len(g.arcs) for g in graphs])
        for g, offset, lo, hi in zip(graphs, (0, 5, 6), starts, starts[1:]):
            np.testing.assert_array_equal(union.arcs[lo:hi], g.arcs + offset)
            np.testing.assert_array_equal(union.pseudo[lo:hi], g.pseudo)
        assert len(union.arcs) == starts[-1]

    def test_single_member_union_is_the_graph(self):
        graph = build_graph(np.random.default_rng(8).uniform(0.0, 10.0, size=(6, 2)))
        union = batch_graphs([graph])
        assert union.num_nodes == graph.num_nodes
        np.testing.assert_array_equal(union.arcs, graph.arcs)
        np.testing.assert_array_equal(union.pseudo, graph.pseudo)


def _point_sets(rng, count):
    """count point sets, m from 1 to 20, cycling through six kinds: uniform,
    integer-rounded, on a 4-px grid (co-circular ties), collinear, with a
    duplicate point, and on an 8-px grid with +-1e-13 jitter."""
    for i in range(count):
        m = int(rng.integers(1, 21))
        kind = i % 6
        if kind == 3:
            step = rng.uniform(0.0, 1.0, m)[:, None] * rng.uniform(-1.0, 1.0, 2)
            yield rng.uniform(0.0, 32.0, 2) + step
            continue
        points = rng.uniform(0.0, 32.0, (m, 2))
        if kind == 1:
            points = np.round(points)
        elif kind == 2:
            points = np.round(points / 4.0) * 4.0
        elif kind == 4:
            points[rng.integers(m)] = points[rng.integers(m)]
        elif kind == 5:
            points = np.round(points / 8.0) * 8.0 + rng.choice([-1e-13, 0.0, 1e-13], (m, 2))
        yield points


def _tie_sets(rng, count):
    """count tie-heavy point sets, m from 3 to 20, cycling through four kinds:
    on a 4-px grid, on an 8-px grid, and the corners of an 8 x 8 square or a
    12 x 4 rectangle plus interior grid points, shuffled (every other one
    with its repeated points removed)."""
    for i in range(count):
        m = int(rng.integers(3, 21))
        kind = i % 4
        if kind < 2:
            step = 4.0 * (kind + 1)
            yield np.round(rng.uniform(0.0, 32.0, (m, 2)) / step) * step
            continue
        w, h = (8.0, 8.0) if kind == 2 else (12.0, 4.0)
        x0, y0 = rng.integers(0, 16, 2).astype(np.float64)
        corners = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
        inner = rng.integers(0, 5, (max(m - 4, 0), 2)) * [w / 4, h / 4] + [x0, y0]
        points = np.concatenate([corners, inner])
        yield rng.permutation(np.unique(points, axis=0) if i % 8 >= 4 else points)


def _oracle_parity(monkeypatch, point_sets):
    """Asserts that build_graph gives the oracle's arcs and pseudo-coordinate
    bytes on every set. Returns the co-circular tie rows the oracle resolved
    (distinct (set, triangle) pairs) and the number of complete-graph fallbacks."""
    ties, fallbacks = set(), 0
    tie_blocks = oracles._tie_blocks
    monkeypatch.setattr(oracles, "_tie_blocks", lambda points, a, b, c, o: ties.add(
        (points.tobytes(), a, b, c)) or tie_blocks(points, a, b, c, o))
    for points in point_sets:
        edges, arcs, pseudo = oracles.triple_test_build_graph(points)
        graph = build_graph(points)
        assert graph.arcs.dtype == arcs.dtype and graph.arcs.tobytes() == arcs.tobytes()
        assert graph.pseudo.tobytes() == pseudo.tobytes(), points.tolist()
        fallbacks += len(edges) == len(points) * (len(points) - 1) // 2
    return len(ties), fallbacks


class TestAgainstTripleTestOracle:
    """The combination-order determinant and its tie rule give the oracle's
    graphs byte for byte."""

    @pytest.mark.parametrize("scale,count", [(1.0, 6000), (1e-6, 1200), (1e6, 1200)])
    def test_arcs_and_pseudo_bytes_match(self, monkeypatch, scale, count):
        point_sets = (p * scale for p in _point_sets(np.random.default_rng(123), count))
        ties, fallbacks = _oracle_parity(monkeypatch, point_sets)
        # the mix reaches the tie resolution and the complete-graph fallback
        assert ties >= {1.0: 2000, 1e-6: 100, 1e6: 200}[scale] and fallbacks > count // 6

    @pytest.mark.parametrize("offset,scale,min_ties", [
        (0.0, 1.0, 800), (1e3, 1.0, 800), (0.0, 1e-6, 230), (0.0, 1e6, 700)])
    def test_tie_heavy_bytes_match(self, monkeypatch, offset, scale, min_ties):
        point_sets = (p * scale + offset for p in _tie_sets(np.random.default_rng(5), 600))
        ties, _ = _oracle_parity(monkeypatch, point_sets)
        assert ties >= min_ties

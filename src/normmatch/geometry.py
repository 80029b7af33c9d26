"""Keypoint graph construction: Delaunay triangulation and edge attributes.

Keypoint sets here are tiny (a few dozen points at most), so the
triangulation works directly from the defining property: a triangle belongs
to the Delaunay triangulation exactly when its circumcircle contains no
other point. Every point triple reads its incircle determinant from one
table of the points relative to each other, taken in combination order and
multiplied by the sign of the triple's orientation (swapping two vertices
negates it exactly). Exactly co-circular ties are resolved by Simulation of
Simplicity (Edelsbrunner & Muecke, ACM TOG 1990) from cofactors that are
cross products of the same table. Degenerate inputs (fewer than 3 points,
all collinear, duplicate points) fall back to the complete graph so
downstream message passing always has edges to work with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["KeypointGraph", "delaunay", "pseudo_coords", "build_graph", "batch_graphs"]


@dataclass
class KeypointGraph:
    """Directed-arc view of an undirected keypoint graph.

    arcs: (n_arcs, 2) int array of (src, dst); every non-loop arc appears in
    both directions, then one self-loop (i, i) per node; a batch_graphs
    union keeps each member's arcs as one block in that order. pseudo:
    (n_arcs, 2) edge attributes in [0, 1]^2 feeding the spline kernels.
    """

    num_nodes: int
    arcs: np.ndarray
    pseudo: np.ndarray


def _complete_edges(m: int) -> np.ndarray:
    return np.transpose(np.triu_indices(m, 1))


_TRIPLES: dict[int, np.ndarray] = {}


def _triples(m: int) -> np.ndarray:
    """(3, T) index columns of combinations(range(m), 3), kept only up to m = 32 (1 MB)."""
    trips = _TRIPLES.get(m)
    if trips is None:
        trips = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp).T.copy()
        if m <= 32:
            trips.setflags(write=False)  # shared by every later call
            _TRIPLES[m] = trips
    return trips


def _connected(m: int, edges) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(m)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m


def delaunay(points) -> np.ndarray:
    """Sorted (E, 2) int array of the Delaunay edges (u, v), u < v, of 2-D points.

    For m >= 3 points in general position this is the standard Delaunay edge
    set (every triangle circumcircle empty of the remaining points), found by
    testing all point triples with the incircle determinant. Exactly
    co-circular ties resolve deterministically by point index. Inputs with
    m < 3, all points collinear, or duplicate points return the complete
    graph instead.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an m x 2 array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    m = len(points)
    if m < 3 or len(set(map(tuple, points.tolist()))) < m:  # too few, or exact duplicates
        return _complete_edges(m)
    d = points.T[:, :, None] - points.T[:, None, :]  # [k, i, o]: coordinate k of i - o
    rel = np.concatenate([d, (d * d).sum(axis=0, keepdims=True)])  # x, y, squared length
    trips = _triples(m)
    # (T, m) operands: each point o relative to the vertices a, b, c of each triple
    (ax, bx, cx), (ay, by, cy), (an, bn, cn) = np.take(rel, trips, axis=1)
    area = bx * cy - by * cx
    orient = area[np.arange(trips.shape[1]), trips[0]]  # twice the signed area of (a, b, c)
    # the first m - 2 triples are (0, 1, c): all collinear when none leaves the line
    if (np.abs(orient[: m - 2]) <= 1e-12).all():
        return _complete_edges(m)
    # the incircle determinant of the counter-clockwise triple: positive
    # strictly inside, exactly zero on a member point or a co-circular tie.
    # Collinear triples are never Delaunay triangles
    det = ax * (by * cn - bn * cy) - ay * (bx * cn - bn * cx) + an * area
    det = np.sign(orient)[:, None] * det
    blocked = (det > 0.0).any(axis=1) | (orient == 0.0)
    zero = det == 0.0
    # exact ties (more zeros than the three vertices): each lifted point sinks
    # by an infinitesimal shrinking with its index; the first nonzero cofactor
    # in index order decides. a's and b's are cross products relative to o, and
    # o's is |orient| > 0, so o blocks unless a or b before it decides; c never
    # does, since zero a and b cofactors would make a, b, c collinear (blocked)
    for r in np.flatnonzero((zero.sum(axis=1) > 3) & ~blocked).tolist():
        s, abc = np.sign(orient[r]), trips[:, r].tolist()
        cofactors = (-s * area[r], s * (ax[r] * cy[r] - ay[r] * cx[r]))
        blocked[r] = any(next((cof[o] > 0.0 for vertex, cof in zip(abc[:2], cofactors)
                               if vertex < o and cof[o] != 0.0), True)
                         for o in np.flatnonzero(zero[r]).tolist() if o not in abc)
    kept, adj = trips[:, ~blocked], np.zeros((m, m), dtype=bool)
    adj[kept[[0, 0, 1]], kept[[1, 2, 2]]] = True  # the edges (a, b), (a, c), (b, c)
    edges = np.argwhere(adj)  # sorted
    # only numerically perverse inputs strand a vertex; keep the graph connected
    if not len(edges) or not _connected(m, edges.tolist()):
        return _complete_edges(m)
    return edges


def pseudo_coords(points, arcs) -> np.ndarray:
    """Per-arc 2-D attributes: min-max rescaled coordinate offsets.

    For arc (u -> v) the raw offset is coords[v] - coords[u]; each component
    is rescaled to [0, 1] by the min/max of that component over all arcs. A
    component that is constant across arcs maps to 0.5.
    """
    points = np.asarray(points, dtype=np.float64)
    arcs = np.asarray(arcs, dtype=np.intp)
    if arcs.size == 0:
        return np.zeros((0, 2))
    offsets = points[arcs[:, 1]] - points[arcs[:, 0]]
    lo, hi = offsets.min(axis=0), offsets.max(axis=0)
    flat = hi - lo <= 1e-12
    return np.where(flat, 0.5, (offsets - lo) / np.where(flat, 1.0, hi - lo))


def build_graph(points) -> KeypointGraph:
    """Delaunay arcs plus pseudo-coordinates, with self-loops at (0.5, 0.5)."""
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    edges = delaunay(points)
    arcs = np.concatenate([edges, edges[:, ::-1]], axis=1).reshape(-1, 2)  # (u, v), (v, u)
    loops = np.arange(m).repeat(2).reshape(-1, 2)
    return KeypointGraph(m, np.concatenate([arcs, loops]),
                         np.concatenate([pseudo_coords(points, arcs), np.full((m, 2), 0.5)]))


def batch_graphs(graphs) -> KeypointGraph:
    """Disjoint union: each graph's arcs offset by the node count before it."""
    arcs, offset = [], 0
    for g in graphs:
        arcs.append(g.arcs + offset)
        offset += g.num_nodes
    return KeypointGraph(offset, np.concatenate(arcs), np.concatenate([g.pseudo for g in graphs]))

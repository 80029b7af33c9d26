"""Keypoint graph construction: Delaunay triangulation and edge attributes.

Keypoint sets here are tiny (a few dozen points at most), so the
triangulation works directly from the defining property: a triangle belongs
to the Delaunay triangulation exactly when its circumcircle contains no
other point. Every point triple is tested with the incircle determinant;
exactly co-circular ties are broken by symbolically sinking each lifted
point by an infinitesimal that shrinks with point index, which picks one
diagonal of a co-circular quad deterministically. Degenerate inputs (fewer
than 3 points, all collinear, duplicate points) fall back to the complete
graph so downstream message passing always has edges to work with.
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


def _orient(a, b, c) -> float:
    """Twice the signed area of triangle (a, b, c); positive when counter-clockwise."""
    return float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _complete_edges(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def _is_degenerate(points: np.ndarray) -> bool:
    m = len(points)
    if m < 3:
        return True
    if len({tuple(p) for p in points}) < m:  # exact duplicates
        return True
    a, b = points[0], points[1]
    return all(abs(_orient(a, b, c)) <= 1e-12 for c in points[2:])  # all collinear


def _tie_blocks(points, a: int, b: int, c: int, o: int) -> bool:
    """Resolve an exactly co-circular (triangle, point) tie.

    Each point's height on the lifting paraboloid is lowered by an
    infinitesimal that shrinks with point index, so the perturbed incircle
    determinant takes the sign of the first nonzero contribution in index
    order. (a, b, c) must be counter-clockwise; returns True when the
    perturbed point o lands strictly inside the circumcircle.
    """
    contrib = {
        a: -_orient(points[b], points[c], points[o]),
        b: _orient(points[a], points[c], points[o]),
        c: -_orient(points[a], points[b], points[o]),
        o: _orient(points[a], points[b], points[c]),
    }
    for idx in sorted(contrib):
        if contrib[idx] != 0.0:
            return contrib[idx] > 0.0
    return False  # unreachable: orient(a, b, c) != 0 for a kept triple


def _connected(m: int, edges: set[tuple[int, int]]) -> bool:
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


def delaunay(points) -> list[tuple[int, int]]:
    """Edges of the Delaunay triangulation of 2-D points.

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
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    m = len(points)
    if _is_degenerate(points):
        return _complete_edges(m)

    trips = np.asarray(list(itertools.combinations(range(m), 3)), dtype=np.intp)
    av, bv, cv = (points[trips[:, i]] for i in range(3))
    orient = (bv[:, 0] - av[:, 0]) * (cv[:, 1] - av[:, 1]) - (
        bv[:, 1] - av[:, 1]
    ) * (cv[:, 0] - av[:, 0])
    # orient the triples counter-clockwise; exactly collinear triples are
    # never Delaunay triangles and drop out. Some (0, 1, c) always stays: the
    # degeneracy test found it off the line through points 0 and 1
    ccw = trips.copy()
    flip = orient < 0.0
    ccw[flip, 1], ccw[flip, 2] = trips[flip, 2], trips[flip, 1]
    ccw = ccw[orient != 0.0]

    # incircle determinant of every (triple, other point) pair; positive
    # means strictly inside, zero is the co-circular tie
    rel_a, rel_b, rel_c = (points[ccw[:, i], None, :] - points[None, :, :] for i in range(3))
    na, nb, nc = ((r * r).sum(axis=-1) for r in (rel_a, rel_b, rel_c))
    det = (
        rel_a[..., 0] * (rel_b[..., 1] * nc - nb * rel_c[..., 1])
        - rel_a[..., 1] * (rel_b[..., 0] * nc - nb * rel_c[..., 0])
        + na * (rel_b[..., 0] * rel_c[..., 1] - rel_b[..., 1] * rel_c[..., 0])
    )
    member = np.zeros((len(ccw), m), dtype=bool)
    member[np.arange(len(ccw))[:, None], ccw] = True
    blocked = ((det > 0.0) & ~member).any(axis=1)

    tie_rows, tie_cols = np.nonzero((det == 0.0) & ~member & ~blocked[:, None])
    for r, o in zip(tie_rows.tolist(), tie_cols.tolist()):
        if not blocked[r] and _tie_blocks(
            points, int(ccw[r, 0]), int(ccw[r, 1]), int(ccw[r, 2]), o
        ):
            blocked[r] = True

    edges = {(min(u, v), max(u, v)) for triangle in ccw[~blocked].tolist()
             for u, v in itertools.combinations(triangle, 2)}
    # a stranded vertex or disconnected result can only come out of
    # numerically perverse inputs; keep the connectivity guarantee
    if not edges or not _connected(m, edges):
        return _complete_edges(m)
    return sorted(edges)


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
    lo, span = offsets.min(axis=0), np.ptp(offsets, axis=0)
    flat = span <= 1e-12
    return np.where(flat, 0.5, (offsets - lo) / np.where(flat, 1.0, span))


def build_graph(points) -> KeypointGraph:
    """Delaunay arcs plus pseudo-coordinates, with self-loops at (0.5, 0.5)."""
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    edges = np.asarray(delaunay(points), dtype=np.intp).reshape(-1, 2)
    arcs = np.stack([edges, edges[:, ::-1]], axis=1).reshape(-1, 2)  # (u, v) then (v, u)
    loops = np.repeat(np.arange(m), 2).reshape(-1, 2)
    return KeypointGraph(m, np.concatenate([arcs, loops]),
                         np.vstack([pseudo_coords(points, arcs), np.full((m, 2), 0.5)]))


def batch_graphs(graphs) -> KeypointGraph:
    """Disjoint union: each graph's arcs offset by the node count before it."""
    arcs, offset = [], 0
    for g in graphs:
        arcs.append(g.arcs + offset)
        offset += g.num_nodes
    return KeypointGraph(offset, np.concatenate(arcs), np.concatenate([g.pseudo for g in graphs]))

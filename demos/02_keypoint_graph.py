"""Build the Delaunay keypoint graph and its spline pseudo-coordinates.

The graph feeding the GNN is the Delaunay triangulation of the keypoints
(complete graph for degenerate clouds), stored as directed arcs with
self-loops. Each arc carries a 2-D pseudo-coordinate: the offset to the
neighbor, min-max rescaled to [0, 1]^2 per graph, with self-loops pinned
at the center (0.5, 0.5).
"""

import numpy as np

from normmatch.geometry import build_graph, delaunay

rng = np.random.default_rng(3)
points = rng.uniform(2.0, 30.0, size=(7, 2))

edges = delaunay(points)
print(f"{len(points)} points -> {len(edges)} Delaunay edges")
print("edges:", edges.tolist())

# planar bound: a triangulation of m points has at most 3m - 6 edges
assert len(edges) <= 3 * len(points) - 6

graph = build_graph(points)
print(f"\narcs (both directions + self-loops): {len(graph.arcs)}")
print(" arc        pseudo-coords")
for (u, v), pc in zip(graph.arcs, graph.pseudo):
    tag = "  self-loop" if u == v else ""
    print(f"({u}, {v})   ({pc[0]:.3f}, {pc[1]:.3f}){tag}")

assert graph.pseudo.min() >= 0.0 and graph.pseudo.max() <= 1.0

# co-circular ties resolve deterministically: the unit square keeps
# exactly one diagonal, and rebuilding gives the same one every time
square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
print("\nunit square edges:", delaunay(square).tolist())
print("rebuild identical:", (delaunay(square) == delaunay(square)).all())

# collinear points have no triangulation; the graph falls back to complete
line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
print(f"\ncollinear fallback: {len(delaunay(line))} edges "
      f"(complete graph on 4 nodes = 6)")

"""Segment/plane collision checking and a naive straight-line RRT.

The collision primitive projects the segment into a plane's frame, where the
plane occupies the xy-plane at a fixed height: solving one scalar equation
gives the crossing parameter, and two interval checks decide containment.
Boundary contacts (the box edge, or the segment endpoints) count as
collisions, which is the conservative choice for planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import PlaneSet, _as_vec3

__all__ = [
    "Segment",
    "Bounds",
    "Tree",
    "segment_collides",
    "rrt_build",
    "tree_to_dict",
]


@dataclass(frozen=True)
class Segment:
    """Line segment between two distinct endpoints."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, float)
        b = np.asarray(self.b, float)
        if a.shape != (3,) or b.shape != (3,):
            raise ValueError("segment endpoints must be 3-vectors")
        if np.array_equal(a, b):
            raise ValueError("segment endpoints must differ")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned sampling region between two finite 3-vectors."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_vec3(self.lo, "bounds lo")
        hi = _as_vec3(self.hi, "bounds hi")
        if not np.all(hi > lo):
            raise ValueError("bounds must have positive extent")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass
class Tree:
    """RRT output: node positions, parent links, and a completion flag."""

    nodes: np.ndarray           # (n, 3)
    parents: np.ndarray         # (n,), -1 for the root
    complete: bool = True

    def edge_lengths(self) -> np.ndarray:
        lengths = np.zeros(len(self.parents))
        for i, p in enumerate(self.parents):
            if p >= 0:
                lengths[i] = np.linalg.norm(self.nodes[i] - self.nodes[p])
        return lengths


def _collides_batch(a: np.ndarray, b: np.ndarray, planes: PlaneSet,
                    centers_local: np.ndarray) -> bool:
    """Vectorized segment-vs-all-planes test on the planes' stacked frames."""
    Bt = planes.bases.transpose(0, 2, 1)
    aB, bB = Bt @ a, Bt @ b
    v3 = bB[:, 2] - aB[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (centers_local[:, 2] - aB[:, 2]) / v3
    valid = (v3 != 0.0) & (c >= 0.0) & (c <= 1.0)
    x = aB + c[:, None] * (bB - aB)
    half = planes.half_extents
    inside = (np.abs(x[:, 0] - centers_local[:, 0]) <= half[:, 0]) & \
             (np.abs(x[:, 1] - centers_local[:, 1]) <= half[:, 1])
    return bool(np.any(valid & inside))


def _local_centers(planes: PlaneSet) -> np.ndarray:
    """(n, 3) each plane's center in its own frame."""
    return np.einsum("nij,nj->ni", planes.bases.transpose(0, 2, 1), planes.centers)


def _plane_set(plane_map) -> PlaneSet:
    """The planes of a PlaneMap, or a PlaneSet as given."""
    return plane_map if isinstance(plane_map, PlaneSet) else plane_map.planes


def segment_collides(seg: Segment, plane_map) -> bool:
    """True iff the segment intersects any plane of a PlaneMap or PlaneSet."""
    planes = _plane_set(plane_map)
    if len(planes) == 0:
        return False
    return _collides_batch(seg.a, seg.b, planes, _local_centers(planes))


def rrt_build(plane_map, start: np.ndarray, bounds: Bounds, n_nodes: int,
              step: float, seed: Optional[int] = None) -> Tree:
    """Grow a straight-line RRT through the free space of a plane map.

    Samples uniformly in the bounds, extends the nearest node by at most
    ``step`` toward the sample, and keeps the new node iff the connecting
    segment is collision-free. Stops after ``n_nodes`` nodes (including the
    start) or ``100 * n_nodes`` samples, whichever comes first; an
    under-populated tree is flagged via ``complete=False``. ``start`` must
    be a finite 3-vector and ``step`` positive.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step!r}")
    start = _as_vec3(start, "start")
    planes = _plane_set(plane_map)
    centers_local = _local_centers(planes)

    rng = np.random.default_rng(seed)
    nodes = np.empty((n_nodes, 3))
    nodes[0] = start
    parents = np.full(n_nodes, -1)
    count = 1
    max_samples = 100 * n_nodes
    samples = 0
    while count < n_nodes and samples < max_samples:
        samples += 1
        target = rng.uniform(bounds.lo, bounds.hi)
        arr = nodes[:count]
        nearest = int(np.argmin(np.sum((arr - target) ** 2, axis=1)))
        d = target - arr[nearest]
        dist = float(np.linalg.norm(d))
        if dist < 1e-12:
            continue
        new = arr[nearest] + d * min(1.0, step / dist)
        if np.allclose(new, arr[nearest]):
            continue
        if len(planes) and _collides_batch(arr[nearest], new, planes, centers_local):
            continue
        nodes[count] = new
        parents[count] = nearest
        count += 1
    return Tree(nodes[:count], parents[:count], complete=(count == n_nodes))


def tree_to_dict(tree: Tree) -> dict:
    return {
        "nodes": [[float(v) for v in row] for row in tree.nodes],
        "parents": [int(p) for p in tree.parents],
        "edge_lengths": [float(v) for v in tree.edge_lengths()],
        "complete": bool(tree.complete),
    }

"""Independent reference implementations used to cross-check the package.

Everything in here deliberately avoids the code paths under test: brute-force
enumeration, dense sampling, and scipy reference routines only. The scalar
twins of batched program code (``merge_condition``,
``segment_plane_intersect``, ``cluster_partition_ref``) share no more than the
plane-frame helpers of ``manhattan_slam.geometry`` with it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.transform import Rotation

from manhattan_slam.geometry import Plane, plane_basis, to_basis
from manhattan_slam.mapping import MappingParams


def rotation_angle_deg_quat(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Rotation angle between two frames via quaternion conversion."""
    return float(np.degrees(Rotation.from_matrix(Ra.T @ Rb).magnitude()))


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    return Rotation.from_rotvec(angle * axis).as_matrix()


def edge_error_ref(mR, mt, Ri, ti, Rj, tj) -> np.ndarray:
    """Pose-graph edge error ``[log(mR^T Rj Ri^T), Ri^T (tj - ti) - mt]``,
    with the rotation vector taken by scipy."""
    rot = Rotation.from_matrix(mR.T @ Rj @ Ri.T).as_rotvec()
    return np.concatenate([rot, Ri.T @ (tj - ti) - mt])


def edge_jacobians_fd(mR, mt, Ri, ti, Rj, tj, step: float = 1e-6):
    """Central-difference Jacobians (6x6 each) of :func:`edge_error_ref`
    with respect to node i and node j, for the increment ``[dtheta, dt]``
    applied as ``R <- exp(dtheta) R``, ``t <- t + dt``."""
    def moved(R, t, x):
        return Rotation.from_rotvec(x[:3]).as_matrix() @ R, t + x[3:]

    def error(xi, xj):
        return edge_error_ref(mR, mt, *moved(Ri, ti, xi), *moved(Rj, tj, xj))

    zero = np.zeros(6)
    Ji = np.column_stack([(error(d, zero) - error(-d, zero)) / (2.0 * step)
                          for d in step * np.eye(6)])
    Jj = np.column_stack([(error(zero, d) - error(zero, -d)) / (2.0 * step)
                          for d in step * np.eye(6)])
    return Ji, Jj


def circumcircle(p0, p1, p2):
    """Center and squared radius of the circle through three 2D points.

    Returns (None, None) for (near-)collinear triples.
    """
    ax, ay = p0
    bx, by = p1
    cx, cy = p2
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None, None
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return np.array([ux, uy]), r2


def delaunay_empty_circumcircle_violations(points2d: np.ndarray,
                                           triangles: np.ndarray,
                                           rel_tol: float = 1e-6) -> int:
    """Count triangles whose circumcircle strictly contains another point."""
    violations = 0
    for tri in triangles:
        center, r2 = circumcircle(points2d[tri[0]], points2d[tri[1]], points2d[tri[2]])
        if center is None:
            violations += 1
            continue
        d2 = np.sum((points2d - center) ** 2, axis=1)
        inside = d2 < r2 * (1.0 - rel_tol)
        inside[tri] = False
        if np.any(inside):
            violations += 1
    return violations


def brute_force_assignment(cost: np.ndarray, max_cost: float):
    """Row-minimum matching with lowest-cost conflict resolution, by loops."""
    rows, cols = cost.shape
    choice = {}
    for i in range(rows):
        j_best, c_best = None, np.inf
        for j in range(cols):
            if cost[i, j] < c_best:
                j_best, c_best = j, cost[i, j]
        if j_best is None or c_best > max_cost:
            continue
        if j_best not in choice or c_best < choice[j_best][1]:
            choice[j_best] = (i, c_best)
    return sorted((i, j) for j, (i, _) in choice.items())


def segment_segment_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between two 3D segments (dense parameter sweep)."""
    s = np.linspace(0.0, 1.0, 201)
    a = p1[None, :] + s[:, None] * (p2 - p1)[None, :]
    b = q1[None, :] + s[:, None] * (q2 - q1)[None, :]
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(d.min())


def sampled_segment_plane_hit(a: np.ndarray, b: np.ndarray, plane: Plane,
                              n_samples: int = 1000, tol: float = 1e-6):
    """Dense-sampling intersection oracle.

    Samples the signed plane offset along the segment, localizes sign changes
    (the offset is linear in the parameter, so interpolation is exact), and
    checks the crossing against the plane's 2D box. Returns the hit point or
    None.
    """
    n = plane.normal
    d = plane.distance_to_origin
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    f = pts @ n - d

    crossings = []
    for k in range(len(ts) - 1):
        if f[k] == 0.0:
            crossings.append(ts[k])
        elif f[k] * f[k + 1] < 0.0:
            crossings.append(ts[k] - f[k] * (ts[k + 1] - ts[k]) / (f[k + 1] - f[k]))
    if f[-1] == 0.0:
        crossings.append(1.0)

    bx = plane.span_x / np.linalg.norm(plane.span_x)
    by = plane.span_y / np.linalg.norm(plane.span_y)
    hu = 0.5 * np.linalg.norm(plane.span_x)
    hv = 0.5 * np.linalg.norm(plane.span_y)
    for t in crossings:
        x = a + t * (b - a)
        rel = x - plane.center
        if abs(rel @ bx) <= hu + tol and abs(rel @ by) <= hv + tol:
            return x
    return None


def point_to_plane_patch_distance(x: np.ndarray, plane: Plane) -> float:
    """Distance from a point to a bounded plane patch (clamped projection)."""
    bx = plane.span_x / np.linalg.norm(plane.span_x)
    by = plane.span_y / np.linalg.norm(plane.span_y)
    n = plane.normal
    rel = x - plane.center
    u = np.clip(rel @ bx, -0.5 * np.linalg.norm(plane.span_x),
                0.5 * np.linalg.norm(plane.span_x))
    v = np.clip(rel @ by, -0.5 * np.linalg.norm(plane.span_y),
                0.5 * np.linalg.norm(plane.span_y))
    closest = plane.center + u * bx + v * by + 0.0 * n
    return float(np.linalg.norm(x - closest))


def merge_condition(ps: Plane, pt: Plane, params: MappingParams | None = None) -> bool:
    """Scalar twin of ``mapping._gate_matrix``: True when two planes merge.

    (1) nearly parallel normals, (2) small point-to-plane distance, and
    (3) overlapping 2D boxes when both are projected onto ``ps``'s frame.
    """
    params = params or MappingParams()
    if abs(float(ps.normal @ pt.normal)) <= params.coplanar_threshold:
        return False
    if abs(float(ps.normal @ (pt.center - ps.center))) >= params.distance_threshold:
        return False
    B = plane_basis(ps)
    box_s = to_basis(ps.corners(), B)
    box_t = to_basis(pt.corners(), B)
    lo_s, hi_s = box_s.min(axis=0), box_s.max(axis=0)
    lo_t, hi_t = box_t.min(axis=0), box_t.max(axis=0)
    # closed-interval overlap, with float slack so exact touching counts
    return bool(np.all(np.minimum(hi_s[:2], hi_t[:2])
                       >= np.maximum(lo_s[:2], lo_t[:2]) - 1e-9))


def segment_plane_intersect(seg, p: Plane):
    """Scalar twin of ``planning._collides_batch``: the intersection point of
    a segment with a bounded plane, or None.

    Both are projected to the plane's frame; there the plane sits at a fixed
    third coordinate, so the crossing parameter is
    ``c = (c_3 - a_3) / v_3`` with ``v = b - a``. A parallel segment
    (``v_3 == 0``) never intersects; otherwise the crossing must satisfy
    ``0 <= c <= 1`` and land inside the plane's 2D box (boundaries included).
    """
    B = plane_basis(p)
    a = to_basis(seg.a, B)
    b = to_basis(seg.b, B)
    cB = to_basis(p.center, B)
    v3 = b[2] - a[2]
    if v3 == 0.0:
        return None
    c = (cB[2] - a[2]) / v3
    if c < 0.0 or c > 1.0:
        return None
    x = a + c * (b - a)
    hu, hv = p.half_extents
    if abs(x[0] - cB[0]) > hu or abs(x[1] - cB[1]) > hv:
        return None
    return seg.a + c * (seg.b - seg.a)


def edge_neighbors_ref(triangles: np.ndarray) -> list[set]:
    """Per triangle, the set of other triangles sharing one of its edges."""
    by_edge = {}
    for t, tri in enumerate(triangles.tolist()):
        for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            by_edge.setdefault((min(u, v), max(u, v)), []).append(t)
    sets = [set() for _ in range(len(triangles))]
    for owners in by_edge.values():
        for t in owners:
            sets[t].update(o for o in owners if o != t)
    return sets


def neighbor_sets(neighbors: np.ndarray) -> list[set]:
    """Rows of a -1-padded neighbor table as sets."""
    return [set(row[row >= 0].tolist()) for row in neighbors]


def cluster_partition_ref(neighbors: np.ndarray, normals: np.ndarray,
                          threshold: float) -> list[np.ndarray]:
    """Root-normal clustering by connected components.

    Roots are taken in index order from the unclustered triangles; a root's
    cluster is its connected component (edges taken as undirected) among the
    unclustered triangles whose normal's dot product with the root's normal
    exceeds ``threshold``. Returns each cluster's sorted triangle indices.
    """
    m = len(normals)
    rows = np.repeat(np.arange(m), neighbors.shape[1])
    cols = neighbors.ravel()
    rows, cols = rows[cols >= 0], cols[cols >= 0]
    free = np.ones(m, dtype=bool)
    clusters = []
    for root in range(m):
        if not free[root]:
            continue
        admit = free & (normals @ normals[root] > threshold)
        admit[root] = True
        edge = admit[rows] & admit[cols]
        graph = sp.csr_matrix((np.ones(int(edge.sum())),
                               (rows[edge], cols[edge])), shape=(m, m))
        _, labels = connected_components(graph, directed=False)
        members = np.flatnonzero(labels == labels[root])
        free[members] = False
        clusters.append(members)
    return clusters

"""Plane extraction: one LiDAR scan in, a set of orthogonal planes out.

Pipeline: reparameterize points in spherical angles, Delaunay-triangulate
the angle chart (duplicating a band across the azimuth seam for 360-degree
scans), prune long 3D edges, Laplacian-smooth the meshed points, compute
sensor-facing triangle normals, grow normal-similar clusters over the
mesh's neighbor table, find the scene's orthogonal basis from
the ground and the dominant wall, and fit an axis-aligned 2D bounding box
per cluster in that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay, QhullError

from .geometry import Basis, Plane, PlaneSet, PointCloud, from_basis, to_basis

__all__ = [
    "ExtractionError",
    "TooFewPointsError",
    "EmptyMeshError",
    "NoGroundPlaneError",
    "DegenerateBasisError",
    "ExtractionParams",
    "SphericalAngles",
    "TriangleMesh",
    "Cluster",
    "ExtractionResult",
    "spherical_project",
    "triangulate",
    "prune_mesh",
    "smooth_laplacian",
    "compute_normals",
    "cluster_mesh",
    "find_extraction_basis",
    "extract_planes",
    "extract",
    "extract_detailed",
]


class ExtractionError(RuntimeError):
    """Extraction could not produce a plane set for this frame."""


class TooFewPointsError(ExtractionError):
    pass


class EmptyMeshError(ExtractionError):
    pass


class NoGroundPlaneError(ExtractionError):
    pass


class DegenerateBasisError(ExtractionError):
    pass


@dataclass
class ExtractionParams:
    """Frontend tunables; defaults are tuned on the bundled simulator scenes."""

    max_edge: float = 2.0                 # m, 3D mesh pruning threshold
    smoothing_iterations: int = 4
    smoothing_weight: float = 0.9         # Laplacian step weight in [0, 1]
    cluster_threshold: float = 0.98       # dot-product gate (~11.5 degree cone)
    min_cluster_size: int = 20            # triangles
    ground_angle_tolerance_deg: float = 15.0
    seam_margin: float = 0.35             # rad, azimuth band duplicated at -pi
    min_triangle_area: float = 1e-12      # m^2, degenerate-triangle cutoff

    def __post_init__(self):
        if not (0.0 <= self.smoothing_weight <= 1.0):
            raise ValueError("smoothing weight must be in [0, 1]")
        if not (0.0 < self.cluster_threshold < 1.0):
            raise ValueError("cluster threshold must be in (0, 1)")


@dataclass
class SphericalAngles:
    """Per-point azimuth/elevation, index-aligned with the input cloud."""

    theta: np.ndarray
    phi: np.ndarray
    valid: np.ndarray          # False for points rejected (at the origin)
    rejected_count: int


@dataclass
class TriangleMesh:
    """Triangles over cloud indices with edge-sharing adjacency."""

    triangles: np.ndarray      # (M, 3) int, indices into the cloud
    neighbors: np.ndarray      # (M, K) int, all edge-sharing triangles, -1 pad
    normals: Optional[np.ndarray] = None   # (M, 3) unit, sensor-facing

    def __len__(self) -> int:
        return self.triangles.shape[0]


@dataclass
class Cluster:
    """Connected group of normal-similar triangles."""

    triangle_indices: np.ndarray
    point_indices: np.ndarray
    avg_normal: np.ndarray

    @property
    def size(self) -> int:
        return len(self.triangle_indices)


@dataclass
class ExtractionResult:
    plane_set: PlaneSet
    basis: Optional[Basis]
    n_triangles: int
    n_clusters: int
    used_fallback_basis: bool = False


def spherical_project(cloud: PointCloud) -> SphericalAngles:
    """Azimuth/elevation of every point relative to the scan origin.

    theta = atan2(y, x), phi = atan2(z, sqrt(x^2 + y^2)). Points exactly at
    the origin have no direction; they are flagged invalid and counted.
    """
    p = cloud.points
    r_xy = np.hypot(p[:, 0], p[:, 1])
    valid = (r_xy > 0.0) | (p[:, 2] != 0.0)
    theta = np.arctan2(p[:, 1], p[:, 0])
    phi = np.arctan2(p[:, 2], r_xy)
    return SphericalAngles(theta, phi, valid, int(np.sum(~valid)))


def _adjacency_from_triangles(triangles: np.ndarray) -> np.ndarray:
    """Edge-sharing neighbor table, (M, K) with -1 padding.

    Row i lists every triangle that shares an edge with triangle i, so the
    table is symmetric; K is the largest neighbor count. Edges in the
    doubly meshed seam band can carry more than two triangles.
    """
    m = triangles.shape[0]
    if m == 0:
        return np.full((0, 0), -1, dtype=np.int64)
    edges = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    edges.sort(axis=1)
    owner = np.repeat(np.arange(m), 3)
    # single int64 keys sort much faster than 2-column lexsort
    base = int(triangles.max()) + 1
    keys = edges[:, 0].astype(np.int64) * base + edges[:, 1]
    order = np.argsort(keys, kind="stable")
    ks, os_ = keys[order], owner[order]
    # every pair of owners within one edge's run of equal keys
    a, b = [], []
    for gap in range(1, ks.size):
        same = ks[gap:] == ks[:-gap]
        a.append(os_[:-gap][same])
        b.append(os_[gap:][same])
        if not same.any():
            break

    rows = np.concatenate(a + b)
    vals = np.concatenate(b + a)
    idx = np.argsort(rows, kind="stable")
    rows, vals = rows[idx], vals[idx]
    counts = np.bincount(rows, minlength=m)
    starts = np.cumsum(counts) - counts
    nbr = np.full((m, int(counts.max())), -1, dtype=np.int64)
    nbr[rows, np.arange(rows.size) - starts[rows]] = vals
    return nbr


def _keep_triangles(mesh: TriangleMesh, keep: np.ndarray,
                    normals: Optional[np.ndarray]) -> TriangleMesh:
    """The kept triangles, with their rows of the neighbor table renumbered.

    Dropped neighbors become -1 padding, so each row keeps exactly its
    surviving edge-sharing neighbors: the table a rebuild would give.
    """
    kept = np.flatnonzero(keep)
    # one spare trailing slot, so -1 padding is looked up as -1
    renumber = np.full(len(mesh) + 1, -1, dtype=np.int64)
    renumber[kept] = np.arange(kept.size)
    return TriangleMesh(mesh.triangles[kept], renumber[mesh.neighbors[kept]],
                        normals)


def triangulate(angles: SphericalAngles, seam_margin: float = 0.35) -> TriangleMesh:
    """Delaunay triangulation of the (theta, phi) chart.

    A flat chart tears 360-degree scans at theta = +-pi, so points within
    ``seam_margin`` of -pi are duplicated shifted by +2 pi before
    triangulating; the duplicates are then folded back onto their originals
    and repeated triangles removed. The neighbor table is built here, once
    per scan; later stages only drop and renumber its rows.
    """
    idx = np.flatnonzero(angles.valid)
    if idx.size < 3:
        raise EmptyMeshError("need at least 3 points with a defined direction")
    pts = np.column_stack([angles.theta[idx], angles.phi[idx]])

    centered = pts - pts.mean(axis=0)
    sigma = np.linalg.svd(centered, compute_uv=False)
    if sigma[1] <= 1e-12 * max(sigma[0], 1.0):
        raise EmptyMeshError("angle chart is collinear")
    # sub-nanoradian deterministic dither: scan grids put whole rings of
    # points on common circles, a degeneracy qhull resolves at ~2x the cost
    pts = pts + np.random.default_rng(0x5EED).uniform(-1e-9, 1e-9, pts.shape)

    dup = pts[:, 0] < (-math.pi + seam_margin)
    ext = np.vstack([pts, pts[dup] + np.array([2.0 * math.pi, 0.0])])
    mapping = np.concatenate([idx, idx[dup]])
    try:
        dt = Delaunay(ext)
    except (QhullError, ValueError) as exc:
        raise EmptyMeshError(f"triangulation failed: {exc}") from exc
    if dt.simplices.size == 0:
        raise EmptyMeshError("triangulation produced no simplices")

    tris = mapping[dt.simplices]
    distinct = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) \
        & (tris[:, 0] != tris[:, 2])
    tris = np.sort(tris[distinct], axis=1)
    # deduplicate via scalar keys (seam duplicates fold onto their originals);
    # ordering matches lexicographic order of the vertex triples
    base = int(idx.max()) + 1
    keys = (tris[:, 0].astype(np.int64) * base + tris[:, 1]) * base + tris[:, 2]
    _, first = np.unique(keys, return_index=True)
    tris = tris[first]
    if tris.shape[0] == 0:
        raise EmptyMeshError("triangulation produced no usable triangles")
    return TriangleMesh(tris, _adjacency_from_triangles(tris))


def prune_mesh(mesh: TriangleMesh, cloud: PointCloud, max_edge: float) -> TriangleMesh:
    """Drop triangles with any 3D edge longer than ``max_edge``."""
    if len(mesh) == 0:
        return mesh
    tv = cloud.points[mesh.triangles]
    e01 = np.linalg.norm(tv[:, 1] - tv[:, 0], axis=1)
    e12 = np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1)
    e20 = np.linalg.norm(tv[:, 0] - tv[:, 2], axis=1)
    keep = (e01 <= max_edge) & (e12 <= max_edge) & (e20 <= max_edge)
    if keep.all():
        return mesh
    normals = mesh.normals[keep] if mesh.normals is not None else None
    return _keep_triangles(mesh, keep, normals)


def smooth_laplacian(cloud: PointCloud, mesh: TriangleMesh, iterations: int,
                     weight: float) -> PointCloud:
    """Move each meshed point toward the centroid of its mesh neighbors.

    ``p <- p + weight * (centroid(neighbors) - p)``, applied simultaneously
    to all points for the given number of iterations. Points not referenced
    by the mesh are left untouched.
    """
    if iterations <= 0 or weight == 0.0 or len(mesh) == 0:
        return cloud
    n = len(cloud)
    tris = mesh.triangles
    rows = tris[:, [0, 0, 1, 1, 2, 2]].ravel()
    cols = tris[:, [1, 2, 0, 2, 0, 1]].ravel()
    A = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    A.data[:] = 1.0  # collapse duplicate edges
    degree = np.asarray(A.sum(axis=1)).ravel()
    meshed = degree > 0
    inv_deg = np.zeros(n)
    inv_deg[meshed] = 1.0 / degree[meshed]

    pts = np.array(cloud.points)
    for _ in range(iterations):
        centroid = (A @ pts) * inv_deg[:, None]
        pts[meshed] += weight * (centroid[meshed] - pts[meshed])
    return PointCloud(pts, cloud.frame_id)


def compute_normals(mesh: TriangleMesh, cloud: PointCloud,
                    min_area: float = 1e-12) -> TriangleMesh:
    """Unit triangle normals oriented toward the sensor at the scan origin.

    n = e1 x e2 normalized, flipped where n . centroid > 0 so that the same
    physical surface gets a consistent normal across scans. Triangles with
    area below ``min_area`` are removed.
    """
    if len(mesh) == 0:
        return TriangleMesh(mesh.triangles, mesh.neighbors,
                            np.empty((0, 3)))
    tv = cloud.points[mesh.triangles]
    raw = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    norms = np.linalg.norm(raw, axis=1)
    keep = 0.5 * norms >= min_area
    normals = raw[keep] / norms[keep][:, None]
    centroid = tv[keep].mean(axis=1)
    flip = np.einsum("ij,ij->i", normals, centroid) > 0.0
    normals[flip] = -normals[flip]
    if keep.all():
        return TriangleMesh(mesh.triangles, mesh.neighbors, normals)
    return _keep_triangles(mesh, keep, normals)


def cluster_mesh(mesh: TriangleMesh, threshold: float,
                 min_cluster_size: int = 1) -> list[Cluster]:
    """Grow clusters of normal-similar triangles over the neighbor table.

    Roots are taken in index order from the unclustered pool; an unclustered
    neighbor of a member joins the cluster when its normal's dot product with
    the root's normal exceeds ``threshold``. The table is symmetric, so a
    cluster is the root's connected component among the admissible
    triangles, whatever the visiting order. Every triangle ends up in exactly
    one cluster; clusters smaller than ``min_cluster_size`` are then
    discarded.
    """
    if mesh.normals is None:
        raise ValueError("mesh needs normals before clustering")
    m = len(mesh)
    normals = mesh.normals
    nx, ny, nz = normals.T.tolist()
    # one flat list of ints, row i at [i * k, (i + 1) * k): a list per row
    # would put one container per triangle under the cyclic garbage
    # collector's watch and trigger full collections every few scans
    k = mesh.neighbors.shape[1]
    table = mesh.neighbors.ravel().tolist()
    # a trailing False slot: -1 padding reads it and is never admitted
    free = [True] * m + [False]

    out = []
    for root in range(m):
        if not free[root]:
            continue
        free[root] = False
        rx, ry, rz = nx[root], ny[root], nz[root]
        members = [root]
        stack = [root]
        while stack:
            start = stack.pop() * k
            for j in table[start:start + k]:
                if free[j] and nx[j] * rx + ny[j] * ry + nz[j] * rz > threshold:
                    free[j] = False
                    members.append(j)
                    stack.append(j)
        if len(members) < min_cluster_size:
            continue
        tri_idx = np.sort(np.asarray(members, dtype=np.int64))
        avg = normals[tri_idx].mean(axis=0)
        norm = np.linalg.norm(avg)
        if norm == 0.0:
            continue
        out.append(Cluster(tri_idx,
                           np.unique(mesh.triangles[tri_idx].ravel()),
                           avg / norm))
    return out


def find_extraction_basis(clusters: list[Cluster],
                          ground_tolerance_deg: float = 15.0) -> Basis:
    """Orthogonal frame from the ground cluster and the dominant wall.

    b_z is the average normal of the largest cluster pointing near +z;
    b_x is the ground-plane projection of the largest cluster whose normal
    is approximately orthogonal to b_z; b_y completes the right-handed frame.
    """
    if not clusters:
        raise NoGroundPlaneError("no clusters to build a basis from")
    cos_tol = math.cos(math.radians(ground_tolerance_deg))
    sin_tol = math.sin(math.radians(ground_tolerance_deg))

    ground_candidates = [c for c in clusters if c.avg_normal[2] >= cos_tol]
    if not ground_candidates:
        raise NoGroundPlaneError("no cluster with a near-vertical normal")
    ground = max(ground_candidates, key=lambda c: c.size)
    b_z = ground.avg_normal

    wall_candidates = [c for c in clusters
                       if abs(float(c.avg_normal @ b_z)) <= sin_tol]
    if not wall_candidates:
        raise DegenerateBasisError("no cluster orthogonal to the ground")
    wall = max(wall_candidates, key=lambda c: c.size)
    proj = wall.avg_normal - float(wall.avg_normal @ b_z) * b_z
    norm = np.linalg.norm(proj)
    if norm < 1e-9:
        raise DegenerateBasisError("wall normal projects to zero on the ground")
    b_x = proj / norm
    b_y = np.cross(b_z, b_x)
    return Basis(np.column_stack([b_x, b_y, b_z]))


# In-plane axis pair per normal axis, ordered so e_u x e_v = +e_axis.
_INPLANE_AXES = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


def extract_planes(clusters: list[Cluster], cloud: PointCloud,
                   basis: Basis) -> PlaneSet:
    """Fit an axis-aligned bounded plane to each cluster in the given basis.

    Cluster points are projected into the basis, the average normal snapped
    to the nearest signed basis direction, the plane coordinate fixed at the
    mean along that direction, and a 2D bounding box taken over the two
    remaining coordinates. Clusters with a degenerate (zero-area) box are
    skipped.
    """
    planes = []
    for cluster in clusters:
        pts = to_basis(cloud.points[cluster.point_indices], basis)
        n_b = to_basis(cluster.avg_normal, basis)
        axis = int(np.argmax(np.abs(n_b)))
        sign = 1.0 if n_b[axis] >= 0 else -1.0
        u, v = _INPLANE_AXES[axis]

        coord = float(pts[:, axis].mean())
        u_min, u_max = float(pts[:, u].min()), float(pts[:, u].max())
        v_min, v_max = float(pts[:, v].min()), float(pts[:, v].max())
        extent_u, extent_v = u_max - u_min, v_max - v_min
        if extent_u <= 1e-12 or extent_v <= 1e-12:
            continue

        center_b = np.zeros(3)
        center_b[axis] = coord
        center_b[u] = 0.5 * (u_min + u_max)
        center_b[v] = 0.5 * (v_min + v_max)
        center = from_basis(center_b, basis)
        span_u = extent_u * basis.matrix[:, u]
        span_v = extent_v * basis.matrix[:, v]
        if sign > 0:
            planes.append(Plane(center, span_u, span_v))
        else:
            planes.append(Plane(center, span_v, span_u))
    return PlaneSet(planes)


def extract_detailed(cloud: PointCloud, params: Optional[ExtractionParams] = None,
                     fallback_basis: Optional[Basis] = None) -> ExtractionResult:
    """Full extraction returning the plane set plus the basis used.

    The basis is what the next frame should supply as ``fallback_basis`` if
    its own basis search fails (the scene's orthogonal frame is temporally
    stable).
    """
    params = params or ExtractionParams()
    if len(cloud) < 3:
        raise TooFewPointsError(f"cannot mesh {len(cloud)} points")

    angles = spherical_project(cloud)
    mesh = triangulate(angles, params.seam_margin)
    mesh = prune_mesh(mesh, cloud, params.max_edge)
    smoothed = smooth_laplacian(cloud, mesh, params.smoothing_iterations,
                                params.smoothing_weight)
    mesh = compute_normals(mesh, smoothed, params.min_triangle_area)
    clusters = cluster_mesh(mesh, params.cluster_threshold,
                            params.min_cluster_size)
    used_fallback = False
    try:
        basis = find_extraction_basis(clusters, params.ground_angle_tolerance_deg)
    except ExtractionError:
        if fallback_basis is None:
            raise
        basis = fallback_basis
        used_fallback = True
    plane_set = extract_planes(clusters, smoothed, basis)
    return ExtractionResult(plane_set, basis, len(mesh), len(clusters),
                            used_fallback)


def extract(cloud: PointCloud, params: Optional[ExtractionParams] = None,
            fallback_basis: Optional[Basis] = None) -> PlaneSet:
    """Extract the orthogonal plane set of one scan (see module docstring)."""
    return extract_detailed(cloud, params, fallback_basis).plane_set

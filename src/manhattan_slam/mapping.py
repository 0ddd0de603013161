"""Global plane map maintenance: merging, cleanup, regeneration.

Each incoming world-frame plane set is folded into the map: planes that are
approximately coplanar, close, and overlapping are replaced by the 2D
bounding box of their union in the first plane's frame. Merging repeats
until no pair qualifies, so a map is always merge-saturated. Cleanup removes
small fragments and snaps nearby plane edges onto their common line, which
closes the hairline gaps left by partial observations at wall/floor
junctions and between wall segments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    Basis,
    Plane,
    PlaneSet,
    Pose,
    cross3,
    from_basis,
    plane_basis,
    to_basis,
)

__all__ = [
    "MappingParams",
    "PlaneMap",
    "merge_plane_sets",
    "cleanup_map",
    "update_map",
    "regenerate",
    "map_to_dict",
    "map_from_dict",
    "map_to_json",
    "map_from_json",
    "save_map",
    "load_map",
]


@dataclass
class MappingParams:
    coplanar_threshold: float = 0.99     # |n_s . n_t| gate
    distance_threshold: float = 0.2      # m, point-to-plane gate
    min_area: float = 0.05               # m^2, cleanup removal cutoff
    edge_fuse_distance: float = 0.15     # m, edge snapping reach
    axis_alignment: float = 0.999        # required |u . span axis| for fusing


@dataclass(frozen=True)
class PlaneMap:
    """World-frame plane map plus the number of frames merged into it."""

    planes: PlaneSet = field(default_factory=PlaneSet)
    frame_count: int = 0
    revision: int = 0

    def __len__(self) -> int:
        return len(self.planes)


def _box_in_basis(p: Plane, B: Basis) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) corners of a plane's 2D box in another plane's frame."""
    corners = to_basis(p.corners(), B)
    return corners.min(axis=0), corners.max(axis=0)


def _gate_matrix(planes: PlaneSet, params: "MappingParams") -> np.ndarray:
    """Ordered-pair merge-condition matrix over a plane set.

    ``gate[i, j]`` is True when plane j should merge into plane i: (1)
    nearly parallel normals, (2) a small distance from j's center to i's
    plane, and (3) overlapping 2D boxes when both are projected onto i's
    frame. Row-major argwhere order therefore matches a nested (i, j) scan.
    """
    n = len(planes)
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    N, C, B, corners = planes.normals, planes.centers, planes.bases, planes.corners

    g1 = np.abs(N @ N.T) > params.coplanar_threshold
    dots = N @ C.T
    g2 = np.abs(dots - np.einsum("ij,ij->i", N, C)[:, None]) \
        < params.distance_threshold
    proj = np.einsum("jca,iak->ijck", corners, B)
    lo = proj.min(axis=2)[..., :2]
    hi = proj.max(axis=2)[..., :2]
    rng = np.arange(n)
    lo_own, hi_own = lo[rng, rng], hi[rng, rng]
    g3 = np.all(np.minimum(hi_own[:, None], hi)
                >= np.maximum(lo_own[:, None], lo) - 1e-9, axis=2)
    gate = g1 & g2 & g3
    np.fill_diagonal(gate, False)
    return gate


def _proximity_pairs(planes: PlaneSet, reach: float) -> np.ndarray:
    """(k, 2) ordered index pairs of planes that could fuse edges.

    Requires overlapping bounding spheres (padded by ``reach``) and, in both
    directions, that one plane's box comes within ``reach`` of the other's
    infinite plane; everything else cannot produce an edge snap.
    """
    n = len(planes)
    if n < 2:
        return np.empty((0, 2), dtype=int)
    C, N, H = planes.centers, planes.normals, planes.half_extents
    SX = np.stack([p.span_x for p in planes])
    SY = np.stack([p.span_y for p in planes])
    r = np.hypot(H[:, 0], H[:, 1])
    d = np.linalg.norm(C[:, None] - C[None, :], axis=2)
    near = d <= (r[:, None] + r[None, :] + reach)
    # plane j's box vs plane i's infinite plane: |n_i . c_j - d_i| minus the
    # half-extent of j along n_i
    offset = np.abs(N @ C.T - np.einsum("ij,ij->i", N, C)[:, None]).T  # (j, i)
    half = 0.5 * (np.abs(SX @ N.T) + np.abs(SY @ N.T))                 # (j, i)
    close = (offset - half) <= reach
    near &= close & close.T
    np.fill_diagonal(near, False)
    return np.argwhere(near)


def _merge_group(anchor: Plane, others: Sequence[Plane]) -> Plane:
    """Bounding-box merge of a plane group in the anchor's frame.

    The in-plane extent is the union box over every corner; the out-of-plane
    coordinate is the area-weighted mean of the constituents' plane
    coordinates (better-observed planes dominate).
    """
    B = plane_basis(anchor)
    group = [anchor, *others]
    corners = np.vstack([to_basis(p.corners(), B) for p in group])
    lo, hi = corners[:, :2].min(axis=0), corners[:, :2].max(axis=0)
    areas = np.array([p.area for p in group])
    coords = np.array([float(to_basis(p.center, B)[2]) for p in group])
    coord = float(np.sum(areas * coords) / np.sum(areas))

    center_b = np.array([0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]), coord])
    return Plane(from_basis(center_b, B),
                 (hi[0] - lo[0]) * B.b_x,
                 (hi[1] - lo[1]) * B.b_y)


def _saturate(planes: Sequence[Plane], params: MappingParams) -> PlaneSet:
    """Merge pairs until no ordered pair satisfies the merge condition."""
    planes = PlaneSet(planes)
    while len(planes) > 1:
        hits = np.argwhere(_gate_matrix(planes, params))
        if hits.size == 0:
            break
        i, j = int(hits[0, 0]), int(hits[0, 1])
        merged = _merge_group(planes[i], [planes[j]])
        keep = [planes[k] for k in range(len(planes)) if k not in (i, j)]
        planes = PlaneSet([merged, *keep] if i < j else [*keep, merged])
    return planes


def merge_plane_sets(map_set: PlaneSet, new_set: PlaneSet,
                     params: Optional[MappingParams] = None) -> PlaneSet:
    """Fold a new plane set into an existing one (both in a common frame).

    Each existing plane collects the new planes it merges with and is
    replaced by their union box in its own frame; new planes matching
    nothing pass through. The result is then merged pairwise to a fixed
    point so the output is saturated.
    """
    params = params or MappingParams()
    n_map = len(map_set)
    gate = _gate_matrix(PlaneSet([*map_set, *new_set]), params)
    consumed = np.zeros(len(new_set), dtype=bool)
    merged: list[Plane] = []
    for i, p in enumerate(map_set):
        take = [j for j in range(len(new_set))
                if not consumed[j] and gate[i, n_map + j]]
        if take:
            consumed[take] = True
            merged.append(_merge_group(p, [new_set[j] for j in take]))
        else:
            merged.append(p)
    merged.extend(q for j, q in enumerate(new_set) if not consumed[j])
    return _saturate(merged, params)


def _fuse_perpendicular(planes: list[Plane], params: MappingParams) -> list[Plane]:
    """Snap nearest edges of perpendicular plane pairs onto their common line.

    Only extent adjustments along an existing in-plane axis are applied, so
    normals and the map's orthogonality are untouched. Requires the common
    line to align with one of the plane's span axes and the two planes to
    overlap along the line direction.
    """
    planes = list(planes)
    for i, j in _proximity_pairs(PlaneSet(planes), params.edge_fuse_distance):
        a, b = planes[i], planes[j]
        if abs(float(a.normal @ b.normal)) <= 0.1:
            u = cross3(a.normal, b.normal)
            u /= np.linalg.norm(u)
            # a point on the intersection line of the two infinite planes
            A = np.array([a.normal, b.normal, u])
            rhs = np.array([a.distance_to_origin, b.distance_to_origin, 0.0])
            point = np.linalg.solve(A, rhs)

            Ba = plane_basis(a)
            axes = [Ba.b_x, Ba.b_y]
            along = [abs(float(u @ ax)) for ax in axes]
            k = int(np.argmax(along))          # span axis parallel to the line
            if along[k] < params.axis_alignment:
                continue
            w = 1 - k                          # span axis crossing the line
            ca = to_basis(a.center, Ba)
            line_b = to_basis(point, Ba)
            edges = [ca[w] - a.half_extents[w], ca[w] + a.half_extents[w]]
            dist = [abs(e - line_b[w]) for e in edges]
            side = int(np.argmin(dist))
            if dist[side] > params.edge_fuse_distance or dist[side] == 0.0:
                continue
            # overlap along the line direction
            lo_a, hi_a = _box_in_basis(a, Ba)
            lo_b, hi_b = _box_in_basis(b, Ba)
            if min(hi_a[k], hi_b[k]) < max(lo_a[k], lo_b[k]):
                continue
            new_edges = sorted([edges[1 - side], float(line_b[w])])
            new_span = new_edges[1] - new_edges[0]
            if new_span <= 1e-12:
                continue
            ca = np.array(ca)
            ca[w] = 0.5 * (new_edges[0] + new_edges[1])
            span_vecs = [a.span_x.copy(), a.span_y.copy()]
            span_vecs[w] = new_span * axes[w]
            planes[i] = Plane(from_basis(ca, Ba), span_vecs[0], span_vecs[1])
    return planes


def _fuse_parallel(planes: list[Plane], params: MappingParams) -> list[Plane]:
    """Snap facing edges of coplanar, axis-aligned plane pairs to a midline.

    Applies when the boxes overlap along one in-plane axis and leave a gap
    no wider than the fuse distance along the other; both facing edges move
    to the midline so a later merge pass can unify the pair.
    """
    planes = list(planes)
    for i, j in _proximity_pairs(PlaneSet(planes), params.edge_fuse_distance):
        if i < j:
            a, b = planes[i], planes[j]
            if abs(float(a.normal @ b.normal)) < params.coplanar_threshold:
                continue
            if abs(float(a.normal @ (b.center - a.center))) > params.edge_fuse_distance:
                continue
            Ba = plane_basis(a)
            # b's box axes must align with a's for an extent-only adjustment
            Bb = plane_basis(b)
            align = to_basis(np.array([Bb.b_x, Bb.b_y]), Ba)
            if np.max(np.abs(align[:, :2]), axis=0).min() < params.axis_alignment:
                continue
            lo_a, hi_a = _box_in_basis(a, Ba)
            lo_b, hi_b = _box_in_basis(b, Ba)
            for gap_axis in (0, 1):
                other = 1 - gap_axis
                if min(hi_a[other], hi_b[other]) < max(lo_a[other], lo_b[other]):
                    continue
                gap = max(lo_b[gap_axis] - hi_a[gap_axis],
                          lo_a[gap_axis] - hi_b[gap_axis])
                if not (0.0 < gap <= params.edge_fuse_distance):
                    continue
                if lo_b[gap_axis] > hi_a[gap_axis]:
                    mid = 0.5 * (hi_a[gap_axis] + lo_b[gap_axis])
                    new_a = (lo_a[gap_axis], mid)
                    new_b = (mid, hi_b[gap_axis])
                else:
                    mid = 0.5 * (hi_b[gap_axis] + lo_a[gap_axis])
                    new_a = (mid, hi_a[gap_axis])
                    new_b = (lo_b[gap_axis], mid)
                planes[i] = _resized_in_basis(a, Ba, gap_axis, new_a)
                planes[j] = _resized_in_basis(b, Ba, gap_axis, new_b)
                break
    return planes


def _resized_in_basis(p: Plane, B: Basis, axis: int, interval: tuple[float, float]) -> Plane:
    """Plane with one in-plane interval replaced, in the given frame."""
    lo, hi = _box_in_basis(p, B)
    coord = float(to_basis(p.center, B)[2])
    ivals = [(lo[0], hi[0]), (lo[1], hi[1])]
    ivals[axis] = interval
    center_b = np.array([0.5 * (ivals[0][0] + ivals[0][1]),
                         0.5 * (ivals[1][0] + ivals[1][1]), coord])
    return Plane(from_basis(center_b, B),
                 (ivals[0][1] - ivals[0][0]) * B.b_x,
                 (ivals[1][1] - ivals[1][0]) * B.b_y)


def cleanup_map(plane_map: PlaneMap, params: Optional[MappingParams] = None) -> PlaneMap:
    """Remove small-area planes, fuse nearby edges, and re-saturate."""
    params = params or MappingParams()
    planes = [p for p in plane_map.planes if p.area >= params.min_area]
    planes = _fuse_perpendicular(planes, params)
    planes = _fuse_parallel(planes, params)
    return PlaneMap(_saturate(planes, params), plane_map.frame_count, plane_map.revision)


def update_map(plane_map: PlaneMap, world_set: PlaneSet, frame_id: int,
               params: Optional[MappingParams] = None) -> PlaneMap:
    """One pipeline step: merge a world-frame plane set in, then clean up.

    ``frame_id`` names the merged frame for callers and traces; the map
    itself only counts frames.
    """
    params = params or MappingParams()
    merged = merge_plane_sets(plane_map.planes, world_set, params)
    out = PlaneMap(merged, plane_map.frame_count + 1, plane_map.revision + 1)
    return cleanup_map(out, params)


def regenerate(plane_sets: Sequence[PlaneSet], poses: Sequence[Pose],
               params: Optional[MappingParams] = None) -> PlaneMap:
    """Rebuild the map from per-frame local plane sets and their poses.

    Mirrors the incremental pipeline exactly (same per-frame update), so
    with unchanged poses it reproduces the live map.
    """
    if len(plane_sets) != len(poses):
        raise ValueError(f"{len(plane_sets)} plane sets vs {len(poses)} poses")
    params = params or MappingParams()
    out = PlaneMap()
    for k, (ps, pose) in enumerate(zip(plane_sets, poses)):
        if len(ps) == 0:
            continue
        out = update_map(out, ps.transformed(pose), k, params)
    return out


def map_to_dict(plane_map: PlaneMap) -> dict:
    return {
        "planes": [
            {"center": [float(v) for v in p.center],
             "span_x": [float(v) for v in p.span_x],
             "span_y": [float(v) for v in p.span_y]}
            for p in plane_map.planes
        ],
        "metadata": {
            "frame_count": plane_map.frame_count,
            "revision": plane_map.revision,
        },
    }


def map_from_dict(d: dict) -> PlaneMap:
    planes = PlaneSet([Plane(np.asarray(p["center"], float),
                             np.asarray(p["span_x"], float),
                             np.asarray(p["span_y"], float))
                       for p in d["planes"]])
    meta = d.get("metadata", {})
    return PlaneMap(planes, meta.get("frame_count", 0), meta.get("revision", 0))


def map_to_json(plane_map: PlaneMap) -> str:
    # compact separators: the map's footprint is part of its contract
    return json.dumps(map_to_dict(plane_map), separators=(",", ":"))


def map_from_json(text: str) -> PlaneMap:
    return map_from_dict(json.loads(text))


def save_map(path, plane_map: PlaneMap) -> None:
    with open(path, "w") as f:
        f.write(map_to_json(plane_map))


def load_map(path) -> PlaneMap:
    with open(path) as f:
        return map_from_json(f.read())

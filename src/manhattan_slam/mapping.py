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

from .geometry import PlaneSet, Pose, _as_vec3, box_rows, cross3

__all__ = [
    "MapFormatError",
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


class MapFormatError(ValueError):
    """A document whose structure is not that of a plane map."""


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


Row = tuple[np.ndarray, np.ndarray, np.ndarray]     # center, span_x, span_y


def _rows(planes: PlaneSet) -> Row:
    return planes.centers, planes.span_x, planes.span_y


def _edited(planes: PlaneSet, rows: dict[int, Row], keep=slice(None)) -> PlaneSet:
    """The set with the given rows replaced, by index, then cut to the rows
    ``keep`` (indices or a mask), in that order."""
    C, SX, SY = (a.copy() for a in _rows(planes))
    for i, row in rows.items():
        C[i], SX[i], SY[i] = row
    return PlaneSet.from_rows(C[keep], SX[keep], SY[keep])


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
    SX, SY = planes.span_x, planes.span_y
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


def _merge_group(planes: PlaneSet, idx: Sequence[int]) -> Row:
    """Bounding-box merge of the rows ``idx`` in the frame of the first.

    The in-plane extent is the union box over every corner; the out-of-plane
    coordinate is the area-weighted mean of the constituents' plane
    coordinates (better-observed planes dominate).
    """
    B = planes.bases[idx[0]]
    corners = planes.corners[idx] @ B
    H = planes.half_extents[idx]
    areas = 4.0 * H[:, 0] * H[:, 1]
    coords = (planes.centers[idx] @ B)[:, 2]
    rows = box_rows(B, [2], [1.0], [np.sum(areas * coords) / np.sum(areas)],
                    corners.min(axis=(0, 1))[None], corners.max(axis=(0, 1))[None])
    return next(zip(*rows))


def _saturate(planes: PlaneSet, params: MappingParams) -> PlaneSet:
    """Merge pairs until no ordered pair satisfies the merge condition."""
    while len(planes) > 1:
        hits = np.argwhere(_gate_matrix(planes, params))
        if hits.size == 0:
            break
        i, j = int(hits[0, 0]), int(hits[0, 1])
        rest = [k for k in range(len(planes)) if k not in (i, j)]
        # the merged row goes first when the anchor precedes its partner
        planes = _edited(planes, {i: _merge_group(planes, [i, j])},
                         [i, *rest] if i < j else [*rest, i])
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
    both = PlaneSet.from_rows(*(np.concatenate(pair) for pair in
                                zip(_rows(map_set), _rows(new_set))))
    gate = _gate_matrix(both, params)
    consumed = np.zeros(len(new_set), dtype=bool)
    merged = {}
    for i in range(n_map):
        take = np.flatnonzero(gate[i, n_map:] & ~consumed)
        if take.size:
            consumed[take] = True
            merged[i] = _merge_group(both, [i, *(n_map + take)])
    keep = np.concatenate([np.arange(n_map), n_map + np.flatnonzero(~consumed)])
    return _saturate(_edited(both, merged, keep), params)


def _fuse_perpendicular(planes: PlaneSet, params: MappingParams) -> PlaneSet:
    """Snap nearest edges of perpendicular plane pairs onto their common line.

    Only extent adjustments along an existing in-plane axis are applied, so
    normals and the map's orthogonality are untouched. Requires the common
    line to align with one of the plane's span axes and the two planes to
    overlap along the line direction.
    """
    for i, j in _proximity_pairs(planes, params.edge_fuse_distance):
        # read the set afresh: an earlier pair may have edited it
        N, C, H = planes.normals, planes.centers, planes.half_extents
        if abs(float(N[i] @ N[j])) <= 0.1:
            u = cross3(N[i], N[j])
            u /= np.linalg.norm(u)
            # a point on the intersection line of the two infinite planes
            A = np.array([N[i], N[j], u])
            rhs = np.array([float(N[i] @ C[i]), float(N[j] @ C[j]), 0.0])
            point = np.linalg.solve(A, rhs)

            Ba = planes.bases[i]
            along = [abs(float(u @ Ba[:, 0])), abs(float(u @ Ba[:, 1]))]
            k = int(np.argmax(along))          # span axis parallel to the line
            if along[k] < params.axis_alignment:
                continue
            w = 1 - k                          # span axis crossing the line
            ca = C[i] @ Ba
            line_b = point @ Ba
            edges = [ca[w] - H[i, w], ca[w] + H[i, w]]
            dist = [abs(e - line_b[w]) for e in edges]
            side = int(np.argmin(dist))
            if dist[side] > params.edge_fuse_distance or dist[side] == 0.0:
                continue
            # overlap along the line direction
            box = planes.corners[[i, j]] @ Ba
            lo, hi = box.min(axis=1), box.max(axis=1)
            if min(hi[0, k], hi[1, k]) < max(lo[0, k], lo[1, k]):
                continue
            new_edges = sorted([edges[1 - side], float(line_b[w])])
            new_span = new_edges[1] - new_edges[0]
            if new_span <= 1e-12:
                continue
            ca[w] = 0.5 * (new_edges[0] + new_edges[1])
            spans = [planes.span_x[i], planes.span_y[i]]
            spans[w] = new_span * Ba[:, w]
            planes = _edited(planes, {i: (ca @ Ba.T, *spans)})
    return planes


def _fuse_parallel(planes: PlaneSet, params: MappingParams) -> PlaneSet:
    """Snap facing edges of coplanar, axis-aligned plane pairs to a midline.

    Applies when the boxes overlap along one in-plane axis and leave a gap
    no wider than the fuse distance along the other; both facing edges move
    to the midline so a later merge pass can unify the pair.
    """
    for i, j in _proximity_pairs(planes, params.edge_fuse_distance):
        if i < j:
            N, C, B = planes.normals, planes.centers, planes.bases
            if abs(float(N[i] @ N[j])) < params.coplanar_threshold:
                continue
            if abs(float(N[i] @ (C[j] - C[i]))) > params.edge_fuse_distance:
                continue
            Ba, Bb = B[i], B[j]
            # b's box axes must align with a's for an extent-only adjustment
            align = np.array([Bb[:, 0], Bb[:, 1]]) @ Ba
            if np.max(np.abs(align[:, :2]), axis=0).min() < params.axis_alignment:
                continue
            box = planes.corners[[i, j]] @ Ba
            lo, hi = box.min(axis=1), box.max(axis=1)
            (lo_a, lo_b), (hi_a, hi_b) = lo, hi
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
                    hi_a[gap_axis] = lo_b[gap_axis] = mid
                else:
                    mid = 0.5 * (hi_b[gap_axis] + lo_a[gap_axis])
                    lo_a[gap_axis] = hi_b[gap_axis] = mid
                # both resized boxes are taken in a's frame
                coords = [(C[k] @ Ba)[2] for k in (i, j)]
                rows = box_rows(Ba, [2, 2], [1.0, 1.0], coords, lo, hi)
                planes = _edited(planes, dict(zip((i, j), zip(*rows))))
                break
    return planes


def cleanup_map(plane_map: PlaneMap, params: Optional[MappingParams] = None) -> PlaneMap:
    """Remove small-area planes, fuse nearby edges, and re-saturate."""
    params = params or MappingParams()
    H = plane_map.planes.half_extents
    planes = _edited(plane_map.planes, {}, 4.0 * H[:, 0] * H[:, 1] >= params.min_area)
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


_PLANE_KEYS = ("center", "span_x", "span_y")


def map_to_dict(plane_map: PlaneMap) -> dict:
    return {
        "planes": [dict(zip(_PLANE_KEYS, row))
                   for row in zip(*(a.tolist() for a in _rows(plane_map.planes)))],
        "metadata": {
            "frame_count": plane_map.frame_count,
            "revision": plane_map.revision,
        },
    }


def map_from_dict(d: dict) -> PlaneMap:
    """A map from its dict form, checked: a structure other than a plane
    map's raises :class:`MapFormatError`, a bad vector or plane the
    :class:`GeometryError` that a Plane raises for it."""
    if not isinstance(d, dict):
        raise MapFormatError(f"a map must be a JSON object, got {type(d).__name__}")
    planes, meta = d.get("planes"), d.get("metadata", {})
    if not isinstance(planes, list) or not isinstance(meta, dict):
        raise MapFormatError("a map needs a 'planes' list and an optional "
                             "'metadata' object")
    rows = []
    for k, p in enumerate(planes):
        missing = [key for key in _PLANE_KEYS
                   if not isinstance(p, dict) or key not in p]
        if missing:
            raise MapFormatError(f"plane {k} has no {', '.join(missing)}")
        try:
            rows.append([_as_vec3(p[key], f"plane {k} {key}") for key in _PLANE_KEYS])
        except TypeError:
            raise MapFormatError(f"plane {k} has a non-numeric vector") from None
    counts = {key: meta.get(key, 0) for key in ("frame_count", "revision")}
    for key, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise MapFormatError(f"metadata {key} must be a non-negative "
                                 f"integer, got {value!r}")
    planes = PlaneSet.from_rows(*np.reshape(rows, (-1, 3, 3)).transpose(1, 0, 2))
    return PlaneMap(planes, **counts)


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

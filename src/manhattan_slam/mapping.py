"""Global plane map maintenance: merging, cleanup, regeneration.

Each incoming world-frame plane set is folded into the map: planes that are
approximately coplanar, close, and overlapping are replaced by the 2D
bounding box of their union in the first plane's frame. Merging repeats
until no pair qualifies, so a map is always merge-saturated. Cleanup removes
small fragments and snaps nearby plane edges onto their common line, which
closes the hairline gaps left by partial observations at wall/floor
junctions and between wall segments.

One update derives the set's frames a few times, plus once per pairwise
merge, not once per edit: saturation keeps one merge gate across its merges
and recomputes only the merged row's entries, and each edge-fusing pass
edits the rows as Python floats and builds one set at its end.
"""

from __future__ import annotations

import json
import math
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


def _dot(a, b):
    """``a . b`` over the first axis, summed in one fixed order: of two
    Python float 3-lists a float, of (3, ...) arrays the broadcast entries,
    each rounding alike in any array shape."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _extent(c, sx, sy, axis):
    """(lo, hi) of a rectangle projected onto a unit axis: its center's
    coordinate minus and plus half its projected spans."""
    mid = _dot(c, axis)
    half = 0.5 * (abs(_dot(sx, axis)) + abs(_dot(sy, axis)))
    return mid - half, mid + half


def _gate_block(planes: PlaneSet, I, J, params: MappingParams) -> np.ndarray:
    """Merge conditions ``gate[a, b]`` of anchor rows ``I`` against partner
    rows ``J`` (index lists): True when plane b should merge into plane a.

    (1) nearly parallel normals, (2) a small distance from b's center to
    a's plane, and (3) overlapping 2D boxes when both are projected onto
    a's frame. An entry is computed from rows a and b alone, entry by
    entry, so it rounds alike in every block that holds it.
    """
    N, C, SX, SY = (a.T for a in (planes.normals, planes.centers,
                                  planes.span_x, planes.span_y))
    na = N[:, I, None]
    gate = np.abs(_dot(na, N[:, None, J])) > params.coplanar_threshold
    gate &= np.abs(_dot(na, C[:, None, J] - C[:, I, None])) \
        < params.distance_threshold
    for m in (0, 1):
        axis = planes.bases[I, :, m].T[:, :, None]
        lo_a, hi_a = _extent(C[:, I, None], SX[:, I, None], SY[:, I, None], axis)
        lo_b, hi_b = _extent(C[:, None, J], SX[:, None, J], SY[:, None, J], axis)
        gate &= np.minimum(hi_a, hi_b) >= np.maximum(lo_a, lo_b) - 1e-9
    return gate


def _gate_matrix(planes: PlaneSet, params: MappingParams) -> np.ndarray:
    """Ordered-pair merge-condition matrix over a plane set, the
    :func:`_gate_block` of every row against every row with a False
    diagonal. Row-major argwhere order therefore matches a nested (i, j)
    scan."""
    every = np.arange(len(planes))
    gate = _gate_block(planes, every, every, params)
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


def _regate(gate: np.ndarray, planes: PlaneSet, order: list, at: int,
            params: MappingParams) -> np.ndarray:
    """The merge gate of ``planes``, whose rows are the rows ``order`` of
    the set ``gate`` was taken on, row ``at`` new. A gate entry depends on
    its two rows alone, so the kept entries move to the new order and only
    row and column ``at`` are computed afresh."""
    gate = gate[np.ix_(order, order)]
    every = np.arange(len(order))
    gate[at] = _gate_block(planes, [at], every, params)[0]
    gate[:, at] = _gate_block(planes, every, [at], params)[:, 0]
    gate[at, at] = False
    return gate


def _saturate(planes: PlaneSet, params: MappingParams) -> PlaneSet:
    """Merge pairs until no ordered pair satisfies the merge condition,
    keeping one gate across the merges."""
    gate = _gate_matrix(planes, params)
    while gate.any():
        i, j = (int(k) for k in np.argwhere(gate)[0])
        rest = [k for k in range(len(planes)) if k not in (i, j)]
        # the merged row goes first when the anchor precedes its partner
        order = [i, *rest] if i < j else [*rest, i]
        planes = _edited(planes, {i: _merge_group(planes, [i, j])}, order)
        gate = _regate(gate, planes, order, order.index(i), params)
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


def _float_rows(planes: PlaneSet) -> tuple[list, ...]:
    """Centers, span_x, span_y, half extents, normals and frames (rows
    ``b_x, b_y, b_z``) of a set as Python float lists, for the fuse passes'
    per-pair loops."""
    return (*(a.tolist() for a in _rows(planes)), planes.half_extents.tolist(),
            planes.normals.tolist(), planes.bases.transpose(0, 2, 1).tolist())


def _fuse_perpendicular(planes: PlaneSet, params: MappingParams) -> PlaneSet:
    """Snap nearest edges of perpendicular plane pairs onto their common line.

    Only extent adjustments along an existing in-plane axis are applied, so
    normals and the map's orthogonality are untouched. Requires the common
    line to align with one of the plane's span axes and the two planes to
    overlap along the line direction.

    The pass runs on the rows as Python floats. A snap rewrites its row's
    center, span and half extent in place, and later pairs read the updated
    row; it rescales a span without turning it, so the row keeps its frame.
    """
    reach = params.edge_fuse_distance
    C, SX, SY, H, N, F = _float_rows(planes)
    changed = False
    for i, j in _proximity_pairs(planes, reach).tolist():
        ni, nj = N[i], N[j]
        if abs(_dot(ni, nj)) > 0.1:
            continue
        u = cross3(ni, nj)
        norm = math.sqrt(_dot(u, u))
        u = [x / norm for x in u]
        along = [abs(_dot(u, F[i][0])), abs(_dot(u, F[i][1]))]
        k = 0 if along[0] >= along[1] else 1    # span axis parallel to the line
        if along[k] < params.axis_alignment:
            continue
        w, bw = 1 - k, F[i][1 - k]              # span axis crossing the line
        # the point of both planes with p . u = 0, on axis w:
        # p = (d_i (n_j x u) + d_j (u x n_i)) / (n_i . (n_j x u))
        nju, uni = cross3(nj, u), cross3(u, ni)
        line = (_dot(ni, C[i]) * _dot(nju, bw)
                + _dot(nj, C[j]) * _dot(uni, bw)) / _dot(ni, nju)
        mid = _dot(C[i], bw)
        edges = [mid - H[i][w], mid + H[i][w]]
        dist = [abs(e - line) for e in edges]
        side = 0 if dist[0] <= dist[1] else 1
        if dist[side] > reach or dist[side] == 0.0:
            continue
        # overlap along the line direction
        lo_i, hi_i = _extent(C[i], SX[i], SY[i], F[i][k])
        lo_j, hi_j = _extent(C[j], SX[j], SY[j], F[i][k])
        if min(hi_i, hi_j) < max(lo_i, lo_j):
            continue
        lo, hi = sorted([edges[1 - side], line])
        if hi - lo <= 1e-12:
            continue
        C[i] = [c + (0.5 * (lo + hi) - mid) * b for c, b in zip(C[i], bw)]
        (SX, SY)[w][i] = [(hi - lo) * b for b in bw]
        H[i][w] = 0.5 * (hi - lo)
        changed = True
    return PlaneSet.from_rows(C, SX, SY) if changed else planes


def _fuse_parallel(planes: PlaneSet, params: MappingParams) -> PlaneSet:
    """Snap facing edges of coplanar, axis-aligned plane pairs to a midline.

    Applies when the boxes overlap along one in-plane axis and leave a gap
    no wider than the fuse distance along the other; both facing edges move
    to the midline so a later merge pass can unify the pair. Runs on the
    rows as Python floats, as :func:`_fuse_perpendicular` does; both
    resized rows take the first plane's frame.
    """
    reach = params.edge_fuse_distance
    C, SX, SY, H, N, F = _float_rows(planes)
    changed = False
    for i, j in _proximity_pairs(planes, reach).tolist():
        if i > j or abs(_dot(N[i], N[j])) < params.coplanar_threshold:
            continue
        if abs(_dot(N[i], [cj - ci for ci, cj in zip(C[i], C[j])])) > reach:
            continue
        Fa, Fb = F[i], F[j]
        # b's box axes must align with a's for an extent-only adjustment
        if min(max(abs(_dot(Fb[0], axis)), abs(_dot(Fb[1], axis)))
               for axis in Fa[:2]) < params.axis_alignment:
            continue
        # box[r][m]: [lo, hi] of row (i, j)[r] along a's axis m
        box = [[list(_extent(C[r], SX[r], SY[r], axis)) for axis in Fa[:2]]
               for r in (i, j)]
        for gap_axis in (0, 1):
            (lo_a, hi_a), (lo_b, hi_b) = box[0][1 - gap_axis], box[1][1 - gap_axis]
            if min(hi_a, hi_b) < max(lo_a, lo_b):
                continue
            ea, eb = box[0][gap_axis], box[1][gap_axis]
            gap = max(eb[0] - ea[1], ea[0] - eb[1])
            if not (0.0 < gap <= reach):
                continue
            if eb[0] > ea[1]:
                ea[1] = eb[0] = 0.5 * (ea[1] + eb[0])
            else:
                ea[0] = eb[1] = 0.5 * (eb[1] + ea[0])
            for r, ((lo_x, hi_x), (lo_y, hi_y)) in zip((i, j), box):
                center = [0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y), _dot(C[r], Fa[2])]
                C[r] = [_dot(center, col) for col in zip(*Fa)]
                SX[r] = [(hi_x - lo_x) * x for x in Fa[0]]
                SY[r] = [(hi_y - lo_y) * y for y in Fa[1]]
                H[r] = [0.5 * (hi_x - lo_x), 0.5 * (hi_y - lo_y)]
            N[j], F[j] = N[i], F[i]
            changed = True
            break
    return PlaneSet.from_rows(C, SX, SY) if changed else planes


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

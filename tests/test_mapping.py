import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manhattan_slam.geometry import (
    GeometryError,
    InvalidPlaneError,
    Plane,
    PlaneSet,
    Pose,
    rot_z,
)
from manhattan_slam.mapping import (
    MapFormatError,
    MappingParams,
    PlaneMap,
    cleanup_map,
    load_map,
    map_from_dict,
    map_from_json,
    map_to_json,
    merge_plane_sets,
    regenerate,
    save_map,
    update_map,
)
from manhattan_slam import geometry, mapping
from manhattan_slam.mapping import (
    _fuse_parallel,
    _fuse_perpendicular,
    _gate_matrix,
    _saturate,
)

from oracles import (
    corners_ref,
    fuse_parallel_ref,
    fuse_perpendicular_ref,
    merge_condition,
    random_rotation,
    saturate_ref,
)


def square(center, normal_axis=2, size=(1.0, 1.0)) -> Plane:
    u, v = {0: (1, 2), 1: (2, 0), 2: (0, 1)}[normal_axis]
    sx, sy = np.zeros(3), np.zeros(3)
    sx[u], sy[v] = size
    return Plane(np.asarray(center, float), sx, sy)


def manhattan_set(rng, n=12, jitter=0.12, axes=(0, 1, 2)) -> PlaneSet:
    """Rectangles of a turned and shifted Manhattan frame, facing along
    ``axes``, whose planes sit at levels 0, 1 and 2 m along their normal
    axis and whose edges sit at those levels too, each moved by up to
    ``jitter``: many edges lie within ``edge_fuse_distance`` of another
    plane, and many coplanar pairs overlap or nearly touch."""
    R, t = random_rotation(rng), rng.uniform(-5.0, 5.0, 3)
    planes = []
    for _ in range(n):
        axis = int(rng.choice(axes))
        u, v = (axis + 1) % 3, (axis + 2) % 3
        center, spans = np.empty(3), np.zeros((2, 3))
        center[axis] = rng.integers(3) + rng.uniform(-jitter, jitter)
        for row, k in enumerate((u, v)):
            lo, hi = np.sort(rng.choice(3, 2, replace=False)) \
                + rng.uniform(-jitter, jitter, 2)
            center[k] = 0.5 * (lo + hi)
            spans[row, k] = hi - lo
        if rng.random() < 0.5:          # the other facing
            spans = spans[::-1]
        planes.append(Plane(R @ center + t, R @ spans[0], R @ spans[1]))
    return PlaneSet(planes)


def assert_rows_close(got: PlaneSet, want: PlaneSet, tol: float = 1e-12):
    assert len(got) == len(want)
    for a, b in ((got.centers, want.centers), (got.span_x, want.span_x),
                 (got.span_y, want.span_y)):
        assert np.abs(a - b).max(initial=0.0) <= tol


def changed_rows(before: PlaneSet, after: PlaneSet) -> int:
    return int(np.any(before.centers != after.centers, axis=1).sum())


class TestEditPassesMatchOracles:
    """The fuse passes on float rows and the saturation that keeps its gate
    against their one-edit-at-a-time forms in ``oracles``."""

    SEEDS = range(40)

    def test_fuse_perpendicular(self):
        # two facings: with three, two planes snapped onto a third's line
        # can end exactly there, on either side of it, and whether they
        # then overlap along it is decided by rounding, which the float rows
        # and the oracle's corner min/max do differently
        params, snapped = MappingParams(), 0
        for seed in self.SEEDS:
            planes = manhattan_set(np.random.default_rng(seed), axes=(0, 2))
            out = _fuse_perpendicular(planes, params)
            assert_rows_close(out, fuse_perpendicular_ref(planes, params))
            snapped += changed_rows(planes, out)
        assert snapped > len(self.SEEDS)     # the sets exercise the snaps

    def test_fuse_parallel(self):
        params, snapped = MappingParams(), 0
        for seed in self.SEEDS:
            planes = manhattan_set(np.random.default_rng(seed))
            out = _fuse_parallel(planes, params)
            assert_rows_close(out, fuse_parallel_ref(planes, params))
            snapped += changed_rows(planes, out)
        assert snapped > 0

    def test_saturate_keeps_the_full_gate(self, monkeypatch):
        params, kept = MappingParams(), []
        regate = mapping._regate

        def checked(gate, planes, order, at, params):
            out = regate(gate, planes, order, at, params)
            kept.append(np.array_equal(out, _gate_matrix(planes, params)))
            return out

        monkeypatch.setattr(mapping, "_regate", checked)
        for seed in self.SEEDS:
            planes = manhattan_set(np.random.default_rng(seed))
            assert_rows_close(_saturate(planes, params), saturate_ref(planes, params))
        assert len(kept) > len(self.SEEDS) and all(kept)


class TestMergeCondition:
    def test_identical_planes(self):
        p = square([0, 0, 0])
        assert merge_condition(p, p)

    def test_parallel_but_distant(self):
        assert not merge_condition(square([0, 0, 0]), square([0, 0, 1.0]),
                                   MappingParams(distance_threshold=0.1))

    def test_coplanar_but_disjoint(self):
        assert not merge_condition(square([0, 0, 0]), square([10.0, 0, 0]))

    def test_antiparallel_normals_still_match(self):
        p = square([0, 0, 0])
        q = Plane([0.2, 0.0, 0.0], [0, 1.0, 0], [1.0, 0, 0])  # normal -z
        assert merge_condition(p, q)

    def test_touching_boxes_overlap(self):
        assert merge_condition(square([0, 0, 0]), square([1.0, 0, 0]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_gate_matrix_matches_scalar_oracle(self, seed):
        # near-coplanar, nearby squares, so every gate of the condition
        # decides some pairs
        rng = np.random.default_rng(seed)
        planes = []
        for _ in range(8):
            p = square(rng.uniform(-0.6, 0.6, 3), int(rng.integers(0, 3)),
                       rng.uniform(0.2, 1.5, 2))
            R = random_rotation(rng, max_angle=np.radians(12.0))
            planes.append(Plane(p.center, R @ p.span_x, R @ p.span_y))
        params = MappingParams()
        gate = _gate_matrix(PlaneSet(planes), params)
        for i, p in enumerate(planes):
            for j, q in enumerate(planes):
                if i != j:
                    assert gate[i, j] == merge_condition(p, q, params)


class TestMergePlaneSets:
    def test_union_box_by_hand(self):
        a = square([0, 0, 0])
        b = square([0.5, 0, 0])
        out = merge_plane_sets(PlaneSet([a]), PlaneSet([b]))
        assert len(out) == 1
        p = out[0]
        assert np.allclose(p.center, [0.25, 0, 0], atol=1e-12)
        assert abs(np.linalg.norm(p.span_x) - 1.5) < 1e-12
        assert abs(np.linalg.norm(p.span_y) - 1.0) < 1e-12

    def test_disjoint_orthogonal_pass_through(self):
        a = square([0, 0, 0], normal_axis=2)
        b = square([5.0, 0, 1.0], normal_axis=0)
        out = merge_plane_sets(PlaneSet([a]), PlaneSet([b]))
        assert len(out) == 2

    def test_empty_map_returns_new_set(self):
        b = square([1.0, 2.0, 0.0])
        out = merge_plane_sets(PlaneSet([]), PlaneSet([b]))
        assert len(out) == 1
        assert np.allclose(out[0].center, b.center)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_merge_with_self_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        planes = []
        for axis in (0, 1, 2):
            for k in range(2):
                coord = float(axis * 3 + 6.0 * k)  # far apart: saturated
                planes.append(square([coord if axis == 0 else rng.uniform(-1, 1),
                                      coord if axis == 1 else rng.uniform(-1, 1),
                                      coord if axis == 2 else rng.uniform(-1, 1)],
                                     normal_axis=axis,
                                     size=tuple(rng.uniform(0.5, 1.5, 2))))
        ps = PlaneSet(planes)
        out = merge_plane_sets(ps, ps)
        assert len(out) == len(ps)
        for p in out:
            match = [q for q in ps
                     if np.allclose(q.center, p.center, atol=1e-9)]
            assert len(match) == 1
            q = match[0]
            assert abs(np.linalg.norm(p.span_x) - np.linalg.norm(q.span_x)) < 1e-9
            assert abs(np.linalg.norm(p.span_y) - np.linalg.norm(q.span_y)) < 1e-9

    def test_saturation_no_pair_merges_after(self):
        rng = np.random.default_rng(3)
        # overlapping coplanar strips that must chain-merge into one plane
        strips = [square([0.4 * k, 0.0, 0.0], size=(1.0, 1.0)) for k in range(5)]
        out = merge_plane_sets(PlaneSet(strips[:3]), PlaneSet(strips[3:]))
        assert len(out) == 1
        for i in range(len(out)):
            for j in range(len(out)):
                if i != j:
                    assert not merge_condition(out[i], out[j])

    def test_merge_monotonicity(self):
        a = square([0, 0, 0], size=(2.0, 2.0))
        b = square([0.8, 0.5, 0.0], size=(1.0, 3.0))
        out = merge_plane_sets(PlaneSet([a]), PlaneSet([b]))
        assert len(out) == 1
        B = out.bases[0]
        big_lo, big_hi = (out.corners[0] @ B).min(0), (out.corners[0] @ B).max(0)
        for src in (a, b):
            lo, hi = (corners_ref(src) @ B).min(0), (corners_ref(src) @ B).max(0)
            assert np.all(lo[:2] >= big_lo[:2] - 1e-9)
            assert np.all(hi[:2] <= big_hi[:2] + 1e-9)


class TestCleanup:
    def test_small_fragment_removed(self):
        frag = square([0, 0, 0], size=(0.01, 0.01))   # 1 cm^2
        keep = square([3.0, 0, 0], size=(1.0, 1.0))
        out = cleanup_map(PlaneMap(PlaneSet([frag, keep])),
                          MappingParams(min_area=0.05))
        assert len(out) == 1
        assert np.allclose(out.planes[0].center, keep.center)

    def test_corner_gap_closed(self):
        # floor ends at x = 2.0; wall plane sits at x = 2.03 and its bottom
        # edge floats 3 cm above the floor plane: both gaps must close.
        floor = Plane([0.0, 0.0, 0.0], [4.0, 0, 0], [0, 4.0, 0])
        wall = Plane([2.03, 0.0, 1.13], [0, 4.0, 0], [0, 0, 2.2])
        out = cleanup_map(PlaneMap(PlaneSet([floor, wall])),
                          MappingParams(edge_fuse_distance=0.1))
        assert len(out) == 2
        new_floor = next(p for p in out.planes if abs(p.normal[2]) > 0.9)
        new_wall = next(p for p in out.planes if abs(p.normal[0]) > 0.9)
        floor_edge = new_floor.center[0] + 0.5 * np.linalg.norm(new_floor.span_x)
        assert abs(floor_edge - 2.03) < 1e-9
        wall_bottom = new_wall.center[2] - 0.5 * np.linalg.norm(
            new_wall.span_y if abs(new_wall.span_y[2]) > 0.5 else new_wall.span_x)
        assert abs(wall_bottom - 0.0) < 1e-9

    def test_parallel_gap_fused_and_merged(self):
        # two coplanar wall segments 8 cm apart along y must fuse into one
        left = Plane([2.0, -1.0, 1.0], [0, 1.9, 0], [0, 0, 2.0])
        right = Plane([2.0, 1.0, 1.0], [0, 2.0, 0], [0, 0, 2.0])
        out = cleanup_map(PlaneMap(PlaneSet([left, right])),
                          MappingParams(edge_fuse_distance=0.15))
        assert len(out) == 1
        # 1.9 m + 2.0 m segments plus the closed 0.05 m gap
        total = np.linalg.norm(out.planes[0].span_x)
        assert abs(total - 3.95) < 1e-9

    def test_already_clean_unchanged(self):
        a = square([0, 0, 0], size=(2.0, 2.0))
        b = square([8.0, 0, 3.0], normal_axis=0, size=(2.0, 2.0))
        before = PlaneMap(PlaneSet([a, b]))
        out = cleanup_map(before)
        assert len(out) == 2
        for p, q in zip(before.planes, out.planes):
            assert np.allclose(p.center, q.center, atol=1e-12)
            assert np.allclose(p.span_x, q.span_x, atol=1e-12)

    def test_fuse_preserves_orthogonality_exactly(self):
        floor = Plane([0.0, 0.0, 0.0], [4.0, 0, 0], [0, 4.0, 0])
        wall = Plane([2.05, 0.0, 1.1], [0, 4.0, 0], [0, 0, 2.2])
        out = cleanup_map(PlaneMap(PlaneSet([floor, wall])))
        n0, n1 = out.planes.normals
        assert abs(float(n0 @ n1)) < 1e-12


class TestRegenerate:
    def make_frames(self, rng, n=4):
        frames = []
        poses = []
        for k in range(n):
            planes = [square([0, 0, -1.0], size=(3.0, 3.0)),
                      square([2.0 + 0.1 * k, 0, 0.0], normal_axis=0),
                      square([0, 3.0, 0.5], normal_axis=1)]
            frames.append(PlaneSet(planes))
            poses.append(Pose(rot_z(0.05 * k), [0.2 * k, 0.1 * k, 0.0]))
        return frames, poses

    def test_matches_incremental_pipeline(self):
        rng = np.random.default_rng(0)
        frames, poses = self.make_frames(rng)
        live = PlaneMap()
        for k, (ps, pose) in enumerate(zip(frames, poses)):
            live = update_map(live, ps.transformed(pose), k)
        regen = regenerate(frames, poses)
        assert len(live) == len(regen)
        for p, q in zip(live.planes, regen.planes):
            assert np.allclose(p.center, q.center, atol=1e-9)
            assert np.allclose(p.span_x, q.span_x, atol=1e-9)
            assert np.allclose(p.span_y, q.span_y, atol=1e-9)

    def test_single_frame(self):
        rng = np.random.default_rng(1)
        frames, poses = self.make_frames(rng, n=1)
        out = regenerate(frames, poses)
        expected = cleanup_map(
            PlaneMap(merge_plane_sets(PlaneSet([]),
                                      frames[0].transformed(poses[0]))))
        assert len(out) == len(expected)

    def test_identical_frames_fully_merge(self):
        ps = PlaneSet([square([0, 0, 0], size=(2.0, 2.0)),
                       square([3.0, 0, 1.0], normal_axis=0, size=(2.0, 2.0))])
        pose = Pose.identity()
        out = regenerate([ps, ps], [pose, pose])
        assert len(out) == 2

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            regenerate([PlaneSet([])], [])

    def test_set_derivations_do_not_grow_with_snaps(self, monkeypatch):
        # per update a few whole-set derivations, plus one per pairwise
        # merge; an edge snap adds none, however many a frame accepts
        frames = [manhattan_set(np.random.default_rng(seed), n=16)
                  for seed in range(12)]
        poses = [Pose(rot_z(0.002 * k), [0.01 * k, 0.0, 0.0]) for k in range(12)]
        counts = dict.fromkeys(("frames", "merges", "snapped"), 0)
        per_update = []

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        def snaps(planes, params):
            out = fuse(planes, params)
            counts["snapped"] += changed_rows(planes, out)
            return out

        def update(*args):
            before = dict(counts)
            out = update_map_fn(*args)
            per_update.append({k: counts[k] - before[k] for k in counts})
            return out

        fuse, update_map_fn = mapping._fuse_perpendicular, mapping.update_map
        monkeypatch.setattr(geometry, "_frames", counted("frames", geometry._frames))
        monkeypatch.setattr(mapping, "_merge_group",
                            counted("merges", mapping._merge_group))
        monkeypatch.setattr(mapping, "_fuse_perpendicular", snaps)
        monkeypatch.setattr(mapping, "update_map", update)
        regenerate(frames, poses)
        assert len(per_update) == len(frames)
        assert sum(u["snapped"] for u in per_update) > 3 * len(frames)
        for u in per_update:
            assert u["frames"] <= 6 + u["merges"]

    def test_empty_frames_skipped(self):
        ps = PlaneSet([square([0, 0, 0], size=(2.0, 2.0))])
        out = regenerate([ps, PlaneSet([]), ps],
                         [Pose.identity()] * 3)
        assert len(out) == 1


class TestMapIO:
    def test_json_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        planes = [square(rng.uniform(-5, 5, 3) * [1, 1, 0], normal_axis=int(a),
                         size=tuple(rng.uniform(0.5, 3.0, 2)))
                  for a in rng.integers(0, 3, 8)]
        m = PlaneMap(PlaneSet(planes), 2, 2)
        text = map_to_json(m)
        back = map_from_json(text)
        assert len(back) == len(m)
        for p, q in zip(m.planes, back.planes):
            assert np.max(np.abs(p.center - q.center)) < 1e-12
            assert np.max(np.abs(p.span_x - q.span_x)) < 1e-12
            assert np.max(np.abs(p.span_y - q.span_y)) < 1e-12
        path = tmp_path / "map.json"
        save_map(path, m)
        assert len(load_map(path)) == len(m)

    def test_metadata_preserved(self):
        m = PlaneMap(PlaneSet([square([0, 0, 0])]), 3, 3)
        back = map_from_json(map_to_json(m))
        assert back.revision == 3
        assert back.frame_count == 3

    @pytest.mark.parametrize("metadata", [
        {"frame_count": "x", "revision": None},
        {"frame_count": -3},
        {"revision": 1.5},
        {"frame_count": True},
    ])
    def test_malformed_metadata_raises(self, metadata):
        # a count that is not a non-negative int would break the next update
        with pytest.raises(MapFormatError, match="metadata"):
            map_from_dict({"planes": [], "metadata": metadata})

    def test_malformed_planes_raise_geometry_errors(self):
        good = {"center": [0, 0, 0], "span_x": [1, 0, 0], "span_y": [0, 1, 0]}
        for key, value, error in (("center", [0, 0], GeometryError),
                                  ("span_x", [1, 0, float("nan")], GeometryError),
                                  ("span_y", [0.5, 1, 0], InvalidPlaneError)):
            with pytest.raises(error):
                map_from_dict({"planes": [good, {**good, key: value}]})
        with pytest.raises(MapFormatError, match="plane 1 has no span_y"):
            map_from_dict({"planes": [good, {"center": [0, 0, 0], "span_x": [1, 0, 0]}]})

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manhattan_slam.geometry import Plane, PlaneSet, Pose, plane_basis, rot_z, to_basis
from manhattan_slam.mapping import (
    MappingParams,
    PlaneMap,
    cleanup_map,
    load_map,
    map_from_json,
    map_to_json,
    merge_plane_sets,
    regenerate,
    save_map,
    update_map,
)
from manhattan_slam.mapping import _gate_matrix

from oracles import merge_condition, random_rotation


def square(center, normal_axis=2, size=(1.0, 1.0)) -> Plane:
    u, v = {0: (1, 2), 1: (2, 0), 2: (0, 1)}[normal_axis]
    sx, sy = np.zeros(3), np.zeros(3)
    sx[u], sy[v] = size
    return Plane(np.asarray(center, float), sx, sy)


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
        B = plane_basis(out[0])
        big_lo, big_hi = to_basis(out[0].corners(), B).min(0), \
            to_basis(out[0].corners(), B).max(0)
        for src in (a, b):
            lo, hi = to_basis(src.corners(), B).min(0), to_basis(src.corners(), B).max(0)
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

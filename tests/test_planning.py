import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manhattan_slam.geometry import GeometryError, Plane, PlaneSet
from manhattan_slam.mapping import PlaneMap
from manhattan_slam.planning import (
    Bounds,
    Segment,
    Tree,
    rrt_build,
    segment_collides,
    tree_to_dict,
)

from oracles import (
    corners_ref,
    random_rotation,
    sampled_segment_plane_hit,
    segment_plane_intersect,
    segment_segment_distance,
)


def unit_plane() -> Plane:
    return Plane([0.0, 0.0, 0.0], [2.0, 0, 0], [0, 2.0, 0])


def random_plane(rng) -> Plane:
    R = random_rotation(rng)
    sx, sy = rng.uniform(0.5, 3.0, 2)
    return Plane(rng.uniform(-2, 2, 3), sx * R[:, 0], sy * R[:, 1])


def plane_edges(p: Plane):
    c = corners_ref(p)
    return [(c[k], c[(k + 1) % 4]) for k in range(4)]


class TestSegmentPlaneIntersect:
    def test_straight_through_center(self):
        seg = Segment(np.array([0, 0, -1.0]), np.array([0, 0, 1.0]))
        hit = segment_plane_intersect(seg, unit_plane())
        assert hit is not None
        assert np.allclose(hit, [0, 0, 0], atol=1e-12)

    def test_parallel_no_hit(self):
        seg = Segment(np.array([0, 0, 1.0]), np.array([1.0, 0, 1.0]))
        assert segment_plane_intersect(seg, unit_plane()) is None

    def test_outside_box_no_hit(self):
        seg = Segment(np.array([5.0, 5.0, -1.0]), np.array([5.0, 5.0, 1.0]))
        assert segment_plane_intersect(seg, unit_plane()) is None

    def test_boundary_counts_as_hit(self):
        seg = Segment(np.array([1.0, 0.0, -1.0]), np.array([1.0, 0.0, 1.0]))
        assert segment_plane_intersect(seg, unit_plane()) is not None

    def test_endpoint_on_plane_counts(self):
        seg = Segment(np.array([0.3, 0.2, 0.0]), np.array([0.3, 0.2, 2.0]))
        assert segment_plane_intersect(seg, unit_plane()) is not None

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_hit_point_on_plane_and_segment(self, seed):
        rng = np.random.default_rng(seed)
        plane = random_plane(rng)
        seg = Segment(rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3))
        hit = segment_plane_intersect(seg, plane)
        if hit is None:
            return
        assert abs(float(plane.normal @ hit) - float(plane.normal @ plane.center)) < 1e-9
        v = seg.b - seg.a
        t = float((hit - seg.a) @ v / (v @ v))
        assert -1e-12 <= t <= 1.0 + 1e-12
        assert np.linalg.norm(seg.a + t * v - hit) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_sampling_oracle(self, seed):
        rng = np.random.default_rng(seed)
        plane = random_plane(rng)
        a, b = rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3)
        if np.array_equal(a, b):
            return
        # skip cases that graze a boundary edge of the plane patch
        if min(segment_segment_distance(a, b, e0, e1)
               for e0, e1 in plane_edges(plane)) < 1e-4:
            return
        hit = segment_plane_intersect(Segment(a, b), plane)
        oracle = sampled_segment_plane_hit(a, b, plane)
        assert (hit is None) == (oracle is None)
        if hit is not None:
            assert np.linalg.norm(hit - oracle) < 1e-6


class TestSegmentCollides:
    def test_empty_map(self):
        seg = Segment(np.zeros(3), np.ones(3))
        assert not segment_collides(seg, PlaneMap())

    def test_crossing_wall_detected(self):
        wall = Plane([2.0, 0.0, 1.0], [0, 4.0, 0], [0, 0, 2.0])
        m = PlaneMap(PlaneSet([wall]))
        assert segment_collides(Segment(np.array([0, 0, 1.0]),
                                        np.array([4.0, 0, 1.0])), m)
        assert not segment_collides(Segment(np.array([0, 0, 1.0]),
                                            np.array([1.0, 0, 1.0])), m)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_route(self, seed):
        rng = np.random.default_rng(seed)
        planes = PlaneSet([random_plane(rng) for _ in range(5)])
        m = PlaneMap(planes)
        seg = Segment(rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3))
        scalar = any(segment_plane_intersect(seg, p) is not None for p in planes)
        assert segment_collides(seg, m) == scalar

    def test_plane_set_and_plane_map_agree(self):
        rng = np.random.default_rng(11)
        planes = PlaneSet([random_plane(rng) for _ in range(8)])
        answers = set()
        for _ in range(200):
            seg = Segment(rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3))
            answers.add(segment_collides(seg, planes))
            assert segment_collides(seg, planes) == segment_collides(seg, PlaneMap(planes))
        assert answers == {True, False}
        assert not segment_collides(Segment(np.zeros(3), np.ones(3)), PlaneSet())


class TestRrt:
    def room_map(self) -> PlaneMap:
        walls = [
            Plane([3.0, 0.0, 1.0], [0, 6.0, 0], [0, 0, 2.0]),
            Plane([-3.0, 0.0, 1.0], [0, 6.0, 0], [0, 0, 2.0]),
            Plane([0.0, 3.0, 1.0], [6.0, 0, 0], [0, 0, 2.0]),
            Plane([0.0, -3.0, 1.0], [6.0, 0, 0], [0, 0, 2.0]),
            Plane([0.0, 0.0, 0.0], [6.0, 0, 0], [0, 6.0, 0]),
        ]
        return PlaneMap(PlaneSet(walls))

    def test_empty_map_accepts_everything(self):
        bounds = Bounds(np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        tree = rrt_build(PlaneMap(), np.zeros(3), bounds, n_nodes=10,
                         step=0.5, seed=0)
        assert tree.complete and len(tree.parents) == 10

    def test_deterministic(self):
        m = self.room_map()
        bounds = Bounds(np.array([-2.8, -2.8, 0.2]), np.array([2.8, 2.8, 1.8]))
        t1 = rrt_build(m, np.array([0, 0, 1.0]), bounds, 200, 0.5, seed=42)
        t2 = rrt_build(m, np.array([0, 0, 1.0]), bounds, 200, 0.5, seed=42)
        assert np.array_equal(t1.nodes, t2.nodes)
        assert np.array_equal(t1.parents, t2.parents)

    def test_all_edges_collision_free_by_oracle(self):
        m = self.room_map()
        bounds = Bounds(np.array([-3.5, -3.5, 0.2]), np.array([3.5, 3.5, 1.8]))
        tree = rrt_build(m, np.array([0, 0, 1.0]), bounds, 150, 0.8, seed=7)
        assert tree.complete
        for i, p in enumerate(tree.parents):
            if p < 0:
                continue
            for plane in m.planes:
                hit = sampled_segment_plane_hit(tree.nodes[p], tree.nodes[i], plane)
                assert hit is None

    def test_plane_set_and_plane_map_grow_the_same_tree(self):
        m = self.room_map()
        bounds = Bounds(np.array([-3.5, -3.5, 0.2]), np.array([3.5, 3.5, 1.8]))
        args = (np.array([0, 0, 1.0]), bounds, 150, 0.8)
        from_set = rrt_build(m.planes, *args, seed=7)
        from_map = rrt_build(m, *args, seed=7)
        assert tree_to_dict(from_set) == tree_to_dict(from_map)

    def test_edges_respect_step(self):
        m = self.room_map()
        bounds = Bounds(np.array([-2.8, -2.8, 0.2]), np.array([2.8, 2.8, 1.8]))
        tree = rrt_build(m, np.array([0, 0, 1.0]), bounds, 100, 0.4, seed=9)
        lengths = tree.edge_lengths()
        assert np.all(lengths[1:] <= 0.4 + 1e-9)

    def test_parents_acyclic(self):
        m = self.room_map()
        bounds = Bounds(np.array([-2.8, -2.8, 0.2]), np.array([2.8, 2.8, 1.8]))
        tree = rrt_build(m, np.array([0, 0, 1.0]), bounds, 120, 0.5, seed=3)
        for i, p in enumerate(tree.parents):
            assert p < i  # parents always precede children

    def test_unreachable_target_flags_partial(self):
        # start boxed in by a tiny cell: every extension (step 0.3) crosses
        # a wall, so the tree cannot grow and must come back flagged partial
        h = 0.05
        cell = [
            Plane([h, 0.0, 0.5], [0, 2 * h, 0], [0, 0, 2 * h]),
            Plane([-h, 0.0, 0.5], [0, 2 * h, 0], [0, 0, 2 * h]),
            Plane([0.0, h, 0.5], [2 * h, 0, 0], [0, 0, 2 * h]),
            Plane([0.0, -h, 0.5], [2 * h, 0, 0], [0, 0, 2 * h]),
            Plane([0.0, 0.0, 0.5 - h], [2 * h, 0, 0], [0, 2 * h, 0]),
            Plane([0.0, 0.0, 0.5 + h], [2 * h, 0, 0], [0, 2 * h, 0]),
        ]
        m = PlaneMap(PlaneSet(cell))
        bounds = Bounds(np.array([-5.0, -5, -5]), np.array([5.0, 5, 5]))
        tree = rrt_build(m, np.array([0, 0, 0.5]), bounds, n_nodes=5,
                         step=0.3, seed=1)
        assert not tree.complete
        assert len(tree.parents) < 5

    @pytest.mark.parametrize("lo, hi, problem", [
        (np.zeros(2), np.ones(2), "shape"),
        (np.zeros(3), [1.0, 1.0, np.inf], "non-finite"),
        ([0.0, np.nan, 0.0], np.ones(3), "non-finite"),
        (np.zeros(3), [1.0, 0.0, 1.0], "positive extent"),
    ])
    def test_bounds_need_finite_3_vectors_with_extent(self, lo, hi, problem):
        with pytest.raises(ValueError, match=problem):
            Bounds(lo, hi)

    @pytest.mark.parametrize("start, step, error", [
        (np.zeros(2), 0.5, GeometryError),
        ([0.0, 0.0, np.nan], 0.5, GeometryError),
        (np.zeros(3), 0.0, ValueError),
        (np.zeros(3), -1.0, ValueError),
        (np.zeros(3), np.nan, ValueError),
    ])
    def test_rrt_rejects_bad_start_or_step(self, start, step, error):
        # a zero step spent every sample on a 1-node tree, a negative one
        # grew nodes outside the bounds and called the tree complete
        bounds = Bounds(np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        with pytest.raises(error):
            rrt_build(PlaneMap(), start, bounds, 20, step, seed=0)

    def test_tree_dict_shape(self):
        bounds = Bounds(np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        tree = rrt_build(PlaneMap(), np.zeros(3), bounds, 8, 0.5, seed=0)
        d = tree_to_dict(tree)
        assert len(d["nodes"]) == 8
        assert len(d["parents"]) == 8
        assert len(d["edge_lengths"]) == 8
        assert d["complete"] is True

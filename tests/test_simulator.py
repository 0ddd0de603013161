import numpy as np
import pytest

from manhattan_slam.geometry import PointCloud, Pose, rot_z
from manhattan_slam.planning import Segment
from manhattan_slam.simulator import (
    Box,
    BoxScene,
    LidarConfig,
    TrajectorySpec,
    interpolate_trajectory,
    load_scene,
    load_waypoints,
    raycast_scan,
    run_trajectory,
    save_scene,
    save_waypoints,
    standard_scene,
)

from oracles import point_to_plane_patch_distance, segment_plane_intersect


def single_wall_scene() -> BoxScene:
    return BoxScene([Box((5.0, -10.0, -10.0), (6.0, 10.0, 10.0))],
                    (-1.0, -1.0), (-0.9, -0.9))


class TestRaycast:
    def test_single_wall_straight_ahead(self):
        cfg = LidarConfig(channels=1, vertical_fov_deg=0.001,
                          horizontal_fov_deg=0.001, points_per_scan=1)
        cloud = raycast_scan(single_wall_scene(), Pose.identity(), cfg)
        assert len(cloud) == 1
        assert np.allclose(cloud.points[0], [5.0, 0.0, 0.0], atol=1e-9)

    def test_empty_scene(self):
        scene = BoxScene([], (-0.1, -0.1), (-0.05, -0.05))
        cfg = LidarConfig(points_per_scan=160)
        cloud = raycast_scan(scene, Pose(np.eye(3), [5, 5, 1]), cfg)
        assert len(cloud) == 0

    def test_closed_room_no_misses(self):
        scene, spec = standard_scene("room")
        cfg = LidarConfig(points_per_scan=2000)
        cloud = raycast_scan(scene, spec.waypoints[0], cfg)
        assert len(cloud) == cfg.points_per_scan

    def test_points_lie_on_faces(self):
        scene, spec = standard_scene("room")
        pose = spec.waypoints[0]
        for sigma in (0.0, 0.02):
            cfg = LidarConfig(points_per_scan=512, range_noise_sigma=sigma)
            cloud = raycast_scan(scene, pose, cfg, seed=3)
            world = pose.apply(cloud.points)
            tol = 1e-9 + 3 * sigma
            for x in world[::17]:
                d = min(point_to_plane_patch_distance(x, f)
                        for f in scene.face_planes)
                assert d <= tol + 1e-12

    def test_deterministic_under_seed(self):
        scene, spec = standard_scene("blocks")
        cfg = LidarConfig(points_per_scan=800, range_noise_sigma=0.02)
        a = raycast_scan(scene, spec.waypoints[0], cfg, seed=11)
        b = raycast_scan(scene, spec.waypoints[0], cfg, seed=11)
        assert np.array_equal(a.points, b.points)

    def test_agrees_with_segment_plane_intersect(self):
        # Shared-math oracle: a ray is a long segment; the nearest
        # segment/face intersection must match the ray cast.
        scene, spec = standard_scene("blocks")
        pose = Pose(rot_z(0.3), np.array([2.0, -1.0, 1.5]))
        cfg = LidarConfig(points_per_scan=160, channels=4)
        cloud = raycast_scan(scene, pose, cfg)
        world = pose.apply(cloud.points)
        for x in world[::7]:
            seg = Segment(pose.t, pose.t + (x - pose.t) * (1 + 1e-9))
            hits = [segment_plane_intersect(seg, f) for f in scene.face_planes]
            dists = [np.linalg.norm(h - pose.t) for h in hits if h is not None]
            assert dists, "ray cast found a hit the segment check missed"
            assert abs(min(dists) - np.linalg.norm(x - pose.t)) < 1e-6


class TestFaces:
    def test_faces_are_the_outward_box_surfaces(self):
        scene, _ = standard_scene("blocks")
        faces = scene.face_planes
        assert len(faces) == 1 + 6 * len(scene.boxes)
        assert np.array_equal(faces.normals[0], [0.0, 0.0, 1.0])
        order = [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0)]
        for k, box in enumerate(scene.boxes):
            lo, hi = np.array(box.lo), np.array(box.hi)
            for f, (axis, sign) in enumerate(order, start=1 + 6 * k):
                assert np.array_equal(faces.normals[f], sign * np.eye(3)[axis])
                # the face lies on the box's bound along its normal, and its
                # corners are box corners (the blocks' bounds are integers)
                corners = faces.corners[f]
                assert np.all(corners[:, axis] == (hi if sign > 0 else lo)[axis])
                assert np.all((corners == lo) | (corners == hi))


class TestTrajectory:
    def test_static_pose_identical_clouds(self):
        scene, spec = standard_scene("room")
        cfg = LidarConfig(points_per_scan=320)
        frames = run_trajectory(scene, spec, cfg, seed=0, n_frames=10)
        assert len(frames) == 10
        ref = frames[0][1].points
        for _, cloud in frames[1:]:
            assert np.array_equal(cloud.points, ref)

    def test_even_spacing(self):
        spec = TrajectorySpec([Pose(np.eye(3), [0, 0, 0]),
                               Pose(np.eye(3), [10, 0, 0])])
        poses = interpolate_trajectory(spec, 11)
        xs = [p.t[0] for p in poses]
        assert np.allclose(xs, np.arange(11.0))

    def test_rotation_interpolates_geodesically(self):
        spec = TrajectorySpec([Pose(np.eye(3), [0, 0, 0]),
                               Pose(rot_z(np.pi / 2), [1, 0, 0])])
        poses = interpolate_trajectory(spec, 3)
        assert np.allclose(poses[1].R, rot_z(np.pi / 4), atol=1e-12)

    def test_invalid_scene_name(self):
        with pytest.raises(ValueError):
            standard_scene("nonexistent")


class TestSceneIO:
    def test_scene_round_trip(self, tmp_path):
        scene, spec = standard_scene("loop")
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        loaded = load_scene(path)
        assert len(loaded.boxes) == len(scene.boxes)
        assert loaded.ground_lo == scene.ground_lo
        for a, b in zip(loaded.boxes, scene.boxes):
            assert a.lo == b.lo and a.hi == b.hi

    def test_waypoints_round_trip(self, tmp_path):
        _, spec = standard_scene("blocks")
        path = tmp_path / "wps.json"
        save_waypoints(path, spec)
        loaded = load_waypoints(path)
        assert len(loaded.waypoints) == len(spec.waypoints)
        for a, b in zip(loaded.waypoints, spec.waypoints):
            assert np.allclose(a.t, b.t)
            assert np.allclose(a.R, b.R, atol=1e-12)

import json

import numpy as np
import pytest

from manhattan_slam.geometry import PlaneSet, PointCloud, Pose, rot_z
from manhattan_slam.mapping import PlaneMap, load_map, map_to_json, regenerate
from manhattan_slam.pipeline import (
    ConfigError,
    PipelineConfig,
    PipelineError,
    compute_metrics,
    load_scans_dir,
    load_trajectory,
    memory_comparison,
    read_scan_bin,
    read_scan_csv,
    run_slam,
    save_trajectory,
    write_scan_bin,
    write_scan_csv,
    write_scans_dir,
)
from manhattan_slam.simulator import (
    raycast_scan,
    run_trajectory,
    standard_lidar_config,
    standard_scene,
)

from oracles import random_rotation


def small_blocks_frames(n_frames=8, sigma=0.0, seed=0, points=6000):
    """A short straight leg through the blocks scene at ~0.5 m per frame."""
    from manhattan_slam.simulator import TrajectorySpec
    scene, _ = standard_scene("blocks")
    spec = TrajectorySpec([Pose(rot_z(np.pi), np.array([9.0, 5.0, 1.5])),
                           Pose(rot_z(np.pi), np.array([9.0 - 0.5 * (n_frames - 1),
                                                        5.0, 1.5]))])
    cfg = standard_lidar_config("blocks", points_per_scan=points,
                                range_noise_sigma=sigma)
    frames = run_trajectory(scene, spec, cfg, seed=seed, n_frames=n_frames)
    return [p for p, _ in frames], [c for _, c in frames]


class TestRunSlam:
    def test_identical_scans_give_identity_relative(self):
        scene, spec = standard_scene("room")
        cfg = standard_lidar_config("room", points_per_scan=5000)
        cloud = raycast_scan(scene, spec.waypoints[0], cfg)
        pc = PipelineConfig()
        pc.enable_loop_closure = False
        result = run_slam([cloud, cloud], pc)
        rel = result.graph.edges[0].relative
        assert np.max(np.abs(rel.t)) < 1e-6
        assert np.max(np.abs(rel.R - np.eye(3))) < 1e-6

    def test_short_blocks_run_tracks_ground_truth(self):
        gt, scans = small_blocks_frames(8)
        pc = PipelineConfig()
        pc.enable_loop_closure = False
        result = run_slam(scans, pc, initial_pose=gt[0])
        m = compute_metrics(result.trajectory, gt)
        assert m.rmse_translation < 0.3
        assert m.mean_rotation_deg < 1.5
        assert len(result.plane_map) > 3
        assert result.report.n_frames == 8

    def test_garbage_frame_skipped_pose_held(self):
        gt, scans = small_blocks_frames(6)
        rng = np.random.default_rng(0)
        # a 5-point scan cannot be meshed into planes: extraction fails
        scans[3] = PointCloud(rng.uniform(1, 2, (5, 3)), frame_id=3)
        pc = PipelineConfig()
        pc.enable_loop_closure = False
        result = run_slam(scans, pc, initial_pose=gt[0])
        assert result.report.failed_frames == [3]
        held = result.trajectory[3]
        prev = result.trajectory[2]
        assert np.array_equal(held.t, prev.t)
        assert np.array_equal(held.R, prev.R)
        # after the gap the run keeps tracking
        m = compute_metrics(result.trajectory[4:], gt[4:])
        assert m.rmse_translation < 0.5
        # and the skipped frame never corrupted the map: regeneration from
        # the stored per-frame sets reproduces the live map
        regen = regenerate(result.graph.plane_sets(), result.graph.poses(),
                           pc.mapping)
        assert map_to_json(regen) == map_to_json(result.plane_map)

    def test_failed_first_frame_leaves_the_next_to_seed(self):
        scene, spec = standard_scene("room")
        cfg = standard_lidar_config("room", points_per_scan=5000)
        frames = run_trajectory(scene, spec, cfg, seed=0, n_frames=6)
        scans = [c for _, c in frames]
        scans[0] = PointCloud(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        pc = PipelineConfig()
        result = run_slam(scans, pc, initial_pose=frames[0][0])
        assert result.report.failed_frames == [0]
        # the report keeps why the frame failed, also in its JSON form
        reason = "TooFewPointsError: cannot mesh 2 points"
        assert result.report.failure_reasons == {0: reason}
        assert json.loads(json.dumps(result.report.to_dict()))["failure_reasons"] \
            == {"0": reason}
        assert len(result.plane_map) > 0
        # frame 1 keeps the held pose and seeds the map, as frame 0 of a run
        # without the bad scan does
        rest = run_slam(scans[1:], pc, initial_pose=frames[0][0])
        assert map_to_json(result.plane_map) == map_to_json(rest.plane_map)
        for a, b in zip(result.trajectory[1:], rest.trajectory):
            assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t)

    def test_mostly_garbage_aborts(self):
        rng = np.random.default_rng(1)
        scans = [PointCloud(rng.uniform(1, 2, (4, 3)), frame_id=k)
                 for k in range(4)]
        with pytest.raises(PipelineError):
            run_slam(scans, PipelineConfig())

    def test_too_few_scans(self):
        with pytest.raises(PipelineError):
            run_slam([PointCloud(np.ones((10, 3)))], PipelineConfig())

    def test_regeneration_matches_live_map(self):
        gt, scans = small_blocks_frames(6)
        pc = PipelineConfig()
        pc.enable_loop_closure = False
        result = run_slam(scans, pc, initial_pose=gt[0])
        regen = regenerate(result.graph.plane_sets(), result.graph.poses(),
                           pc.mapping)
        # byte for byte: the replay is the live update, bit for bit
        assert map_to_json(regen) == map_to_json(result.plane_map)

    def test_stage_timings_sum_to_total(self):
        gt, scans = small_blocks_frames(6)
        pc = PipelineConfig()
        pc.enable_loop_closure = False
        result = run_slam(scans, pc, initial_pose=gt[0])
        r = result.report
        for k in range(r.n_frames):
            stages = sum(r.stage_ms[s][k] for s in
                         ("extraction", "registration", "loop_closure", "merging"))
            assert stages <= r.stage_ms["total"][k] * 1.05
            assert stages >= r.stage_ms["total"][k] * 0.95

    def test_deterministic_results(self):
        gt, scans = small_blocks_frames(5, sigma=0.02, seed=3)
        pc = PipelineConfig()
        a = run_slam(scans, pc, initial_pose=gt[0])
        b = run_slam(scans, pc, initial_pose=gt[0])
        for pa, pb in zip(a.trajectory, b.trajectory):
            assert np.array_equal(pa.t, pb.t)
            assert np.array_equal(pa.R, pb.R)
        for qa, qb in zip(a.plane_map.planes, b.plane_map.planes):
            assert np.array_equal(qa.center, qb.center)


class TestMetrics:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(0)
        poses = [Pose(random_rotation(rng), rng.uniform(-3, 3, 3))
                 for _ in range(10)]
        m = compute_metrics(poses, poses)
        assert m.rmse_translation == 0.0
        assert m.mean_rotation_deg < 1e-5

    def test_constant_offset(self):
        poses = [Pose(np.eye(3), [k, 0.0, 0.0]) for k in range(5)]
        shifted = [Pose(np.eye(3), [k + 1.0, 0.0, 0.0]) for k in range(5)]
        m = compute_metrics(shifted, poses)
        assert abs(m.rmse_translation - 1.0) < 1e-12
        assert m.std_translation < 1e-12

    def test_single_rotation(self):
        a = [Pose(np.eye(3), np.zeros(3))]
        b = [Pose(rot_z(np.deg2rad(2.0)), np.zeros(3))]
        m = compute_metrics(a, b)
        assert abs(m.mean_rotation_deg - 2.0) < 1e-9

    def test_length_mismatch(self):
        p = [Pose.identity()]
        with pytest.raises(ValueError):
            compute_metrics(p, p * 2)


class TestMemoryComparison:
    def test_empty(self):
        map_bytes, cloud_bytes = memory_comparison(PlaneMap(), [], 10)
        assert map_bytes > 0
        assert cloud_bytes == 0

    def test_single_cloud_size(self):
        cloud = PointCloud(np.zeros((1000, 3)) + 1.0)
        _, cloud_bytes = memory_comparison(PlaneMap(), [cloud], 10)
        assert cloud_bytes == 12000 + 16

    def test_decimation_selects_every_nth(self):
        clouds = [PointCloud(np.ones((100, 3)), frame_id=k) for k in range(25)]
        _, cloud_bytes = memory_comparison(PlaneMap(), clouds, 10)
        # frames 0, 10, 20 -> 300 points
        assert cloud_bytes == 16 + 12 * 300


class TestScanIO:
    def test_bin_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(500, 3)))
        path = tmp_path / "scan.bin"
        write_scan_bin(path, cloud)
        back = read_scan_bin(path, frame_id=7)
        assert back.frame_id == 7
        assert np.allclose(back.points, cloud.points, atol=1e-6)  # f32 storage

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(50, 3)))
        path = tmp_path / "scan.csv"
        write_scan_csv(path, cloud)
        back = read_scan_csv(path)
        assert np.allclose(back.points, cloud.points, atol=1e-15)

    def test_scans_dir_lexicographic(self, tmp_path):
        clouds = [PointCloud(np.full((10, 3), float(k)), frame_id=k)
                  for k in range(12)]
        write_scans_dir(tmp_path, clouds)
        back = load_scans_dir(tmp_path)
        assert len(back) == 12
        for k, c in enumerate(back):
            assert np.all(c.points == float(k))
            assert c.frame_id == k

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(PipelineError):
            load_scans_dir(tmp_path)

    def test_truncated_bin_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(PipelineError):
            read_scan_bin(path)


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        poses = [Pose(random_rotation(rng), rng.uniform(-5, 5, 3))
                 for _ in range(9)]
        path = tmp_path / "traj.txt"
        save_trajectory(path, poses, scan_rate=10.0)
        stamps, back = load_trajectory(path)
        assert stamps == [k / 10.0 for k in range(9)]
        for a, b in zip(poses, back):
            assert np.max(np.abs(a.t - b.t)) < 1e-12
            assert np.max(np.abs(a.R - b.R)) < 1e-9

    def test_format_is_w_last(self, tmp_path):
        path = tmp_path / "traj.txt"
        save_trajectory(path, [Pose.identity()])
        fields = path.read_text().split()
        assert len(fields) == 8
        assert float(fields[-1]) == 1.0  # identity quaternion w
        assert float(fields[4]) == 0.0


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        cfg.loop_radius = 5.0
        cfg.extraction.max_edge = 1.5
        path = tmp_path / "cfg.json"
        cfg.save(path)
        back = PipelineConfig.load(path)
        assert back.loop_radius == 5.0
        assert back.extraction.max_edge == 1.5

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"version": 1, "bogus": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"extraction": {"not_a_knob": 1}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"pipeline": {"warp_speed": 9}})
        # meshing on the sphere has no azimuth seam band to size
        with pytest.raises(ConfigError, match="seam_margin"):
            PipelineConfig.from_dict({"extraction": {"seam_margin": 0.35}})

    @pytest.mark.parametrize("section, key, value", [
        ("extraction", "max_edge", "2"),
        ("pipeline", "enable_loop_closure", "false"),
        ("pipeline", "decimation", True),
        ("pipeline", "loop_radius", False),
        ("registration", "gn_max_iterations", 50.0),
    ])
    def test_mistyped_value_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_dict({section: {key: value}})

    def test_int_accepted_for_float(self):
        cfg = PipelineConfig.from_dict({"extraction": {"max_edge": 2},
                                        "pipeline": {"loop_radius": 7}})
        assert cfg.extraction.max_edge == 2 and cfg.loop_radius == 7

    def test_unsupported_version_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"version": 2})

    def test_defaults_documented_in_dict(self):
        d = PipelineConfig().to_dict()
        assert d["extraction"]["max_edge"] == 2.0
        assert d["registration"]["fault_threshold"] == 0.1
        assert d["mapping"]["min_area"] == 0.05
        assert d["pipeline"]["decimation"] == 10

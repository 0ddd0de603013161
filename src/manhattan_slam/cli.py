"""Command-line entry point.

Verbs:
    run       scans (simulated scene or scan directory) -> map/trajectory/report
    simulate  scene + trajectory -> scan files and ground truth
    plan      map + RRT parameters -> tree file
    metrics   estimated vs ground-truth trajectory files
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .geometry import Pose
from .mapping import load_map, save_map
from .pipeline import (
    PipelineConfig,
    PipelineError,
    compute_metrics,
    load_scans_dir,
    load_trajectory,
    map_corners_csv,
    memory_comparison,
    rrt_edges_csv,
    run_slam,
    save_trajectory,
    trajectory_points_csv,
    write_scans_dir,
)
from .planning import Bounds, rrt_build, tree_to_dict
from .simulator import (
    load_scene,
    load_waypoints,
    run_trajectory,
    save_scene,
    standard_lidar_config,
    standard_scene,
)

SCENE_NAMES = ("room", "blocks", "loop")


def _load_config(path) -> PipelineConfig:
    return PipelineConfig.load(path) if path else PipelineConfig()


def _simulate_frames(args, config):
    """Scene-driven scan generation shared by run and simulate."""
    if args.scene in SCENE_NAMES:
        scene, spec = standard_scene(args.scene)
        lidar = standard_lidar_config(args.scene, points_per_scan=args.points,
                                      range_noise_sigma=args.noise_sigma)
    else:
        if not getattr(args, "waypoints", None):
            raise PipelineError(
                "a scene JSON file needs --waypoints; built-in scenes are: "
                + ", ".join(SCENE_NAMES))
        scene = load_scene(args.scene)
        spec = load_waypoints(args.waypoints)
        lidar = standard_lidar_config("blocks", points_per_scan=args.points,
                                      range_noise_sigma=args.noise_sigma)
    frames = run_trajectory(scene, spec, lidar, seed=args.seed,
                            n_frames=args.frames)
    return scene, [p for p, _ in frames], [c for _, c in frames]


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)

    gt_poses = None
    if args.scene:
        scene, gt_poses, scans = _simulate_frames(args, config)
        initial = gt_poses[0]
        save_trajectory(out / "gt_trajectory.txt", gt_poses, config.scan_rate_hz)
        save_scene(out / "scene.json", scene)
    elif args.scans_dir:
        scans = load_scans_dir(args.scans_dir)
        initial = Pose.identity()
    else:
        raise SystemExit("run needs either --scene or --scans-dir")

    result = run_slam(scans, config, initial_pose=initial)
    report = result.report
    if gt_poses is not None:
        report.metrics = compute_metrics(result.trajectory, gt_poses)
    report.map_bytes, report.cloud_bytes = memory_comparison(
        result.plane_map, scans, config.decimation)

    save_map(out / "map.json", result.plane_map)
    save_trajectory(out / "trajectory.txt", result.trajectory, config.scan_rate_hz)
    result.graph.dump(out / "graph.txt")
    with open(out / "report.json", "w") as f:
        json.dump(report.to_dict(), f, indent=2)
    trajectory_points_csv(plots / "trajectory_points.csv", result.trajectory)
    map_corners_csv(plots / "map_corners.csv", result.plane_map)

    print(report.timing_table())
    if report.metrics:
        m = report.metrics
        print(f"RMSE translational error: {m.rmse_translation:.3f} m "
              f"(std {m.std_translation:.3f} m)")
        print(f"Mean rotational error: {m.mean_rotation_deg:.3f} deg "
              f"(std {m.std_rotation_deg:.3f} deg)")
    if report.cloud_bytes:
        print(f"Map: {report.map_bytes} B vs superimposed cloud "
              f"{report.cloud_bytes} B "
              f"(ratio {report.map_bytes / report.cloud_bytes:.4f})")
    print(f"Outputs written to {out}")
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene, gt_poses, scans = _simulate_frames(args, config)
    write_scans_dir(out, scans, fmt=args.format)
    save_trajectory(out / "ground_truth.txt", gt_poses, config.scan_rate_hz)
    save_scene(out / "scene.json", scene)
    print(f"Wrote {len(scans)} scans to {out}")
    return 0


def _cmd_plan(args) -> int:
    plane_map = load_map(args.map)
    if args.bounds:
        vals = [float(v) for v in args.bounds.split(",")]
        bounds = Bounds(np.array(vals[:3]), np.array(vals[3:]))
    else:
        if len(plane_map) == 0:
            raise PipelineError(f"map {args.map} has no planes to take the "
                                "sampling bounds from; pass --bounds")
        corners = plane_map.planes.corners.reshape(-1, 3)
        bounds = Bounds(corners.min(axis=0) - 1.0, corners.max(axis=0) + 1.0)
    start = np.array([float(v) for v in args.start.split(",")])
    tree = rrt_build(plane_map, start, bounds, args.n_nodes, args.step,
                     seed=args.seed)
    with open(args.out, "w") as f:
        json.dump(tree_to_dict(tree), f)
    edges_path = Path(args.out).with_suffix(".edges.csv")
    rrt_edges_csv(edges_path, tree)
    print(f"Tree with {len(tree.parents)} nodes "
          f"({'complete' if tree.complete else 'partial'}) -> {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    _, est = load_trajectory(args.est)
    _, gt = load_trajectory(args.gt)
    m = compute_metrics(est, gt)
    print(json.dumps(m.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manhattan-slam",
        description="Plane-based LiDAR SLAM with a built-in synthetic simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scene_required=False):
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--scene", required=scene_required,
                       help="built-in scene name (room, blocks, loop)")
        p.add_argument("--frames", type=int, default=111,
                       help="number of scan frames to simulate")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--noise-sigma", type=float, default=0.0,
                       dest="noise_sigma", help="range noise sigma in meters")
        p.add_argument("--points", type=int, default=10000,
                       help="points per simulated scan")
        p.add_argument("--waypoints",
                       help="waypoint JSON (required for scene files)")

    p = sub.add_parser("run", help="run SLAM on a scene or scan directory")
    add_common(p)
    p.add_argument("--scans-dir", help="directory of .bin/.csv scans")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="generate scan files from a scene")
    add_common(p, scene_required=True)
    p.add_argument("--out", required=True, help="output scan directory")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plan", help="grow an RRT inside a plane map")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--out", required=True, help="tree JSON output")
    p.add_argument("--start", default="0,0,1.0", help="start point x,y,z")
    p.add_argument("--bounds", help="sampling bounds x0,y0,z0,x1,y1,z1")
    p.add_argument("--n-nodes", type=int, default=1000)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("metrics", help="compare two trajectory files")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, OSError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

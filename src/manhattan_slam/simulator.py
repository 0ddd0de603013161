"""Synthetic Manhattan-world LiDAR simulator.

Scenes are axis-aligned boxes over a rectangular ground plane; a scene's
faces are one set of plane rows, built by one ``geometry.box_rows`` call.
Scans are ray casts on a spinning-LiDAR grid (channels evenly spaced over
the vertical FOV, azimuth steps evenly spaced over the horizontal FOV),
returned in the sensor frame with optional Gaussian range noise. The noise
is clipped at three standard deviations so every returned point provably
lies within ``1e-9 + 3 * sigma`` of a scene face.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.spatial.transform import Rotation

from .geometry import PlaneSet, PointCloud, Pose, box_rows, rot_z, so3_exp, so3_log

__all__ = [
    "Box",
    "BoxScene",
    "LidarConfig",
    "TrajectorySpec",
    "ray_grid",
    "raycast_scan",
    "interpolate_trajectory",
    "run_trajectory",
    "standard_scene",
    "standard_lidar_config",
    "scene_to_dict",
    "scene_from_dict",
    "save_scene",
    "load_scene",
    "save_waypoints",
    "load_waypoints",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by min and max corners."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        lo, hi = np.asarray(self.lo, float), np.asarray(self.hi, float)
        if not np.all(hi > lo):
            raise ValueError(f"box must have positive volume: {self.lo} .. {self.hi}")


@dataclass
class BoxScene:
    """Boxes placed on a rectangular ground plane at z = 0."""

    boxes: list[Box]
    ground_lo: tuple[float, float] = (-20.0, -20.0)
    ground_hi: tuple[float, float] = (20.0, 20.0)

    @cached_property
    def face_planes(self) -> PlaneSet:
        """The ground (normal +z), then each box's six faces with outward
        normals, in the order +x, -x, +y, -y, +z, -z."""
        n = len(self.boxes)
        lo = np.array([(*self.ground_lo, 0.0)] + [b.lo for b in self.boxes for _ in range(6)],
                      dtype=float)
        hi = np.array([(*self.ground_hi, 0.0)] + [b.hi for b in self.boxes for _ in range(6)],
                      dtype=float)
        axis = np.array([2] + [0, 0, 1, 1, 2, 2] * n)
        sign = np.array([1.0] + [1.0, -1.0] * 3 * n)
        rows = np.arange(len(axis))
        coord = np.where(sign > 0, hi[rows, axis], lo[rows, axis])
        return PlaneSet.from_rows(*box_rows(np.eye(3), axis, sign, coord, lo, hi))


@dataclass
class LidarConfig:
    """Spinning-LiDAR geometry; defaults mirror a 16-channel unit at 10 Hz."""

    channels: int = 16
    vertical_fov_deg: float = 60.0
    horizontal_fov_deg: float = 360.0
    points_per_scan: int = 10000
    max_range: float = 100.0
    range_noise_sigma: float = 0.0

    def __post_init__(self):
        if self.channels <= 0 or self.points_per_scan <= 0:
            raise ValueError("channels and points_per_scan must be positive")
        if not (0.0 < self.horizontal_fov_deg <= 360.0):
            raise ValueError("horizontal FOV must be in (0, 360]")
        if not (0.0 < self.vertical_fov_deg <= 180.0):
            raise ValueError("vertical FOV must be in (0, 180]")
        if self.range_noise_sigma < 0:
            raise ValueError("range noise sigma must be non-negative")


@dataclass
class TrajectorySpec:
    """Waypoint poses visited in order while scanning at a fixed rate."""

    waypoints: list[Pose]
    scan_rate: float = 10.0

    def __post_init__(self):
        if len(self.waypoints) < 1:
            raise ValueError("trajectory needs at least one waypoint")


def ray_grid(cfg: LidarConfig) -> np.ndarray:
    """Unit ray directions in the sensor frame, shape (channels * n_az, 3)."""
    n_az = max(1, round(cfg.points_per_scan / cfg.channels))
    half_v = math.radians(cfg.vertical_fov_deg) / 2.0
    phis = np.linspace(-half_v, half_v, cfg.channels) if cfg.channels > 1 \
        else np.array([0.0])
    if cfg.horizontal_fov_deg >= 360.0:
        thetas = np.linspace(-math.pi, math.pi, n_az, endpoint=False)
    elif n_az > 1:
        half_h = math.radians(cfg.horizontal_fov_deg) / 2.0
        thetas = np.linspace(-half_h, half_h, n_az)
    else:
        thetas = np.array([0.0])
    th, ph = np.meshgrid(thetas, phis)
    th, ph = th.ravel(), ph.ravel()
    return np.column_stack([np.cos(ph) * np.cos(th),
                            np.cos(ph) * np.sin(th),
                            np.sin(ph)])


def raycast_scan(scene: BoxScene, pose: Pose, cfg: LidarConfig,
                 seed: Optional[int] = None, frame_id: int = 0,
                 rng: Optional[np.random.Generator] = None) -> PointCloud:
    """Cast the sensor's ray grid from a pose; nearest face hit per ray.

    Points come back in the sensor frame; misses (no hit within max_range)
    are dropped. Range noise, when enabled, is drawn per returned point and
    clipped at +-3 sigma.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    dirs = ray_grid(cfg)
    dirs_w = dirs @ pose.R.T
    origin = pose.t

    t_min = np.full(dirs.shape[0], np.inf)
    faces = scene.face_planes
    for n, d, c, B, (hu, hv) in zip(faces.normals, faces.distances, faces.centers,
                                    faces.bases, faces.half_extents):
        denom = dirs_w @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hit = (d - origin @ n) / denom
        t_hit = np.where(np.abs(denom) < 1e-12, np.inf, t_hit)
        bx, by = B[:, 0], B[:, 1]
        with np.errstate(invalid="ignore"):
            pu = (origin - c) @ bx + t_hit * (dirs_w @ bx)
            pv = (origin - c) @ by + t_hit * (dirs_w @ by)
            ok = (t_hit > 1e-9) & (np.abs(pu) <= hu + 1e-12) & (np.abs(pv) <= hv + 1e-12)
        t_min = np.where(ok & (t_hit < t_min), t_hit, t_min)

    hit = t_min <= cfg.max_range
    ranges = t_min[hit]
    if cfg.range_noise_sigma > 0:
        noise = rng.normal(0.0, cfg.range_noise_sigma, ranges.shape)
        np.clip(noise, -3 * cfg.range_noise_sigma, 3 * cfg.range_noise_sigma,
                out=noise)
        ranges = ranges + noise
    return PointCloud(ranges[:, None] * dirs[hit], frame_id=frame_id)


def _slerp(Ra: np.ndarray, Rb: np.ndarray, s: float) -> np.ndarray:
    return Ra @ so3_exp(s * so3_log(Ra.T @ Rb))


def interpolate_trajectory(spec: TrajectorySpec, n_frames: int) -> list[Pose]:
    """Evenly interpolate poses along the waypoint chain.

    Linear in translation and geodesic in rotation within each segment; the
    interpolation parameter runs uniformly over waypoint index, so equal-
    length segments give equally spaced frames.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    wps = spec.waypoints
    if len(wps) == 1 or n_frames == 1:
        return [wps[0]] * n_frames
    u = np.linspace(0.0, len(wps) - 1.0, n_frames)
    poses = []
    for val in u:
        k = min(int(val), len(wps) - 2)
        s = val - k
        a, b = wps[k], wps[k + 1]
        poses.append(Pose(_slerp(a.R, b.R, s), (1 - s) * a.t + s * b.t))
    return poses


def run_trajectory(scene: BoxScene, spec: TrajectorySpec, cfg: LidarConfig,
                   seed: Optional[int] = None,
                   n_frames: Optional[int] = None) -> list[tuple[Pose, PointCloud]]:
    """Scan the scene along the trajectory; deterministic for a fixed seed."""
    if n_frames is None:
        n_frames = len(spec.waypoints)
    poses = interpolate_trajectory(spec, n_frames)
    rng = np.random.default_rng(seed)
    out = []
    for k, pose in enumerate(poses):
        out.append((pose, raycast_scan(scene, pose, cfg, frame_id=k, rng=rng)))
    return out


def _heading_waypoints(corners_xy: list[tuple[float, float]], z: float) -> list[Pose]:
    """Waypoints at the given corners with yaw facing the outgoing leg."""
    wps = []
    for k, (x, y) in enumerate(corners_xy):
        nxt = corners_xy[(k + 1) % len(corners_xy)] if k + 1 < len(corners_xy) \
            else corners_xy[k]
        prev = corners_xy[k - 1] if k > 0 else corners_xy[0]
        dx, dy = (nxt[0] - x, nxt[1] - y) if k + 1 < len(corners_xy) \
            else (x - prev[0], y - prev[1])
        yaw = math.atan2(dy, dx) if (dx, dy) != (0.0, 0.0) else 0.0
        wps.append(Pose(rot_z(yaw), np.array([x, y, z])))
    return wps


def standard_scene(name: str) -> tuple[BoxScene, TrajectorySpec]:
    """Built-in scenes: ``room``, ``blocks``, ``loop``."""
    if name == "room":
        # Closed 6 x 6 x 2.2 m room: perimeter wall slabs plus a ceiling slab
        # over a 6 x 6 ground plane, sensor at mid-height. All six interior
        # faces are visible from the center and no ray escapes, and the
        # proportions keep every face densely sampled by a wide-FOV scan.
        walls = [
            Box((2.8, -3.0, 0.0), (3.0, 3.0, 2.2)),
            Box((-3.0, -3.0, 0.0), (-2.8, 3.0, 2.2)),
            Box((-3.0, 2.8, 0.0), (3.0, 3.0, 2.2)),
            Box((-3.0, -3.0, 0.0), (3.0, -2.8, 2.2)),
            Box((-3.0, -3.0, 2.2), (3.0, 3.0, 2.4)),
        ]
        scene = BoxScene(walls, (-3.0, -3.0), (3.0, 3.0))
        spec = TrajectorySpec([Pose(np.eye(3), np.array([0.0, 0.0, 1.1]))])
        return scene, spec

    if name == "blocks":
        # Open 80 x 80 m ground with rectangular blocks around a 20 x 10 m
        # rectangular circuit (60 m perimeter).
        boxes = [
            Box((-4.0, -2.0, 0.0), (4.0, 2.0, 5.0)),
            Box((14.0, 2.0, 0.0), (18.0, 8.0, 4.0)),
            Box((-18.0, 6.0, 0.0), (-13.0, 10.0, 6.0)),
            Box((-17.0, -9.0, 0.0), (-12.0, -4.0, 3.0)),
            Box((6.0, -12.0, 0.0), (12.0, -7.0, 5.0)),
            Box((-4.0, 9.0, 0.0), (2.0, 14.0, 4.0)),
        ]
        scene = BoxScene(boxes, (-40.0, -40.0), (40.0, 40.0))
        corners = [(10.0, 5.0), (-10.0, 5.0), (-10.0, -5.0), (10.0, -5.0), (10.0, 5.0)]
        spec = TrajectorySpec(_heading_waypoints(corners, 1.5))
        return scene, spec

    if name == "loop":
        # Square circuit around a large central block, with outer blocks at
        # the mid-edges; the path returns exactly to its start so that loop
        # closure candidates appear.
        boxes = [
            Box((-7.0, -7.0, 0.0), (7.0, 7.0, 5.0)),
            Box((16.0, -4.0, 0.0), (19.0, 4.0, 4.0)),
            Box((-19.0, -4.0, 0.0), (-16.0, 4.0, 4.0)),
            Box((-4.0, 16.0, 0.0), (4.0, 19.0, 4.0)),
            Box((-4.0, -19.0, 0.0), (4.0, -16.0, 4.0)),
        ]
        scene = BoxScene(boxes, (-25.0, -25.0), (25.0, 25.0))
        corners = [(12.0, 12.0), (-12.0, 12.0), (-12.0, -12.0), (12.0, -12.0),
                   (12.0, 12.0)]
        spec = TrajectorySpec(_heading_waypoints(corners, 1.5))
        return scene, spec

    raise ValueError(f"unknown scene '{name}' (expected room, blocks, or loop)")


def standard_lidar_config(name: str, points_per_scan: int = 10000,
                          range_noise_sigma: float = 0.0) -> LidarConfig:
    """Sensor geometry suited to each built-in scene.

    The room uses a dome-style wide vertical FOV so that floor, ceiling, and
    walls are all sampled at comparable density; the open scenes use a
    spinning 16-channel geometry.
    """
    if name == "room":
        return LidarConfig(channels=64, vertical_fov_deg=140.0,
                           points_per_scan=points_per_scan,
                           range_noise_sigma=range_noise_sigma)
    if name in ("blocks", "loop"):
        return LidarConfig(channels=16, vertical_fov_deg=60.0,
                           points_per_scan=points_per_scan,
                           range_noise_sigma=range_noise_sigma)
    raise ValueError(f"unknown scene '{name}'")


def scene_to_dict(scene: BoxScene) -> dict:
    return {
        "boxes": [{"min": list(b.lo), "max": list(b.hi)} for b in scene.boxes],
        "ground": {"min": list(scene.ground_lo), "max": list(scene.ground_hi)},
    }


def scene_from_dict(d: dict) -> BoxScene:
    boxes = [Box(tuple(b["min"]), tuple(b["max"])) for b in d["boxes"]]
    g = d["ground"]
    return BoxScene(boxes, tuple(g["min"]), tuple(g["max"]))


def save_scene(path, scene: BoxScene) -> None:
    with open(path, "w") as f:
        json.dump(scene_to_dict(scene), f, indent=2)


def load_scene(path) -> BoxScene:
    with open(path) as f:
        return scene_from_dict(json.load(f))


def save_waypoints(path, spec: TrajectorySpec) -> None:
    """Waypoint file: translation plus quaternion (x, y, z, w)."""
    data = {
        "scan_rate": spec.scan_rate,
        "waypoints": [
            {"t": [float(v) for v in p.t],
             "q": [float(v) for v in Rotation.from_matrix(p.R).as_quat()]}
            for p in spec.waypoints
        ],
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=2)


def load_waypoints(path) -> TrajectorySpec:
    with open(path) as f:
        data = json.load(f)
    wps = [Pose(Rotation.from_quat(w["q"]).as_matrix(), np.asarray(w["t"], float))
           for w in data["waypoints"]]
    return TrajectorySpec(wps, data.get("scan_rate", 10.0))

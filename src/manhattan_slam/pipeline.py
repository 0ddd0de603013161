"""Full SLAM loop: scans in, trajectory + plane map + run report out.

Per frame: extract planes, register against the previous good frame's
planes, append the pose-graph node, search for a loop closure (nearest
candidate only), and merge the world-frame planes into the map; after any
graph optimization the map is regenerated from the stored per-frame plane
sets. Frames whose extraction or registration fails are skipped with the
pose held. Also hosts the file formats (scan files, trajectory files,
config files, plot CSVs) and the run metrics.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np
from scipy.spatial.transform import Rotation

from .extraction import ExtractionError, ExtractionParams, extract_detailed
from .geometry import PlaneSet, PointCloud, Pose, rotation_angle_between, so3_exp
from .mapping import MappingParams, PlaneMap, map_to_json, regenerate, update_map
from .pose_graph import PoseGraph, registration_to_relative
from .registration import RegistrationError, RegistrationParams, register

__all__ = [
    "PipelineError",
    "ConfigError",
    "PipelineConfig",
    "TrajectoryMetrics",
    "RunReport",
    "SlamResult",
    "run_slam",
    "compute_metrics",
    "memory_comparison",
    "write_scan_bin",
    "read_scan_bin",
    "write_scan_csv",
    "read_scan_csv",
    "write_scans_dir",
    "load_scans_dir",
    "save_trajectory",
    "load_trajectory",
    "trajectory_points_csv",
    "map_corners_csv",
    "rrt_edges_csv",
]

CLOUD_HEADER_BYTES = 16   # magic + point count in the superimposed-cloud blob
BYTES_PER_POINT = 12      # three little-endian float32 per point


class PipelineError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


# JSON value types accepted per field type; bool is an int subclass in
# Python, so it is rejected separately for numeric fields
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float)}


def _check_types(cls, values: dict, where: str) -> None:
    """Raise ConfigError for a value whose type does not match its field."""
    hints = get_type_hints(cls)
    for key, value in values.items():
        expected = hints[key]
        if isinstance(value, bool) != (expected is bool) \
                or not isinstance(value, _JSON_TYPES[expected]):
            raise ConfigError(f"{where}.{key} must be {expected.__name__}, "
                              f"got {type(value).__name__} {value!r}")


@dataclass
class PipelineConfig:
    """Every tunable of the pipeline, grouped per stage."""

    extraction: ExtractionParams = field(default_factory=ExtractionParams)
    registration: RegistrationParams = field(default_factory=RegistrationParams)
    mapping: MappingParams = field(default_factory=MappingParams)
    loop_radius: float = 3.0
    loop_min_separation: int = 10
    loop_cooldown_frames: int = 10
    enable_loop_closure: bool = True
    scan_rate_hz: float = 10.0
    decimation: int = 10
    odometry_noise_sigma_t: float = 0.0
    odometry_noise_sigma_r_deg: float = 0.0
    odometry_noise_seed: int = 0

    version: int = 1

    def to_dict(self) -> dict:
        top = {"version": self.version}
        for name in ("extraction", "registration", "mapping"):
            top[name] = dataclasses.asdict(getattr(self, name))
        top["pipeline"] = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("extraction", "registration", "mapping", "version")
        }
        return top

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        def section(where: str) -> dict:
            sub = d.get(where, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{where} must be an object, "
                                  f"not {type(sub).__name__}")
            return sub

        def build(cls, where: str):
            sub = section(where)
            names = {f.name for f in dataclasses.fields(cls)}
            unknown = set(sub) - names
            if unknown:
                raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
            _check_types(cls, sub, where)
            return cls(**sub)

        if not isinstance(d, dict):
            raise ConfigError(f"a config must be an object, not {type(d).__name__}")
        known_top = {"version", "extraction", "registration", "mapping", "pipeline"}
        unknown = set(d) - known_top
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        version = d.get("version", 1)
        if version != 1:
            raise ConfigError(f"unsupported config version {version}")
        cfg = PipelineConfig(
            extraction=build(ExtractionParams, "extraction"),
            registration=build(RegistrationParams, "registration"),
            mapping=build(MappingParams, "mapping"),
        )
        pipe = section("pipeline")
        valid = {f.name for f in dataclasses.fields(PipelineConfig)} \
            - {"extraction", "registration", "mapping", "version"}
        unknown = set(pipe) - valid
        if unknown:
            raise ConfigError(f"unknown keys in pipeline: {sorted(unknown)}")
        _check_types(PipelineConfig, pipe, "pipeline")
        for key, value in pipe.items():
            setattr(cfg, key, value)
        return cfg

    @staticmethod
    def load(path) -> "PipelineConfig":
        with open(path) as f:
            return PipelineConfig.from_dict(json.load(f))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)


@dataclass
class TrajectoryMetrics:
    rmse_translation: float
    std_translation: float
    mean_rotation_deg: float
    std_rotation_deg: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


STAGES = ("extraction", "registration", "loop_closure", "merging", "total")


@dataclass
class RunReport:
    """Per-frame stage timings plus run-level metrics."""

    stage_ms: dict = field(default_factory=lambda: {s: [] for s in STAGES})
    failed_frames: list = field(default_factory=list)
    n_frames: int = 0
    loop_closures: int = 0
    optimizations: int = 0
    chi2_histories: list = field(default_factory=list)
    metrics: Optional[TrajectoryMetrics] = None
    map_bytes: Optional[int] = None
    cloud_bytes: Optional[int] = None

    def stage_mean(self, stage: str) -> float:
        vals = self.stage_ms[stage]
        return float(np.mean(vals)) if vals else 0.0

    def stage_std(self, stage: str) -> float:
        vals = self.stage_ms[stage]
        return float(np.std(vals)) if vals else 0.0

    def timing_table(self) -> str:
        """Per-module average runtimes, one row per pipeline stage."""
        rows = [("Module", "Average (ms)", "Std (ms)")]
        labels = {"extraction": "Extraction", "registration": "Registration",
                  "loop_closure": "Loop closure", "merging": "Merging",
                  "total": "Total"}
        for stage in STAGES:
            rows.append((labels[stage], f"{self.stage_mean(stage):.1f}",
                         f"{self.stage_std(stage):.1f}"))
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        lines = []
        for k, r in enumerate(rows):
            lines.append("  ".join(r[c].ljust(widths[c]) for c in range(3)))
            if k == 0 or k == len(rows) - 2:
                lines.append("-" * (sum(widths) + 4))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
            "n_frames": self.n_frames,
            "failed_frames": list(self.failed_frames),
            "loop_closures": self.loop_closures,
            "optimizations": self.optimizations,
            "stage_ms_mean": {s: self.stage_mean(s) for s in STAGES},
            "stage_ms_std": {s: self.stage_std(s) for s in STAGES},
            "stage_ms": {s: list(map(float, v)) for s, v in self.stage_ms.items()},
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.map_bytes is not None:
            out["map_bytes"] = self.map_bytes
            out["cloud_bytes"] = self.cloud_bytes
            if self.cloud_bytes:
                out["memory_ratio"] = self.map_bytes / self.cloud_bytes
        return out


@dataclass
class SlamResult:
    trajectory: list[Pose]
    plane_map: PlaneMap
    report: RunReport
    graph: PoseGraph


def run_slam(scans: Sequence[PointCloud], config: Optional[PipelineConfig] = None,
             initial_pose: Optional[Pose] = None) -> SlamResult:
    """Run the SLAM loop over an ordered scan sequence.

    Every frame, the first included, takes the same steps. Frame failures
    (extraction or registration) hold the previous pose and skip mapping for
    that frame, and the first frame with planes seeds the map; the run fails
    outright only when more than half the frames failed.
    """
    config = config or PipelineConfig()
    if len(scans) < 2:
        raise PipelineError("need at least 2 scans")

    noise_rng = np.random.default_rng(config.odometry_noise_seed)
    inject_noise = (config.odometry_noise_sigma_t > 0
                    or config.odometry_noise_sigma_r_deg > 0)

    report = RunReport(n_frames=len(scans))
    plane_map = PlaneMap()
    graph: Optional[PoseGraph] = None
    last_good_set: Optional[PlaneSet] = None
    last_basis = None
    last_closure_frame: Optional[int] = None

    for k in range(len(scans)):
        t_frame = time.perf_counter()
        failed = False

        t0 = time.perf_counter()
        plane_set = PlaneSet()
        try:
            res = extract_detailed(scans[k], config.extraction,
                                   fallback_basis=last_basis)
            plane_set = res.plane_set
            if len(plane_set) == 0:
                raise ExtractionError("no planes extracted")
        except ExtractionError:
            failed = True
        extraction_ms = 1e3 * (time.perf_counter() - t0)

        # with no earlier good frame there is nothing to register against:
        # the first frame with planes keeps the held pose and seeds the map
        rel = Pose.identity()
        t0 = time.perf_counter()
        if not failed and last_good_set is not None:
            try:
                rr = register(plane_set, last_good_set, config.registration)
                rel = registration_to_relative(graph.pose(len(graph) - 1),
                                               rr.rotation, rr.translation)
                if inject_noise:
                    w = noise_rng.normal(
                        0.0, np.radians(config.odometry_noise_sigma_r_deg), 3)
                    dt = noise_rng.normal(0.0, config.odometry_noise_sigma_t, 3)
                    rel = Pose(so3_exp(w) @ rel.R, rel.t + dt)
            except RegistrationError:
                failed = True
                rel = Pose.identity()
        registration_ms = 1e3 * (time.perf_counter() - t0)

        node_set = plane_set if not failed else PlaneSet()
        if graph is None:
            graph = PoseGraph(initial_pose or Pose.identity(), node_set)
            node = 0
        else:
            node = graph.add_frame(node_set, rel)
        if failed:
            report.failed_frames.append(k)
        else:
            last_good_set = plane_set
            if not res.used_fallback_basis:
                last_basis = res.basis

        t0 = time.perf_counter()
        optimized = False
        in_cooldown = (last_closure_frame is not None
                       and k - last_closure_frame < config.loop_cooldown_frames)
        if config.enable_loop_closure and not failed and not in_cooldown:
            for j in graph.find_loop_candidates(node, config.loop_radius,
                                                config.loop_min_separation):
                if len(graph.nodes[j].plane_set) == 0:
                    continue
                edge = graph.close_loop(node, j, config.registration)
                if edge is not None:
                    report.loop_closures += 1
                    last_closure_frame = k
                    result = graph.optimize()
                    report.chi2_histories.append(result.chi2_history)
                    if result.performed and not result.aborted:
                        report.optimizations += 1
                        optimized = True
                break   # one attempt per frame, nearest candidate
        loop_ms = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        if optimized:
            plane_map = regenerate(graph.plane_sets(), graph.poses(),
                                   config.mapping)
        elif not failed:
            plane_map = update_map(plane_map,
                                   plane_set.transformed(graph.pose(node)),
                                   k, config.mapping)
        merging_ms = 1e3 * (time.perf_counter() - t0)

        report.stage_ms["extraction"].append(extraction_ms)
        report.stage_ms["registration"].append(registration_ms)
        report.stage_ms["loop_closure"].append(loop_ms)
        report.stage_ms["merging"].append(merging_ms)
        report.stage_ms["total"].append(1e3 * (time.perf_counter() - t_frame))

    if len(report.failed_frames) > 0.5 * len(scans):
        raise PipelineError(
            f"{len(report.failed_frames)} of {len(scans)} frames failed")
    return SlamResult(graph.poses(), plane_map, report, graph)


def compute_metrics(est: Sequence[Pose], gt: Sequence[Pose]) -> TrajectoryMetrics:
    """Translational RMSE and mean rotational error of an aligned trajectory."""
    if len(est) != len(gt):
        raise ValueError(f"trajectory lengths differ: {len(est)} vs {len(gt)}")
    terr = np.array([np.linalg.norm(e.t - g.t) for e, g in zip(est, gt)])
    rerr = np.array([rotation_angle_between(e.R, g.R) for e, g in zip(est, gt)])
    return TrajectoryMetrics(
        rmse_translation=float(np.sqrt(np.mean(terr**2))),
        std_translation=float(np.std(terr)),
        mean_rotation_deg=float(np.mean(rerr)),
        std_rotation_deg=float(np.std(rerr)),
    )


def memory_comparison(plane_map: PlaneMap, scans: Sequence[PointCloud],
                      decimation: int = 10) -> tuple[int, int]:
    """Serialized map size vs the superimposed decimated point cloud size."""
    map_bytes = len(map_to_json(plane_map).encode())
    selected = list(scans)[::decimation] if decimation > 0 else []
    if not selected:
        return map_bytes, 0
    n_points = sum(len(c) for c in selected)
    return map_bytes, CLOUD_HEADER_BYTES + BYTES_PER_POINT * n_points


# ---------------------------------------------------------------------------
# file formats

def write_scan_bin(path, cloud: PointCloud) -> None:
    """Raw little-endian float32 x,y,z triplets."""
    Path(path).write_bytes(cloud.points.astype("<f4").tobytes())


def read_scan_bin(path, frame_id: int = 0) -> PointCloud:
    data = Path(path).read_bytes()
    if len(data) % BYTES_PER_POINT:
        raise PipelineError(f"{path}: size {len(data)} is not a multiple of 12")
    pts = np.frombuffer(data, dtype="<f4").reshape(-1, 3).astype(float)
    return PointCloud(pts, frame_id)


def write_scan_csv(path, cloud: PointCloud) -> None:
    with open(path, "w") as f:
        for x, y, z in cloud.points:
            f.write(f"{float(x)!r},{float(y)!r},{float(z)!r}\n")


def read_scan_csv(path, frame_id: int = 0) -> PointCloud:
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    return PointCloud(pts, frame_id)


def write_scans_dir(directory, clouds: Sequence[PointCloud], fmt: str = "bin") -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for k, cloud in enumerate(clouds):
        name = f"scan_{k:05d}.{fmt}"
        if fmt == "bin":
            write_scan_bin(directory / name, cloud)
        elif fmt == "csv":
            write_scan_csv(directory / name, cloud)
        else:
            raise PipelineError(f"unknown scan format '{fmt}'")


def load_scans_dir(directory) -> list[PointCloud]:
    """All scan files in a directory, lexicographic order, one per frame."""
    directory = Path(directory)
    files = sorted(p for p in directory.iterdir()
                   if p.suffix in (".bin", ".csv"))
    if not files:
        raise PipelineError(f"no .bin or .csv scans in {directory}")
    clouds = []
    for k, p in enumerate(files):
        reader = read_scan_bin if p.suffix == ".bin" else read_scan_csv
        clouds.append(reader(p, frame_id=k))
    return clouds


def save_trajectory(path, poses: Sequence[Pose], scan_rate: float = 10.0) -> None:
    """One line per frame: timestamp tx ty tz qx qy qz qw (w last)."""
    with open(path, "w") as f:
        for k, pose in enumerate(poses):
            q = Rotation.from_matrix(pose.R).as_quat()
            vals = [k / scan_rate, *pose.t, *q]
            f.write(" ".join(repr(float(v)) for v in vals) + "\n")


def load_trajectory(path) -> tuple[list[float], list[Pose]]:
    stamps, poses = [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            vals = [float(v) for v in parts]
            if len(vals) != 8:
                raise PipelineError(f"trajectory line has {len(vals)} fields, want 8")
            stamps.append(vals[0])
            poses.append(Pose(Rotation.from_quat(vals[4:8]).as_matrix(),
                              np.asarray(vals[1:4])))
    return stamps, poses


def trajectory_points_csv(path, poses: Sequence[Pose]) -> None:
    with open(path, "w") as f:
        f.write("frame,x,y,z\n")
        for k, pose in enumerate(poses):
            t = [float(v) for v in pose.t]
            f.write(f"{k},{t[0]!r},{t[1]!r},{t[2]!r}\n")


def map_corners_csv(path, plane_map: PlaneMap) -> None:
    with open(path, "w") as f:
        f.write("plane,corner,x,y,z\n")
        for i, corners in enumerate(plane_map.planes.corners.tolist()):
            for c, (x, y, z) in enumerate(corners):
                f.write(f"{i},{c},{x!r},{y!r},{z!r}\n")


def rrt_edges_csv(path, tree) -> None:
    with open(path, "w") as f:
        f.write("x0,y0,z0,x1,y1,z1,length\n")
        for i, p in enumerate(tree.parents):
            if p < 0:
                continue
            a, b = tree.nodes[p], tree.nodes[i]
            length = float(np.linalg.norm(b - a))
            f.write(",".join(repr(float(v)) for v in (*a, *b)) +
                    f",{length!r}\n")

"""Workload inputs and phases: simulate, run SLAM, plan in the map.

Every workload has the same two phases, so that each reports every
end-to-end metric: a SLAM phase (the program's ``run_slam`` over a simulated
scan sequence) and a planning phase (the program's ``segment_collides`` on
random segments and ``rrt_build`` from a fixed start, in a plane map). The
workloads differ in the scan sequence and in the map the planning phase
uses; see README.md for why each was chosen.

The ``--seed`` the benchmark is given draws the planning inputs: the floor
of boxes, the query segments and the RRT seeds. The scan sequences are fixed
(see ``SCAN_SEED``). The program receives only the generated scans,
the initial pose, a configuration and, for planning, the plane map and the
queries.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field

import numpy as np

from manhattan_slam import mapping, planning
from manhattan_slam.geometry import PlaneSet
from manhattan_slam.pipeline import PipelineConfig, run_slam
from manhattan_slam.simulator import (
    Box,
    BoxScene,
    run_trajectory,
    standard_lidar_config,
    standard_scene,
)

import checks

# Acceptance criterion 6's loop-closure experiment.
LOOP_SETTINGS = {
    "loop_radius": 7.0,
    "loop_min_separation": 20,
    "loop_cooldown_frames": 3,
    "odometry_noise_sigma_t": 0.06,
    "odometry_noise_sigma_r_deg": 0.2,
    "odometry_noise_seed": 11,
}

# Final-pose error of the loop workload's sequence with loop closure off.
# The sequence does not depend on the seed; recompute with
# ``PYTHONPATH=src python scripts/loop_closure_benefit.py``.
LOOP_ODOMETRY_ONLY_ENDPOINT_M = 1.239


# The scan sequences are the acceptance suite's (noise seed 0) on every
# --seed: other noise seeds can make the blocks run diverge (see CHANGES.md),
# which would make a run fail on some seeds only.
SCAN_SEED = 0

RRT_STEP_M = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str                      # built-in scene of the SLAM phase
    n_frames: int
    points_per_scan: int            # rays per scan (about 2/3 return)
    range_noise_sigma: float        # m
    pipeline: dict = field(default_factory=dict)   # PipelineConfig overrides
    # accuracy bounds against ground truth; None skips the check
    max_rmse_path_fraction: float | None = 0.02
    max_rotation_deg: float | None = 1.0
    max_map_fraction: float | None = None   # of the decimated cloud's bytes
    max_endpoint_m: float | None = None
    # largest angle by which two map-plane normals may miss parallel or
    # perpendicular (the Manhattan property of the map)
    manhattan_tol_deg: float = 1.0
    # planning phase
    floor_map: bool = False         # plan in a generated floor, not the SLAM map
    queries_per_round: int = 2000
    rrt_nodes: int = 1000
    min_rounds: int = 9


WORKLOADS = {
    # The paper's runtime scene with range noise: per-frame extraction and
    # merging dominate. Planning runs in the generated 246-plane floor map.
    "blocks": Workload(
        "blocks", "blocks", 111, 10000, 0.02, max_map_fraction=0.01, floor_map=True),
    # Criterion 6's loop-closure run: three closures, each an optimize and a
    # full map regenerate. Planning runs in its own 33-plane SLAM map.
    "loop": Workload(
        "loop", "loop", 121, 10000, 0.0, pipeline=LOOP_SETTINGS,
        max_rmse_path_fraction=None, max_rotation_deg=None,
        max_endpoint_m=0.5 * LOOP_ODOMETRY_ONLY_ENDPOINT_M,
        # the injected rotation noise leaves the map 3.3 deg off Manhattan
        # (see CHANGES.md); the check catches a map that gets worse
        manhattan_tol_deg=5.0),
}

# Untraced runs repeat the frames up to the last loop closure this often.
REPEAT_PASSES = 1


# ---------------------------------------------------------------------------
# inputs

@dataclass
class Inputs:
    gt_t: np.ndarray            # (n, 3) ground-truth positions
    gt_R: np.ndarray            # (n, 3, 3) ground-truth attitudes
    initial_pose: object
    scans: list
    config: PipelineConfig
    floor: tuple | None = None  # (PlaneMap, Bounds, start) of the generated floor


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Simulate the scan sequence and, for the planning map, the floor."""
    scene, spec = standard_scene(wl.scene)
    lidar = standard_lidar_config(wl.scene, points_per_scan=wl.points_per_scan,
                                  range_noise_sigma=wl.range_noise_sigma)
    frames = run_trajectory(scene, spec, lidar, seed=SCAN_SEED,
                            n_frames=wl.n_frames)
    config = PipelineConfig()
    for key, value in wl.pipeline.items():
        setattr(config, key, value)
    inputs = Inputs(np.array([p.t for p, _ in frames]),
                    np.array([p.R for p, _ in frames]),
                    frames[0][0], [c for _, c in frames], config)
    if wl.floor_map:
        inputs.floor = make_floor_map(seed)
    return inputs


FLOOR_CELLS = 7          # boxes per side
FLOOR_CELL_M = 6.0


def floor_boxes(seed: int) -> list[Box]:
    """One box per cell of a square grid, at least 1.5 m from its
    neighbours, so no two box faces touch or fuse."""
    rng = np.random.default_rng([seed, 1])
    boxes = []
    for i in range(FLOOR_CELLS):
        for j in range(FLOOR_CELLS):
            size = rng.uniform([2.0, 2.0, 1.0], [4.5, 4.5, 5.0])
            slack = FLOOR_CELL_M - 1.5 - size[:2]
            lo_xy = np.array([i, j]) * FLOOR_CELL_M + 0.75 + rng.uniform(0, 1, 2) * slack
            boxes.append(Box((float(lo_xy[0]), float(lo_xy[1]), 0.0),
                             (float(lo_xy[0] + size[0]), float(lo_xy[1] + size[1]),
                              float(size[2]))))
    return boxes


def make_floor_map(seed: int):
    """The floor's ground-truth faces merged into a map by the program's
    mapping; box bottoms lie on the ground and are left out."""
    side = FLOOR_CELLS * FLOOR_CELL_M
    scene = BoxScene(floor_boxes(seed), (-2.0, -2.0), (side + 2.0, side + 2.0))
    faces = [f for f in scene.face_planes if not (f.center[2] == 0.0 and f.normal[2] < 0)]
    plane_map = mapping.update_map(mapping.PlaneMap(), PlaneSet(faces), 0)
    bounds = planning.Bounds(np.array([0.0, 0.0, 0.2]), np.array([side, side, 5.5]))
    # a grid corner lies in the 1.5 m corridors between cells
    start = np.array([3 * FLOOR_CELL_M, 3 * FLOOR_CELL_M, 1.0])
    return plane_map, bounds, start


# ---------------------------------------------------------------------------
# SLAM phase

@dataclass
class SlamOutcome:
    result: object              # the first pass's SlamResult
    frame_ms: np.ndarray        # per frame, its fastest pass
    frames_run: int             # over all passes
    frames_failed: int
    closure_frames: list[int]
    ate_m: float
    rotation_deg: float
    path_m: float
    map_bytes: int
    cloud_bytes: int
    manhattan_deg: float
    problems: list[str]


def slam_pass(inputs: Inputs, n_frames: int):
    gc.collect()
    return run_slam(inputs.scans[:n_frames], inputs.config,
                    initial_pose=inputs.initial_pose)


def closure_frames(result) -> list[int]:
    return sorted({e.to_id for e in result.graph.edges if e.kind == "loop_closure"})


def slam_outcome(wl: Workload, inputs: Inputs, results: list) -> SlamOutcome:
    """Frame times and checks over a full pass and optional repeat passes.

    A repeat pass runs a prefix of the scans; run_slam is causal, so its
    frames repeat the full pass's work exactly. A frame's time is its
    fastest pass: other tenants of a shared host slow a run in bursts of a
    second or two, which land on different frames in each pass. Every pass
    must fail the same frames.
    """
    result = results[0]
    frame_ms = np.array(result.report.stage_ms["total"], float)
    est_t = np.array([p.t for p in result.trajectory])
    repeats_agree = True
    for r in results[1:]:
        n = len(r.trajectory)
        frame_ms[:n] = np.minimum(frame_ms[:n], r.report.stage_ms["total"])
        repeats_agree &= r.report.failed_frames == \
            [k for k in result.report.failed_frames if k < n]
    closures = closure_frames(result)
    est_R = np.array([p.R for p in result.trajectory])
    ate, rot = checks.trajectory_errors(est_t, est_R, inputs.gt_t, inputs.gt_R)
    path = float(np.sum(np.linalg.norm(np.diff(inputs.gt_t, axis=0), axis=1)))
    map_bytes = len(mapping.map_to_json(result.plane_map).encode())
    # superimposed cloud of every 10th scan: 16-byte header, 3 float32 a point
    cloud_bytes = 16 + 12 * sum(len(c) for c in inputs.scans[::10])
    _, span_x, span_y = checks.plane_arrays(result.plane_map.planes)
    manhattan = checks.manhattan_violation_deg(np.cross(span_x, span_y))

    problems = []
    if not repeats_agree:
        problems.append("a repeat pass over the same scans failed other frames")
    if len(frame_ms) != len(inputs.scans):
        problems.append(f"{len(frame_ms)} frame times for {len(inputs.scans)} scans")
    if not closures:
        problems.append("no loop closure accepted")
    if wl.max_rmse_path_fraction is not None \
            and ate > wl.max_rmse_path_fraction * path:
        problems.append(f"ATE {ate:.3f} m over {wl.max_rmse_path_fraction:.0%} "
                        f"of the {path:.1f} m path")
    if wl.max_rotation_deg is not None and rot > wl.max_rotation_deg:
        problems.append(f"mean rotation error {rot:.2f} deg over "
                        f"{wl.max_rotation_deg} deg")
    if wl.max_map_fraction is not None and map_bytes > wl.max_map_fraction * cloud_bytes:
        problems.append(f"map {map_bytes} B over {wl.max_map_fraction:.0%} of the "
                        f"{cloud_bytes} B cloud")
    if manhattan > wl.manhattan_tol_deg:
        problems.append(f"map normals miss Manhattan by {manhattan:.2f} deg")
    if not all(checks.non_increasing(h) for h in result.report.chi2_histories):
        problems.append("a chi2 history increases")
    if wl.max_endpoint_m is not None:
        endpoint = float(np.linalg.norm(est_t[-1] - inputs.gt_t[-1]))
        if endpoint > wl.max_endpoint_m:
            problems.append(f"final pose error {endpoint:.3f} m over "
                            f"{wl.max_endpoint_m:.3f} m")
    return SlamOutcome(result, frame_ms,
                       sum(len(r.trajectory) for r in results),
                       sum(len(r.report.failed_frames) for r in results),
                       closures, ate, rot, path, map_bytes, cloud_bytes, manhattan,
                       problems)


# ---------------------------------------------------------------------------
# planning phase

@dataclass
class PlanningOutcome:
    map_planes: int = 0
    rounds: int = 0
    queries: int = 0
    # per planning block (the rounds after one SLAM pass), per round
    query_rates: list = field(default_factory=list)   # checks/s
    rrt_s: list = field(default_factory=list)         # s
    nodes_requested: int = 0
    nodes_grown: int = 0
    excluded_queries: int = 0
    excluded_edges: int = 0
    problems: list = field(default_factory=list)


def slam_map_region(inputs: Inputs):
    """Sampling bounds around the driven circuit, and its first position."""
    lo = inputs.gt_t.min(axis=0) - 6.0
    hi = inputs.gt_t.max(axis=0) + 6.0
    lo[2], hi[2] = 0.2, 4.0
    return planning.Bounds(lo, hi), inputs.gt_t[0].copy()


def random_segments(rng, bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.uniform(bounds.lo, bounds.hi, (n, 3))
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return a, a + d * rng.uniform(0.5, 4.0, (n, 1))


def planning_round(wl: Workload, out: PlanningOutcome, plane_map, bounds, start,
                   seed: int) -> None:
    """One batch of collision queries and one RRT, both checked exactly."""
    k = out.rounds
    out.rounds += 1
    out.map_planes = len(plane_map.planes)
    rects = checks.plane_arrays(plane_map.planes)
    a, b = random_segments(np.random.default_rng([seed, 2, k]), bounds,
                           wl.queries_per_round)
    expected = checks.segment_verdicts(a, b, *rects)
    keep = expected != checks.GRAZE
    out.excluded_queries += int(np.sum(~keep))
    segments = [planning.Segment(p, q) for p, q in zip(a[keep], b[keep])]

    collides = planning.segment_collides
    t0 = time.perf_counter()
    answers = [collides(s, plane_map) for s in segments]
    out.query_rates[-1].append(len(segments) / (time.perf_counter() - t0))
    out.queries += len(segments)
    wrong = int(np.sum(np.array(answers) != (expected[keep] == checks.HIT)))
    if wrong:
        out.problems.append(f"round {k}: {wrong} collision answers differ "
                            f"from the exact test")

    t0 = time.perf_counter()
    tree = planning.rrt_build(plane_map, start, bounds, wl.rrt_nodes, RRT_STEP_M,
                              seed=seed * 1000 + k)
    out.rrt_s[-1].append(time.perf_counter() - t0)
    out.nodes_requested += wl.rrt_nodes - 1
    out.nodes_grown += len(tree.nodes) - 1
    if not tree.complete:
        out.problems.append(f"round {k}: RRT incomplete ({len(tree.nodes)} of "
                            f"{wl.rrt_nodes} nodes)")
    child = np.flatnonzero(tree.parents >= 0)
    verdict = checks.segment_verdicts(tree.nodes[tree.parents[child]],
                                      tree.nodes[child], *rects)
    out.excluded_edges += int(np.sum(verdict == checks.GRAZE))
    crossing = int(np.sum(verdict == checks.HIT))
    if crossing:
        out.problems.append(f"round {k}: {crossing} RRT edges cross a plane")


# ---------------------------------------------------------------------------
# a whole workload

def run_workload(wl: Workload, inputs: Inputs, seed: int, seconds: float,
                 repeats: int, rounds: int | None = None, span=None):
    """A full SLAM pass, then ``repeats`` passes over the frames up to the
    last loop closure, each pass followed by a block of planning rounds, so
    that both phases sample the run at separate times.

    Without ``rounds``, the last block continues until ``seconds`` have
    passed since the start, and the run makes at least ``min_rounds``.
    ``span(name)`` gives a context manager around each phase (for tracing).
    """
    span = span or (lambda name: contextlib.nullcontext())
    deadline = time.perf_counter() + seconds
    total = wl.min_rounds if rounds is None else rounds
    plan = PlanningOutcome()
    results = []
    for p in range(repeats + 1):
        with span("slam"):
            n = len(inputs.scans) if p == 0 else \
                max(closure_frames(results[0]), default=len(inputs.scans) - 1) + 1
            results.append(slam_pass(inputs, n))
        target = inputs.floor or (results[0].plane_map, *slam_map_region(inputs))
        plan.query_rates.append([])
        plan.rrt_s.append([])
        last = p == repeats
        with span("planning"):
            while plan.rounds < -(-total * (p + 1) // (repeats + 1)) or (
                    last and rounds is None and time.perf_counter() < deadline):
                planning_round(wl, plan, *target, seed)
    return slam_outcome(wl, inputs, results), plan

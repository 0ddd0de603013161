"""Fast tests of the benchmark: its exact collision test, its other checks,
and a few-frame run of each workload, traced and untraced.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from manhattan_slam import planning  # noqa: E402
from manhattan_slam.geometry import Plane, PlaneSet  # noqa: E402
from manhattan_slam.mapping import PlaneMap  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the unit square in the z = 0 plane, and the same square tilted about x
SQUARE = (np.zeros((1, 3)), np.array([[1.0, 0, 0]]), np.array([[0, 1.0, 0]]))
c, s = np.cos(0.3), np.sin(0.3)
TILTED = (np.array([[0.0, 0, 2.0]]), np.array([[2.0, 0, 0]]), np.array([[0, c, s]]))


@pytest.mark.parametrize("a, b, expected", [
    ((0.1, 0.2, 1.0), (0.1, 0.2, -1.0), checks.HIT),       # straight through
    ((0.1, 0.2, 1.0), (-0.3, 0.4, -0.5), checks.HIT),      # slanted through
    ((0.7, 0.0, 1.0), (0.7, 0.0, -1.0), checks.MISS),      # beside the square
    ((0.1, 0.2, 1.0), (0.1, 0.2, 0.5), checks.MISS),       # stops above it
    ((0.1, 0.2, 1.0), (0.1, 0.2, 2.0), checks.MISS),       # points away
    ((2.0, 0.0, 1.0), (-2.0, 0.0, -1.0), checks.HIT),      # long, crosses at 0
    ((0.5, 0.0, 1.0), (0.5, 0.0, -1.0), checks.GRAZE),     # crosses the edge
    ((0.5, 0.5, 1.0), (0.5, 0.5, -1.0), checks.GRAZE),     # crosses a corner
    ((0.1, 0.2, 0.0), (0.1, 0.2, 1.0), checks.GRAZE),      # starts on it
    ((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), checks.GRAZE),     # lies in its plane
    ((0.0, 0.0, 1e-3), (0.3, 0.0, 1e-3), checks.MISS),     # parallel, above
])
def test_exact_test_on_the_unit_square(a, b, expected):
    got = checks.segment_rect_classes(np.array([a]), np.array([b]), *SQUARE)
    assert got.tolist() == [[expected]]


def test_exact_test_on_a_tilted_rectangle():
    # spans 2 m along x and 1 m along (0, cos, sin), centered at z = 2
    a = np.array([[0.9, 0.0, 3.0], [1.1, 0.0, 3.0], [0.0, 0.4, 4.0], [0.0, 0.6, 4.0]])
    b = a - np.array([0.0, 0.0, 2.0])
    got = checks.segment_rect_classes(a, b, *TILTED)[:, 0]
    # the plane through (0, 0, 2) with normal (0, -s, c) meets x = 0, y = 0.4
    # at |t| = 0.4 / c < 0.5, and y = 0.6 at |t| > 0.5
    assert got.tolist() == [checks.HIT, checks.MISS, checks.HIT, checks.MISS]


def test_verdicts_agree_with_the_program_on_random_segments():
    rng = np.random.default_rng(4)
    planes = PlaneSet([Plane(rng.uniform(-2, 2, 3),
                             *(np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
                               * rng.uniform(0.5, 3, 2)).T)
                       for _ in range(12)])
    plane_map = PlaneMap(planes)
    rects = checks.plane_arrays(planes)
    a = rng.uniform(-3, 3, (400, 3))
    b = a + rng.normal(size=(400, 3))
    verdict = checks.segment_verdicts(a, b, *rects)
    assert np.sum(verdict == checks.HIT) > 20 and np.sum(verdict == checks.MISS) > 20
    answers = [planning.segment_collides(planning.Segment(p, q), plane_map)
               for p, q, v in zip(a, b, verdict) if v != checks.GRAZE]
    assert answers == [bool(v == checks.HIT) for v in verdict if v != checks.GRAZE]


def test_manhattan_violation():
    axes = np.eye(3)
    assert checks.manhattan_violation_deg(np.vstack([axes, -axes])) == pytest.approx(0, abs=1e-6)
    t = np.radians(2.0)
    tilted = np.array([[np.cos(t), np.sin(t), 0.0]])
    assert checks.manhattan_violation_deg(np.vstack([axes, tilted])) == pytest.approx(2.0)


def test_trajectory_errors():
    R = np.repeat(np.eye(3)[None], 4, axis=0)
    t = np.zeros((4, 3))
    shifted = t + np.array([0.3, 0.4, 0.0])
    yaw = np.radians(3.0)
    Rz = np.array([[np.cos(yaw), -np.sin(yaw), 0], [np.sin(yaw), np.cos(yaw), 0], [0, 0, 1]])
    rmse, rot = checks.trajectory_errors(shifted, np.repeat(Rz[None], 4, axis=0), t, R)
    assert rmse == pytest.approx(0.5) and rot == pytest.approx(3.0)
    assert checks.non_increasing([3.0, 2.0, 2.0]) and not checks.non_increasing([2.0, 2.5])


def small(name: str):
    """The first frames of a workload at lower scan density, with small
    planning rounds. Eight frames hold one decimated scan, so the map-size
    bound, which is about whole runs, is left out."""
    wl = dataclasses.replace(workloads.WORKLOADS[name], points_per_scan=4000,
                             queries_per_round=150, rrt_nodes=60, min_rounds=2,
                             max_map_fraction=None)
    inputs = workloads.make_inputs(wl, seed=3)
    return wl, dataclasses.replace(inputs, scans=inputs.scans[:8],
                                   gt_t=inputs.gt_t[:8], gt_R=inputs.gt_R[:8])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_few_frame_run_passes_its_checks(name):
    wl, inputs = small(name)
    slam, plan = workloads.run_workload(wl, inputs, seed=3, seconds=0.0, repeats=1)
    # eight frames never reach a loop closure; every other check holds
    assert slam.problems == ["no loop closure accepted"]
    assert plan.problems == [] and plan.rounds == 2 and plan.queries > 250
    assert slam.frames_run == 16 and slam.frames_failed == 0
    metrics = run.end_to_end(1.0, slam, plan)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert metrics["closure_frame_ms"]["value"] is None
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metrics[k]["unit"] == units[k] for k in metrics)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_the_program_stage_times(name):
    wl, inputs = small(name)
    tracer = Tracer()
    layers.install(tracer)
    try:
        slam, plan = workloads.run_workload(wl, inputs, seed=3, seconds=0.0, repeats=0,
                                            rounds=1, span=tracer.root)
    finally:
        tracer.uninstall()
    stage_ms = slam.result.report.stage_ms
    (root,) = layers.root_indices(tracer, "slam")
    frames = layers.frame_spans(tracer.spans, root)
    assert len(frames) == 8
    assert layers.stage_disagreements(frames, stage_ms) == []
    # a frame whose layer call went unseen is reported
    assert layers.stage_disagreements(
        [[s for s in f if s.name != "extraction.call"] or f for f in frames],
        stage_ms) != []
    metrics = layers.layer_metrics(tracer, stage_ms, len(slam.result.plane_map),
                                   plan.map_planes)
    names = {m["name"] for m in BENCHMARK["per_layer"]} - {"trace.overhead_pct"}
    assert set(metrics) == names
    assert metrics["extraction.points_per_scan"][0] > 1000
    assert metrics["planning.rrt_samples"][0] >= 59


def test_tracer_restores_the_program():
    original = planning.segment_collides
    tracer = Tracer()
    layers.install(tracer)
    assert planning.segment_collides is not original
    tracer.uninstall()
    assert planning.segment_collides is original

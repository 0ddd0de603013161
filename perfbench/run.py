#!/usr/bin/env python3
"""Benchmark of the manhattan-slam program: one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload blocks --seed 1 --seconds 20 --trace 0

Simulates the workload's inputs from the seed, runs SLAM over the scan
sequence and then plans in a plane map, checks the outputs against ground
truth and against tests written here, and prints one JSON object as the
last line of standard output. With ``--trace 0`` it holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a pass with
every layer wrapped, and the tracing overhead against an untraced pass.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

try:
    import numpy as np

    import layers
    import workloads
    from tracing import Tracer
except ImportError as exc:      # the program's sources are not in this checkout
    sys.exit(f"cannot import the program or the benchmark under {ROOT}: {exc}")


def process_age_s() -> float:
    """Seconds since this process started (kernel clock-tick resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time; whole planning rounds run until it passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, slam, plan) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
        # frames over the sequence's duration with each frame at its fastest
        "frames_per_s": metric(1e3 * len(slam.frame_ms) / float(np.sum(slam.frame_ms)),
                               "frames/s"),
        "frame_ms_p50": metric(float(np.median(slam.frame_ms)), "ms"),
        "frame_ms_p90": metric(float(np.percentile(slam.frame_ms, 90)), "ms"),
        "closure_frame_ms": metric(
            float(np.median(slam.frame_ms[slam.closure_frames]))
            if slam.closure_frames else None, "ms"),
        "ate_rmse_m": metric(slam.ate_m, "m"),
        "map_bytes": metric(slam.map_bytes, "B"),
        # the faster planning block, as each frame counts its faster pass
        "collision_checks_per_s": metric(
            max(float(np.median(b)) for b in plan.query_rates), "checks/s"),
        "rrt_build_s": metric(min(float(np.median(b)) for b in plan.rrt_s), "s"),
    }


def traced_run(wl, inputs, seed: int, setup_tracer: Tracer):
    """A warm-up SLAM pass, then a traced pass with the planning rounds,
    then an untraced SLAM pass. The first pass in a process runs a few
    percent slower throughout, so the tracing overhead compares the traced
    pass with the untraced one after it: the median over frames of the
    traced frame time over the untraced one. Writes the traced spans to
    perfbench/out/."""
    setup_tracer.uninstall()
    warm, _ = workloads.run_workload(wl, inputs, seed, 0.0, repeats=0, rounds=0)

    tracer = Tracer()
    tracer.spans.extend(setup_tracer.spans)
    layers.install(tracer)
    try:
        slam, plan = workloads.run_workload(wl, inputs, seed, 0.0, repeats=0,
                                            rounds=wl.min_rounds, span=tracer.root)
    finally:
        tracer.uninstall()
    untraced, _ = workloads.run_workload(wl, inputs, seed, 0.0, repeats=0, rounds=0)

    stage_ms = slam.result.report.stage_ms
    metrics = {name: metric(v, u) for name, (v, u) in layers.layer_metrics(
        tracer, stage_ms, len(slam.result.plane_map), plan.map_planes).items()}
    metrics["trace.overhead_pct"] = metric(
        100.0 * (float(np.median(slam.frame_ms / untraced.frame_ms)) - 1.0), "%")
    (slam_root,) = layers.root_indices(tracer, "slam")
    problems = (warm.problems + slam.problems + plan.problems + untraced.problems
                + layers.stage_disagreements(layers.frame_spans(tracer.spans, slam_root),
                                             stage_ms))
    layers.dump_spans(tracer, ROOT / "perfbench" / "out" / f"trace-{wl.name}-{seed}.json")
    return slam, plan, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)      # times the scan simulation in set-up
    inputs = workloads.make_inputs(wl, args.seed)
    setup_s = process_age_s()

    if args.trace:
        slam, plan, metrics, problems = traced_run(wl, inputs, args.seed, tracer)
    else:
        slam, plan = workloads.run_workload(wl, inputs, args.seed, args.seconds,
                                            repeats=workloads.REPEAT_PASSES)
        metrics = end_to_end(setup_s, slam, plan)
        problems = slam.problems + plan.problems

    attempted = slam.frames_run + plan.queries + plan.nodes_requested
    failed = slam.frames_failed + (plan.nodes_requested - plan.nodes_grown)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"# {wl.name} seed {args.seed}: {slam.frames_run} frames "
          f"({slam.frames_failed} failed), closures at {slam.closure_frames}, "
          f"ATE {slam.ate_m:.3f} m over {slam.path_m:.1f} m, rotation "
          f"{slam.rotation_deg:.2f} deg, Manhattan {slam.manhattan_deg:.3f} deg, "
          f"map {slam.map_bytes} B / cloud {slam.cloud_bytes} B; "
          f"{plan.queries} queries ({plan.excluded_queries} grazing excluded), "
          f"{plan.rounds} RRTs ({plan.excluded_edges} grazing edges not checked) "
          f"in a {plan.map_planes}-plane map")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

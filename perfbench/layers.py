"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from manhattan_slam import extraction, mapping, pipeline, planning, simulator
from manhattan_slam.pose_graph import PoseGraph

from tracing import Span, Tracer

EXTRACTION_SUBSTAGES = {
    "triangulate": "triangulate",
    "prune": "prune_mesh",
    "smooth": "smooth_laplacian",
    "normals": "compute_normals",
    "cluster": "cluster_mesh",
    "basis": "find_extraction_basis",
    "fit": "extract_planes",
}

# Layer calls that make up a frame; the rest of a frame is pipeline self time.
FRAME_LAYERS = ("extraction.call", "registration.call", "pose_graph.candidates",
                "pose_graph.close_loop", "pose_graph.optimize", "mapping.update",
                "mapping.regenerate")

# RunReport stage -> the layer spans that stage times, frame by frame.
STAGE_LAYERS = {
    "extraction": ("extraction.call",),
    "registration": ("registration.call",),
    "merging": ("mapping.update", "mapping.regenerate"),
}


def install(tracer: Tracer) -> None:
    """Wrap each layer where its caller looks it up."""
    tracer.wrap(simulator, "raycast_scan", "simulator.raycast")
    tracer.wrap(pipeline, "extract_detailed", "extraction.call",
                lambda a, r: (len(a[0]), r.n_triangles, r.n_clusters,
                              len(r.plane_set), r.used_fallback_basis))
    for short, attr in EXTRACTION_SUBSTAGES.items():
        tracer.wrap(extraction, attr, f"extraction.{short}")
    tracer.wrap(pipeline, "register", "registration.call",
                lambda a, r: (len(r.excluded), r.rotation_iterations))
    tracer.wrap(PoseGraph, "find_loop_candidates", "pose_graph.candidates")
    tracer.wrap(PoseGraph, "close_loop", "pose_graph.close_loop",
                lambda a, r: r is not None)
    tracer.wrap(PoseGraph, "optimize", "pose_graph.optimize",
                lambda a, r: (r.iterations, len(a[0].edges)))
    # the pipeline's incremental updates, and the replays inside regenerate
    tracer.wrap(pipeline, "update_map", "mapping.update", lambda a, r: len(r))
    tracer.wrap(mapping, "update_map", "mapping.update", lambda a, r: len(r))
    tracer.wrap(mapping, "merge_plane_sets", "mapping.merge")
    tracer.wrap(mapping, "cleanup_map", "mapping.cleanup")
    tracer.wrap(pipeline, "regenerate", "mapping.regenerate", lambda a, r: len(r))
    tracer.wrap(planning, "segment_collides", "planning.collides")
    tracer.wrap(planning, "rrt_build", "planning.rrt", lambda a, r: len(r.nodes))
    tracer.wrap(planning, "_collides_batch", "planning.check", lambda a, r: r)


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def within(spans: list[Span], roots: list[Span]) -> list[tuple[int, Span]]:
    """(index, span) of every span inside one of the roots."""
    return [(i, s) for i, s in enumerate(spans) if s is not None
            and any(r.start <= s.start and s.end <= r.end for r in roots)]


def frame_spans(spans: list[Span], slam_root: int) -> list[list[Span]]:
    """Top-level layer spans of a run_slam call, split into frames.

    Every frame starts with its extraction call, so each extraction span
    opens the next frame.
    """
    frames: list[list[Span]] = []
    for s in spans:
        if s is None or s.parent != slam_root:
            continue
        if s.name == "extraction.call":
            frames.append([])
        if frames:
            frames[-1].append(s)
    return frames


def stage_disagreements(frames: list[list[Span]], stage_ms: dict) -> list[str]:
    """Compare each frame's layer spans with the program's own stage times.

    The two are separate clocks around the same call: a span must fit inside
    its stage's interval, and the stage may exceed the span only by the
    little work the pipeline does around the call. A frame whose stage ran
    without a span means the pipeline no longer calls the layer through the
    wrapped name.
    """
    problems = []
    if len(frames) != len(stage_ms["total"]):
        return [f"{len(frames)} traced frames, {len(stage_ms['total'])} in the report"]
    for stage, names in STAGE_LAYERS.items():
        for k, frame in enumerate(frames):
            span_ms = sum(s.ms for s in frame if s.name in names)
            reported = float(stage_ms[stage][k])
            ran = any(s.name in names for s in frame)
            if not ran and reported > 0.05:
                problems.append(f"frame {k}: {stage} took {reported:.2f} ms "
                                f"with no {'/'.join(names)} span")
            elif ran and not (span_ms <= reported + 0.05
                              and reported - span_ms <= 5.0 + 0.25 * reported):
                problems.append(f"frame {k}: {stage} {reported:.2f} ms in the "
                                f"report vs {span_ms:.2f} ms traced")
    return problems


def root_indices(tracer: Tracer, name: str) -> list[int]:
    """Top-level benchmark spans of that name, in order."""
    return [i for i, s in enumerate(tracer.spans)
            if s is not None and s.parent == -1 and s.name == name]


def layer_metrics(tracer: Tracer, stage_ms: dict, map_planes: int,
                  planning_planes: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    spans = tracer.spans
    (slam_root,) = root_indices(tracer, "slam")
    slam_pairs = within(spans, [spans[slam_root]])
    plan_pairs = within(spans, [spans[i] for i in root_indices(tracer, "planning")])
    slam = [s for _, s in slam_pairs]
    plan = [s for _, s in plan_pairs]

    def ms(name, pool=slam):
        return [s.ms for s in pool if s is not None and s.name == name]

    out = {"simulator.raycast_ms_p50": (_p50(ms("simulator.raycast", spans)), "ms")}

    ext = [s for s in slam if s.name == "extraction.call"]
    ext_info = [s.info for s in ext if s.info is not None]
    out["extraction.call_ms_p50"] = (_p50([s.ms for s in ext]), "ms")
    for short in EXTRACTION_SUBSTAGES:
        out[f"extraction.{short}_ms_p50"] = (_p50(ms(f"extraction.{short}")), "ms")
    clusters = sum(i[2] for i in ext_info)
    planes = sum(i[3] for i in ext_info)
    out["extraction.points_per_scan"] = (_mean([i[0] for i in ext_info]), "count")
    out["extraction.triangles_per_frame"] = (_mean([i[1] for i in ext_info]), "count")
    out["extraction.clusters_per_frame"] = (_mean([i[2] for i in ext_info]), "count")
    out["extraction.planes_per_frame"] = (_mean([i[3] for i in ext_info]), "count")
    out["extraction.fallback_basis_frames"] = (sum(bool(i[4]) for i in ext_info), "count")
    out["extraction.plane_yield"] = (planes / clusters if clusters else 0.0, "ratio")

    reg = [s for s in slam if s.name == "registration.call"]
    reg_info = [s.info for s in reg if s.info is not None]
    out["registration.call_ms_p50"] = (_p50([s.ms for s in reg]), "ms")
    out["registration.excluded_pairs"] = (sum(i[0] for i in reg_info), "count")
    out["registration.rotation_iterations_mean"] = (_mean([i[1] for i in reg_info]),
                                                    "count")

    close = [s for s in slam if s.name == "pose_graph.close_loop"]
    opt = [s for s in slam if s.name == "pose_graph.optimize"]
    out["pose_graph.candidates_ms_p50"] = (_p50(ms("pose_graph.candidates")), "ms")
    out["pose_graph.close_loop_ms_p50"] = (_p50([s.ms for s in close]), "ms")
    out["pose_graph.close_loop_attempts"] = (len(close), "count")
    out["pose_graph.closures_accepted"] = (sum(bool(s.info) for s in close), "count")
    out["pose_graph.optimize_ms"] = (_p50([s.ms for s in opt]), "ms")
    out["pose_graph.optimize_iterations"] = (_mean([s.info[0] for s in opt if s.info]),
                                             "count")
    out["pose_graph.optimize_edges"] = (max((s.info[1] for s in opt if s.info),
                                            default=0), "count")

    regen_ids = {i for i, s in slam_pairs if s.name == "mapping.regenerate"}
    live = {i for i, s in slam_pairs
            if s.name == "mapping.update" and s.parent not in regen_ids}
    out["mapping.update_ms_p50"] = (_p50([spans[i].ms for i in live]), "ms")
    out["mapping.merge_ms_p50"] = (_p50([s.ms for s in slam if s.name == "mapping.merge"
                                         and s.parent in live]), "ms")
    out["mapping.cleanup_ms_p50"] = (_p50([s.ms for s in slam
                                           if s.name == "mapping.cleanup"
                                           and s.parent in live]), "ms")
    out["mapping.regenerate_ms"] = (_p50([spans[i].ms for i in regen_ids]), "ms")
    out["mapping.regenerate_updates"] = (sum(1 for s in slam if s.name == "mapping.update"
                                             and s.parent in regen_ids), "count")
    out["mapping.map_planes"] = (map_planes, "count")

    rrt_ids = {i for i, s in plan_pairs if s.name == "planning.rrt"}
    rrt_checks = [s for s in plan if s.name == "planning.check" and s.parent in rrt_ids]
    rejected = sum(bool(s.info) for s in rrt_checks)
    out["planning.collides_us_p50"] = (1e3 * _p50(ms("planning.collides", plan)), "us")
    out["planning.rrt_samples"] = (len(rrt_checks), "count")
    out["planning.rrt_rejected"] = (rejected, "count")
    out["planning.rrt_accept_ratio"] = (
        (len(rrt_checks) - rejected) / len(rrt_checks) if rrt_checks else 0.0, "ratio")
    out["planning.map_planes"] = (planning_planes, "count")

    frames = frame_spans(spans, slam_root)
    self_ms = [float(total) - sum(s.ms for s in frame if s.name in FRAME_LAYERS)
               for frame, total in zip(frames, stage_ms["total"])]
    out["pipeline.self_ms_p50"] = (_p50(self_ms), "ms")
    return out


# per-query spans are left out of the span file: there are tens of thousands
PER_QUERY = ("planning.collides", "planning.check")


def dump_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans, except the per-query ones, as JSON records."""
    index = {i: k for k, i in enumerate(
        i for i, s in enumerate(tracer.spans)
        if s is not None and s.name not in PER_QUERY)}
    t0 = min(s.start for s in tracer.spans if s is not None)
    records = [{"name": s.name, "start_ms": 1e3 * (s.start - t0), "ms": s.ms,
                "parent": index.get(s.parent, -1),
                "info": s.info if isinstance(s.info, (int, float, bool)) else
                list(s.info) if isinstance(s.info, tuple) else None}
               for i, s in enumerate(tracer.spans) if i in index]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records))

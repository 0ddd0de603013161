"""Pose graph: absolute pose nodes, relative-pose edges, loop closure.

Edges store measurements in the pipeline-wide relative-pose convention (the
exact inverse of :func:`manhattan_slam.geometry.compose`): the rotation part
is a world-frame increment and the translation part is expressed in the
parent body frame. Registration returns a source-to-target rigid transform
whose rotation is a body-frame increment, so
:func:`registration_to_relative` conjugates it with the parent attitude
before it enters the graph.

Optimization is Gauss-Newton on the manifold with node 0 held fixed. Edge
errors are 6-vectors (rotation vector of the rotation discrepancy stacked
with the translation discrepancy); Jacobians are central finite differences
of that error, which keeps them exactly consistent with the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial.transform import Rotation

from .geometry import (
    PlaneSet,
    Pose,
    compose,
    orthonormalize,
    so3_exp,
    so3_log,
)
from .registration import (
    RegistrationError,
    RegistrationParams,
    match_planes,
    register,
)

__all__ = [
    "DEFAULT_INFORMATION",
    "GraphNode",
    "GraphEdge",
    "OptimizeResult",
    "PoseGraph",
    "registration_to_relative",
    "edge_error",
]


def _default_information() -> np.ndarray:
    return np.diag(DEFAULT_INFORMATION_DIAGONAL).copy()


# Plane odometry measures rotation in radians about as well as it measures
# translation in centimeters; an unweighted 6-dof error trades them 1:1 and
# lets optimization smear position error into rotations along the chain.
# Weighting the rotation block by 100 (i.e. 0.01 rad ~ 0.1 m) keeps loop
# corrections in the translations where the drift actually lives.
DEFAULT_INFORMATION_DIAGONAL = (100.0, 100.0, 100.0, 1.0, 1.0, 1.0)
DEFAULT_INFORMATION = np.diag(DEFAULT_INFORMATION_DIAGONAL)


@dataclass
class GraphNode:
    id: int
    pose: Pose
    plane_set: PlaneSet


@dataclass
class GraphEdge:
    from_id: int
    to_id: int
    relative: Pose
    kind: str = "odometry"            # or "loop_closure"
    information: np.ndarray = field(default_factory=_default_information)

    def __post_init__(self):
        if self.from_id == self.to_id:
            raise ValueError("edge endpoints must differ")
        if self.kind == "odometry" and self.to_id != self.from_id + 1:
            raise ValueError("odometry edges must connect consecutive nodes")
        if self.kind == "loop_closure" and abs(self.to_id - self.from_id) <= 1:
            raise ValueError("loop closure edges must connect nonconsecutive nodes")
        info = np.asarray(self.information, float)
        if info.shape != (6, 6) or np.max(np.abs(info - info.T)) > 1e-9:
            raise ValueError("information matrix must be symmetric 6x6")
        self.information = info


@dataclass
class OptimizeResult:
    performed: bool
    final_chi2: float
    chi2_history: list[float]
    iterations: int
    converged: bool
    aborted: bool = False


def registration_to_relative(parent_pose: Pose, rotation: np.ndarray,
                             translation: np.ndarray) -> Pose:
    """Convert a registration result into the graph's relative convention.

    Registration of the child scan against the parent scan yields
    ``p_parent = R @ p_child + t``: a body-frame rotation increment and the
    child position in the parent body frame. The composition rule consumes a
    world-frame rotation increment, so R is conjugated with the parent
    attitude estimate; t passes through unchanged. The conjugation doubles
    the parent's orthonormality drift, which compounds geometrically along
    an odometry chain, so the result is projected back onto the rotation
    group when it drifts.
    """
    R = parent_pose.R @ rotation @ parent_pose.R.T
    if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12:
        R = orthonormalize(R)
    return Pose(R, translation)


def edge_error(measured: Pose, pose_i: Pose, pose_j: Pose) -> np.ndarray:
    """6-vector discrepancy between a measured and predicted relative pose."""
    return _edge_error_raw(measured.R, measured.t,
                           pose_i.R, pose_i.t, pose_j.R, pose_j.t)


def _edge_error_raw(mR, mt, Ri, ti, Rj, tj) -> np.ndarray:
    pred_R = Rj @ Ri.T
    pred_t = Ri.T @ (tj - ti)
    return np.concatenate([so3_log(mR.T @ pred_R), pred_t - mt])


class PoseGraph:
    """Single-writer pose graph; reads are safe between mutations."""

    def __init__(self, initial_pose: Optional[Pose] = None,
                 initial_plane_set: Optional[PlaneSet] = None):
        pose = initial_pose or Pose.identity()
        self.nodes: list[GraphNode] = [GraphNode(0, pose, initial_plane_set or PlaneSet())]
        self.edges: list[GraphEdge] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def pose(self, k: int) -> Pose:
        return self.nodes[k].pose

    def poses(self) -> list[Pose]:
        return [n.pose for n in self.nodes]

    def plane_sets(self) -> list[PlaneSet]:
        return [n.plane_set for n in self.nodes]

    def add_frame(self, plane_set: PlaneSet, relative: Pose,
                  information: Optional[np.ndarray] = None) -> int:
        """Append a node at ``compose(previous, relative)`` plus its edge."""
        k = len(self.nodes)
        pose = compose(self.nodes[-1].pose, relative)
        self.nodes.append(GraphNode(k, pose, plane_set))
        self.edges.append(GraphEdge(k - 1, k, relative, "odometry",
                                    _default_information() if information is None
                                    else information))
        return k

    def find_loop_candidates(self, k: int, radius: float,
                             min_separation: int = 10) -> list[int]:
        """Node ids within ``radius`` of node k, oldest-first by distance.

        Nodes within ``min_separation`` frames of k are never candidates;
        results are sorted by distance (ties by id) so the caller can take
        the nearest.
        """
        t_k = self.nodes[k].pose.t
        scored = []
        for node in self.nodes:
            if abs(k - node.id) <= min_separation:
                continue
            d = float(np.linalg.norm(t_k - node.pose.t))
            if d < radius:
                scored.append((d, node.id))
        return [j for _, j in sorted(scored)]

    def close_loop(self, k: int, j: int,
                   params: Optional[RegistrationParams] = None) -> Optional[GraphEdge]:
        """Try to add a loop closure edge between nodes k and j.

        Correspondences are found between the two plane sets transformed to
        the world frame with the current pose estimates (loop transforms are
        large, so local-frame matching would fail); the registration itself
        then runs on the original local-frame planes with those pairs.
        Returns the new edge, or None when registration fails.
        """
        if k == j:
            raise ValueError("cannot close a loop from a node to itself")
        if abs(k - j) <= 1:
            raise ValueError("loop closure requires nonconsecutive nodes")
        params = params or RegistrationParams()
        source = self.nodes[k].plane_set
        target = self.nodes[j].plane_set
        if len(source) == 0 or len(target) == 0:
            return None
        try:
            corr = match_planes(source.transformed(self.nodes[k].pose),
                                target.transformed(self.nodes[j].pose),
                                params.alpha, params.beta,
                                params.max_correspondence_cost)
            result = register(source, target, params, correspondences=corr)
        except RegistrationError:
            return None
        measured = registration_to_relative(self.nodes[j].pose,
                                            result.rotation, result.translation)
        edge = GraphEdge(j, k, measured, "loop_closure")
        self.edges.append(edge)
        return edge

    def chi2(self) -> float:
        total = 0.0
        for e in self.edges:
            err = edge_error(e.relative, self.nodes[e.from_id].pose,
                             self.nodes[e.to_id].pose)
            total += float(err @ e.information @ err)
        return total

    def has_loop_edges(self) -> bool:
        return any(e.kind == "loop_closure" for e in self.edges)

    def optimize(self, max_iterations: int = 100, tol: float = 1e-9,
                 fd_step: float = 1e-6) -> OptimizeResult:
        """Gauss-Newton over all node poses except node 0 (gauge fixed).

        No-op without a loop closure edge (an odometry chain is already
        consistent). Iterations with increasing chi2 are retried with a
        halved step; the run stops when the chi2 improvement falls below
        ``tol``, and aborts with poses untouched if the system is singular.
        """
        if not self.has_loop_edges():
            return OptimizeResult(False, self.chi2(), [self.chi2()], 0, True)

        n = len(self.nodes)
        Rs = [np.array(node.pose.R) for node in self.nodes]
        ts = [np.array(node.pose.t) for node in self.nodes]
        dim = 6 * (n - 1)

        def slot(node_id: int) -> int:
            return 6 * (node_id - 1)

        def raw_chi2() -> float:
            total = 0.0
            for e in self.edges:
                err = _edge_error_raw(e.relative.R, e.relative.t,
                                      Rs[e.from_id], ts[e.from_id],
                                      Rs[e.to_id], ts[e.to_id])
                total += float(err @ e.information @ err)
            return total

        def perturbed(node_id: int, delta: np.ndarray):
            R = so3_exp(delta[:3]) @ Rs[node_id]
            t = ts[node_id] + delta[3:]
            return R, t

        chi2_history = [raw_chi2()]
        converged = False
        aborted = False
        iterations = 0
        for _ in range(max_iterations):
            iterations += 1
            H = np.zeros((dim, dim))
            g = np.zeros(dim)
            for e in self.edges:
                i, j = e.from_id, e.to_id
                err = _edge_error_raw(e.relative.R, e.relative.t,
                                      Rs[i], ts[i], Rs[j], ts[j])
                blocks = []
                ids = []
                for node_id in (i, j):
                    if node_id == 0:
                        continue
                    J = np.zeros((6, 6))
                    for d in range(6):
                        delta = np.zeros(6)
                        delta[d] = fd_step
                        Rp, tp = perturbed(node_id, delta)
                        Rm, tm = perturbed(node_id, -delta)
                        if node_id == i:
                            ep = _edge_error_raw(e.relative.R, e.relative.t,
                                                 Rp, tp, Rs[j], ts[j])
                            em = _edge_error_raw(e.relative.R, e.relative.t,
                                                 Rm, tm, Rs[j], ts[j])
                        else:
                            ep = _edge_error_raw(e.relative.R, e.relative.t,
                                                 Rs[i], ts[i], Rp, tp)
                            em = _edge_error_raw(e.relative.R, e.relative.t,
                                                 Rs[i], ts[i], Rm, tm)
                        J[:, d] = (ep - em) / (2.0 * fd_step)
                    blocks.append(J)
                    ids.append(node_id)
                for a, Ja in zip(ids, blocks):
                    sa = slot(a)
                    g[sa:sa + 6] += Ja.T @ e.information @ err
                    for b, Jb in zip(ids, blocks):
                        sb = slot(b)
                        H[sa:sa + 6, sb:sb + 6] += Ja.T @ e.information @ Jb
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                aborted = True
                break

            saved = ([R.copy() for R in Rs], [t.copy() for t in ts])
            scale = 1.0
            improved = False
            for _ in range(11):
                for node_id in range(1, n):
                    s = slot(node_id)
                    Rs[node_id], ts[node_id] = perturbed(node_id, scale * step[s:s + 6])
                    if np.max(np.abs(Rs[node_id].T @ Rs[node_id] - np.eye(3))) > 1e-12:
                        Rs[node_id] = orthonormalize(Rs[node_id])
                new_chi2 = raw_chi2()
                if new_chi2 <= chi2_history[-1]:
                    improved = True
                    break
                Rs = [R.copy() for R in saved[0]]
                ts = [t.copy() for t in saved[1]]
                scale *= 0.5
            if not improved:
                converged = True
                break
            chi2_history.append(new_chi2)
            if chi2_history[-2] - chi2_history[-1] < tol:
                converged = True
                break

        if not aborted:
            for node_id in range(1, n):
                self.nodes[node_id].pose = Pose(Rs[node_id], ts[node_id])
        return OptimizeResult(True, self.chi2(), chi2_history, iterations,
                              converged, aborted)

    def dumps(self) -> str:
        """Edge-list text dump: VERTEX/EDGE lines with w-last quaternions."""
        lines = []
        for node in self.nodes:
            q = Rotation.from_matrix(node.pose.R).as_quat()
            t = node.pose.t
            lines.append("VERTEX " + " ".join(
                [str(node.id)] + [repr(float(v)) for v in (*t, *q)]))
        for e in self.edges:
            q = Rotation.from_matrix(e.relative.R).as_quat()
            t = e.relative.t
            lines.append("EDGE " + " ".join(
                [str(e.from_id), str(e.to_id)]
                + [repr(float(v)) for v in (*t, *q)] + [e.kind]))
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.dumps())

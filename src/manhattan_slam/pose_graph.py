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
with the translation discrepancy). Errors and their analytic SE(3)
Jacobians are computed stacked over all edges, and the normal equations are
assembled and factored as a sparse block system (as in g2o, Kuemmerle et
al., ICRA 2011).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu
from scipy.spatial.transform import Rotation

from .geometry import (
    PlaneSet,
    Pose,
    compose,
    orthonormalize,
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


def _edge_errors(mR, mt, Ri, ti, Rj, tj) -> np.ndarray:
    """(m, 6) edge errors ``[log(mR^T Rj Ri^T), Ri^T (tj - ti) - mt]``."""
    RiT = Ri.transpose(0, 2, 1)
    phi = _so3_log_stack(mR.transpose(0, 2, 1) @ Rj @ RiT)
    pred_t = (RiT @ (tj - ti)[..., None])[..., 0]
    return np.concatenate([phi, pred_t - mt], axis=1)


def _chi2(edges, Rs, ts) -> float:
    """Weighted squared error over stacked edges at node poses (Rs, ts)."""
    mR, mt, info, ends = edges
    err = _edge_errors(mR, mt, Rs[ends[:, 0]], ts[ends[:, 0]],
                       Rs[ends[:, 1]], ts[ends[:, 1]])
    return float(np.einsum("ma,mab,mb->m", err, info, err).sum())


def _edge_jacobians(mR, Ri, ti, tj, phi) -> tuple[np.ndarray, np.ndarray]:
    """(m, 6, 6) Jacobians of :func:`_edge_errors` with respect to nodes i
    and j, under the update ``R <- exp(dtheta) R``, ``t <- t + dt`` with the
    node increment ordered ``[dtheta, dt]``; ``phi`` is the rotation error.

    With ``Jl^-1`` the inverse left Jacobian of SO(3) at ``phi``:
    ``de_r/dtheta_j = Jl^-1 mR^T``, ``de_r/dtheta_i = -Jl^-1^T``,
    ``de_t/dtheta_i = Ri^T [tj - ti]x``, ``de_t/dt_i = -Ri^T`` and
    ``de_t/dt_j = Ri^T`` (Sola et al., arXiv:1812.01537).
    """
    m = len(phi)
    RiT = Ri.transpose(0, 2, 1)
    Jl_inv = _so3_left_jacobian_inv_stack(phi)
    Ji = np.zeros((m, 6, 6))
    Jj = np.zeros((m, 6, 6))
    Ji[:, :3, :3] = -Jl_inv.transpose(0, 2, 1)
    Ji[:, 3:, :3] = RiT @ _skew_stack(tj - ti)
    Ji[:, 3:, 3:] = -RiT
    Jj[:, :3, :3] = Jl_inv @ mR.transpose(0, 2, 1)
    Jj[:, 3:, 3:] = RiT
    return Ji, Jj


def _skew_stack(v: np.ndarray) -> np.ndarray:
    """(k, 3, 3) skew-symmetric matrices of (k, 3) vectors."""
    S = np.zeros((len(v), 3, 3))
    S[:, 0, 1], S[:, 0, 2] = -v[:, 2], v[:, 1]
    S[:, 1, 0], S[:, 1, 2] = v[:, 2], -v[:, 0]
    S[:, 2, 0], S[:, 2, 1] = -v[:, 1], v[:, 0]
    return S


def _so3_exp_stack(w: np.ndarray) -> np.ndarray:
    """:func:`so3_exp` of each row of a (k, 3) array, as (k, 3, 3)."""
    angle = np.linalg.norm(w, axis=1)
    small = angle < 1e-10
    safe = np.where(small, 1.0, angle)
    a = np.where(small, 1.0, np.sin(safe) / safe)[:, None, None]
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / safe**2)[:, None, None]
    W = _skew_stack(w)
    return np.eye(3) + a * W + b * (W @ W)


def _so3_log_stack(R: np.ndarray) -> np.ndarray:
    """:func:`so3_log` of each matrix of a (k, 3, 3) stack, as (k, 3)."""
    cos_angle = np.clip(0.5 * (np.trace(R, axis1=1, axis2=2) - 1.0), -1.0, 1.0)
    angle = np.arccos(cos_angle)
    axis_raw = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                         R[:, 1, 0] - R[:, 0, 1]], axis=1)
    small = angle < 1e-10
    safe = np.where(small, 1.0, angle)
    scale = np.where(small, 0.5, 0.5 * safe / np.sin(safe))
    out = scale[:, None] * axis_raw
    for k in np.flatnonzero(np.pi - angle < 1e-6):
        out[k] = so3_log(R[k])    # axis from the diagonal near pi
    return out


def _so3_left_jacobian_inv_stack(phi: np.ndarray) -> np.ndarray:
    """(k, 3, 3) inverse left Jacobians of SO(3) at the rows of ``phi``:
    ``I - [phi]x / 2 + c(theta) [phi]x^2`` with
    ``c = 1/theta^2 - (1 + cos theta) / (2 theta sin theta)``, whose series
    ``1/12 + theta^2/720`` takes over at small angles."""
    theta = np.linalg.norm(phi, axis=1)
    small = theta < 1e-4
    safe = np.where(small, 1.0, theta)
    c = np.where(small, 1.0 / 12.0 + theta**2 / 720.0,
                 1.0 / safe**2 - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)))
    P = _skew_stack(phi)
    return np.eye(3) - 0.5 * P + c[:, None, None] * (P @ P)


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
        return _chi2(self._edge_arrays(), *self._pose_arrays())

    def has_loop_edges(self) -> bool:
        return any(e.kind == "loop_closure" for e in self.edges)

    def optimize(self, max_iterations: int = 100, tol: float = 1e-9) -> OptimizeResult:
        """Gauss-Newton over all node poses except node 0 (gauge fixed).

        No-op without a loop closure edge (an odometry chain is already
        consistent). Iterations with increasing chi2 are retried with a
        halved step; the run stops when the chi2 improvement falls below
        ``tol``, and aborts with poses untouched if the system is singular.
        """
        if not self.has_loop_edges():
            return OptimizeResult(False, self.chi2(), [self.chi2()], 0, True)

        n = len(self.nodes)
        dim = 6 * (n - 1)
        Rs, ts = self._pose_arrays()
        edges = self._edge_arrays()
        mR, mt, info, ends = edges
        # H and g slots: node k > 0 owns rows 6(k-1)..6(k-1)+5; node 0 owns none
        free = ends > 0
        base = 6 * (ends - 1)
        six = np.arange(6)
        g_rows = (base[:, :, None] + six)[free].ravel()
        block = free[:, :, None] & free[:, None, :]
        H_rows = np.broadcast_to(base[:, :, None, None, None] + six[:, None],
                                 (*block.shape, 6, 6))[block].ravel()
        H_cols = np.broadcast_to(base[:, None, :, None, None] + six,
                                 (*block.shape, 6, 6))[block].ravel()

        chi2_history = [_chi2(edges, Rs, ts)]
        converged = False
        aborted = False
        iterations = 0
        for _ in range(max_iterations):
            iterations += 1
            Ri, ti = Rs[ends[:, 0]], ts[ends[:, 0]]
            Rj, tj = Rs[ends[:, 1]], ts[ends[:, 1]]
            err = _edge_errors(mR, mt, Ri, ti, Rj, tj)
            J = np.stack(_edge_jacobians(mR, Ri, ti, tj, err[:, :3]), axis=1)
            JtO = J.transpose(0, 1, 3, 2) @ info[:, None]           # (m, 2, 6, 6)
            H_blocks = JtO[:, :, None] @ J[:, None]                 # (m, 2, 2, 6, 6)
            g_blocks = (JtO @ err[:, None, :, None])[..., 0]        # (m, 2, 6)
            H = coo_matrix((H_blocks[block].ravel(), (H_rows, H_cols)),
                           shape=(dim, dim)).tocsc()
            g = np.bincount(g_rows, g_blocks[free].ravel(), minlength=dim)
            try:
                step = splu(H).solve(-g).reshape(n - 1, 6)
            except RuntimeError:      # SuperLU: "Factor is exactly singular"
                aborted = True
                break

            scale = 1.0
            improved = False
            for _ in range(11):
                R_new, t_new = Rs.copy(), ts.copy()
                R_new[1:] = _so3_exp_stack(scale * step[:, :3]) @ Rs[1:]
                t_new[1:] = ts[1:] + scale * step[:, 3:]
                drift = np.abs(R_new[1:].transpose(0, 2, 1) @ R_new[1:] - np.eye(3))
                for k in 1 + np.flatnonzero(drift.max(axis=(1, 2)) > 1e-12):
                    R_new[k] = orthonormalize(R_new[k])
                new_chi2 = _chi2(edges, R_new, t_new)
                if new_chi2 <= chi2_history[-1]:
                    Rs, ts = R_new, t_new
                    improved = True
                    break
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
                self.nodes[node_id].pose = Pose(Rs[node_id].copy(), ts[node_id].copy())
        return OptimizeResult(True, self.chi2(), chi2_history, iterations,
                              converged, aborted)

    def _pose_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([node.pose.R for node in self.nodes]),
                np.array([node.pose.t for node in self.nodes]))

    def _edge_arrays(self):
        """Edge measurements and information stacked, and (from, to) ids."""
        mR = np.array([e.relative.R for e in self.edges]).reshape(-1, 3, 3)
        mt = np.array([e.relative.t for e in self.edges]).reshape(-1, 3)
        info = np.array([e.information for e in self.edges]).reshape(-1, 6, 6)
        ends = np.array([(e.from_id, e.to_id) for e in self.edges],
                        dtype=np.intp).reshape(-1, 2)
        return mR, mt, info, ends

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

"""Relative pose estimation between two plane sets.

The solve is decoupled: rotation first, from matched unit normals via
Gauss-Newton with rotation-vector updates applied through the exponential
map, then translation from the origin-distance differences as a linear least
squares. A residual-based exclusion loop removes faulty correspondences one
at a time until the translation residual passes the fault threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import PlaneSet, orthonormalize, so3_exp

__all__ = [
    "RegistrationError",
    "NoCorrespondencesError",
    "UnobservableRotationError",
    "RankDeficientError",
    "RegistrationParams",
    "Correspondences",
    "RegistrationResult",
    "match_planes",
    "estimate_rotation",
    "estimate_translation",
    "register",
]

# Translation is observable only with >= 3 correspondences spanning 3-space.
MIN_TRANSLATION_PAIRS = 3


class RegistrationError(RuntimeError):
    """Registration could not produce a usable relative pose."""


class NoCorrespondencesError(RegistrationError):
    pass


class UnobservableRotationError(RegistrationError):
    pass


class RankDeficientError(RegistrationError):
    pass


@dataclass
class RegistrationParams:
    """Tunables for matching, the Gauss-Newton solve, and fault exclusion."""

    alpha: float = 1.0              # weight on normal distance in the match cost
    beta: float = 0.1               # weight on center distance in the match cost
    max_correspondence_cost: float = 2.0
    fault_threshold: float = 0.1    # meters, on the translation residual norm
    gn_step: float = 1.0            # mu
    gn_regularization: float = 1e-8  # lambda
    gn_tolerance: float = 1e-8      # convergence threshold on ||d_omega||
    gn_max_iterations: int = 50
    max_step_halvings: int = 10


@dataclass
class Correspondences:
    """One-to-one source/target index pairs with their match costs."""

    pairs: list[tuple[int, int]]
    costs: np.ndarray

    def __post_init__(self):
        src = [i for i, _ in self.pairs]
        tgt = [j for _, j in self.pairs]
        if len(set(src)) != len(src) or len(set(tgt)) != len(tgt):
            raise ValueError("correspondences must be one-to-one")
        costs = np.asarray(self.costs, dtype=float)
        if np.any(~np.isfinite(costs)) or np.any(costs < 0):
            raise ValueError("costs must be finite and non-negative")
        self.costs = costs

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class RegistrationResult:
    rotation: np.ndarray
    translation: np.ndarray
    excluded: list[tuple[int, int]]
    rotation_iterations: int
    translation_residual_norm: float
    rotation_converged: bool = True
    used_pairs: list[tuple[int, int]] = field(default_factory=list)


def match_planes(source: PlaneSet, target: PlaneSet, alpha: float, beta: float,
                 max_cost: float = 2.0) -> Correspondences:
    """Match each source plane to its cheapest target, one-to-one.

    Builds the full cost matrix, takes the row minimum per source plane, and
    resolves conflicts on a target by keeping only the lowest-cost claimant;
    losers stay unmatched. Pairs costing more than ``max_cost`` are dropped.
    """
    if len(source) == 0 or len(target) == 0:
        raise NoCorrespondencesError("cannot match empty plane sets")
    dn = np.linalg.norm(source.normals[:, None, :] - target.normals[None, :, :], axis=2)
    dc = np.linalg.norm(source.centers[:, None, :] - target.centers[None, :, :], axis=2)
    cost = alpha * dn + beta * dc

    best_j = np.argmin(cost, axis=1)
    best_c = cost[np.arange(len(source)), best_j]
    claimed: dict[int, tuple[int, float]] = {}
    for i in range(len(source)):
        j, c = int(best_j[i]), float(best_c[i])
        if c > max_cost:
            continue
        if j not in claimed or c < claimed[j][1]:
            claimed[j] = (i, c)
    pairs = sorted((i, j) for j, (i, _) in claimed.items())
    if not pairs:
        raise NoCorrespondencesError("no correspondence survived the cost cutoff")
    costs = np.array([cost[i, j] for i, j in pairs])
    return Correspondences(pairs, costs)


def _rotation_cost(R: np.ndarray, ns: np.ndarray, nt: np.ndarray) -> float:
    return float(np.sum((ns @ R.T - nt) ** 2))


def estimate_rotation(source_normals: np.ndarray, target_normals: np.ndarray,
                      params: Optional[RegistrationParams] = None):
    """Gauss-Newton rotation estimate aligning source normals onto targets.

    Residual r_i = R @ n_s_i - n_t_i with Jacobian block -(R @ n_s_i)^ wedge;
    updates d_omega = -mu (J.T J + lambda I)^-1 J.T r are applied on the left
    through the exponential map. Starts from identity.

    Returns:
        (R, iterations, converged)
    """
    params = params or RegistrationParams()
    ns = np.asarray(source_normals, dtype=float)
    nt = np.asarray(target_normals, dtype=float)
    if ns.shape != nt.shape or ns.ndim != 2 or ns.shape[1] != 3:
        raise ValueError("normal arrays must both be (m, 3)")
    m = ns.shape[0]
    sigma = np.linalg.svd(ns, compute_uv=False)
    if m < 2 or sigma[1] < 1e-8:
        raise UnobservableRotationError(
            "rotation about the common normal axis is unobservable")

    R = np.eye(3)
    cost = _rotation_cost(R, ns, nt)
    iterations = 0
    converged = False
    for _ in range(params.gn_max_iterations):
        iterations += 1
        rn = ns @ R.T
        r = (rn - nt).reshape(-1)
        J = np.zeros((m, 3, 3))
        J[:, 0, 1] = rn[:, 2]
        J[:, 0, 2] = -rn[:, 1]
        J[:, 1, 0] = -rn[:, 2]
        J[:, 1, 2] = rn[:, 0]
        J[:, 2, 0] = rn[:, 1]
        J[:, 2, 1] = -rn[:, 0]
        J = J.reshape(-1, 3)
        H = J.T @ J + params.gn_regularization * np.eye(3)
        g = J.T @ r
        d_omega_full = -np.linalg.solve(H, g)

        step = params.gn_step
        accepted = False
        for _ in range(params.max_step_halvings + 1):
            d_omega = step * d_omega_full
            R_cand = so3_exp(d_omega) @ R
            if np.max(np.abs(R_cand.T @ R_cand - np.eye(3))) > 1e-12:
                R_cand = orthonormalize(R_cand)
            cost_cand = _rotation_cost(R_cand, ns, nt)
            if cost_cand <= cost:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        R, cost = R_cand, cost_cand
        if np.linalg.norm(d_omega) < params.gn_tolerance:
            converged = True
            break
    return R, iterations, converged


def estimate_translation(R_hat: np.ndarray, source: PlaneSet, target: PlaneSet,
                         corr: Correspondences):
    """Least-squares translation from matched origin distances.

    Rows of A are the rotated source normals, entries of b the distance
    differences d_t - d_s; solves the normal equations t = (A.T A)^-1 A.T b.

    Returns:
        (t, residual) with residual = A @ t - b, one entry per pair.
    """
    src = np.array([i for i, _ in corr.pairs], dtype=int)
    tgt = np.array([j for _, j in corr.pairs], dtype=int)
    A = source.normals[src] @ np.asarray(R_hat).T
    b = target.distances[tgt] - source.distances[src]
    AtA = A.T @ A
    sigma = np.linalg.svd(AtA, compute_uv=False)
    if sigma.size < 3 or sigma[-1] < 1e-8:
        raise RankDeficientError(
            "correspondence normals do not span 3-space; translation unobservable")
    t = np.linalg.solve(AtA, A.T @ b)
    return t, A @ t - b


def register(source: PlaneSet, target: PlaneSet,
             params: Optional[RegistrationParams] = None,
             correspondences: Optional[Correspondences] = None) -> RegistrationResult:
    """Full registration with residual-based fault detection and exclusion.

    Matches planes (unless correspondences are supplied), solves rotation and
    translation, and while the translation residual norm exceeds the fault
    threshold removes the pair with the largest residual component and
    re-solves both stages.

    The returned (R, t) maps source-frame coordinates into the target frame:
    ``p_t = R @ p_s + t``.
    """
    params = params or RegistrationParams()
    if correspondences is None:
        correspondences = match_planes(source, target, params.alpha, params.beta,
                                       params.max_correspondence_cost)
    pairs = list(correspondences.pairs)
    excluded: list[tuple[int, int]] = []

    while True:
        src = np.array([i for i, _ in pairs], dtype=int)
        tgt = np.array([j for _, j in pairs], dtype=int)
        R, iters, converged = estimate_rotation(source.normals[src],
                                                target.normals[tgt], params)
        corr = Correspondences(pairs, np.zeros(len(pairs)))
        t, residual = estimate_translation(R, source, target, corr)
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= params.fault_threshold:
            return RegistrationResult(R, t, excluded, iters, residual_norm,
                                      converged, pairs)
        if len(pairs) - 1 < MIN_TRANSLATION_PAIRS:
            raise RegistrationError(
                f"correspondences exhausted before the residual passed "
                f"({residual_norm:.3f} > {params.fault_threshold})")
        worst = int(np.argmax(np.abs(residual)))
        excluded.append(pairs.pop(worst))

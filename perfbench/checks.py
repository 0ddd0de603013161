"""Correctness checks written apart from the program.

Nothing here calls the program's geometry: the collision test, the
trajectory errors and the Manhattan test are computed from plane spans and
pose arrays directly, so a fault in the program's own helpers cannot hide
in the check.
"""

from __future__ import annotations

import math

import numpy as np

# A crossing closer than this to a rectangle's border, or an endpoint closer
# than this to a plane, is a grazing contact: the program counts boundary
# contact as a hit, and floating-point rounding decides such cases, so they
# are excluded from the comparison.
GRAZE_M = 1e-7

HIT, MISS, GRAZE = 1, 0, -1


def plane_arrays(planes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, span_x, span_y) stacked from objects with those fields."""
    c = np.array([p.center for p in planes], float).reshape(-1, 3)
    sx = np.array([p.span_x for p in planes], float).reshape(-1, 3)
    sy = np.array([p.span_y for p in planes], float).reshape(-1, 3)
    return c, sx, sy


def segment_rect_classes(a: np.ndarray, b: np.ndarray, centers: np.ndarray,
                         span_x: np.ndarray, span_y: np.ndarray) -> np.ndarray:
    """Exact segment-vs-rectangle classes, shape (segments, rectangles).

    Rectangle k is ``centers[k] + s * span_x[k] + t * span_y[k]`` for
    ``|s|, |t| <= 1/2``. A segment hits it when its endpoints lie on opposite
    sides of the rectangle's plane (or one lies on it) and the crossing point
    has ``|s|, |t| <= 1/2``. Coplanar segments, endpoints on the plane and
    crossings within :data:`GRAZE_M` of the border are classed GRAZE.
    """
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    n = np.cross(span_x, span_y)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    da = np.einsum("skj,kj->sk", a[:, None, :] - centers[None], n)
    db = np.einsum("skj,kj->sk", b[:, None, :] - centers[None], n)
    on_plane = (np.abs(da) < GRAZE_M) | (np.abs(db) < GRAZE_M)
    crosses = (da > 0) != (db > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(crosses, da / (da - db), 0.0)
    p = a[:, None, :] + t[..., None] * (b - a)[:, None, :] - centers[None]
    lx = np.linalg.norm(span_x, axis=1)
    ly = np.linalg.norm(span_y, axis=1)
    # signed distance of the crossing to the border, along each span axis
    mx = 0.5 * lx - np.abs(np.einsum("skj,kj->sk", p, span_x / lx[:, None]))
    my = 0.5 * ly - np.abs(np.einsum("skj,kj->sk", p, span_y / ly[:, None]))
    inside = (mx > 0) & (my > 0)
    border = crosses & (np.minimum(np.abs(mx), np.abs(my)) < GRAZE_M) & \
        (np.minimum(mx, my) > -GRAZE_M)
    out = np.where(crosses & inside, HIT, MISS)
    out[border | on_plane] = GRAZE
    return out


def segment_verdicts(a, b, centers, span_x, span_y) -> np.ndarray:
    """Per segment: HIT if any rectangle is hit, MISS if none is touched,
    GRAZE if no rectangle is hit cleanly but one is touched ambiguously."""
    classes = segment_rect_classes(a, b, centers, span_x, span_y)
    if classes.shape[1] == 0:
        return np.full(classes.shape[0], MISS)
    hit = (classes == HIT).any(axis=1)
    graze = (classes == GRAZE).any(axis=1)
    return np.where(hit, HIT, np.where(graze, GRAZE, MISS))


def manhattan_violation_deg(normals: np.ndarray) -> float:
    """Largest angle by which a pair of normals misses parallel or
    perpendicular."""
    n = np.asarray(normals, float)
    if len(n) < 2:
        return 0.0
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    cos = np.clip(np.abs(n @ n.T), 0.0, 1.0)
    off_parallel = np.degrees(np.arccos(cos))          # 0 when parallel
    off_perpendicular = np.abs(90.0 - off_parallel)    # 0 when perpendicular
    return float(np.max(np.minimum(off_parallel, off_perpendicular)))


def trajectory_errors(est_t: np.ndarray, est_R: np.ndarray, gt_t: np.ndarray,
                      gt_R: np.ndarray) -> tuple[float, float]:
    """(translational RMSE in m, mean rotation error in degrees)."""
    terr = np.linalg.norm(est_t - gt_t, axis=1)
    rel = np.einsum("kji,kjl->kil", est_R, gt_R)       # est^T gt per frame
    cos = np.clip(0.5 * (np.trace(rel, axis1=1, axis2=2) - 1.0), -1.0, 1.0)
    return (math.sqrt(float(np.mean(terr ** 2))),
            float(np.degrees(np.mean(np.arccos(cos)))))


def non_increasing(history) -> bool:
    return all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

"""Core geometric types shared by every stage: plane rows and poses.

Conventions used throughout the package:

* Points are float64 arrays of shape (3,), point sets are (N, 3).
* A bounded plane is a center point plus two orthogonal full-edge span
  vectors; the occupied patch is ``{c + a*span_x + b*span_y : a, b in
  [-1/2, 1/2]}``.
* A :class:`PlaneSet` stores planes as rows, (n, 3) arrays of centers and
  spans; one batched function, :func:`_frames`, derives and checks the
  frames (unit spans and normal) and half extents of rows and of a Plane.
* A basis is a (3, 3) array whose columns ``b_x, b_y, b_z`` form a
  right-handed orthonormal frame; coordinates in it are ``p @ B``.
  :func:`box_rows` is the one constructor of rectangles axis-aligned in a
  basis, and the only code that knows which in-plane axes their spans take.
* A pose is a rotation matrix ``R`` and translation ``t``. An absolute pose
  maps sensor-frame points into the world via ``p_w = R @ p + t``.
* Pose composition follows ``R_k = R_rel @ R_parent`` and
  ``t_k = t_parent + R_parent @ t_rel``, i.e. the relative rotation is a
  world-frame increment while the relative translation is expressed in the
  parent body frame. :func:`relative_pose` is the exact inverse of
  :func:`compose` and defines what "relative pose" means everywhere else
  (odometry measurements, graph edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "InvalidPlaneError",
    "InvalidPoseError",
    "InvalidBasisError",
    "ORTHO_TOL",
    "cross3",
    "skew",
    "so3_exp",
    "so3_log",
    "rot_z",
    "Pose",
    "Plane",
    "PointCloud",
    "PlaneSet",
    "as_basis",
    "box_rows",
    "compose",
    "relative_pose",
    "rotation_angle_between",
]

# Absolute tolerance for orthonormality / unit-determinant checks.
ORTHO_TOL = 1e-9


class GeometryError(ValueError):
    """Base class for invalid geometric inputs."""


class InvalidPlaneError(GeometryError):
    pass


class InvalidPoseError(GeometryError):
    pass


class InvalidBasisError(GeometryError):
    pass


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError(f"{name} has non-finite components")
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def cross3(a, b) -> np.ndarray:
    """Cross product of two float 3-vectors, bit for bit ``np.cross(a, b)``.

    The same three multiply/subtract pairs on Python floats, without
    ``np.cross``'s broadcasting machinery, which dominates for one pair.
    """
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that ``skew(v) @ u == cross(v, u)``."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues exponential map from a rotation vector to a matrix."""
    w = np.asarray(w, dtype=float)
    angle = float(np.linalg.norm(w))
    W = skew(w)
    if angle < 1e-10:
        # Second-order series keeps orthonormality to machine precision.
        return np.eye(3) + W + 0.5 * (W @ W)
    a, b = math.sin(angle) / angle, (1.0 - math.cos(angle)) / angle**2
    return np.eye(3) + a * W + b * (W @ W)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of ``R`` (inverse of :func:`so3_exp`)."""
    cos_angle = min(1.0, max(-1.0, 0.5 * (np.trace(R) - 1.0)))
    angle = math.acos(cos_angle)
    axis_raw = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle < 1e-10:
        return 0.5 * axis_raw
    if math.pi - angle < 1e-6:
        # Near pi the off-diagonal difference vanishes; recover the axis from
        # the dominant diagonal entry of R + I.
        A = R + np.eye(3)
        k = int(np.argmax(np.diag(A)))
        axis = A[:, k] / np.linalg.norm(A[:, k])
        if np.dot(axis, axis_raw) < 0:
            axis = -axis
        return angle * axis
    return (0.5 * angle / math.sin(angle)) * axis_raw


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def orthonormalize(R: np.ndarray) -> np.ndarray:
    """Project ``R`` onto the nearest rotation matrix (SVD polar factor)."""
    U, _, Vt = np.linalg.svd(R)
    D = np.diag([1.0, 1.0, float(np.linalg.det(U @ Vt))])
    return U @ D @ Vt


@dataclass(frozen=True)
class Pose:
    """Rigid transform (rotation matrix + translation vector)."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        t = _as_vec3(self.t, "translation")
        if R.shape != (3, 3):
            raise InvalidPoseError(f"rotation must be 3x3, got {R.shape}")
        if not np.all(np.isfinite(R)):
            raise InvalidPoseError("rotation has non-finite entries")
        if np.max(np.abs(R.T @ R - np.eye(3))) > ORTHO_TOL:
            raise InvalidPoseError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > ORTHO_TOL:
            raise InvalidPoseError("rotation determinant is not +1")
        object.__setattr__(self, "R", _readonly(R))
        object.__setattr__(self, "t", _readonly(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack (N, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.R.T + self.t


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise :func:`cross3` of two (n, 3) arrays, bit for bit."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _check_frames(F: np.ndarray, cross: np.ndarray) -> None:
    """Raise :class:`InvalidBasisError` unless every frame ``F[k]``, stored
    as rows ``b_x, b_y, b_z``, is orthonormal and right-handed with
    ``b_z == b_x x b_y``; ``cross`` holds the rows' ``b_x x b_y``."""
    if np.abs(F @ F.transpose(0, 2, 1) - np.eye(3)).max(initial=0.0) > ORTHO_TOL:
        raise InvalidBasisError("basis columns are not orthonormal")
    # det [b_x, b_y, b_z] is the triple product (b_x x b_y) . b_z
    det = cross[:, None, :] @ F[:, 2, :, None]
    if np.abs(det - 1.0).max(initial=0.0) > ORTHO_TOL:
        raise InvalidBasisError("basis is not right-handed")
    if np.abs(cross - F[:, 2]).max(initial=0.0) > ORTHO_TOL:
        raise InvalidBasisError("b_z != b_x x b_y")


def _frames(span_x: np.ndarray, span_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bases (n, 3, 3), columns the unit spans and their normalised cross
    product, and half extents (n, 2) of n span rows, with the checks of
    :class:`Plane` and :func:`as_basis`. A norm is the root of a one-row
    matmul, which rounds as ``np.linalg.norm`` does, so rows are independent.
    """
    F = np.empty((len(span_x), 3, 3))           # rows b_x, b_y, b_z
    F[:, 0], F[:, 1] = span_x, span_y
    S = F[:, :2]
    norms = np.sqrt(S[:, :, None, :] @ S[:, :, :, None])[..., 0]    # (n, 2, 1)
    if not norms.all():
        raise InvalidPlaneError("span vectors must be non-zero")
    dots = (S[:, 0, None, :] @ S[:, 1, :, None])[:, 0, 0]
    if (np.abs(dots) > ORTHO_TOL * norms[:, 0, 0] * norms[:, 1, 0]).any():
        raise InvalidPlaneError("span vectors are not orthogonal")
    S /= norms
    cross = _cross_rows(F[:, 0], F[:, 1])
    np.divide(cross, np.sqrt(cross[:, None, :] @ cross[:, :, None])[:, 0], out=F[:, 2])
    _check_frames(F, cross)
    return F.transpose(0, 2, 1), 0.5 * norms[..., 0]


def _corners(C: np.ndarray, SX: np.ndarray, SY: np.ndarray) -> np.ndarray:
    """Counter-clockwise corner loops: (4, 3) of one plane, (n, 4, 3) of rows."""
    h, g = 0.5 * (SX + SY), 0.5 * (SX - SY)
    return np.stack([C - h, C + g, C + h, C - g], axis=-2)


def as_basis(columns) -> np.ndarray:
    """The basis with columns ``b_x, b_y, b_z`` as a read-only C-contiguous
    (3, 3) array; raises :class:`InvalidBasisError` unless it is a finite,
    right-handed orthonormal frame."""
    B = _readonly(columns)
    if B.shape != (3, 3) or not np.isfinite(B).all():
        raise InvalidBasisError(f"basis must be a finite 3x3 array, got {B.shape}")
    F = B.T[None]
    _check_frames(F, _cross_rows(F[:, 0], F[:, 1]))
    return B


def box_rows(B: np.ndarray, axis, sign, coord,
             lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (centers, span_x, span_y) of n rectangles axis-aligned in the
    basis ``B``.

    Rectangle k lies at coordinate ``coord[k]`` along basis axis
    ``axis[k]``, faces ``sign[k] * B[:, axis[k]]`` and covers the box from
    ``lo[k]`` to ``hi[k]`` ((n, 3) basis coordinates, whose entries along
    ``axis[k]`` are unused) in the other two axes. The spans take those axes
    in cyclic order after the normal axis, swapped for a negative sign, so
    ``span_x x span_y`` points along ``sign * B[:, axis]``. A center is its
    basis coordinates times ``B.T``, one row at a time: a stacked ``C @ B.T``
    rounds differently.
    """
    B = np.ascontiguousarray(B, dtype=float)
    axis = np.asarray(axis, dtype=int)
    swap = np.asarray(sign) < 0
    u, v = (axis + 1 + swap) % 3, (axis + 2 - swap) % 3
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    rows = np.arange(len(axis))
    center = 0.5 * (lo + hi)
    center[rows, axis] = coord
    extent = hi - lo
    return ((center[:, None, :] @ B.T[None])[:, 0],
            extent[rows, u, None] * B.T[u], extent[rows, v, None] * B.T[v])


@dataclass(frozen=True)
class Plane:
    """Rectangular bounded plane: center plus two orthogonal full-edge spans;
    its normal is that of :func:`_frames` of its one row."""

    center: np.ndarray
    span_x: np.ndarray
    span_y: np.ndarray

    def __post_init__(self):
        c = _as_vec3(self.center, "center")
        px = _as_vec3(self.span_x, "span_x")
        py = _as_vec3(self.span_y, "span_y")
        B, _ = _frames(px[None], py[None])
        object.__setattr__(self, "center", _readonly(c))
        object.__setattr__(self, "span_x", _readonly(px))
        object.__setattr__(self, "span_y", _readonly(py))
        object.__setattr__(self, "_normal", _readonly(B[0, :, 2]))

    @property
    def normal(self) -> np.ndarray:
        return self._normal


@dataclass(frozen=True)
class PointCloud:
    """Unorganized 3D point cloud for one scan."""

    points: np.ndarray
    frame_id: int = 0

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 3:
            raise GeometryError(f"points must be (N, 3), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise GeometryError("point cloud has non-finite coordinates")
        if self.frame_id < 0:
            raise GeometryError("frame_id must be non-negative")
        object.__setattr__(self, "points", _readonly(p))

    def __len__(self) -> int:
        return self.points.shape[0]


class PlaneSet:
    """Ordered planes as read-only rows: (n, 3) ``centers``, ``span_x`` and
    ``span_y``, and derived from them once ``bases``, ``half_extents``,
    ``normals``, origin ``distances`` and ``corners`` (n, 4, 3).
    :meth:`from_rows` checks every row as :class:`Plane` does;
    ``PlaneSet(planes)`` stacks Planes, and indexing builds one."""

    def __init__(self, planes: Sequence[Plane] = ()):
        rows = np.array([(p.center, p.span_x, p.span_y) for p in planes], dtype=float)
        self._derive(*rows.reshape(-1, 3, 3).transpose(1, 0, 2))

    @classmethod
    def from_rows(cls, centers, span_x, span_y) -> "PlaneSet":
        planes = cls.__new__(cls)
        planes._derive(centers, span_x, span_y)
        return planes

    def _derive(self, centers, span_x, span_y) -> None:
        C, SX, SY = (np.array(a, dtype=float) for a in (centers, span_x, span_y))
        if not (C.ndim == 2 and C.shape[1] == 3 and C.shape == SX.shape == SY.shape):
            raise GeometryError(f"plane rows must be three (n, 3) arrays, got "
                                f"{C.shape}, {SX.shape} and {SY.shape}")
        if not np.isfinite([C, SX, SY]).all():
            raise GeometryError("plane rows have non-finite components")
        B, H = _frames(SX, SY)
        self.centers, self.span_x, self.span_y = C, SX, SY
        for a in (C, SX, SY):
            a.setflags(write=False)
        self.bases, self.half_extents = _readonly(B), _readonly(H)
        self.normals = _readonly(self.bases[:, :, 2])
        self.distances = _readonly(np.einsum("ij,ij->i", self.normals, C))
        self.corners = _readonly(_corners(C, SX, SY))

    def __len__(self) -> int:
        return len(self.centers)

    def __iter__(self) -> Iterator[Plane]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Plane:
        return Plane(self.centers[i], self.span_x[i], self.span_y[i])

    def transformed(self, pose: Pose) -> "PlaneSet":
        """The set moved by a pose; stacked ``R @ v`` rounds as it does for
        one row (``V @ R.T`` does not)."""
        R = pose.R[None]
        C, SX, SY = ((R @ V[:, :, None])[:, :, 0]
                     for V in (self.centers, self.span_x, self.span_y))
        return PlaneSet.from_rows(C + pose.t, SX, SY)


def compose(parent: Pose, relative: Pose) -> Pose:
    """Chain a relative pose onto a parent pose.

    ``R = relative.R @ parent.R`` and ``t = parent.t + parent.R @ relative.t``;
    see the module docstring for the convention this implies.
    """
    return Pose(relative.R @ parent.R, parent.t + parent.R @ relative.t)


def relative_pose(parent: Pose, child: Pose) -> Pose:
    """The unique relative pose with ``compose(parent, relative) == child``."""
    return Pose(child.R @ parent.R.T, parent.R.T @ (child.t - parent.t))


def rotation_angle_between(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Geodesic angle between two rotation matrices, in degrees."""
    cos_angle = 0.5 * (float(np.trace(Ra.T @ Rb)) - 1.0)
    return math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manhattan_slam.geometry import (
    GeometryError,
    InvalidBasisError,
    InvalidPlaneError,
    InvalidPoseError,
    Plane,
    PlaneSet,
    PointCloud,
    Pose,
    as_basis,
    box_rows,
    compose,
    cross3,
    relative_pose,
    rot_z,
    rotation_angle_between,
    so3_exp,
    so3_log,
)

from oracles import (
    box_row_ref,
    corners_ref,
    plane_basis_ref,
    random_rotation,
    rotation_angle_deg_quat,
    transform_plane_ref,
)


def random_pose(rng) -> Pose:
    return Pose(random_rotation(rng), rng.uniform(-5, 5, 3))


def random_plane(rng) -> Plane:
    R = random_rotation(rng)
    sx = rng.uniform(0.5, 4.0)
    sy = rng.uniform(0.5, 4.0)
    return Plane(rng.uniform(-5, 5, 3), sx * R[:, 0], sy * R[:, 1])


def row_basis(p: Plane) -> np.ndarray:
    """A plane's frame as a PlaneSet derives it for the plane's row."""
    return PlaneSet([p]).bases[0]


def moved_row(p: Plane, pose: Pose) -> Plane:
    """A plane moved by a pose as ``PlaneSet.transformed`` moves its row."""
    return PlaneSet([p]).transformed(pose)[0]


class TestPlaneBasis:
    def test_canonical_axes(self):
        p = Plane(np.zeros(3), [1, 0, 0], [0, 1, 0])
        assert np.allclose(row_basis(p), np.eye(3))

    def test_axis_permutation(self):
        p = Plane(np.zeros(3), [0, 2, 0], [0, 0, 3])
        B = row_basis(p)
        assert np.allclose(B[:, 0], [0, 1, 0])
        assert np.allclose(B[:, 1], [0, 0, 1])
        assert np.allclose(B[:, 2], [1, 0, 0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_random_is_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        B = row_basis(random_plane(rng))
        assert np.max(np.abs(B.T @ B - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(B) - 1.0) < 1e-12

    def test_degenerate_span_rejected(self):
        with pytest.raises(InvalidPlaneError):
            Plane(np.zeros(3), [0, 0, 0], [0, 1, 0])

    def test_non_orthogonal_spans_rejected(self):
        with pytest.raises(InvalidPlaneError):
            Plane(np.zeros(3), [1, 0, 0], [0.1, 1, 0])


class TestToBasis:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_corners_share_third_coordinate(self, seed):
        # Corner enumeration: all four corners of a plane land at the same
        # height n.T @ c in the plane's own frame.
        rng = np.random.default_rng(seed)
        p = random_plane(rng)
        coords = PlaneSet([p]).corners[0] @ row_basis(p)
        expected = p.normal @ p.center
        assert np.max(np.abs(coords[:, 2] - expected)) < 1e-9

    def test_as_basis_checks_the_frame(self):
        B = as_basis(np.column_stack([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        assert B.flags.c_contiguous and not B.flags.writeable
        for bad in (np.diag([1.0, 1.0, -1.0]),        # left-handed
                    2.0 * np.eye(3),                   # not unit
                    np.full((3, 3), np.nan),
                    np.eye(2)):
            with pytest.raises(InvalidBasisError):
                as_basis(bad)


def random_boxes(rng, n: int):
    """Rows of ``box_rows`` arguments: every (axis, sign) pair, then random."""
    pairs = [(a, s) for a in range(3) for s in (1.0, -1.0)]
    axis = np.array([a for a, _ in pairs] + list(rng.integers(0, 3, n)))
    sign = np.array([s for _, s in pairs] + list(rng.choice([1.0, -1.0], n)))
    lo = rng.uniform(-5, 5, (len(axis), 3))
    hi = lo + rng.uniform(0.1, 4.0, lo.shape)
    return axis, sign, rng.uniform(-5, 5, len(axis)), lo, hi


class TestBoxRows:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_normal_follows_axis_and_sign(self, seed):
        rng = np.random.default_rng(seed)
        B = as_basis(random_rotation(rng))
        axis, sign, coord, lo, hi = random_boxes(rng, 10)
        C, SX, SY = box_rows(B, axis, sign, coord, lo, hi)
        for k in range(len(axis)):
            n = np.cross(SX[k], SY[k])
            assert np.allclose(n / np.linalg.norm(n), sign[k] * B[:, axis[k]],
                               atol=1e-12)
            assert abs((C[k] @ B)[axis[k]] - coord[k]) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_rows_match_scalar_oracle_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        B = as_basis(random_rotation(rng))
        axis, sign, coord, lo, hi = random_boxes(rng, 20)
        rows = box_rows(B, axis, sign, coord, lo, hi)
        for k, row in enumerate(zip(*rows)):
            want = box_row_ref(B, int(axis[k]), sign[k], coord[k], lo[k], hi[k])
            for got, ref in zip(row, want):
                assert np.array_equal(got, ref)

    def test_empty(self):
        rows = box_rows(np.eye(3), [], [], [], np.empty((0, 3)), np.empty((0, 3)))
        assert [a.shape for a in rows] == [(0, 3)] * 3


class TestTransformPlane:
    def test_identity(self):
        rng = np.random.default_rng(0)
        p = random_plane(rng)
        q = moved_row(p, Pose.identity())
        assert np.allclose(q.center, p.center)
        assert np.allclose(q.span_x, p.span_x)

    def test_pure_translation(self):
        p = Plane([1, 2, 3], [2, 0, 0], [0, 1, 0])
        q = moved_row(p, Pose(np.eye(3), [0, 0, 5]))
        assert np.allclose(q.center, [1, 2, 8])
        assert np.allclose(q.span_x, p.span_x)
        assert np.allclose(q.span_y, p.span_y)

    def test_rotation_turns_normal(self):
        p = Plane(np.zeros(3), [0, 1, 0], [0, 0, 1])  # normal +x
        assert np.allclose(p.normal, [1, 0, 0])
        q = moved_row(p, Pose(rot_z(np.pi / 2), np.zeros(3)))
        assert np.allclose(q.normal, [0, 1, 0], atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_preserves_orthogonality_and_norms(self, seed):
        rng = np.random.default_rng(seed)
        p = random_plane(rng)
        q = moved_row(p, random_pose(rng))
        assert abs(q.span_x @ q.span_y) < 1e-9
        assert abs(np.linalg.norm(q.span_x) - np.linalg.norm(p.span_x)) < 1e-9
        assert abs(np.linalg.norm(q.span_y) - np.linalg.norm(p.span_y)) < 1e-9


class TestCompose:
    def test_identity_parent(self):
        rng = np.random.default_rng(1)
        rel = random_pose(rng)
        out = compose(Pose.identity(), rel)
        assert np.allclose(out.R, rel.R)
        assert np.allclose(out.t, rel.t)

    def test_identity_relative(self):
        rng = np.random.default_rng(2)
        parent = random_pose(rng)
        out = compose(parent, Pose.identity())
        assert np.allclose(out.R, parent.R)
        assert np.allclose(out.t, parent.t)

    def test_rotated_increment(self):
        parent = Pose(rot_z(np.pi / 2), [1, 0, 0])
        rel = Pose(np.eye(3), [1, 0, 0])
        out = compose(parent, rel)
        assert np.allclose(out.t, [1, 1, 0], atol=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
           st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_associative_for_commuting_rotations(self, a1, a2, a3, seed):
        # The composition rule mixes frames for rotation and translation, so
        # associativity is only guaranteed when the rotations commute (shared
        # axis); that is the regime odometry chains operate in per axis.
        rng = np.random.default_rng(seed)
        A = Pose(rot_z(a1), rng.uniform(-2, 2, 3))
        B = Pose(rot_z(a2), rng.uniform(-2, 2, 3))
        C = Pose(rot_z(a3), rng.uniform(-2, 2, 3))
        left = compose(compose(A, B), C)
        right = compose(A, compose(B, C))
        assert np.allclose(left.R, right.R, atol=1e-9)
        assert np.allclose(left.t, right.t, atol=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_relative_pose_inverts_compose(self, seed):
        rng = np.random.default_rng(seed)
        parent, child = random_pose(rng), random_pose(rng)
        rel = relative_pose(parent, child)
        out = compose(parent, rel)
        assert np.allclose(out.R, child.R, atol=1e-12)
        assert np.allclose(out.t, child.t, atol=1e-12)


class TestRotationAngle:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(3)
        R = random_rotation(rng)
        assert rotation_angle_between(R, R) < 1e-9

    def test_quarter_turn(self):
        rng = np.random.default_rng(4)
        R = random_rotation(rng)
        assert abs(rotation_angle_between(R, R @ rot_z(np.pi / 2)) - 90.0) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matches_quaternion_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Ra, Rb = random_rotation(rng), random_rotation(rng)
        assert abs(rotation_angle_between(Ra, Rb)
                   - rotation_angle_deg_quat(Ra, Rb)) < 1e-7

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        Ra, Rb = random_rotation(rng), random_rotation(rng)
        assert abs(rotation_angle_between(Ra, Rb)
                   - rotation_angle_between(Rb, Ra)) < 1e-9


class TestSo3:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_exp_log_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 1, 3) * rng.uniform(0, 3.0)
        R = so3_exp(w)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
        assert np.allclose(so3_exp(so3_log(R)), R, atol=1e-9)

    def test_small_angle(self):
        w = np.array([1e-12, -2e-12, 3e-13])
        assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-15)


# finite coordinates whose products and their differences cannot overflow
coordinate = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
vec3 = st.lists(coordinate, min_size=3, max_size=3).map(np.array)


class TestCross3:
    @given(vec3, vec3)
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_bit_for_bit(self, a, b):
        got, want = cross3(a, b), np.cross(a, b)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestContainers:
    def test_point_cloud_rejects_nan(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_pose_rejects_non_rotation(self):
        with pytest.raises(InvalidPoseError):
            Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_plane_set_caches_are_consistent(self):
        rng = np.random.default_rng(5)
        planes = [random_plane(rng) for _ in range(6)]
        ps = PlaneSet(planes)
        for i, p in enumerate(planes):
            assert np.allclose(ps.normals[i], p.normal, atol=1e-12)
            assert np.allclose(ps.centers[i], p.center, atol=1e-12)
            assert abs(ps.distances[i] - p.normal @ p.center) < 1e-9
            assert np.array_equal(ps.bases[i], plane_basis_ref(p))
            assert np.array_equal(ps.bases[i][:, 2], ps.normals[i])
            assert np.array_equal(ps.half_extents[i], 0.5 * np.array(
                [np.linalg.norm(p.span_x), np.linalg.norm(p.span_y)]))
            assert np.array_equal(ps.corners[i], corners_ref(p))
        for a in (ps.bases, ps.half_extents, ps.normals, ps.centers, ps.distances,
                  ps.corners, ps.span_x, ps.span_y):
            assert not a.flags.writeable
        # a set built from rows derives the same arrays as one built from Planes
        rows = PlaneSet.from_rows(ps.centers, ps.span_x, ps.span_y)
        for name in ("centers", "span_x", "span_y", "bases", "half_extents",
                     "normals", "distances", "corners"):
            assert np.array_equal(getattr(rows, name), getattr(ps, name))
        # and rejects a bad row with the error a Plane raises for it
        C, SX, SY = ps.centers, ps.span_x, ps.span_y
        c, sx, sy = C[2], SX[2], SY[2]

        def with_row(A, v):
            A = A.copy()
            A[2] = v
            return A

        def raised(make) -> type:
            with pytest.raises(GeometryError) as info:
                make()
            return type(info.value)

        # a zero span, non-orthogonal spans, a non-finite value, a wrong shape
        cases = [((c, 0.0 * sx, sy), (C, with_row(SX, 0.0), SY)),
                 ((c, sx, sx + sy), (C, SX, with_row(SY, sx + sy))),
                 ((c, sx, [np.nan, 0, 0]), (C, SX, with_row(SY, np.nan))),
                 ((c[:2], sx, sy), (C[:, :2], SX, SY))]
        types = [raised(lambda: Plane(*one)) for one, _ in cases]
        assert types == [InvalidPlaneError, InvalidPlaneError, GeometryError, GeometryError]
        assert types == [raised(lambda: PlaneSet.from_rows(*many)) for _, many in cases]
        # moving the set moves each row bit for bit as the one-plane oracle does
        pose = random_pose(rng)
        moved = ps.transformed(pose)
        for i, p in enumerate(planes):
            q = transform_plane_ref(p, pose)
            assert np.array_equal(moved.centers[i], q.center)
            assert np.array_equal(moved.span_x[i], q.span_x)
            assert np.array_equal(moved.span_y[i], q.span_y)
            assert np.array_equal(moved.bases[i], plane_basis_ref(q))
        empty = PlaneSet()
        assert empty.bases.shape == (0, 3, 3)
        assert empty.half_extents.shape == (0, 2)
        assert empty.normals.shape == (0, 3)
        assert empty.corners.shape == (0, 4, 3)

    def test_plane_set_transform_matches_plane_transform(self):
        rng = np.random.default_rng(6)
        ps = PlaneSet([random_plane(rng) for _ in range(4)])
        pose = random_pose(rng)
        moved = ps.transformed(pose)
        for p, q in zip(ps, moved):
            r = transform_plane_ref(p, pose)
            assert np.allclose(q.center, r.center)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manhattan_slam.geometry import (
    Plane,
    PlaneSet,
    Pose,
    rot_z,
    so3_exp,
)
from manhattan_slam.registration import (
    NoCorrespondencesError,
    RankDeficientError,
    RegistrationError,
    RegistrationParams,
    UnobservableRotationError,
    Correspondences,
    estimate_rotation,
    estimate_translation,
    match_planes,
    register,
)

from oracles import brute_force_assignment, correspondence_cost, random_rotation


def axis_plane(axis: int, coord: float, center2d=(0.0, 0.0), size=(2.0, 2.0)) -> Plane:
    """Axis-aligned plane with normal along +axis at the given coordinate."""
    u, v = {0: (1, 2), 1: (2, 0), 2: (0, 1)}[axis]
    c = np.zeros(3)
    c[axis] = coord
    c[u], c[v] = center2d
    sx = np.zeros(3)
    sy = np.zeros(3)
    sx[u] = size[0]
    sy[v] = size[1]
    return Plane(c, sx, sy)


def manhattan_plane_set(rng, n_planes: int) -> PlaneSet:
    """Random set with normals on all six axis directions (rank-3 geometry).

    Same-normal planes are laterally separated on a coarse lattice so that
    nearest-center matching stays geometrically unambiguous under the small
    perturbations these tests apply; cross-matching of stacked parallel
    planes is a correspondence fault, which the outlier tests construct
    explicitly instead.
    """
    planes = []
    per_axis_count = {0: 0, 1: 0, 2: 0}
    for k in range(n_planes):
        axis = k % 3 if k < 9 else int(rng.integers(0, 3))
        slot = per_axis_count[axis]
        per_axis_count[axis] += 1
        coord = float(rng.uniform(-6, 6))
        center2d = np.array([6.0 * slot, 3.0 * slot]) + rng.uniform(-1, 1, 2)
        size = rng.uniform(0.8, 3.0, 2)
        planes.append(axis_plane(axis, coord, tuple(center2d), tuple(size)))
    return PlaneSet(planes)


class TestCorrespondenceCost:
    def test_identical_planes(self):
        p = axis_plane(2, 1.0)
        assert correspondence_cost(p, p, 1.0, 1.0) == 0.0

    def test_center_distance(self):
        p = axis_plane(2, 1.0, (0.0, 0.0))
        q = axis_plane(2, 1.0, (2.0, 0.0))
        assert abs(correspondence_cost(p, q, 1.0, 1.0) - 2.0) < 1e-12

    def test_opposite_normals(self):
        p = Plane(np.zeros(3), [1, 0, 0], [0, 1, 0])   # +z
        q = Plane(np.zeros(3), [0, 1, 0], [1, 0, 0])   # -z
        assert abs(correspondence_cost(p, q, 1.0, 0.0) - 2.0) < 1e-12


class TestMatchPlanes:
    def test_identity_pairing(self):
        rng = np.random.default_rng(0)
        ps = manhattan_plane_set(rng, 8)
        corr = match_planes(ps, ps, 1.0, 0.1)
        assert corr.pairs == [(i, i) for i in range(8)]

    def test_conflict_keeps_cheapest(self):
        target = PlaneSet([axis_plane(2, 0.0)])
        near = axis_plane(2, 0.1)
        far = axis_plane(2, 0.5)
        source = PlaneSet([near, far])
        corr = match_planes(source, target, 1.0, 1.0)
        assert corr.pairs == [(0, 0)]

    def test_recovers_permutation(self):
        rng = np.random.default_rng(1)
        source = manhattan_plane_set(rng, 9)
        perm = rng.permutation(9)
        target = PlaneSet([source[int(j)] for j in perm])
        corr = match_planes(source, target, 1.0, 0.1)
        expected = sorted((int(perm[j]), j) for j in range(9))
        assert sorted(corr.pairs) == expected

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        source = manhattan_plane_set(rng, int(rng.integers(3, 8)))
        target = manhattan_plane_set(rng, int(rng.integers(3, 8)))
        dn = np.linalg.norm(source.normals[:, None] - target.normals[None], axis=2)
        dc = np.linalg.norm(source.centers[:, None] - target.centers[None], axis=2)
        cost = 1.0 * dn + 0.1 * dc
        expected = brute_force_assignment(cost, 2.0)
        try:
            corr = match_planes(source, target, 1.0, 0.1, 2.0)
            assert sorted(corr.pairs) == expected
        except NoCorrespondencesError:
            assert expected == []

    def test_empty_raises(self):
        rng = np.random.default_rng(2)
        with pytest.raises(NoCorrespondencesError):
            match_planes(PlaneSet([]), manhattan_plane_set(rng, 3), 1.0, 0.1)


class TestEstimateRotation:
    def test_identity_converges_fast(self):
        nm = np.eye(3)
        R, iters, converged = estimate_rotation(nm, nm)
        assert converged and iters <= 2
        assert np.allclose(R, np.eye(3), atol=1e-12)

    def test_recovers_sampled_rotation(self):
        R_true = rot_z(np.deg2rad(30.0))
        ns = np.eye(3)
        nt = ns @ R_true.T
        R, _, converged = estimate_rotation(ns, nt)
        assert converged
        err = np.linalg.norm(R - R_true)
        assert err < 1e-6

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_recovers_random_rotations(self, seed):
        rng = np.random.default_rng(seed)
        R_true = random_rotation(rng, max_angle=np.deg2rad(25))
        ns = rng.normal(size=(6, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        nt = ns @ R_true.T
        R, _, converged = estimate_rotation(ns, nt)
        assert converged
        assert np.max(np.abs(R - R_true)) < 1e-6

    def test_jacobian_matches_finite_differences(self):
        # Central differences of the stacked residual around random iterates.
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            R = random_rotation(rng)
            ns = rng.normal(size=(4, 3))
            ns /= np.linalg.norm(ns, axis=1, keepdims=True)
            nt = rng.normal(size=(4, 3))
            nt /= np.linalg.norm(nt, axis=1, keepdims=True)

            rn = ns @ R.T
            J_analytic = np.zeros((4, 3, 3))
            J_analytic[:, 0, 1] = rn[:, 2]
            J_analytic[:, 0, 2] = -rn[:, 1]
            J_analytic[:, 1, 0] = -rn[:, 2]
            J_analytic[:, 1, 2] = rn[:, 0]
            J_analytic[:, 2, 0] = rn[:, 1]
            J_analytic[:, 2, 1] = -rn[:, 0]
            J_analytic = J_analytic.reshape(-1, 3)

            J_fd = np.zeros_like(J_analytic)
            for k in range(3):
                d = np.zeros(3)
                d[k] = h
                rp = (ns @ (so3_exp(d) @ R).T - nt).reshape(-1)
                rm = (ns @ (so3_exp(-d) @ R).T - nt).reshape(-1)
                J_fd[:, k] = (rp - rm) / (2 * h)
            rel = np.max(np.abs(J_analytic - J_fd)) / max(1.0, np.max(np.abs(J_fd)))
            assert rel < 1e-5

    def test_parallel_normals_unobservable(self):
        ns = np.array([[0, 0, 1.0], [0, 0, 1.0], [0, 0, -1.0]])
        with pytest.raises(UnobservableRotationError):
            estimate_rotation(ns, ns)

    def test_single_pair_rejected(self):
        ns = np.array([[1.0, 0, 0]])
        with pytest.raises(UnobservableRotationError):
            estimate_rotation(ns, ns)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_iterates_stay_on_rotation_group(self, seed):
        rng = np.random.default_rng(seed)
        ns = rng.normal(size=(5, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        nt = rng.normal(size=(5, 3))
        nt /= np.linalg.norm(nt, axis=1, keepdims=True)
        R, _, _ = estimate_rotation(ns, nt)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9


class TestEstimateTranslation:
    def test_axis_aligned_identity(self):
        source = PlaneSet([axis_plane(0, 0.0), axis_plane(1, 0.0), axis_plane(2, 0.0)])
        target = PlaneSet([axis_plane(0, 1.0), axis_plane(1, 2.0), axis_plane(2, 3.0)])
        corr = Correspondences([(0, 0), (1, 1), (2, 2)], np.zeros(3))
        t, residual = estimate_translation(np.eye(3), source, target, corr)
        assert np.allclose(t, [1, 2, 3], atol=1e-12)
        assert np.allclose(residual, 0.0, atol=1e-12)

    def test_zero_when_distances_match(self):
        rng = np.random.default_rng(3)
        source = manhattan_plane_set(rng, 6)
        corr = Correspondences([(i, i) for i in range(6)], np.zeros(6))
        t, _ = estimate_translation(np.eye(3), source, source, corr)
        assert np.allclose(t, 0.0, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_pseudo_inverse_oracle(self, seed):
        rng = np.random.default_rng(seed)
        source = manhattan_plane_set(rng, 6)
        pose = Pose(random_rotation(rng, 0.3), rng.uniform(-1, 1, 3))
        target = source.transformed(pose)
        corr = Correspondences([(i, i) for i in range(6)], np.zeros(6))
        t, _ = estimate_translation(pose.R, source, target, corr)
        A = source.normals @ pose.R.T
        b = target.distances - source.distances
        t_oracle = np.linalg.pinv(A) @ b
        assert np.max(np.abs(t - t_oracle)) < 1e-9

    def test_optimality_gradient_is_zero(self):
        rng = np.random.default_rng(4)
        source = manhattan_plane_set(rng, 8)
        target = manhattan_plane_set(rng, 8)
        corr = Correspondences([(i, i) for i in range(8)], np.zeros(8))
        t, _ = estimate_translation(np.eye(3), source, target, corr)
        A = source.normals
        b = target.distances - source.distances
        grad = 2.0 * A.T @ (A @ t - b)
        assert np.linalg.norm(grad) < 1e-8

    def test_rank_deficient_raises(self):
        source = PlaneSet([axis_plane(2, 0.0), axis_plane(2, 1.0), axis_plane(2, 2.0),
                           axis_plane(0, 0.0)])
        corr = Correspondences([(0, 0), (1, 1), (2, 2)], np.zeros(3))
        with pytest.raises(RankDeficientError):
            estimate_translation(np.eye(3), source, source, corr)


class TestRegister:
    def test_source_equals_target(self):
        rng = np.random.default_rng(5)
        ps = manhattan_plane_set(rng, 7)
        result = register(ps, ps)
        assert np.allclose(result.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(result.translation, 0.0, atol=1e-9)
        assert result.excluded == []

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_recovers_known_transform(self, seed):
        rng = np.random.default_rng(seed)
        source = manhattan_plane_set(rng, int(rng.integers(6, 12)))
        pose = Pose(random_rotation(rng, np.deg2rad(10)), rng.uniform(-0.5, 0.5, 3))
        target = source.transformed(pose)
        result = register(source, target)
        assert np.max(np.abs(result.rotation - pose.R)) < 1e-6
        assert np.max(np.abs(result.translation - pose.t)) < 1e-6
        assert result.excluded == []

    def test_excludes_constructed_outlier(self):
        rng = np.random.default_rng(6)
        source = manhattan_plane_set(rng, 8)
        pose = Pose(random_rotation(rng, np.deg2rad(8)), rng.uniform(-0.4, 0.4, 3))
        moved = [p for p in source.transformed(pose)]
        # Shift one target plane 1 m along its own normal: the pair keeps its
        # normal (so it still matches) but carries a 1 m distance residual.
        bad = 3
        p = moved[bad]
        moved[bad] = Plane(p.center + 1.0 * p.normal, p.span_x, p.span_y)
        target = PlaneSet(moved)
        result = register(source, target)
        assert (bad, bad) in result.excluded
        assert np.max(np.abs(result.rotation - pose.R)) < 1e-6
        assert np.max(np.abs(result.translation - pose.t)) < 1e-6

    def test_exhaustion_raises(self):
        # Three planes cannot lose any pair without dropping below the
        # observability minimum, so an unresolvable fault must raise.
        source = PlaneSet([axis_plane(0, 0.0), axis_plane(1, 0.0), axis_plane(2, 0.0)])
        moved = [axis_plane(0, 0.0), axis_plane(1, 0.0), axis_plane(2, 1.0)]
        target = PlaneSet(moved)
        corr = Correspondences([(0, 0), (1, 1), (2, 2)], np.zeros(3))
        params = RegistrationParams(fault_threshold=1e-6)
        # A consistent pure translation has zero residual, so make it
        # inconsistent: two planes say "no z motion", one says "1 m of z".
        target = PlaneSet([axis_plane(0, 0.0), axis_plane(2, 0.0), axis_plane(2, 1.0)])
        source = PlaneSet([axis_plane(0, 0.0), axis_plane(2, 0.0), axis_plane(2, 0.5)])
        with pytest.raises(RegistrationError):
            register(source, target, params, corr)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_rotation_ignores_center_translation(self, seed):
        # Decoupling: shifting every center (hence every distance) must not
        # change the rotation estimate, which consumes normals only.
        rng = np.random.default_rng(seed)
        source = manhattan_plane_set(rng, 6)
        pose = Pose(random_rotation(rng, 0.2), np.zeros(3))
        target = source.transformed(pose)
        shifted = PlaneSet([Plane(p.center + [3.0, -2.0, 1.0], p.span_x, p.span_y)
                            for p in source])
        idx = np.arange(6)
        R1, _, _ = estimate_rotation(source.normals[idx], target.normals[idx])
        R2, _, _ = estimate_rotation(shifted.normals[idx], target.normals[idx])
        assert np.max(np.abs(R1 - R2)) < 1e-12

    def test_monotone_cost_under_halving(self):
        # A far-from-identity target exercises the halving path; the final
        # cost can never exceed the identity-start cost.
        rng = np.random.default_rng(8)
        R_true = random_rotation(rng, np.pi / 2)
        ns = rng.normal(size=(8, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        nt = ns @ R_true.T
        R, _, _ = estimate_rotation(ns, nt)
        cost_identity = np.sum((ns - nt) ** 2)
        cost_final = np.sum((ns @ R.T - nt) ** 2)
        assert cost_final <= cost_identity + 1e-12

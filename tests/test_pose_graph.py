import copy
import warnings

import numpy as np
import pytest

from manhattan_slam.extraction import ExtractionParams, extract_detailed
from manhattan_slam.geometry import (
    PlaneSet,
    Pose,
    compose,
    relative_pose,
    rot_z,
    rotation_angle_between,
    so3_exp,
)
from manhattan_slam.pose_graph import (
    GraphEdge,
    PoseGraph,
    _edge_jacobians,
    registration_to_relative,
)
from manhattan_slam.registration import RegistrationParams, register
from manhattan_slam.simulator import raycast_scan, standard_lidar_config, standard_scene

from oracles import edge_error, edge_error_ref, edge_jacobians_fd, random_rotation


def random_pose(rng):
    return Pose(random_rotation(rng), rng.uniform(-3, 3, 3))


class TestAddFrame:
    def test_identity_relative_keeps_pose(self):
        g = PoseGraph()
        g.add_frame(PlaneSet(), Pose.identity())
        assert np.allclose(g.pose(1).t, g.pose(0).t)
        assert np.allclose(g.pose(1).R, g.pose(0).R)

    def test_straight_line(self):
        g = PoseGraph()
        step = Pose(np.eye(3), [1.0, 0, 0])
        for _ in range(10):
            g.add_frame(PlaneSet(), step)
        assert np.allclose(g.pose(10).t, [10.0, 0, 0], atol=1e-12)

    def test_square_loop_returns_to_start(self):
        # four 1 m legs with 90 degree turns; composing the measured
        # relatives must land exactly back at the origin
        gt = [Pose(rot_z(np.pi / 2 * k % (2 * np.pi)), t) for k, t in
              enumerate([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])]
        gt.append(gt[0])
        g = PoseGraph(gt[0])
        for a, b in zip(gt[:-1], gt[1:]):
            g.add_frame(PlaneSet(), relative_pose(a, b))
        assert np.allclose(g.pose(4).t, gt[0].t, atol=1e-9)
        assert np.allclose(g.pose(4).R, gt[0].R, atol=1e-9)

    def test_edges_are_consecutive(self):
        g = PoseGraph()
        g.add_frame(PlaneSet(), Pose.identity())
        g.add_frame(PlaneSet(), Pose.identity())
        for e in g.edges:
            assert e.to_id == e.from_id + 1


class TestLoopCandidates:
    def build_line_graph(self, n=30, spacing=1.0):
        g = PoseGraph()
        for _ in range(n):
            g.add_frame(PlaneSet(), Pose(np.eye(3), [spacing, 0, 0]))
        return g

    def test_straight_line_no_candidates(self):
        g = self.build_line_graph()
        assert g.find_loop_candidates(30, radius=3.0) == []

    def test_consecutive_excluded_even_when_near(self):
        g = PoseGraph()
        for _ in range(15):
            g.add_frame(PlaneSet(), Pose(np.eye(3), [0.1, 0, 0]))
        cands = g.find_loop_candidates(15, radius=0.5, min_separation=10)
        assert 14 not in cands and 15 not in cands
        assert all(abs(15 - j) > 10 for j in cands)

    def test_revisit_detected(self):
        g = PoseGraph()
        for _ in range(50):
            g.add_frame(PlaneSet(), Pose(np.eye(3), [1.0, 0, 0]))
        for _ in range(50):
            g.add_frame(PlaneSet(), Pose(np.eye(3), [-1.0, 0, 0]))
        cands = g.find_loop_candidates(100, radius=3.0)
        assert 0 in cands
        assert cands[0] == 0 or np.linalg.norm(g.pose(cands[0]).t) < 3.0


class TestCloseLoop:
    def scan_planes(self, pose, seed=0):
        scene, _ = standard_scene("room")
        cfg = standard_lidar_config("room", points_per_scan=5000)
        cloud = raycast_scan(scene, pose, cfg, seed=seed)
        return extract_detailed(cloud, ExtractionParams(min_cluster_size=50)).plane_set

    def test_revisit_gives_identity_edge(self):
        pose = Pose(np.eye(3), [0.0, 0.0, 1.1])
        planes = self.scan_planes(pose)
        g = PoseGraph(pose, planes)
        for _ in range(11):
            g.add_frame(PlaneSet(), Pose.identity())
        g.nodes[11].plane_set = self.scan_planes(pose)
        edge = g.close_loop(11, 0)
        assert edge is not None
        assert edge.kind == "loop_closure"
        assert np.max(np.abs(edge.relative.t)) < 1e-6
        assert rotation_angle_between(edge.relative.R, np.eye(3)) < 1e-4

    def test_same_node_rejected(self):
        g = PoseGraph()
        with pytest.raises(ValueError):
            g.close_loop(0, 0)

    def test_empty_plane_sets_return_none(self):
        g = PoseGraph()
        for _ in range(12):
            g.add_frame(PlaneSet(), Pose(np.eye(3), [0.1, 0, 0]))
        assert g.close_loop(12, 0) is None


class TestRegistrationToRelative:
    def test_round_trips_through_compose(self):
        # the measured relative must reproduce the true child pose exactly
        rng = np.random.default_rng(4)
        for _ in range(20):
            parent, child = random_pose(rng), random_pose(rng)
            R_reg = parent.R.T @ child.R            # body-frame increment
            t_reg = parent.R.T @ (child.t - parent.t)
            rel = registration_to_relative(parent, R_reg, t_reg)
            out = compose(parent, rel)
            assert np.allclose(out.R, child.R, atol=1e-9)
            assert np.allclose(out.t, child.t, atol=1e-9)


class TestEdgeJacobians:
    @pytest.mark.parametrize("angle", [0.0, 1e-6, 1e-3, 0.3, 1.0, 2.0, 2.5])
    def test_analytic_blocks_match_finite_differences(self, angle):
        # measured relatives chosen so that the rotation error has the given
        # size; zero takes the small-angle series of the inverse Jacobian
        rng = np.random.default_rng(int(angle * 1e6) + 17)
        for _ in range(5):
            pi, pj = random_pose(rng), random_pose(rng)
            axis = rng.normal(size=3)
            phi = angle * axis / np.linalg.norm(axis)
            mR = pj.R @ pi.R.T @ so3_exp(-phi)
            mt = pi.R.T @ (pj.t - pi.t) - rng.uniform(-0.5, 0.5, 3)
            measured = Pose(mR, mt)
            err = edge_error(measured, pi, pj)
            ref = edge_error_ref(measured.R, measured.t, pi.R, pi.t, pj.R, pj.t)
            assert np.allclose(err, ref, atol=1e-9)
            assert abs(np.linalg.norm(err[:3]) - angle) < 1e-9
            Ji, Jj = _edge_jacobians(measured.R[None], pi.R[None], pi.t[None],
                                     pj.t[None], err[None, :3])
            Fi, Fj = edge_jacobians_fd(measured.R, measured.t, pi.R, pi.t,
                                       pj.R, pj.t)
            assert np.allclose(Ji[0], Fi, rtol=0, atol=1e-6)
            assert np.allclose(Jj[0], Fj, rtol=0, atol=1e-6)


class TestOptimize:
    def noisy_square_graph(self, sigma_t=0.05, sigma_r=0.01, seed=0):
        """Square loop with odometry noise and one exact closure edge."""
        rng = np.random.default_rng(seed)
        side, per_side = 8.0, 8
        gt = [Pose(np.eye(3), [0, 0, 0])]
        headings = [0.0, np.pi / 2, np.pi, -np.pi / 2]
        pos = np.zeros(3)
        for leg in range(4):
            d = np.array([np.cos(headings[leg]), np.sin(headings[leg]), 0.0])
            for _ in range(per_side):
                pos = pos + d * (side / per_side)
                gt.append(Pose(rot_z(headings[leg]), pos.copy()))
        g = PoseGraph(gt[0])
        for a, b in zip(gt[:-1], gt[1:]):
            rel = relative_pose(a, b)
            noisy = Pose(rot_z(rng.normal(0, sigma_r)) @ rel.R,
                         rel.t + rng.normal(0, sigma_t, 3))
            g.add_frame(PlaneSet(), noisy)
        # exact loop closure between the final node and the start
        k = len(g.nodes) - 1
        true_rel = relative_pose(gt[0], gt[k])
        g.edges.append(GraphEdge(0, k, true_rel, "loop_closure"))
        return g, gt

    def test_consistent_graph_unchanged(self):
        rng = np.random.default_rng(1)
        gt = [Pose.identity()]
        for _ in range(12):
            gt.append(compose(gt[-1], Pose(rot_z(0.1), [1.0, 0.1, 0.0])))
        g = PoseGraph(gt[0])
        for a, b in zip(gt[:-1], gt[1:]):
            g.add_frame(PlaneSet(), relative_pose(a, b))
        g.edges.append(GraphEdge(0, 12, relative_pose(gt[0], gt[12]),
                                 "loop_closure"))
        before = [np.array(p.t) for p in g.poses()]
        result = g.optimize()
        assert result.performed
        assert result.final_chi2 < 1e-12
        for t0, node in zip(before, g.nodes):
            assert np.allclose(t0, node.pose.t, atol=1e-9)

    def test_no_loop_edges_is_noop(self):
        g = PoseGraph()
        for _ in range(5):
            g.add_frame(PlaneSet(), Pose(np.eye(3), [1.0, 0, 0]))
        before = [np.array(p.t) for p in g.poses()]
        result = g.optimize()
        assert not result.performed
        for t0, node in zip(before, g.nodes):
            assert np.array_equal(t0, node.pose.t)

    def test_noisy_loop_endpoint_improves(self):
        g, gt = self.noisy_square_graph()
        k = len(g.nodes) - 1
        gap_before = np.linalg.norm(g.pose(k).t - gt[k].t)
        result = g.optimize()
        assert result.performed and not result.aborted
        gap_after = np.linalg.norm(g.pose(k).t - gt[k].t)
        assert gap_after <= 0.5 * gap_before

    def test_chi2_non_increasing(self):
        g, _ = self.noisy_square_graph(seed=3)
        result = g.optimize()
        h = result.chi2_history
        assert all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))

    def test_gauge_fixed_node0(self):
        g, _ = self.noisy_square_graph(seed=5)
        R0, t0 = np.array(g.pose(0).R), np.array(g.pose(0).t)
        g.optimize()
        assert np.array_equal(R0, g.pose(0).R)
        assert np.array_equal(t0, g.pose(0).t)

    def test_singular_system_aborts_with_poses_untouched(self):
        zero = np.zeros((6, 6))
        g = PoseGraph()
        for _ in range(12):
            g.add_frame(PlaneSet(), Pose(rot_z(0.1), [1.0, 0.2, 0.0]), zero)
        g.edges.append(GraphEdge(0, 12, Pose(np.eye(3), [0.5, 0.0, 0.0]),
                                 "loop_closure", zero))
        before = [(np.array(p.R), np.array(p.t)) for p in g.poses()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = g.optimize()
        assert result.performed and result.aborted
        for (R, t), p in zip(before, g.poses()):
            assert np.array_equal(R, p.R)
            assert np.array_equal(t, p.t)

    def test_repeat_solves_are_bitwise_equal(self):
        g, _ = self.noisy_square_graph(seed=2)
        a, b = copy.deepcopy(g), copy.deepcopy(g)
        ra, rb = a.optimize(), b.optimize()
        assert ra.chi2_history == rb.chi2_history
        assert ra.final_chi2 == rb.final_chi2
        for p, q in zip(a.poses(), b.poses()):
            assert np.array_equal(p.R, q.R)
            assert np.array_equal(p.t, q.t)

    def test_rotations_stay_orthonormal(self):
        g, _ = self.noisy_square_graph(seed=7)
        g.optimize()
        for node in g.nodes:
            R = node.pose.R
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9


class TestDump:
    def test_dump_format(self, tmp_path):
        g = PoseGraph()
        g.add_frame(PlaneSet(), Pose(rot_z(0.3), [1.0, 2.0, 3.0]))
        for _ in range(11):
            g.add_frame(PlaneSet(), Pose(np.eye(3), [0.5, 0, 0]))
        g.edges.append(GraphEdge(0, 12, Pose.identity(), "loop_closure"))
        text = g.dumps()
        lines = text.strip().split("\n")
        vertices = [l for l in lines if l.startswith("VERTEX")]
        edges = [l for l in lines if l.startswith("EDGE")]
        assert len(vertices) == 13
        assert len(edges) == 13
        parts = vertices[1].split()
        assert parts[1] == "1" and len(parts) == 9
        epart = edges[-1].split()
        assert epart[-1] == "loop_closure"
        assert len(epart) == 11
        path = tmp_path / "graph.txt"
        g.dump(path)
        assert path.read_text() == text

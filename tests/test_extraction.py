import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manhattan_slam.extraction import (
    Cluster,
    DegenerateBasisError,
    EmptyMeshError,
    ExtractionParams,
    NoGroundPlaneError,
    SphericalAngles,
    TooFewPointsError,
    TriangleMesh,
    cluster_mesh,
    compute_normals,
    extract_detailed,
    extract_planes,
    find_extraction_basis,
    prune_mesh,
    smooth_laplacian,
    spherical_project,
    triangulate,
)
from manhattan_slam.extraction import _adjacency_from_triangles
from manhattan_slam.geometry import PointCloud, Pose
from manhattan_slam.simulator import (
    Box,
    BoxScene,
    LidarConfig,
    raycast_scan,
    standard_lidar_config,
    standard_scene,
)

from oracles import (
    cluster_partition_ref,
    delaunay_empty_circumcircle_violations,
    edge_neighbors_ref,
    neighbor_sets,
)


# extraction profile suited to the closed room's dense wide-FOV scans
ROOM_PARAMS = dict(smoothing_iterations=2, smoothing_weight=0.5,
                   cluster_threshold=0.95)


def angles_from_xy(xy: np.ndarray) -> SphericalAngles:
    xy = np.asarray(xy, float)
    return SphericalAngles(xy[:, 0], xy[:, 1],
                           np.ones(len(xy), dtype=bool), 0)


def grid_cloud_and_mesh(n: int = 5, z: float = 0.0):
    """Flat n x n grid in the z-plane with a manual two-per-cell mesh."""
    xs, ys = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(n * n, z)])
    tris = []
    for r in range(n - 1):
        for c in range(n - 1):
            a = r * n + c
            tris.append([a, a + 1, a + n])
            tris.append([a + 1, a + n + 1, a + n])
    tris = np.asarray(tris)
    return PointCloud(pts), TriangleMesh(tris, _adjacency_from_triangles(tris))


def blocks_scan() -> PointCloud:
    """A noisy full 360-degree scan of the blocks scene."""
    scene, spec = standard_scene("blocks")
    cfg = standard_lidar_config("blocks", range_noise_sigma=0.02)
    return raycast_scan(scene, spec.waypoints[0], cfg, seed=1)


class TestSphericalProject:
    def test_on_x_axis(self):
        a = spherical_project(PointCloud(np.array([[1.0, 0.0, 0.0]])))
        assert a.theta[0] == 0.0 and a.phi[0] == 0.0

    def test_on_y_axis(self):
        a = spherical_project(PointCloud(np.array([[0.0, 1.0, 0.0]])))
        assert abs(a.theta[0] - math.pi / 2) < 1e-15 and a.phi[0] == 0.0

    def test_diagonal(self):
        a = spherical_project(PointCloud(np.array([[1.0, 1.0, math.sqrt(2.0)]])))
        assert abs(a.theta[0] - math.pi / 4) < 1e-12
        assert abs(a.phi[0] - math.pi / 4) < 1e-12

    def test_origin_point_rejected(self):
        a = spherical_project(PointCloud(np.array([[0.0, 0.0, 0.0],
                                                   [1.0, 0.0, 0.0]])))
        assert a.rejected_count == 1
        assert not a.valid[0] and a.valid[1]

    def test_preserves_order(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3)) + np.array([3.0, 0, 0])
        a = spherical_project(PointCloud(pts))
        assert np.allclose(a.theta, np.arctan2(pts[:, 1], pts[:, 0]))


class TestTriangulate:
    def test_unit_square_two_triangles(self):
        mesh = triangulate(angles_from_xy([[0, 0], [1, 0], [0, 1], [1, 1]]))
        assert len(mesh) == 2

    def test_collinear_raises(self):
        with pytest.raises(EmptyMeshError):
            triangulate(angles_from_xy([[0, 0], [1, 0], [2, 0]]))

    def test_empty_circumcircle_property(self):
        rng = np.random.default_rng(1)
        xy = np.column_stack([rng.uniform(-2, 2, 200), rng.uniform(-1, 1, 200)])
        mesh = triangulate(angles_from_xy(xy))
        assert delaunay_empty_circumcircle_violations(xy, mesh.triangles) == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_empty_circumcircle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 120))
        xy = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-1, 1, n)])
        mesh = triangulate(angles_from_xy(xy))
        assert delaunay_empty_circumcircle_violations(xy, mesh.triangles) == 0

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(2)
        xy = np.column_stack([rng.uniform(-2, 2, 80), rng.uniform(-1, 1, 80)])
        mesh = triangulate(angles_from_xy(xy))
        for i, row in enumerate(mesh.neighbors):
            for j in row:
                if j >= 0:
                    assert i in mesh.neighbors[j]

    def test_neighbor_table_complete_on_360_scan(self):
        # the seam band is meshed twice, so some edges carry three or more
        # triangles; every one of them must list all the others
        cloud = blocks_scan()
        mesh = triangulate(spherical_project(cloud))
        table = neighbor_sets(mesh.neighbors)
        assert all(i in table[j] for i, row in enumerate(table) for j in row)
        assert table == edge_neighbors_ref(mesh.triangles)

    def test_seam_duplication_connects_wrap_around(self):
        # A full 360-degree ring of points: without seam handling the chart
        # tears at theta = +-pi; with it, triangles must bridge the seam.
        theta = np.linspace(-math.pi, math.pi, 72, endpoint=False)
        phi_rows = [-0.1, 0.0, 0.1]
        th = np.repeat(theta, len(phi_rows))
        ph = np.tile(phi_rows, len(theta))
        mesh = triangulate(SphericalAngles(th, ph, np.ones(th.size, bool), 0))
        left = set(np.flatnonzero(th < -math.pi + 0.2))
        right = set(np.flatnonzero(th > math.pi - 0.2))
        bridges = [t for t in mesh.triangles
                   if (set(t) & left) and (set(t) & right)]
        assert bridges, "no triangles bridge the azimuth seam"


class TestPruneMesh:
    def test_long_edge_removed(self):
        pts = PointCloud(np.array([[0, 0, 0], [10.0, 0, 0], [0, 1.0, 0],
                                   [0.5, 0.5, 0]]))
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = TriangleMesh(tris, _adjacency_from_triangles(tris))
        pruned = prune_mesh(mesh, pts, max_edge=1.0)
        assert len(pruned) == 1
        assert list(pruned.triangles[0]) == [0, 2, 3]

    def test_infinite_threshold_keeps_all(self):
        cloud, mesh = grid_cloud_and_mesh(4)
        pruned = prune_mesh(mesh, cloud, max_edge=np.inf)
        assert len(pruned) == len(mesh)

    def test_wall_scan_keeps_wall_drops_gaps(self):
        # A wall at 5 m next to a distant block: triangles across the range
        # gap have long 3D edges and must vanish, wall triangles survive.
        scene = BoxScene([Box((5.0, -4.0, 0.0), (5.5, 4.0, 4.0)),
                          Box((30.0, -40.0, 0.0), (30.5, 40.0, 25.0))],
                         (-0.01, -0.01), (0.005, 0.005))
        cfg = LidarConfig(channels=10, vertical_fov_deg=30,
                          horizontal_fov_deg=120, points_per_scan=1500)
        cloud = raycast_scan(scene, Pose(np.eye(3), [0, 0, 1.5]), cfg)
        angles = spherical_project(cloud)
        mesh = triangulate(angles)
        pruned = prune_mesh(mesh, cloud, max_edge=0.5)
        ranges = np.linalg.norm(cloud.points, axis=1)
        wall = ranges < 10.0
        # every surviving triangle is entirely on one surface
        for t in pruned.triangles:
            assert wall[t].all() or (~wall[t]).all()
        # and the wall kept a solid mesh
        assert sum(wall[t].all() for t in pruned.triangles) > 100


class TestFilteredNeighborTable:
    """prune_mesh and compute_normals filter the table; it must equal a
    rebuild over the surviving triangles."""

    def test_prune_equals_rebuild(self):
        cloud = blocks_scan()
        pruned = prune_mesh(triangulate(spherical_project(cloud)), cloud,
                            max_edge=0.5)
        assert neighbor_sets(pruned.neighbors) == \
            neighbor_sets(_adjacency_from_triangles(pruned.triangles))

    def test_compute_normals_equals_rebuild(self):
        cloud = blocks_scan()
        mesh = triangulate(spherical_project(cloud))
        tv = cloud.points[mesh.triangles]
        areas = 0.5 * np.linalg.norm(
            np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]), axis=1)
        out = compute_normals(mesh, cloud, min_area=float(np.median(areas)))
        assert 0 < len(out) < len(mesh)
        assert neighbor_sets(out.neighbors) == \
            neighbor_sets(_adjacency_from_triangles(out.triangles))


class TestSmoothing:
    def test_zero_weight_is_identity(self):
        cloud, mesh = grid_cloud_and_mesh(5)
        out = smooth_laplacian(cloud, mesh, iterations=3, weight=0.0)
        assert np.array_equal(out.points, cloud.points)

    def test_coplanar_points_stay_coplanar(self):
        cloud, mesh = grid_cloud_and_mesh(6, z=2.5)
        out = smooth_laplacian(cloud, mesh, iterations=4, weight=0.5)
        assert np.max(np.abs(out.points[:, 2] - 2.5)) < 1e-12

    def test_displaced_point_relaxes_monotonically(self):
        cloud, mesh = grid_cloud_and_mesh(5)
        pts = np.array(cloud.points)
        center = 12  # middle of the 5x5 grid
        pts[center, 2] = 0.1
        current = PointCloud(pts)
        prev = 0.1
        for _ in range(5):
            current = smooth_laplacian(current, mesh, iterations=1, weight=0.5)
            dist = abs(current.points[center, 2])
            assert dist < prev
            prev = dist

    def test_unmeshed_points_unchanged(self):
        pts = np.array([[0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [9.0, 9.0, 9.0]])
        tris = np.array([[0, 1, 2]])
        mesh = TriangleMesh(tris, _adjacency_from_triangles(tris))
        out = smooth_laplacian(PointCloud(pts), mesh, iterations=3, weight=0.5)
        assert np.array_equal(out.points[3], pts[3])


class TestComputeNormals:
    def test_below_sensor_faces_up(self):
        pts = PointCloud(np.array([[0, 0, -1.0], [1.0, 0, -1.0], [0, 1.0, -1.0]]))
        tris = np.array([[0, 1, 2]])
        mesh = compute_normals(TriangleMesh(tris, _adjacency_from_triangles(tris)), pts)
        assert np.allclose(mesh.normals[0], [0, 0, 1])

    def test_orientation_independent_of_vertex_order(self):
        pts = PointCloud(np.array([[0, 0, -1.0], [1.0, 0, -1.0], [0, 1.0, -1.0]]))
        tris = np.array([[0, 2, 1]])
        mesh = compute_normals(TriangleMesh(tris, _adjacency_from_triangles(tris)), pts)
        assert np.allclose(mesh.normals[0], [0, 0, 1])

    def test_zero_area_triangle_removed(self):
        pts = PointCloud(np.array([[0, 0, -1.0], [1.0, 0, -1.0], [2.0, 0, -1.0],
                                   [0, 1.0, -1.0]]))
        tris = np.array([[0, 1, 2], [0, 1, 3]])
        mesh = compute_normals(TriangleMesh(tris, _adjacency_from_triangles(tris)), pts)
        assert len(mesh) == 1


def corner_scene() -> BoxScene:
    return BoxScene([Box((5.0, -5.0, 0.0), (5.2, 5.0, 4.0)),
                     Box((-5.0, 5.0, 0.0), (5.0, 5.2, 4.0))],
                    (-0.01, -0.01), (0.005, 0.005))


class TestClustering:
    def scan_mesh(self, scene, cfg, pose=None):
        pose = pose or Pose(np.eye(3), [0, 0, 1.5])
        cloud = raycast_scan(scene, pose, cfg)
        angles = spherical_project(cloud)
        mesh = prune_mesh(triangulate(angles), cloud, 2.0)
        return compute_normals(mesh, cloud)

    def test_single_wall_one_cluster(self):
        scene = BoxScene([Box((5.0, -4.0, 0.0), (5.2, 4.0, 4.0))],
                         (-0.01, -0.01), (0.005, 0.005))
        cfg = LidarConfig(channels=10, vertical_fov_deg=24,
                          horizontal_fov_deg=60, points_per_scan=1200)
        mesh = self.scan_mesh(scene, cfg)
        clusters = cluster_mesh(mesh, threshold=0.9, min_cluster_size=20)
        assert len(clusters) == 1
        assert len(clusters[0].triangle_indices) == len(mesh)

    def test_two_perpendicular_walls(self):
        cfg = LidarConfig(channels=10, vertical_fov_deg=30,
                          horizontal_fov_deg=360, points_per_scan=3600)
        mesh = self.scan_mesh(corner_scene(), cfg)
        clusters = cluster_mesh(mesh, threshold=0.9, min_cluster_size=20)
        assert len(clusters) == 2
        dot = abs(float(clusters[0].avg_normal @ clusters[1].avg_normal))
        assert dot < math.sin(math.radians(2.0))

    def test_partition_before_size_filter(self):
        cfg = LidarConfig(channels=8, vertical_fov_deg=30,
                          horizontal_fov_deg=360, points_per_scan=1600)
        mesh = self.scan_mesh(corner_scene(), cfg)
        clusters = cluster_mesh(mesh, threshold=0.95, min_cluster_size=1)
        counts = np.zeros(len(mesh), dtype=int)
        for c in clusters:
            counts[c.triangle_indices] += 1
        assert np.all(counts == 1)

    def test_near_unity_threshold_still_partitions(self):
        cfg = LidarConfig(channels=8, vertical_fov_deg=24,
                          horizontal_fov_deg=90, points_per_scan=800,
                          range_noise_sigma=0.01)
        scene = BoxScene([Box((5.0, -4.0, 0.0), (5.2, 4.0, 4.0))],
                         (-0.01, -0.01), (0.005, 0.005))
        mesh = self.scan_mesh(scene, cfg)
        clusters = cluster_mesh(mesh, threshold=0.999, min_cluster_size=1)
        assert len(clusters) >= 1
        total = sum(len(c.triangle_indices) for c in clusters)
        assert total == len(mesh)


    @pytest.mark.parametrize("scene_name", ["blocks", "room"])
    def test_matches_connected_components_oracle(self, scene_name):
        if scene_name == "blocks":
            cloud, params = blocks_scan(), ExtractionParams()
        else:
            scene, spec = standard_scene("room")
            cloud = raycast_scan(scene, spec.waypoints[0],
                                 standard_lidar_config("room"))
            params = ExtractionParams(**ROOM_PARAMS)
        mesh = prune_mesh(triangulate(spherical_project(cloud)), cloud,
                          params.max_edge)
        smoothed = smooth_laplacian(cloud, mesh, params.smoothing_iterations,
                                    params.smoothing_weight)
        mesh = compute_normals(mesh, smoothed)
        clusters = cluster_mesh(mesh, params.cluster_threshold,
                                min_cluster_size=1)
        ref = cluster_partition_ref(mesh.neighbors, mesh.normals,
                                    params.cluster_threshold)
        assert len(clusters) == len(ref)
        for c, r in zip(clusters, ref):
            assert np.array_equal(c.triangle_indices, r)


def make_cluster(normal, size=100) -> Cluster:
    n = np.asarray(normal, float)
    return Cluster(np.arange(size), np.arange(3), n / np.linalg.norm(n))


class TestExtractionBasis:
    def test_exact_axes(self):
        clusters = [make_cluster([0, 0, 1], 200), make_cluster([1, 0, 0], 100)]
        B = find_extraction_basis(clusters)
        assert np.allclose(B, np.eye(3), atol=1e-12)

    def test_projection_kills_z(self):
        a = math.radians(10.0)
        clusters = [make_cluster([0, 0, 1], 200),
                    make_cluster([math.cos(a), 0.0, math.sin(a)], 100)]
        B = find_extraction_basis(clusters)
        assert np.allclose(B[:, 0], [1, 0, 0], atol=1e-12)
        assert np.allclose(B[:, 2], [0, 0, 1], atol=1e-12)

    def test_no_ground_raises(self):
        with pytest.raises(NoGroundPlaneError):
            find_extraction_basis([make_cluster([1, 0, 0])])

    def test_no_wall_raises(self):
        with pytest.raises(DegenerateBasisError):
            find_extraction_basis([make_cluster([0, 0, 1])])

    def test_simulator_room_basis_aligns_with_scene(self):
        scene, spec = standard_scene("room")
        cfg = standard_lidar_config("room", points_per_scan=4000)
        cloud = raycast_scan(scene, spec.waypoints[0], cfg)
        result = extract_detailed(cloud, ExtractionParams(min_cluster_size=150, **ROOM_PARAMS))
        B = result.basis
        # each basis column within 2 degrees of a scene axis
        for k in range(3):
            assert np.max(np.abs(B[:, k])) > math.cos(math.radians(2.0))


class TestExtractPlanes:
    def test_square_cluster_bounding_box(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 1, (400, 2)) * np.array([2.0, 1.0])
        # pin the extremes so the box is exact
        xy[0] = [0.0, 0.0]
        xy[1] = [2.0, 1.0]
        xy[2] = [2.0, 0.0]
        xy[3] = [0.0, 1.0]
        pts = np.column_stack([xy, np.full(len(xy), 3.0)])
        cloud = PointCloud(pts)
        cluster = Cluster(np.arange(1), np.arange(len(pts)), np.array([0, 0, 1.0]))
        ps = extract_planes([cluster], cloud, np.eye(3))
        assert len(ps) == 1
        p = ps[0]
        assert np.allclose(p.center, [1.0, 0.5, 3.0], atol=1e-12)
        assert np.allclose(p.normal, [0, 0, 1], atol=1e-12)
        assert abs(np.linalg.norm(p.span_x) - 2.0) < 1e-12
        assert abs(np.linalg.norm(p.span_y) - 1.0) < 1e-12

    def test_normal_snaps_to_nearest_axis(self):
        pts = np.column_stack([np.full(50, 2.0),
                               np.linspace(0, 1, 50),
                               np.linspace(0, 1, 50) ** 2])
        cloud = PointCloud(pts)
        n = np.array([0.9, 0.1, 0.0])
        cluster = Cluster(np.arange(1), np.arange(50), n / np.linalg.norm(n))
        ps = extract_planes([cluster], cloud, np.eye(3))
        assert np.allclose(np.abs(ps[0].normal), [1, 0, 0], atol=1e-12)

    def test_degenerate_box_skipped(self):
        pts = np.column_stack([np.linspace(0, 1, 30), np.zeros(30), np.zeros(30)])
        cloud = PointCloud(pts)
        cluster = Cluster(np.arange(1), np.arange(30), np.array([0, 0, 1.0]))
        ps = extract_planes([cluster], cloud, np.eye(3))
        assert len(ps) == 0


class TestExtract:
    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            extract_detailed(PointCloud(np.array([[1.0, 0, 0], [2.0, 0, 0]]))).plane_set

    def test_room_scan_recovers_faces(self):
        scene, spec = standard_scene("room")
        cfg = standard_lidar_config("room")
        cloud = raycast_scan(scene, spec.waypoints[0], cfg)
        ps = extract_detailed(
            cloud, ExtractionParams(min_cluster_size=300, **ROOM_PARAMS)).plane_set
        assert len(ps) == 6
        for n in ps.normals:
            # every normal within 2 degrees of a scene axis
            assert np.max(np.abs(n)) > math.cos(math.radians(2.0))

    def test_output_normals_mutually_orthogonal(self):
        scene, spec = standard_scene("room")
        cfg = standard_lidar_config("room", points_per_scan=5000,
                                    range_noise_sigma=0.01)
        cloud = raycast_scan(scene, spec.waypoints[0], cfg, seed=5)
        ps = extract_detailed(
            cloud, ExtractionParams(min_cluster_size=50, **ROOM_PARAMS)).plane_set
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                d = abs(float(ps.normals[i] @ ps.normals[j]))
                assert d < 1e-12 or abs(d - 1.0) < 1e-12

    def test_cluster_points_inside_plane_box(self):
        scene, spec = standard_scene("room")
        cfg = standard_lidar_config("room", points_per_scan=5000)
        cloud = raycast_scan(scene, spec.waypoints[0], cfg)
        params = ExtractionParams(min_cluster_size=50, **ROOM_PARAMS)
        angles = spherical_project(cloud)
        mesh = prune_mesh(triangulate(angles, params.seam_margin), cloud,
                          params.max_edge)
        smoothed = smooth_laplacian(cloud, mesh, params.smoothing_iterations,
                                    params.smoothing_weight)
        mesh = compute_normals(mesh, smoothed)
        clusters = cluster_mesh(mesh, params.cluster_threshold,
                                params.min_cluster_size)
        basis = find_extraction_basis(clusters)
        planes = extract_planes(clusters, smoothed, basis)
        assert len(planes) == len(clusters)
        for k, (cluster, plane) in enumerate(zip(clusters, planes)):
            B = planes.bases[k]
            local = smoothed.points[cluster.point_indices] @ B
            cB = plane.center @ B
            hu = 0.5 * np.linalg.norm(plane.span_x)
            hv = 0.5 * np.linalg.norm(plane.span_y)
            assert np.all(np.abs(local[:, 0] - cB[0]) <= hu + 1e-6)
            assert np.all(np.abs(local[:, 1] - cB[1]) <= hv + 1e-6)

    def test_deterministic(self):
        scene, spec = standard_scene("room")
        cfg = standard_lidar_config("room", points_per_scan=4000,
                                    range_noise_sigma=0.02)
        cloud = raycast_scan(scene, spec.waypoints[0], cfg, seed=7)
        a = extract_detailed(
            cloud, ExtractionParams(min_cluster_size=50, **ROOM_PARAMS)).plane_set
        b = extract_detailed(
            cloud, ExtractionParams(min_cluster_size=50, **ROOM_PARAMS)).plane_set
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.center, pb.center)
            assert np.array_equal(pa.span_x, pb.span_x)
            assert np.array_equal(pa.span_y, pb.span_y)

    def test_fallback_basis_used_when_no_ground(self):
        # A wall-only scene has no near-vertical cluster; extraction must
        # fail without a fallback and succeed with one.
        scene = BoxScene([Box((5.0, -4.0, 0.0), (5.2, 4.0, 4.0))],
                         (-0.01, -0.01), (0.005, 0.005))
        cfg = LidarConfig(channels=10, vertical_fov_deg=24,
                          horizontal_fov_deg=60, points_per_scan=1200)
        cloud = raycast_scan(scene, Pose(np.eye(3), [0, 0, 1.5]), cfg)
        with pytest.raises(NoGroundPlaneError):
            extract_detailed(cloud, ExtractionParams(min_cluster_size=20)).plane_set
        result = extract_detailed(cloud, ExtractionParams(min_cluster_size=20),
                                  fallback_basis=np.eye(3))
        assert result.used_fallback_basis
        assert len(result.plane_set) >= 1

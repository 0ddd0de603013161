"""Plane-based LiDAR SLAM for Manhattan-world environments.

Extracts rectangular bounded planes from point clouds, registers plane sets
for odometry, maintains a pose graph with loop closure, merges planes into a
lightweight world map, and supports fast segment/plane collision checking —
with a built-in synthetic LiDAR simulator for end-to-end verification.
"""

from .geometry import (
    Plane,
    PlaneSet,
    PointCloud,
    Pose,
    compose,
    relative_pose,
    rotation_angle_between,
)
from .extraction import ExtractionParams, extract_detailed
from .registration import RegistrationParams, RegistrationResult, register
from .pose_graph import PoseGraph
from .mapping import MappingParams, PlaneMap, load_map, regenerate, save_map
from .planning import Bounds, Segment, Tree, rrt_build, segment_collides
from .simulator import (
    Box,
    BoxScene,
    LidarConfig,
    TrajectorySpec,
    raycast_scan,
    run_trajectory,
    standard_lidar_config,
    standard_scene,
)
from .pipeline import (
    PipelineConfig,
    RunReport,
    SlamResult,
    compute_metrics,
    memory_comparison,
    run_slam,
)

__version__ = "0.1.0"

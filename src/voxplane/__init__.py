"""Voxel-based plane extraction for LiDAR point clouds.

The pipeline hashes points into fixed-size root voxels, subdivides each
voxel with an octree whose leaves must pass a quarter-split PCA plane
test, and merges coplanar leaves back together per voxel. A voxelized
RANSAC baseline, labeled synthetic scenes, and an evaluation harness are
included for comparison runs.
"""

__version__ = "0.1.0"

from .config import ExtractionConfig, load_config
from .errors import (
    CloudFormatError,
    ConfigError,
    EmptyClusterError,
    GenerationError,
    InputValidationError,
    VoxplaneError,
)
from .evaluation import EvalReport, PlaneMatch, evaluate, fit_truth_planes
from .geometry import (
    EigenDecomposition,
    PointCluster,
    accumulate,
    covariance,
    eigen_symmetric3,
)
from .geometry import merge as merge_clusters
from .merging import PlaneGroup, coplanar_test, greedy_merge
from .octree import (
    NodeState,
    OctreeNode,
    PlanePatch,
    VoxelKey,
    build_root_map,
    subdivide,
)
from .pipeline import ExtractionResult, StageTimings, extract_plane_groups
from .plane_test import (
    PlaneDecision,
    RejectReason,
    determine_plane,
    flatness_test,
)
from .ransac import RansacPlane, ransac_extract_all, ransac_plane
from .synthetic import (
    GroundTruthCloud,
    TruthPlane,
    gen_corner,
    gen_false_positive_slab,
    gen_multi_room,
    gen_plane,
    gen_slab_with_object,
)

__all__ = [
    "__version__",
    "ExtractionConfig", "load_config",
    "VoxplaneError", "InputValidationError", "EmptyClusterError",
    "CloudFormatError", "ConfigError", "GenerationError",
    "PointCluster", "EigenDecomposition", "accumulate", "merge_clusters",
    "covariance", "eigen_symmetric3",
    "PlaneDecision", "RejectReason", "flatness_test", "determine_plane",
    "VoxelKey", "NodeState", "OctreeNode", "PlanePatch",
    "build_root_map", "subdivide",
    "PlaneGroup", "coplanar_test", "greedy_merge",
    "StageTimings", "ExtractionResult", "extract_plane_groups",
    "RansacPlane", "ransac_plane", "ransac_extract_all",
    "GroundTruthCloud", "TruthPlane", "gen_plane", "gen_corner",
    "gen_false_positive_slab", "gen_slab_with_object", "gen_multi_room",
    "EvalReport", "PlaneMatch", "evaluate", "fit_truth_planes",
]

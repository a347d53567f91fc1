"""Voxel-based plane extraction for LiDAR point clouds.

The pipeline hashes points into fixed-size root voxels, subdivides each
voxel with an octree whose leaves must pass a quarter-split PCA plane
test, and merges coplanar leaves back together per voxel. A voxelized
RANSAC baseline, labeled synthetic scenes, and an evaluation harness are
included for comparison runs.

The public API is ``__all__`` below, plus the ``voxplane.io`` module; the
modules' other names carry no stability promise. The entry points
(``extract_plane_groups``, ``ransac_extract_all``, ``determine_plane``,
the writers, ``io.read_planes``, ``evaluate`` and ``fit_truth_planes``)
check each array from outside once, and ``ExtractionConfig`` each
setting, which the three extractors take as ``config``. The stages behind
them trust those checks: they take checked points and config, non-empty
clusters, float64 (3, 3) covariances and one root voxel's patches.
"""

__version__ = "0.1.0"

from .config import ExtractionConfig, load_config
from .errors import (
    CloudFormatError,
    ConfigError,
    GenerationError,
    InputValidationError,
    VoxplaneError,
)
from .evaluation import EvalReport, PlaneMatch, evaluate, fit_truth_planes
from .merging import PlaneGroup
from .octree import NodeState, PlanePatch, VoxelKey
from .pipeline import ExtractionResult, StageTimings, extract_plane_groups
from .plane_test import PlaneDecision, RejectReason, determine_plane
from .ransac import ransac_extract_all
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
    "VoxplaneError", "InputValidationError",
    "CloudFormatError", "ConfigError", "GenerationError",
    "PlaneDecision", "RejectReason", "determine_plane",
    "VoxelKey", "NodeState", "PlanePatch",
    "PlaneGroup", "StageTimings", "ExtractionResult", "extract_plane_groups",
    "ransac_extract_all",
    "GroundTruthCloud", "TruthPlane", "gen_plane", "gen_corner",
    "gen_false_positive_slab", "gen_slab_with_object", "gen_multi_room",
    "EvalReport", "PlaneMatch", "evaluate", "fit_truth_planes",
]

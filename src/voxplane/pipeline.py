"""End-to-end extraction pipeline: root voxelization, per-voxel octree
subdivision, and per-voxel plane merging.

Root voxels are resolved and emitted in sorted lattice order, which keeps
the output identical from run to run.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExtractionConfig
from .merging import PlaneGroup, greedy_merge
from .octree import (
    NodeState,
    OctreeNode,
    PlanePatch,
    VoxelKey,
    build_root_map,
    iter_leaves,
    make_root_node,
    subdivide,
)
from .geometry import as_points

__all__ = [
    "StageTimings",
    "ExtractionResult",
    "build_voxel_forest",
    "collect_patches",
    "extract_plane_groups",
    "extract_planes",
]


@dataclass
class StageTimings:
    """Wall-clock seconds per pipeline stage (monotonic clock)."""

    voxelize: float = 0.0
    subdivide: float = 0.0
    merge: float = 0.0
    total: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass
class ExtractionResult:
    groups: list[PlaneGroup]
    timings: StageTimings


def _grow_forest(pts: np.ndarray, root_map: dict[VoxelKey, np.ndarray],
                 config: ExtractionConfig) -> dict[VoxelKey, OctreeNode]:
    return {key: subdivide(make_root_node(key, config.root_size, idx), pts, config, key)
            for key, idx in root_map.items()}


def build_voxel_forest(points, config: ExtractionConfig) -> dict[VoxelKey, OctreeNode]:
    """Voxelize and subdivide, returning the resolved octree per root voxel
    in sorted lattice-key order."""
    pts = as_points(points)
    return _grow_forest(pts, build_root_map(pts, config.root_size), config)


def collect_patches(forest: dict[VoxelKey, OctreeNode]) -> dict[VoxelKey, list[PlanePatch]]:
    """Plane-leaf patches per root voxel, in octree traversal order."""
    return {key: [leaf.patch for leaf in iter_leaves(root)
                  if leaf.state is NodeState.PLANE_LEAF and leaf.patch is not None]
            for key, root in forest.items()}


def extract_plane_groups(points, config: ExtractionConfig | None = None) -> ExtractionResult:
    """Full pipeline with per-stage timings.

    With merging enabled the groups are the per-voxel merge results;
    otherwise every leaf patch becomes its own singleton group. Output is
    deterministic for identical input and config.
    """
    if config is None:
        config = ExtractionConfig()
    timings = StageTimings()
    t_start = time.perf_counter()

    pts = as_points(points)
    t0 = time.perf_counter()
    root_map = build_root_map(pts, config.root_size)
    timings.voxelize = time.perf_counter() - t0

    t0 = time.perf_counter()
    forest = _grow_forest(pts, root_map, config)
    timings.subdivide = time.perf_counter() - t0

    t0 = time.perf_counter()
    groups: list[PlaneGroup] = []
    for patches in collect_patches(forest).values():
        if config.merging_enabled:
            groups.extend(greedy_merge(patches, config.merge_params))
        else:
            groups.extend(PlaneGroup(members=[p], merged=p) for p in patches)
    timings.merge = time.perf_counter() - t0

    timings.total = time.perf_counter() - t_start
    return ExtractionResult(groups=groups, timings=timings)


def extract_planes(points, config: ExtractionConfig | None = None) -> list[PlanePatch]:
    """Extracted planes, one representative patch per group, grouped by
    root voxel in sorted lattice order."""
    return [g.merged for g in extract_plane_groups(points, config).groups]

"""End-to-end extraction pipeline: root voxelization, per-voxel octree
subdivision, and per-voxel plane merging.

Each root voxel's rows are gathered from the cloud once and resolve to a
flat list of its octree leaves, depth first with octant index ascending;
the plane leaves' patches are merged within the voxel. Root voxels are
resolved and emitted in sorted lattice order, which keeps the output
identical from run to run. Subdivision reorders the root map's index
arrays in place, so every leaf's indices are a slice of one array of N
indices. The result keeps the leaf lists next to the merged groups, so
the unmerged patches come from the same run.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExtractionConfig
from .merging import PlaneGroup, greedy_merge
from .octree import OctreeNode, VoxelKey, build_root_map, subdivide
from .geometry import as_points

__all__ = [
    "StageTimings",
    "ExtractionResult",
    "extract_plane_groups",
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
    """groups: the per-voxel merge results, in sorted lattice-key order.
    leaves: each root voxel's leaves (plane leaves and discarded nodes,
        depth first, octant index ascending), in sorted lattice-key order.
    timings: wall-clock seconds per stage."""

    groups: list[PlaneGroup]
    leaves: dict[VoxelKey, list[OctreeNode]]
    timings: StageTimings


def _root_leaves(key: VoxelKey, idx: np.ndarray, pts: np.ndarray,
                 config: ExtractionConfig) -> list[OctreeNode]:
    leaves: list[OctreeNode] = []
    root = OctreeNode(center=(np.asarray(key, dtype=np.float64) + 0.5) * config.root_size,
                      half_extent=config.root_size / 2.0, depth=0, point_indices=idx)
    subdivide(root, pts.take(idx, axis=0), config, key, leaves)
    return leaves


def extract_plane_groups(points, config: ExtractionConfig | None = None) -> ExtractionResult:
    """Full pipeline with per-stage timings. Output is deterministic for
    identical input and config."""
    if config is None:
        config = ExtractionConfig()
    timings = StageTimings()
    t_start = time.perf_counter()

    pts = as_points(points)
    t0 = time.perf_counter()
    root_map = build_root_map(pts, config.root_size)
    timings.voxelize = time.perf_counter() - t0

    t0 = time.perf_counter()
    leaves = {key: _root_leaves(key, idx, pts, config) for key, idx in root_map.items()}
    timings.subdivide = time.perf_counter() - t0

    t0 = time.perf_counter()
    groups: list[PlaneGroup] = []
    for voxel_leaves in leaves.values():
        patches = [leaf.patch for leaf in voxel_leaves if leaf.patch is not None]
        groups.extend(greedy_merge(patches, config.merge_params))
    timings.merge = time.perf_counter() - t0

    timings.total = time.perf_counter() - t_start
    return ExtractionResult(groups=groups, leaves=leaves, timings=timings)

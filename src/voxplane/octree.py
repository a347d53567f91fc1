"""Spatial-hash root voxelization and recursive octree subdivision.

Space is cut into fixed-size root voxels on an integer lattice; only
non-empty voxels are kept, in a hash map keyed by lattice coordinates.
Each root voxel is then subdivided: a node whose points pass the plane
test becomes a plane leaf, a node that is too small or too sparse is
discarded, and anything else splits into eight octants.

The tree itself is not kept. Each root voxel resolves to a flat list of
its leaves (plane leaves and discarded nodes), depth first with octant
index ascending; merging is first-fit, so that order fixes the output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InputValidationError
from .geometry import PointCluster, as_points
from .plane_test import determine_plane

if TYPE_CHECKING:
    from .config import ExtractionConfig

__all__ = [
    "VoxelKey",
    "NodeState",
    "PlanePatch",
    "OctreeNode",
    "voxel_key",
    "voxel_keys",
    "build_root_map",
    "subdivide",
]


class VoxelKey(NamedTuple):
    """Integer lattice address of a root voxel; component i covers the
    half-open interval [i*root_size, (i+1)*root_size)."""

    ix: int
    iy: int
    iz: int


class NodeState(enum.Enum):
    INTERNAL = "internal"
    PLANE_LEAF = "plane_leaf"
    DISCARDED = "discarded"


@dataclass
class PlanePatch:
    """One extracted planar segment with its summary statistics and
    provenance (root voxel and octree depth)."""

    cluster: PointCluster
    centroid: np.ndarray      # (3,)
    normal: np.ndarray        # (3,), unit, smallest-eigenvalue eigenvector
    eigenvalues: np.ndarray   # (3,), descending
    point_indices: np.ndarray  # indices into the frame's point storage
    root_key: VoxelKey
    depth: int


@dataclass
class OctreeNode:
    """Octant of a root voxel. Internal nodes keep no children: only the
    terminal nodes (leaves) are collected, by ``subdivide``."""

    center: np.ndarray
    half_extent: float
    depth: int
    point_indices: np.ndarray
    state: NodeState | None = None
    patch: PlanePatch | None = None


def voxel_key(p, root_size: float) -> VoxelKey:
    """Lattice address of the root voxel containing a single point.

    Uses mathematical floor, so -0.3 lands in cell -1 and cell boundaries
    belong to the higher cell (half-open convention).
    """
    k = voxel_keys(as_points(p)[:1], root_size)[0]
    return VoxelKey(int(k[0]), int(k[1]), int(k[2]))


def voxel_keys(points: np.ndarray, root_size: float) -> np.ndarray:
    """Vectorized voxel_key: (N, 3) int64 lattice coordinates. Raises
    InputValidationError where |x / root_size| >= 2^63 has no int64 key."""
    cells = np.floor(points / root_size)
    if not (np.abs(cells) < 2.0 ** 63).all():
        raise InputValidationError("coordinate too large for the voxel lattice: "
                                   "|x / root_size| must be below 2^63")
    return cells.astype(np.int64)


def build_root_map(points, root_size: float) -> dict[VoxelKey, np.ndarray]:
    """Group point indices by root voxel.

    Only non-empty voxels appear; the index arrays partition the input.
    Keys are in sorted lattice order so downstream iteration is
    deterministic.
    """
    pts = as_points(points)
    if pts.shape[0] == 0:
        return {}
    keys = voxel_keys(pts, root_size)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    change = np.flatnonzero((sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)) + 1
    starts = np.concatenate(([0], change, [pts.shape[0]]))
    out: dict[VoxelKey, np.ndarray] = {}
    for a, b in zip(starts[:-1], starts[1:]):
        k = sorted_keys[a]
        out[VoxelKey(int(k[0]), int(k[1]), int(k[2]))] = order[a:b]
    return out


# Octant index bit layout: bit0 = x >= center, bit1 = y >= center,
# bit2 = z >= center. Points exactly on a splitting plane go to the >= side.
_OCTANT_SIGNS = np.array(
    [[(k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1] for k in range(8)],
    dtype=np.float64) * 2.0 - 1.0


def subdivide(node: OctreeNode, points: np.ndarray, config: "ExtractionConfig",
              root_key: VoxelKey, leaves: list[OctreeNode]) -> OctreeNode:
    """Resolve a node and its subtree, appending every terminal node to
    ``leaves`` depth first, octant index ascending.

    Terminal conditions: too few points (discard), plane test passed
    (plane leaf, reusing the statistics computed by the test), or node
    edge already at the minimum voxel size (discard). Otherwise the node
    is internal: its points split into eight octants by sign against the
    node center and each non-empty octant recurses.
    """
    idx = node.point_indices
    node.state = NodeState.DISCARDED
    if idx.shape[0] >= config.plane_params.min_points:
        sub = points[idx]
        decision = determine_plane(sub, config.plane_params)
        if decision.is_plane:
            node.state = NodeState.PLANE_LEAF
            node.patch = PlanePatch(
                cluster=decision.cluster,
                centroid=decision.centroid,
                normal=decision.eig.eigenvectors[:, 2].copy(),
                eigenvalues=decision.eig.eigenvalues.copy(),
                point_indices=idx,
                root_key=root_key,
                depth=node.depth,
            )
        elif node.half_extent * 2.0 > config.min_voxel_size * (1.0 + 1e-12):
            node.state = NodeState.INTERNAL
    if node.state is not NodeState.INTERNAL:
        leaves.append(node)
        return node

    ge = sub >= node.center
    code = (ge[:, 0].astype(np.int8)
            + (ge[:, 1].astype(np.int8) << 1)
            + (ge[:, 2].astype(np.int8) << 2))
    child_he = node.half_extent / 2.0
    for k in range(8):
        mask = code == k
        if mask.any():
            subdivide(OctreeNode(center=node.center + _OCTANT_SIGNS[k] * child_he,
                                 half_extent=child_he, depth=node.depth + 1,
                                 point_indices=idx[mask]),
                      points, config, root_key, leaves)
    return node

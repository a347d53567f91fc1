"""Spatial-hash root voxelization and recursive octree subdivision.

Space is cut into fixed-size root voxels on an integer lattice; only
non-empty voxels are kept, in a hash map keyed by lattice coordinates.
Each root voxel is then subdivided: a node whose points pass the plane
test becomes a plane leaf, a node that is too small or too sparse is
discarded, and anything else splits into eight octants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple

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
    "make_root_node",
    "subdivide",
    "iter_leaves",
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
    """Octant of a root voxel. ``children`` holds eight slots (None where
    the octant is empty) so traversal order is the octant index order."""

    center: np.ndarray
    half_extent: float
    depth: int
    point_indices: np.ndarray
    state: NodeState | None = None
    children: list["OctreeNode | None"] | None = None
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


def make_root_node(key: VoxelKey, root_size: float,
                   point_indices: np.ndarray) -> OctreeNode:
    center = (np.asarray(key, dtype=np.float64) + 0.5) * root_size
    return OctreeNode(center=center, half_extent=root_size / 2.0, depth=0,
                      point_indices=np.asarray(point_indices))


# Octant index bit layout: bit0 = x >= center, bit1 = y >= center,
# bit2 = z >= center. Points exactly on a splitting plane go to the >= side.
_OCTANT_SIGNS = np.array(
    [[(k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1] for k in range(8)],
    dtype=np.float64) * 2.0 - 1.0


def subdivide(node: OctreeNode, points: np.ndarray, config: "ExtractionConfig",
              root_key: VoxelKey) -> OctreeNode:
    """Resolve a node and its subtree in place.

    Terminal conditions: too few points (discard), plane test passed
    (plane leaf, reusing the statistics computed by the test), or node
    edge already at the minimum voxel size (discard). Otherwise the points
    split into eight octants by sign against the node center and each
    non-empty octant recurses.
    """
    idx = node.point_indices
    if idx.shape[0] < config.min_points:
        node.state = NodeState.DISCARDED
        return node

    decision = determine_plane(points[idx], config.plane_params)
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
        return node

    edge = node.half_extent * 2.0
    if edge <= config.min_voxel_size * (1.0 + 1e-12):
        node.state = NodeState.DISCARDED
        return node

    sub = points[idx]
    ge = sub >= node.center
    code = (ge[:, 0].astype(np.int8)
            + (ge[:, 1].astype(np.int8) << 1)
            + (ge[:, 2].astype(np.int8) << 2))
    child_he = node.half_extent / 2.0
    children: list[OctreeNode | None] = [None] * 8
    for k in range(8):
        mask = code == k
        if not mask.any():
            continue
        child = OctreeNode(
            center=node.center + _OCTANT_SIGNS[k] * child_he,
            half_extent=child_he,
            depth=node.depth + 1,
            point_indices=idx[mask],
        )
        subdivide(child, points, config, root_key)
        children[k] = child
    node.children = children
    node.state = NodeState.INTERNAL
    return node


def iter_leaves(node: OctreeNode) -> Iterator[OctreeNode]:
    """Depth-first leaf traversal, octant index ascending."""
    if node.state is NodeState.INTERNAL:
        assert node.children is not None
        for child in node.children:
            if child is not None:
                yield from iter_leaves(child)
    else:
        yield node

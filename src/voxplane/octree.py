"""Spatial-hash root voxelization and recursive octree subdivision.

Space is cut into fixed-size root voxels on an integer lattice; only
non-empty voxels are kept, in a hash map keyed by lattice coordinates.
Each root voxel is then subdivided: a node whose points pass the plane
test becomes a plane leaf, a node that is too sparse, or fails the test
at depth ``MAX_DEPTH``, is discarded, and so is a failing node whose
octants all hold fewer than ``min_points`` points, since none of them
could be tested; anything else splits into eight octants. A node
carries its own rows of the cloud: the caller gathers each root's rows
once, and every child's rows are a contiguous slice of its parent's, in
octant order, and so are its point indices (see ``subdivide``).

The tree itself is not kept. Each root voxel resolves to a flat list of
its leaves (plane leaves and discarded nodes), depth first with octant
index ascending; merging is first-fit, so that order fixes the output.
Every computed patch (leaf, join, RANSAC plane) comes from ``PlanePatch.fit``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ExtractionConfig
from .geometry import EigenDecomposition, PointCluster
from .plane_test import determine_plane

MAX_DEPTH = 2  # splits per root voxel: the smallest octant edge is root_size / 4


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

    @classmethod
    def fit(cls, cluster: PointCluster, centroid: np.ndarray, eig: EigenDecomposition,
            point_indices: np.ndarray, root_key: VoxelKey, depth: int) -> "PlanePatch":
        """A cluster's patch; the normal is eig's smallest-eigenvalue column."""
        return cls(cluster, centroid, eig.eigenvectors[:, 2].copy(), eig.eigenvalues.copy(),
                   point_indices, root_key, depth)


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


def _axis_keys(column: np.ndarray, root_size: float) -> np.ndarray:
    """int64 lattice coordinates of one (N,) coordinate column: the floor
    of column / root_size, so -0.3 lands in cell -1 and a cell boundary
    belongs to the higher cell (half-open convention). One float row is
    allocated, floored in place and cast to a new int64 row. The column
    is within +-2^40 and root_size, ExtractionConfig's, at least 2^-20, so
    every key is within +-2^60 (the ``geometry`` domain)."""
    cells = np.divide(column, root_size)
    return np.floor(cells, out=cells).astype(np.int64)


def build_root_map(points: np.ndarray, root_size: float) -> dict[VoxelKey, np.ndarray]:
    """Group point indices by root voxel.

    ``points`` is the (N, 3) float64 array that the caller has checked
    (``as_points``), and ``root_size`` is ExtractionConfig's; neither is
    checked again. Only non-empty voxels appear; the index arrays partition
    the input. Keys are in sorted lattice order so downstream iteration is
    deterministic.

    The keys are built one axis at a time by ``_axis_keys``. Each axis's
    int64 row becomes its offsets from the row's minimum, in place (a span
    is at most 2^61), then a copy in the narrowest unsigned type that holds
    the span (uint8 on a room-sized scene); the wide rows are dropped
    before the next axis. So at most one float row, one int64 row and the
    narrow rows are alive at once. The narrow rows give the order of the
    int64 keys with a faster ``lexsort``.
    """
    lows, rows = [], []
    for column in points.T:
        keys = _axis_keys(column, root_size)
        if not keys.size:
            return {}
        lo, hi = int(keys.min()), int(keys.max())
        keys -= lo
        lows.append(lo)
        rows.append(keys.astype(np.min_scalar_type(hi - lo)))
        del keys
    order = np.lexsort(rows[::-1])
    rows = [row.take(order) for row in rows]
    change = np.flatnonzero(np.logical_or.reduce([row[1:] != row[:-1] for row in rows])) + 1
    starts = np.concatenate(([0], change)).tolist()
    firsts = zip(*(row.take(starts).tolist() for row in rows))
    return {VoxelKey(*(lo + k for lo, k in zip(lows, first))): order[a:b]
            for first, a, b in zip(firsts, starts, starts[1:] + [len(order)])}


# Octant index bit layout: bit0 = x >= center, bit1 = y >= center,
# bit2 = z >= center. Points exactly on a splitting plane go to the >= side.
_OCTANT_SIGNS = np.array(
    [[(k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1] for k in range(8)],
    dtype=np.float64) * 2.0 - 1.0
_OCTANT_BITS = np.array([1, 2, 4], dtype=np.uint8)


def subdivide(node: OctreeNode, points: np.ndarray, config: ExtractionConfig,
              root_key: VoxelKey, leaves: list[OctreeNode]) -> OctreeNode:
    """Resolve a node and its subtree, appending every terminal node to
    ``leaves`` depth first, octant index ascending.

    ``points`` are the node's own (n, 3) rows, row i being the point
    ``node.point_indices[i]``. Each child gets a contiguous slice of its
    parent's rows in octant order, so the cloud is read once per root.

    ``node.point_indices`` is reordered in place, and ``points`` is left as
    it was: after this returns, an internal node's indices are in octant
    order, each octant's in its child's order, so they are the node's
    leaves' indices concatenated, and every leaf's indices are a slice of
    them. A plane leaf or discarded node keeps its indices as given.

    Terminal conditions: too few points (discard), plane test passed
    (plane leaf, reusing the statistics computed by the test), node
    already at depth ``MAX_DEPTH`` (discard), or no octant holding
    ``min_points`` points (discard: every octant would be discarded
    untested, so no plane can come out below). Otherwise the node is
    internal: its points split into eight octants by sign against the
    node center and each non-empty octant recurses.
    """
    idx = node.point_indices
    node.state = NodeState.DISCARDED
    if idx.shape[0] >= config.min_points:
        decision = determine_plane(points, config)
        if decision.is_plane:
            node.state = NodeState.PLANE_LEAF
            node.patch = PlanePatch.fit(decision.cluster, decision.centroid, decision.eig,
                                        idx, root_key, node.depth)
        elif node.depth < MAX_DEPTH:
            code = (points >= node.center) @ _OCTANT_BITS
            counts = np.bincount(code, minlength=8).tolist()
            if max(counts) >= config.min_points:
                node.state = NodeState.INTERNAL
    if node.state is not NodeState.INTERNAL:
        leaves.append(node)
        return node

    # One stable (uint8, so radix) sort by octant code keeps each octant's
    # points in their current order; the octants are then consecutive slices.
    order = code.argsort(kind="stable")
    idx[:] = idx.take(order)
    block = points.take(order, axis=0)
    child_he = node.half_extent / 2.0
    centers = node.center + _OCTANT_SIGNS * child_he
    stop = 0
    for k, count in enumerate(counts):
        if count:
            start, stop = stop, stop + count
            subdivide(OctreeNode(center=centers[k], half_extent=child_he,
                                 depth=node.depth + 1,
                                 point_indices=idx[start:stop]),
                      block[start:stop], config, root_key, leaves)
    return node

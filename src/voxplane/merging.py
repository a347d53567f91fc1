"""Merging of coplanar leaf planes within a root voxel.

Octree partition is irreversible and tends to shatter one physical plane
into many small leaves. Greedy first-fit grouping repairs that: each patch
joins the first existing group whose merged representative it is coplanar
with, otherwise it starts a new group. Groups never span root voxels.
A join takes two patches, the group's representative and the newcomer.
Coplanarity is judged by fixed angles (NORMAL_ANGLE_MAX_DEG,
SEPARATION_ANGLE_TOL_DEG), which hold at any scale, and the fixed
MIN_SEPARATION distance; nothing in the merge is settable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import covariance, eigen_symmetric3, merge
from .octree import PlanePatch

__all__ = ["PlaneGroup", "coplanar_test", "merge_patches", "greedy_merge"]

# Largest angle (degrees) between the normals of two coplanar patches.
NORMAL_ANGLE_MAX_DEG = 8.0
# The centroid-difference vector of two coplanar patches is within this many
# degrees of perpendicular to both normals, unless the centroids lie within
# MIN_SEPARATION of each other.
SEPARATION_ANGLE_TOL_DEG = 10.0
# Centroid distance (meters) at or below which the direction of the
# difference vector is meaningless and the separation test is skipped.
MIN_SEPARATION = 1e-6


@dataclass
class PlaneGroup:
    """A set of merged patches plus their combined representative, whose
    statistics are recomputed from the merged moment sums."""

    members: list[PlanePatch]
    merged: PlanePatch


def _angle_deg(cos_abs: float) -> float:
    return math.degrees(math.acos(min(1.0, max(0.0, cos_abs))))


def coplanar_test(pi: PlanePatch, pj: PlanePatch) -> bool:
    """True when two patches lie on one plane.

    Two conditions: near-parallel normals, and a centroid-difference vector
    close to perpendicular to both normals (i.e. the offset between the
    patches is an in-plane offset, not a gap along the normal). Absolute
    dot products make the test independent of normal sign conventions and
    hence symmetric in its arguments.
    """
    normal_angle = _angle_deg(abs(float(np.dot(pi.normal, pj.normal))))
    if normal_angle >= NORMAL_ANGLE_MAX_DEG:
        return False
    d = pi.centroid - pj.centroid
    dist = float(np.linalg.norm(d))
    if dist <= MIN_SEPARATION:
        # Coincident centroids with parallel normals: same plane.
        return True
    for u in (pi.normal, pj.normal):
        ang = _angle_deg(abs(float(np.dot(d, u))) / dist)
        if abs(ang - 90.0) >= SEPARATION_ANGLE_TOL_DEG:
            return False
    return True


def merge_patches(a: PlanePatch, b: PlanePatch) -> PlanePatch:
    """Join two patches, refitting from the merged moment sums in O(1): a's
    root key, the smaller depth, and a's point indices before b's."""
    cluster = merge(a.cluster, b.cluster)
    cov, centroid = covariance(cluster)
    return PlanePatch.fit(cluster, centroid, eigen_symmetric3(cov),
                          np.concatenate([a.point_indices, b.point_indices]),
                          a.root_key, min(a.depth, b.depth))


def greedy_merge(patches: list[PlanePatch]) -> list[PlaneGroup]:
    """First-fit grouping of patches from one root voxel; the caller
    groups them by voxel, and they are not checked again.

    Patches are taken in the order given (octree traversal order); each is
    tested against every existing group's merged representative in group
    creation order and joins the first match, after which the patch is
    folded into that representative. The result is a partition of the input.
    """
    groups: list[PlaneGroup] = []
    for patch in patches:
        for group in groups:
            if coplanar_test(group.merged, patch):
                group.members.append(patch)
                group.merged = merge_patches(group.merged, patch)
                break
        else:
            groups.append(PlaneGroup(members=[patch], merged=patch))
    return groups

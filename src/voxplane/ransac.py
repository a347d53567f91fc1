"""Voxelized RANSAC plane extraction, the comparison baseline.

Within each root voxel, planes are pulled out one at a time: sample three
points, score the implied plane by its inlier count at a fixed 0.03 m
distance threshold, keep the best, refit it by PCA over the inliers,
remove them, repeat. The baseline's one setting is its seed; the
per-voxel random stream is derived from (seed, voxel key) so results do
not depend on processing order. A plane needs the plane test's
``min_points`` inliers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import ExtractionConfig
from .errors import InputValidationError
from .geometry import accumulate, as_points, covariance, eigen_symmetric3
from .octree import PlanePatch, VoxelKey, build_root_map

__all__ = ["RansacPlane", "point_plane_distances", "ransac_plane", "ransac_extract_all"]

DIST_THRESHOLD = 0.03       # inlier band (meters)
MAX_ITERATIONS = 500
SUCCESS_PROBABILITY = 0.99  # of drawing one all-inlier sample

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class RansacPlane:
    normal: np.ndarray   # (3,), unit
    offset: float        # plane is {p : normal . p = offset}
    inliers: np.ndarray  # indices into the input points


def point_plane_distances(points: np.ndarray, normal: np.ndarray,
                          offset: float) -> np.ndarray:
    """|n.p - d| for unit n, elementwise without BLAS reductions so the
    result is bitwise reproducible."""
    d = (points[:, 0] * normal[0] + points[:, 1] * normal[1]
         + points[:, 2] * normal[2] - offset)
    return np.abs(d)


def _adaptive_iteration_limit(inlier_ratio: float) -> float:
    """Iterations needed so a clean 3-point sample occurs with the wanted
    probability, given the best inlier ratio seen so far."""
    w3 = inlier_ratio ** 3
    if w3 <= 0.0:
        return math.inf
    if w3 >= 1.0:
        return 0.0
    return math.log(1.0 - SUCCESS_PROBABILITY) / math.log(1.0 - w3)


def ransac_plane(points, rng: np.random.Generator,
                 min_inliers: int) -> RansacPlane | None:
    """Best consensus plane of a point set with at least ``min_inliers``
    inliers, or None.

    Samples of three (nearly) collinear points are degenerate and skipped.
    The final plane is refit by PCA over the consensus set and its inliers
    recomputed, so every reported inlier is within DIST_THRESHOLD of the
    reported plane. Deterministic for a fixed state of ``rng``.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n < 3:
        return None

    best_count = 0
    best_inliers: np.ndarray | None = None
    for iteration in range(1, MAX_ITERATIONS + 1):
        sample = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = pts[sample]
        cross = np.cross(p1 - p0, p2 - p0)
        norm = float(np.linalg.norm(cross))
        if norm < 1e-12:
            continue  # degenerate sample; draw again
        normal = cross / norm
        offset = float(np.dot(normal, p0))
        dist = point_plane_distances(pts, normal, offset)
        inliers = np.flatnonzero(dist <= DIST_THRESHOLD)
        if inliers.shape[0] > best_count:
            best_count = inliers.shape[0]
            best_inliers = inliers
        if iteration >= _adaptive_iteration_limit(best_count / n):
            break

    if best_inliers is None or best_count < min_inliers:
        return None

    # PCA refit over the consensus set, then re-apply the inlier band
    # against the refit plane.
    cov, centroid = covariance(accumulate(pts[best_inliers]))
    eig = eigen_symmetric3(cov)
    normal = eig.eigenvectors[:, 2].copy()
    offset = float(np.dot(normal, centroid))
    dist = point_plane_distances(pts, normal, offset)
    inliers = np.flatnonzero(dist <= DIST_THRESHOLD)
    if inliers.shape[0] < min_inliers:
        return None
    return RansacPlane(normal=normal, offset=offset, inliers=inliers)


def _voxel_rng(seed: int, key: VoxelKey) -> np.random.Generator:
    # Map signed key ints to uint64 words; the stream depends only on
    # (seed, key), never on voxel processing order.
    entropy = [seed, key.ix & _U64, key.iy & _U64, key.iz & _U64]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def ransac_extract_all(points, config: ExtractionConfig | None = None,
                       seed: int = 0) -> list[PlanePatch]:
    """Per-root-voxel iterative RANSAC extraction.

    In each voxel, planes are extracted and their inliers removed until no
    plane reaches ``config.plane_params.min_points`` inliers. Patch
    statistics come from the inlier clusters; inlier sets of successive
    planes in a voxel are disjoint. ``seed`` is a non-negative integer,
    and every seed has its own streams.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        pass
    if not isinstance(seed, int) or seed < 0:
        raise InputValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if config is None:
        config = ExtractionConfig()
    min_inliers = config.plane_params.min_points

    pts = as_points(points)
    patches: list[PlanePatch] = []
    for key, idx in build_root_map(pts, config.root_size).items():
        rng = _voxel_rng(seed, key)
        remaining = idx
        while remaining.shape[0] >= min_inliers:
            result = ransac_plane(pts[remaining], rng, min_inliers)
            if result is None:
                break
            member_idx = remaining[result.inliers]
            cluster = accumulate(pts[member_idx])
            cov, centroid = covariance(cluster)
            patches.append(PlanePatch.fit(cluster, centroid, eigen_symmetric3(cov),
                                          member_idx, key, 0))
            remaining = np.delete(remaining, result.inliers)
    return patches

"""Voxelized RANSAC plane extraction, the comparison baseline.

Within each root voxel, planes are pulled out one at a time: sample three
points, score the implied plane by its inlier count at a fixed 0.03 m
distance threshold, keep the best, refit it by PCA over the inliers,
remove them, repeat. It takes the octree's root voxels and smallest plane
(``min_points`` inliers) from the config; its own one setting is its seed.
The per-voxel random stream is derived from (seed, voxel key) so results
do not depend on processing order.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .config import ExtractionConfig
from .errors import InputValidationError
from .geometry import accumulate, as_points, covariance, eigen_symmetric3
from .octree import PlanePatch, VoxelKey, build_root_map

__all__ = ["point_plane_distances", "ransac_plane", "ransac_extract_all"]

DIST_THRESHOLD = 0.03       # inlier band (meters)
MAX_ITERATIONS = 500
SUCCESS_PROBABILITY = 0.99  # of drawing one all-inlier sample

_U64 = (1 << 64) - 1


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


def ransac_plane(points: np.ndarray, rng: np.random.Generator,
                 min_inliers: int) -> np.ndarray | None:
    """Indices of the inliers of the best consensus plane of a point set
    with at least ``min_inliers`` inliers, or None. ``points`` is an (N, 3)
    float64 array of finite coordinates that the caller has checked, with
    N >= ``min_inliers`` >= 4 rows; neither is checked again.

    Samples of three (nearly) collinear points are degenerate and skipped.
    The final plane is refit by PCA over the consensus set and its inliers
    recomputed, so every returned inlier is within DIST_THRESHOLD of the
    refit plane. Deterministic for a fixed state of ``rng``.
    """
    n = points.shape[0]
    best_count = 0
    best_inliers: np.ndarray | None = None
    for iteration in range(1, MAX_ITERATIONS + 1):
        sample = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = points[sample]
        cross = np.cross(p1 - p0, p2 - p0)
        norm = float(np.linalg.norm(cross))
        if norm < 1e-12:
            continue  # degenerate sample; draw again
        normal = cross / norm
        offset = float(np.dot(normal, p0))
        dist = point_plane_distances(points, normal, offset)
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
    cov, centroid = covariance(accumulate(points[best_inliers]))
    eig = eigen_symmetric3(cov)
    normal = eig.eigenvectors[:, 2].copy()
    offset = float(np.dot(normal, centroid))
    dist = point_plane_distances(points, normal, offset)
    inliers = np.flatnonzero(dist <= DIST_THRESHOLD)
    return inliers if inliers.shape[0] >= min_inliers else None


def _voxel_rng(seed: int, key: VoxelKey) -> np.random.Generator:
    # Map signed key ints to uint64 words; the stream depends only on
    # (seed, key), never on voxel processing order.
    entropy = [seed, key.ix & _U64, key.iy & _U64, key.iz & _U64]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def ransac_extract_all(points, config: ExtractionConfig | None = None,
                       seed: int = 0) -> list[PlanePatch]:
    """Per-root-voxel iterative RANSAC extraction.

    In each voxel, planes are extracted and their inliers removed until no
    plane reaches ``config.min_points`` inliers. Patch
    statistics come from the inlier clusters; inlier sets of successive
    planes in a voxel are disjoint. ``seed`` is a non-negative integer,
    not a bool, and every seed has its own streams.
    """
    try:
        index = operator.index(seed)
    except TypeError:
        index = -1
    if index < 0 or isinstance(seed, bool):
        raise InputValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if config is None:
        config = ExtractionConfig()
    min_inliers = config.min_points

    pts = as_points(points)
    patches: list[PlanePatch] = []
    for key, idx in build_root_map(pts, config.root_size).items():
        rng = _voxel_rng(index, key)
        remaining = idx
        while remaining.shape[0] >= min_inliers:
            inliers = ransac_plane(pts[remaining], rng, min_inliers)
            if inliers is None:
                break
            member_idx = remaining[inliers]
            cluster = accumulate(pts[member_idx])
            cov, centroid = covariance(cluster)
            patches.append(PlanePatch.fit(cluster, centroid, eigen_symmetric3(cov),
                                          member_idx, key, 0))
            remaining = np.delete(remaining, inliers)
    return patches

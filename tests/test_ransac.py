import hashlib
import math

import numpy as np
import pytest

from voxplane import (
    ExtractionConfig,
    GroundTruthCloud,
    InputValidationError,
    PlaneGroup,
    evaluate,
    fit_truth_planes,
    gen_corner,
    gen_slab_with_object,
    ransac_extract_all,
)
from voxplane import ransac
from voxplane.octree import VoxelKey
from voxplane.ransac import (
    DIST_THRESHOLD,
    _adaptive_iteration_limit,
    _voxel_rng,
    point_plane_distances,
    ransac_plane,
)

import pinned
from oracles import point_plane_distance, two_pass_covariance

CFG = ExtractionConfig()


def _inliers_and_refit(pts, seed, min_inliers):
    """ransac_plane's inliers and the refit plane (normal, offset) that
    chose them: the plane of its last distance query."""
    planes = []

    def spy(points, normal, offset):
        planes.append((normal, offset))
        return point_plane_distances(points, normal, offset)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ransac, "point_plane_distances", spy)
        inliers = ransac_plane(pts, np.random.default_rng(seed), min_inliers)
    return inliers, planes[-1]


def test_recovers_plane_among_outliers(rng):
    plane = np.column_stack([rng.uniform(-1, 1, 100), rng.uniform(-1, 1, 100),
                             np.zeros(100)])
    outliers = rng.uniform(5, 9, (5, 3))
    pts = np.concatenate([plane, outliers])
    inliers, (normal, offset) = _inliers_and_refit(pts, 7, 4)
    assert np.array_equal(inliers, np.arange(100))
    angle = math.acos(min(1.0, abs(float(normal @ np.array([0, 0, 1.0])))))
    assert angle < 1e-6
    assert abs(offset) < 1e-9
    # the patch ransac_extract_all refits from these inliers lies on z = 0
    cov, _ = two_pass_covariance(pts[inliers])
    assert abs(np.linalg.eigh(cov)[1][2, 0]) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_samples_are_skipped(rng):
    # three exactly collinear points plus a plane: degenerate triples must
    # not produce a plane, and the real plane is still found
    collinear = np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 6.0], [5.0, 5.0, 7.0]])
    plane = np.column_stack([rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 60),
                             np.zeros(60)])
    pts = np.concatenate([collinear, plane])
    inliers = ransac_plane(pts, np.random.default_rng(3), 20)
    assert inliers is not None
    assert inliers.shape[0] >= 60


def test_identical_points_no_plane():
    pts = np.tile([1.0, 2.0, 3.0], (50, 1))
    assert ransac_plane(pts, np.random.default_rng(0), 4) is None


def test_inliers_within_threshold(rng):
    pts = np.concatenate([
        np.column_stack([rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300),
                         rng.normal(0, 0.01, 300)]),
        rng.uniform(-1, 1, (100, 3)),
    ])
    inliers, (normal, offset) = _inliers_and_refit(pts, 11, 30)
    assert inliers is not None
    dist = point_plane_distance(pts[inliers], normal, offset)
    assert np.all(dist <= DIST_THRESHOLD)


def test_min_inliers_gate(rng):
    pts = rng.uniform(-1, 1, (40, 3))  # diffuse clutter, no consensus
    assert ransac_plane(pts, np.random.default_rng(5), 35) is None


def test_iteration_limit_without_inliers_is_unbounded():
    # with no inlier seen, no number of draws is enough, and the log form
    # would divide by log(1) = 0
    assert _adaptive_iteration_limit(0.0) == math.inf


def test_seed_determinism(rng):
    pts = np.concatenate([
        np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200),
                         rng.normal(0, 0.01, 200)]),
        rng.uniform(-1, 1, (80, 3)),
    ])
    a = ransac_plane(pts, np.random.default_rng(42), 30)
    b = ransac_plane(pts, np.random.default_rng(42), 30)
    assert a is not None and np.array_equal(a, b)


def test_extract_all_corner_scene(corner_cloud):
    patches = ransac_extract_all(corner_cloud.points, CFG, seed=0)
    assert len(patches) >= 3
    truth_normals = np.eye(3)
    hit = set()
    for p in patches:
        for k in range(3):
            ang = math.degrees(math.acos(min(1.0, abs(float(p.normal @ truth_normals[k])))))
            if ang < 3.0:
                hit.add(k)
    assert hit == {0, 1, 2}


def test_extract_all_empty():
    assert ransac_extract_all(np.zeros((0, 3)), CFG, seed=0) == []


def test_extract_all_disjoint_inliers_per_voxel():
    cloud = gen_slab_with_object(seed=0)
    patches = ransac_extract_all(cloud.points, CFG, seed=0)
    by_root = {}
    for p in patches:
        by_root.setdefault(p.root_key, []).append(p.point_indices)
    for idx_lists in by_root.values():
        combined = np.concatenate(idx_lists)
        assert combined.shape[0] == np.unique(combined).shape[0]


def test_extract_all_scores_the_same_at_utm_coordinates(corner_cloud):
    # The PCA refits sum each inlier set about one of its own points, so the
    # corner scene at a UTM-like easting, northing and height scores as at
    # the origin. Sums about the coordinate origin cancelled there: the
    # worst normal error rose from 0.290 to 1.309 deg, and a patch reported
    # a smallest eigenvalue of -3.9e-3 m^2.
    worst = []
    for shift in (np.zeros(3), pinned.UTM_SHIFT):
        pts = corner_cloud.points + shift
        patches = ransac_extract_all(pts, CFG, seed=0)
        assert min(p.eigenvalues[2] for p in patches) >= 0.0
        truth = GroundTruthCloud(pts, corner_cloud.labels,
                                 fit_truth_planes(pts, corner_cloud.labels))
        report = evaluate([PlaneGroup(members=[p], merged=p) for p in patches], truth)
        worst.append(max(m.normal_error_deg for m in report.matched_planes))
    assert round(worst[0], 3) == round(worst[1], 3) == 0.290


def test_extract_all_patches_pinned():
    # the baseline's bytes: every patch's members and statistics on two
    # scenes, so a change to its sampling, refit or settings shows here
    h = hashlib.sha256()
    for cloud in (gen_corner(seed=0), gen_slab_with_object(seed=0)):
        for p in ransac_extract_all(cloud.points, CFG, seed=0):
            h.update(np.asarray(p.root_key, dtype=np.int64).tobytes())
            h.update(np.asarray(p.point_indices, dtype=np.int64).tobytes())
            for arr in (p.centroid, p.normal, p.eigenvalues):
                h.update(np.asarray(arr, dtype=np.float64).tobytes())
    assert h.hexdigest() == pinned.RANSAC_PATCHES_SHA256


def test_extract_all_seed_checked(corner_cloud):
    # -1 once wrapped to 2^64 - 1, 2^70 reused seed 0's streams, 1.5 and
    # "7" raised a bare TypeError, and True and False ran as seeds 1 and 0
    for seed in (-1, -2 ** 70, 1.5, "7", None, True, False):
        with pytest.raises(InputValidationError, match="seed"):
            ransac_extract_all(corner_cloud.points, CFG, seed=seed)
    a = ransac_extract_all(corner_cloud.points, CFG, seed=np.uint64(3))
    b = ransac_extract_all(corner_cloud.points, CFG, seed=3)
    assert [p.point_indices.tolist() for p in a] == [p.point_indices.tolist() for p in b]
    # every seed has its own per-voxel streams, also past 2^64
    key = VoxelKey(-1, 2, 0)
    draws = {seed: _voxel_rng(seed, key).integers(2 ** 62, size=4).tolist()
             for seed in (0, 5, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 5, 2 ** 70)}
    assert len({tuple(d) for d in draws.values()}) == len(draws)

import math

import numpy as np
import pytest

from voxplane import ExtractionConfig, PlanePatch, VoxelKey, extract_plane_groups
from voxplane.geometry import accumulate, covariance, eigen_symmetric3
from voxplane.merging import SEPARATION_ANGLE_TOL_DEG, coplanar_test, greedy_merge, merge_patches

from oracles import two_pass_covariance

KEY = VoxelKey(0, 0, 0)


def make_patch(points, key=KEY, depth=1, start_index=0):
    pts = np.asarray(points, dtype=np.float64)
    cluster = accumulate(pts)
    cov, centroid = covariance(cluster)
    eig = eigen_symmetric3(cov)
    return PlanePatch(cluster=cluster, centroid=centroid,
                      normal=eig.eigenvectors[:, 2].copy(),
                      eigenvalues=eig.eigenvalues.copy(),
                      point_indices=np.arange(start_index, start_index + len(pts)),
                      root_key=key, depth=depth), pts


def plane_points(rng, normal, d, u_range, v_range, n, sigma=0.0):
    normal = np.asarray(normal, dtype=np.float64)
    ref = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    u = ref - (ref @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    a = rng.uniform(*u_range, n)
    b = rng.uniform(*v_range, n)
    e = rng.normal(0, sigma, n) if sigma else np.zeros(n)
    return d * normal + a[:, None] * u + b[:, None] * v + e[:, None] * normal


# ---------------------------------------------------------------------------
# coplanar_test


def test_same_plane_in_plane_offset(rng):
    pa, _ = make_patch(plane_points(rng, [0, 0, 1], 0.3, (0.0, 0.4), (0.0, 0.4), 200, 0.002))
    pb, _ = make_patch(plane_points(rng, [0, 0, 1], 0.3, (0.5, 0.9), (0.5, 0.9), 200, 0.002))
    assert coplanar_test(pa, pb)


def test_parallel_but_separated():
    # parallel patches 0.3 m apart along the normal with 0.5 m in-plane
    # offset: the centroid difference makes arctan(0.5/0.3) ~ 59 degrees
    # with the normal, 31 degrees away from perpendicular, above the 10
    # degree tolerance
    rng = np.random.default_rng(1)
    pa, _ = make_patch(plane_points(rng, [0, 0, 1], 0.0, (-0.2, 0.2), (-0.2, 0.2), 300))
    pb_pts = plane_points(rng, [0, 0, 1], 0.0, (-0.2, 0.2), (-0.2, 0.2), 300)
    pb, _ = make_patch(pb_pts + np.array([0.5, 0.0, 0.3]))
    d = pa.centroid - pb.centroid
    ang = math.degrees(math.acos(abs(d @ np.array([0, 0, 1.0])) / np.linalg.norm(d)))
    assert abs(ang - 90.0) >= SEPARATION_ANGLE_TOL_DEG
    assert ang == pytest.approx(math.degrees(math.atan2(0.5, 0.3)), abs=2.0)
    assert not coplanar_test(pa, pb)


def test_perpendicular_normals(rng):
    pa, _ = make_patch(plane_points(rng, [0, 0, 1], 0.2, (0, 0.5), (0, 0.5), 150))
    pb, _ = make_patch(plane_points(rng, [1, 0, 0], 0.2, (0, 0.5), (0, 0.5), 150))
    assert not coplanar_test(pa, pb)
    assert not coplanar_test(pb, pa)


def test_coplanar_test_symmetric_and_sign_blind(rng):
    for _ in range(50):
        pa, _ = make_patch(plane_points(rng, [0, 0, 1], 0.1,
                                        (0, 0.4), (0, 0.4), 100, 0.01))
        pb, _ = make_patch(plane_points(rng, [0, 0, 1], 0.1 + rng.uniform(-0.2, 0.2),
                                        (0.3, 0.8), (0.3, 0.8), 100, 0.01))
        assert coplanar_test(pa, pb) == coplanar_test(pb, pa)
        flipped = PlanePatch(cluster=pb.cluster, centroid=pb.centroid,
                             normal=-pb.normal, eigenvalues=pb.eigenvalues,
                             point_indices=pb.point_indices,
                             root_key=pb.root_key, depth=pb.depth)
        assert coplanar_test(pa, pb) == coplanar_test(pa, flipped)


def test_coincident_centroids_pass(rng):
    pts = plane_points(rng, [0, 0, 1], 0.0, (-0.3, 0.3), (-0.3, 0.3), 200)
    pa, _ = make_patch(pts)
    pb, _ = make_patch(pts[::-1])
    assert coplanar_test(pa, pb)
    # exactly coincident centroids, (0.5, 0.5, 0) both: dist == 0 stops at
    # the MIN_SEPARATION guard and never reaches the division by dist
    pa, _ = make_patch([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    pb, _ = make_patch([(0.5, 0, 0), (0.5, 1, 0), (0, 0.5, 0), (1, 0.5, 0)])
    assert np.array_equal(pa.centroid, pb.centroid)
    assert coplanar_test(pa, pb)


# ---------------------------------------------------------------------------
# greedy_merge


def test_single_patch_single_group(rng):
    p, _ = make_patch(plane_points(rng, [0, 0, 1], 0.5, (0, 0.4), (0, 0.4), 100))
    groups = greedy_merge([p])
    assert len(groups) == 1
    assert groups[0].merged is p
    assert groups[0].members == [p]


def test_noiseless_plane_quarters_merge_to_one(rng):
    quarters = [plane_points(rng, [0, 0, 1], 0.4, (a, a + 0.45), (b, b + 0.45), 150)
                for a in (0.0, 0.5) for b in (0.0, 0.5)]
    patches = []
    start = 0
    for q in quarters:
        p, _ = make_patch(q, start_index=start)
        patches.append(p)
        start += len(q)
    groups = greedy_merge(patches)
    assert len(groups) == 1
    merged = groups[0].merged
    angle = math.acos(min(1.0, abs(float(merged.normal @ np.array([0.0, 0.0, 1.0])))))
    assert angle < 1e-6
    assert merged.cluster.n == sum(p.cluster.n for p in patches)


def test_three_orthogonal_patches_stay_apart(rng):
    pa, _ = make_patch(plane_points(rng, [1, 0, 0], 0.0, (0.1, 0.9), (0.1, 0.9), 200))
    pb, _ = make_patch(plane_points(rng, [0, 1, 0], 0.0, (0.1, 0.9), (0.1, 0.9), 200))
    pc, _ = make_patch(plane_points(rng, [0, 0, 1], 0.0, (0.1, 0.9), (0.1, 0.9), 200))
    assert not coplanar_test(pa, pb)
    assert not coplanar_test(pa, pc)
    assert not coplanar_test(pb, pc)
    groups = greedy_merge([pa, pb, pc])
    assert len(groups) == 3


def test_merge_is_partition(rng):
    patches = []
    start = 0
    for i in range(12):
        axis = np.eye(3)[i % 3]
        pts = plane_points(rng, axis, rng.uniform(-0.4, 0.4),
                           (0, 0.5), (0, 0.5), 80, 0.002)
        p, _ = make_patch(pts, start_index=start)
        patches.append(p)
        start += 80
    groups = greedy_merge(patches)
    assert len(groups) <= len(patches)
    all_members = [m for g in groups for m in g.members]
    assert len(all_members) == len(patches)
    assert {id(m) for m in all_members} == {id(p) for p in patches}
    combined = np.sort(np.concatenate([g.merged.point_indices for g in groups]))
    assert np.array_equal(combined, np.arange(start))


def test_merged_statistics_match_union(rng):
    pts_a = plane_points(rng, [0, 0, 1], 0.2, (0.0, 0.4), (0.0, 0.9), 250, 0.003)
    pts_b = plane_points(rng, [0, 0, 1], 0.2, (0.5, 0.9), (0.0, 0.9), 250, 0.003)
    pa, _ = make_patch(pts_a)
    pb, _ = make_patch(pts_b, start_index=250)
    merged = merge_patches(pa, pb)
    cov_m, cen_m = covariance(merged.cluster)
    cov_ref, cen_ref = two_pass_covariance(np.concatenate([pts_a, pts_b]))
    assert merged.cluster.n == 500
    assert np.linalg.norm(cov_m - cov_ref) <= 1e-12 * max(1.0, np.linalg.norm(cov_ref))
    assert np.allclose(cen_m, cen_ref, atol=1e-12)


def test_no_cross_root_groups_and_disable_increases_count(rng):
    pts = np.concatenate([
        plane_points(rng, [0, 0, 1], 0.5, (-1.8, 1.8), (-1.8, 1.8), 6000, 0.004),
        rng.uniform(-1, 1, (800, 3)),
    ])
    result = extract_plane_groups(pts, ExtractionConfig())
    for g in result.groups:
        assert len({m.root_key for m in g.members}) == 1
    unmerged = [leaf.patch for voxel in result.leaves.values() for leaf in voxel
                if leaf.patch is not None]
    assert len(unmerged) >= len(result.groups)

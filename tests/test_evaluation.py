import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voxplane import (
    GroundTruthCloud,
    InputValidationError,
    PlaneGroup,
    PlanePatch,
    TruthPlane,
    VoxelKey,
    evaluate,
    extract_plane_groups,
    fit_truth_planes,
    gen_corner,
)
from voxplane.evaluation import PlaneMatch, geometry_error
from voxplane.geometry import accumulate, covariance, eigen_symmetric3

from oracles import plurality_scores


def group_from_indices(points, indices):
    pts = points[indices]
    cluster = accumulate(pts)
    cov, centroid = covariance(cluster)
    eig = eigen_symmetric3(cov)
    patch = PlanePatch(cluster=cluster, centroid=centroid,
                       normal=eig.eigenvectors[:, 2].copy(),
                       eigenvalues=eig.eigenvalues.copy(),
                       point_indices=np.asarray(indices),
                       root_key=VoxelKey(0, 0, 0), depth=0)
    return PlaneGroup(members=[patch], merged=patch)


def perfect_extraction(truth):
    return [group_from_indices(truth.points, np.flatnonzero(truth.labels == k))
            for k in range(len(truth.planes))]


def test_perfect_corner_extraction(corner_cloud):
    groups = perfect_extraction(corner_cloud)
    report = evaluate(groups, corner_cloud)
    matches = report.matched_planes
    assert len(matches) == 3
    assert sorted(m.truth_plane for m in matches) == [0, 1, 2]
    assert report.precision == 1.0
    assert report.recall == 1.0


def test_empty_extraction(corner_cloud):
    report = evaluate([], corner_cloud)
    assert report.matched_planes == []
    assert report.precision is None
    assert report.recall == 0.0


def test_no_labeled_points_recall_absent():
    pts = np.random.default_rng(0).uniform(0, 1, (50, 3))
    truth = GroundTruthCloud(points=pts,
                             labels=np.full(50, -1, dtype=np.int32), planes=())
    groups = [group_from_indices(pts, np.arange(10))]
    report = evaluate(groups, truth)
    assert report.recall is None
    assert report.precision == 0.0  # all points in groups carry outlier labels


def test_plurality_matching_mixed_group(corner_cloud):
    # group dominated by plane 1 with a sprinkle of plane 0 points
    idx1 = np.flatnonzero(corner_cloud.labels == 1)[:300]
    idx0 = np.flatnonzero(corner_cloud.labels == 0)[:40]
    groups = [group_from_indices(corner_cloud.points, np.concatenate([idx1, idx0]))]
    report = evaluate(groups, corner_cloud)
    matches = report.matched_planes
    assert len(matches) == 1
    assert matches[0].truth_plane == 1
    assert report.precision == pytest.approx(300 / 340)


def test_outlier_plurality_group_unmatched():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (100, 3))
    labels = np.full(100, -1, dtype=np.int32)
    labels[:10] = 0
    plane = fit_truth_planes(np.column_stack([rng.uniform(0, 1, 10),
                                              rng.uniform(0, 1, 10),
                                              np.zeros(10)]),
                             np.zeros(10, dtype=np.int32))
    truth = GroundTruthCloud(points=pts, labels=labels, planes=plane)
    groups = [group_from_indices(pts, np.arange(100))]
    assert evaluate(groups, truth).matched_planes == []


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _scoring_plane(k):
    return TruthPlane(normal=_unit([1.0, k, 2.0]), offset=0.1 * k, center=np.zeros(3),
                      axis_u=np.array([1.0, 0.0, 0.0]), axis_v=np.array([0.0, 1.0, 0.0]),
                      half_u=1.0, half_v=1.0, noise_sigma=0.0)


def _scoring_group(gi, members):
    # Only the members, the normal and the centroid matter to the scorer.
    patch = PlanePatch(cluster=accumulate(np.empty((0, 3))), centroid=np.full(3, 0.3 * gi),
                       normal=_unit([1.0, gi, 0.5]), eigenvalues=np.zeros(3),
                       point_indices=np.array(members, dtype=np.int64),
                       root_key=VoxelKey(0, 0, 0), depth=0)
    return PlaneGroup(members=[patch], merged=patch)


@st.composite
def scoring_cases(draw):
    """(plane count, labels, groups' member lists); members may overlap."""
    n_planes = draw(st.integers(0, 3))
    labels = draw(st.lists(st.integers(-1, n_planes - 1), max_size=40))
    index = st.integers(0, len(labels) - 1) if labels else st.nothing()
    members = draw(st.lists(st.lists(index, unique=True, max_size=len(labels)),
                            max_size=6))
    return n_planes, labels, members


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases())
@example(case=(2, [0, 1, 0, 1, -1, -1], [[0, 1], [4, 5, 0], [0, 1, 2, 3, 4, 5]]))
@example(case=(2, [-1] * 6, [[0, 1, 2], [2, 3]]))
@example(case=(0, [-1] * 4, [[0, 1, 2, 3]]))
@example(case=(3, [0, 1, 2, 2], []))
def test_evaluate_equals_the_per_group_oracle(case):
    # One bincount table over all groups must score exactly like counting
    # each group's labels on its own: same matches (ties to the smaller
    # label, -1 first), same precision and recall, the same float errors.
    n_planes, labels, members = case
    labels = np.array(labels, dtype=np.int32)
    truth = GroundTruthCloud(points=np.zeros((labels.shape[0], 3)), labels=labels,
                             planes=tuple(_scoring_plane(k) for k in range(n_planes)))
    groups = [_scoring_group(gi, m) for gi, m in enumerate(members)]
    report = evaluate(groups, truth)
    matches, precision, recall = plurality_scores(groups, labels, n_planes)
    assert report.matched_planes == [
        PlaneMatch(gi, pid, *geometry_error(groups[gi], truth.planes[pid]))
        for gi, pid in matches]
    assert all(type(m.group) is int and type(m.truth_plane) is int
               for m in report.matched_planes)
    assert report.precision == precision
    assert report.recall == recall
    assert report.extracted_count == len(groups)
    assert report.ground_truth_count == n_planes


def test_labels_outside_the_plane_range_are_rejected(corner_cloud):
    # Most of the group's points carry label len(planes), one past the last
    # plane; in the vote table that count would land in the next row.
    idx = np.flatnonzero(corner_cloud.labels == 0)[:100]
    groups = [group_from_indices(corner_cloud.points, idx)]
    for bad in (len(corner_cloud.planes), -2):
        labels = corner_cloud.labels.copy()
        labels[idx[:60]] = bad
        truth = GroundTruthCloud(points=corner_cloud.points, labels=labels,
                                 planes=corner_cloud.planes)
        with pytest.raises(InputValidationError, match="labels must lie in"):
            evaluate(groups, truth)
    # float labels once failed inside np.bincount with a bare TypeError
    truth = dataclasses.replace(corner_cloud, labels=corner_cloud.labels.astype(np.float64))
    with pytest.raises(InputValidationError, match="labels must be integers"):
        evaluate(groups, truth)


def test_unsigned_labels_score_like_signed(corner_cloud):
    # uint64 labels once mixed with the intp group ids into float64 votes
    # and failed inside np.bincount
    groups = perfect_extraction(corner_cloud)
    labels = np.where(corner_cloud.labels >= 0, corner_cloud.labels, 0)
    ref = evaluate(groups, dataclasses.replace(corner_cloud, labels=labels))
    for dtype in (np.uint8, np.uint64):
        report = evaluate(groups, dataclasses.replace(corner_cloud, labels=labels.astype(dtype)))
        assert (report.precision, report.recall) == (ref.precision, ref.recall)
        assert report.matched_planes == ref.matched_planes


def test_unsigned_member_indices_score_like_signed(corner_cloud):
    # uint64 indices once mixed with the intp seed array into float64 and
    # failed as indices with a bare IndexError
    groups = perfect_extraction(corner_cloud)
    ref = evaluate(groups, corner_cloud)
    for dtype in (np.uint32, np.uint64):
        unsigned = [dataclasses.replace(g.merged, point_indices=g.merged.point_indices
                                        .astype(dtype)) for g in groups]
        report = evaluate([PlaneGroup(members=[p], merged=p) for p in unsigned], corner_cloud)
        assert (report.precision, report.recall) == (ref.precision, ref.recall)
        assert report.matched_planes == ref.matched_planes


def test_member_indices_outside_the_cloud_are_rejected(corner_cloud):
    # negative indices once wrapped round to the cloud's last points and
    # scored precision 0.667; one past the end, or a float, raised a bare
    # IndexError
    patch = group_from_indices(corner_cloud.points, [0, 1, 5]).merged
    for bad in ([-1, -2, 5], [0, 1, 10**7], np.array([0, 2**63 + 1], dtype=np.uint64),
                [0.0, 1.0]):
        bad_patch = dataclasses.replace(patch, point_indices=np.array(bad))
        with pytest.raises(InputValidationError, match="member indices must"):
            evaluate([PlaneGroup(members=[bad_patch], merged=bad_patch)], corner_cloud)


def test_corner_every_group_matched(corner_cloud):
    result = extract_plane_groups(corner_cloud.points)
    report = evaluate(result.groups, corner_cloud, result.timings)
    assert len(report.matched_planes) == report.extracted_count
    assert report.wall_time_s is result.timings
    assert report.ground_truth_count == 3


def test_metrics_invariant_under_label_permutation(corner_cloud):
    result = extract_plane_groups(corner_cloud.points)
    base = evaluate(result.groups, corner_cloud)
    perm = np.array([2, 0, 1], dtype=np.int32)
    relabeled = GroundTruthCloud(
        points=corner_cloud.points,
        labels=perm[corner_cloud.labels],
        planes=tuple(corner_cloud.planes[k] for k in (1, 2, 0)),
    )
    shuffled = evaluate(result.groups, relabeled)
    assert shuffled.precision == base.precision
    assert shuffled.recall == base.recall


def test_geometry_error_identical(corner_cloud):
    groups = perfect_extraction(gen_corner(noise_sigma=0.0, seed=0))
    truth = gen_corner(noise_sigma=0.0, seed=0)
    for k, g in enumerate(groups):
        angle, offset = geometry_error(g, truth.planes[k])
        assert angle <= 1e-6
        assert offset <= 1e-9


def test_geometry_error_orthogonal(corner_cloud):
    truth = gen_corner(noise_sigma=0.0, seed=0)
    groups = perfect_extraction(truth)
    angle, _ = geometry_error(groups[0], truth.planes[2])
    assert angle == pytest.approx(90.0, abs=1e-6)


def test_geometry_error_sign_symmetric(corner_cloud):
    truth = corner_cloud
    g = perfect_extraction(truth)[0]
    plane = truth.planes[0]
    a = geometry_error(g, plane)
    flipped_patch = PlanePatch(cluster=g.merged.cluster, centroid=g.merged.centroid,
                               normal=-g.merged.normal,
                               eigenvalues=g.merged.eigenvalues,
                               point_indices=g.merged.point_indices,
                               root_key=g.merged.root_key, depth=0)
    b = geometry_error(PlaneGroup([flipped_patch], flipped_patch), plane)
    assert a == pytest.approx(b, abs=1e-12)


def test_geometry_error_offset_is_centroid_distance(rng):
    # A patch tilted 4 degrees about the y axis, 12.4 m out along x, whose
    # centroid sits 4 cm above the truth plane z = 0. Measured from the
    # origin, n_ext . c would put the plane about 0.83 m off.
    tilt = np.radians(4.0)
    uv = rng.uniform(-0.4, 0.4, (200, 2))
    points = np.column_stack([12.4 + uv[:, 0] * np.cos(tilt), uv[:, 1],
                              0.04 + uv[:, 0] * np.sin(tilt)])
    group = group_from_indices(points, np.arange(200))
    for sign in (1.0, -1.0):
        plane = TruthPlane(normal=np.array([0.0, 0.0, sign]), offset=0.0,
                           center=np.zeros(3), axis_u=np.array([1.0, 0.0, 0.0]),
                           axis_v=np.array([0.0, 1.0, 0.0]), half_u=20.0,
                           half_v=20.0, noise_sigma=0.0)
        angle, offset = geometry_error(group, plane)
        assert angle == pytest.approx(4.0, abs=1e-9)
        assert offset == pytest.approx(abs(group.merged.centroid[2]), abs=1e-12)
        assert offset == pytest.approx(0.04, abs=0.01)


def test_fit_truth_planes_recovers_geometry(corner_cloud):
    fitted = fit_truth_planes(corner_cloud.points, corner_cloud.labels)
    assert len(fitted) == 3
    for fit, gen in zip(fitted, corner_cloud.planes):
        dot = abs(float(fit.normal @ gen.normal))
        assert np.degrees(np.arccos(min(1.0, dot))) < 0.1
        assert abs(abs(fit.offset) - abs(gen.offset)) < 1e-3


def test_fit_truth_planes_exact_at_utm_coordinates():
    # The corner scene shifted to a UTM-like easting, northing and height
    # must fit the same planes as at the origin: absolute moments would
    # cancel there, giving a noise sigma of 0 and normals off by 0.08 deg.
    shift = np.array([5e5, 4e6, 100.0])
    for seed in range(3):
        cloud = gen_corner(seed=seed)
        near = fit_truth_planes(cloud.points, cloud.labels)
        far = fit_truth_planes(cloud.points + shift, cloud.labels)
        for a, b in zip(near, far):
            dot = min(1.0, abs(float(a.normal @ b.normal)))
            assert np.degrees(np.arccos(dot)) <= 1e-5
            assert abs(a.noise_sigma - b.noise_sigma) <= 1e-9
            assert np.abs(a.center - (b.center - shift)).max() <= 1e-8


def test_fit_truth_planes_checks_points_and_labels(corner_cloud):
    # list points once raised a TypeError, list labels an AttributeError and
    # labels one short an IndexError; float labels and -5 were fitted
    points, labels = corner_cloud.points, corner_cloud.labels
    fitted = fit_truth_planes(points, labels)
    for a, b in zip(fit_truth_planes(points.tolist(), labels.tolist()), fitted, strict=True):
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
    bad_labels = labels.copy()
    bad_labels[0] = -5
    for pts, lab, message in ((points, labels[:-1], "labels"),
                              (points, labels.astype(np.float64), "labels"),
                              (points, bad_labels, "labels"),
                              (points[:, :2], labels, "points")):
        with pytest.raises(InputValidationError, match=message):
            fit_truth_planes(pts, lab)

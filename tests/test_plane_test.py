import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxplane import (
    ExtractionConfig,
    InputValidationError,
    RejectReason,
    determine_plane,
    extract_plane_groups,
    gen_false_positive_slab,
)
from voxplane import plane_test
from voxplane.geometry import EigenDecomposition, accumulate, covariance, eigen_symmetric3
from voxplane.plane_test import (
    FLATNESS_RATIO_MAX,
    flatness_test,
    quarter_split,
    sparse_quarter_threshold,
)

import pinned
from oracles import (
    plane_decision_reference,
    quarter_split_reference,
    random_rotation,
    two_pass_covariance,
)


def eig_of(points):
    cov, cen = covariance(accumulate(points))
    return eigen_symmetric3(cov), cen


# ---------------------------------------------------------------------------
# flatness_test


def test_flatness_exact_coplanar_always_passes(rng):
    pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100),
                           np.zeros(100)])
    eig, _ = eig_of(pts)
    assert flatness_test(eig)
    # roundoff only: flat under any ratio bound down to 1e-6
    assert eig.eigenvalues[2] < 1e-6 * eig.eigenvalues[0]


def test_flatness_isotropic_fails():
    eig = EigenDecomposition(np.array([1.0, 1.0, 1.0]), np.eye(3))
    assert not flatness_test(eig)


def test_flatness_slab_matches_direct_covariance(rng):
    # uniform samples from a 1 x 1 x 0.05 slab; the eigenvalue ratio of the
    # direct covariance is about (0.05^2/12)/(1/12) = 0.0025, well below
    # the default threshold
    pts = np.column_stack([rng.uniform(0, 1, 5000), rng.uniform(0, 1, 5000),
                           rng.uniform(0, 0.05, 5000)])
    cov_ref, _ = two_pass_covariance(pts)
    lam = np.sort(np.linalg.eigvalsh(cov_ref))[::-1]
    assert lam[2] / lam[0] == pytest.approx(0.0025, rel=0.2)
    eig, _ = eig_of(pts)
    assert flatness_test(eig)


def test_flatness_coincident_points_never_plane():
    eig, _ = eig_of(np.tile([1.0, 2.0, 3.0], (30, 1)))
    assert not flatness_test(eig)


# ---------------------------------------------------------------------------
# quarter_split


def quarters_of(pts, eig, center):
    """Index arrays of the four quadrants of ``pts`` split about ``center``,
    from quarter_split's order and cuts on the points' (3, N) rows."""
    order, cuts = quarter_split(np.ascontiguousarray(pts.T), eig, center)
    assert cuts[0] == 0 and cuts[-1] == pts.shape[0] and len(cuts) == 5
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def test_quarter_split_grid_sizes():
    # square grid, axes fed explicitly: quarter sizes derived by
    # enumerating the sign pattern of the grid
    xs, ys = np.meshgrid(np.linspace(-0.5, 0.5, 21), np.linspace(-0.5, 0.5, 21))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
    eig = EigenDecomposition(np.array([1.0, 0.9, 0.0]), np.eye(3))
    center = pts.mean(axis=0)
    quarters = quarters_of(pts, eig, center)
    sizes = sorted(q.shape[0] for q in quarters)
    # oracle: count sign pairs directly
    sx = pts[:, 0] >= center[0]
    sy = pts[:, 1] >= center[1]
    expected = sorted([(~sx & ~sy).sum(), (~sx & sy).sum(),
                       (sx & ~sy).sum(), (sx & sy).sum()])
    assert sizes == expected
    # 21 x 21 grid: one zero row and column go to the >= side
    assert max(sizes) - min(sizes) <= 2 * 21


def test_quarter_split_single_quadrant():
    pts = np.random.default_rng(0).uniform(0.1, 1.0, (50, 3))
    eig = EigenDecomposition(np.array([1.0, 0.9, 0.0]), np.eye(3))
    quarters = quarters_of(pts, eig, np.zeros(3))
    sizes = [q.shape[0] for q in quarters]
    assert sorted(sizes) == [0, 0, 0, 50]


def test_quarter_split_center_shift_along_normal_is_inert(rng):
    pts = rng.uniform(-1, 1, (300, 3)) * np.array([1.0, 0.6, 0.01])
    eig, cen = eig_of(pts)
    q1 = quarters_of(pts, eig, cen)
    q2 = quarters_of(pts, eig, cen + 7.5 * eig.eigenvectors[:, 2])
    for a, b in zip(q1, q2):
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 300))
def test_quarter_split_is_partition(seed, n):
    gen = np.random.default_rng(seed)
    pts = gen.normal(size=(n, 3)) * gen.uniform(0.1, 3.0, 3)
    eig, cen = eig_of(pts)
    quarters = quarters_of(pts, eig, cen)
    combined = np.concatenate(quarters)
    assert combined.shape[0] == n
    assert np.array_equal(np.sort(combined), np.arange(n))
    for q in quarters:
        assert np.array_equal(q, np.sort(q))


# ---------------------------------------------------------------------------
# determine_plane


def test_noisy_plane_accepted(rng):
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 400), rng.uniform(-0.5, 0.5, 400),
                           rng.normal(0, 0.005, 400)])
    decision = determine_plane(pts)
    assert decision.is_plane
    assert decision.reject_reason is None
    # oracle: every quarter's smallest eigenvalue within a factor 3 of the
    # pooled one, via direct covariance + numpy eigenvalues
    cov_ref, cen_ref = two_pass_covariance(pts)
    lam_ref = np.sort(np.linalg.eigvalsh(cov_ref))[::-1]
    u = np.linalg.eigh(cov_ref)[1]
    d0 = (pts - cen_ref) @ u[:, 2]
    d1 = (pts - cen_ref) @ u[:, 1]
    for sa in (d0 >= 0, d0 < 0):
        for sb in (d1 >= 0, d1 < 0):
            sub = pts[sa & sb]
            q_lam = np.sort(np.linalg.eigvalsh(two_pass_covariance(sub)[0]))[::-1]
            assert 1 / 3 < lam_ref[2] / q_lam[2] < 3
    assert decision.quarter_min_eigenvalues is not None
    assert decision.quarter_min_eigenvalues.shape == (4,)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: the exact slab's clean quarters flush to "
                   "zero thickness, and a zero quarter never disqualifies")
def test_exact_false_positive_slab_rejected():
    # C2 checks the slab at 1 to 10 mm of noise. Without noise the clean
    # quarters' smallest eigenvalue flushes to 0, and a quantized level floor
    # takes the same path. A fix turns this into an unexpected pass and
    # drops the marker.
    for seed in range(50):
        decision = determine_plane(gen_false_positive_slab(seed, noise_sigma=0.0).points)
        assert decision.reject_reason is RejectReason.QUARTER_RATIO_FAILED, seed


def test_too_few_points(rng):
    pts = rng.uniform(0, 1, (10, 3))
    decision = determine_plane(pts)
    assert not decision.is_plane
    assert decision.reject_reason is RejectReason.TOO_FEW_POINTS


def noisy_line(gen, n, length, sigma):
    """n points along x over ``length`` meters, with Gaussian noise of
    ``sigma`` across the line, under a random rotation."""
    pts = np.column_stack([gen.uniform(-length / 2, length / 2, n),
                           gen.normal(0, sigma, n), gen.normal(0, sigma, n)])
    return pts @ random_rotation(gen).T


def test_exact_line_rejected_as_line():
    # flat by the min/max gate (both smaller eigenvalues are zero), but a line
    pts = np.column_stack([np.linspace(-0.5, 0.6, 40), np.zeros(40), np.zeros(40)])
    decision = determine_plane(pts)
    assert not decision.is_plane
    assert decision.reject_reason is RejectReason.LINE_LIKE
    assert flatness_test(decision.eig)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), at_utm=st.booleans())
def test_noisy_line_never_plane(seed, at_utm):
    # a 0.5 m edge with 5 mm noise under a random rigid motion: its quarters,
    # cut across the noise, can look as thick as the whole
    gen = np.random.default_rng(seed)
    pts = noisy_line(gen, 60, 0.5, 0.005) + gen.uniform(-10, 10, 3)
    pts = pts + (pinned.UTM_SHIFT if at_utm else 0.0)
    decision = determine_plane(pts)
    assert not decision.is_plane
    assert decision.reject_reason in (RejectReason.LINE_LIKE, RejectReason.FLATNESS_FAILED)


def test_line_scene_yields_no_line_groups():
    # a 3 m edge of 900 points at 2 mm noise through the whole pipeline: no
    # extracted group may be a line by the plane test's own bound
    bound = FLATNESS_RATIO_MAX
    for seed in range(20):
        gen = np.random.default_rng(seed)
        pts = noisy_line(gen, 900, 3.0, 0.002) + gen.uniform(-2, 2, 3)
        groups = extract_plane_groups(pts, ExtractionConfig()).groups
        lams = [g.merged.eigenvalues for g in groups]
        assert not [lam for lam in lams if lam[1] < bound * lam[0]], f"seed {seed}"


def test_exactly_coplanar_always_plane(rng):
    for _ in range(20):
        n = int(rng.integers(ExtractionConfig().min_points, 500))
        rot = random_rotation(rng)
        flat = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                                np.zeros(n)])
        pts = flat @ rot.T + rng.uniform(-5, 5, 3)
        decision = determine_plane(pts)
        assert decision.is_plane, f"coplanar set of {n} rejected: {decision.reject_reason}"


def test_accepted_set_is_subset_of_flatness(rng):
    # anything determine_plane accepts must also pass the flatness gate
    for _ in range(50):
        kind = rng.integers(3)
        n = int(rng.integers(30, 300))
        if kind == 0:
            pts = rng.normal(size=(n, 3))
        elif kind == 1:
            pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                                   rng.normal(0, 0.01, n)])
        else:
            pts = rng.normal(size=(n, 3)) * np.array([1.0, 0.5, 0.02])
        decision = determine_plane(pts)
        if decision.is_plane:
            eig, _ = eig_of(pts)
            assert flatness_test(eig)


def _quarter_sizes(pts):
    eig, cen = eig_of(pts)
    return sorted(q.shape[0] for q in quarters_of(pts, eig, cen))


def test_rigid_motion_invariance(rng):
    # non-degenerate spectrum: distinct in-plane extents, visible thickness
    for _ in range(25):
        n = 400
        pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-0.6, 0.6, n),
                               rng.normal(0, 0.01, n)])
        rot = random_rotation(rng)
        moved = pts @ rot.T + rng.uniform(-10, 10, 3)
        d0 = determine_plane(pts)
        d1 = determine_plane(moved)
        assert d0.is_plane == d1.is_plane
        assert _quarter_sizes(pts) == _quarter_sizes(moved)


def test_scale_invariance(rng):
    for scale in (0.01, 0.5, 3.0, 250.0):
        pts = np.column_stack([rng.uniform(-1, 1, 300), rng.uniform(-0.7, 0.7, 300),
                               rng.normal(0, 0.004, 300)])
        d0 = determine_plane(pts)
        d1 = determine_plane(pts * scale)
        assert d0.is_plane == d1.is_plane


def test_sparse_quarter_fallback():
    # coplanar blob plus two stray coplanar points arranged so one quarter
    # holds the blob and the other three hold 1, 1, 0 points: three
    # quarters fall below the sparse threshold and the verdict falls back
    # to the flatness gate
    gen = np.random.default_rng(99)
    blob = np.column_stack([1.22 + gen.uniform(-1e-3, 1e-3, 56),
                            1.23 + gen.uniform(-1e-3, 1e-3, 56),
                            np.zeros(56)])
    strays = np.array([[1.226, -17.136, 0.0], [-35.686, -9.330, 0.0]])
    pts = np.concatenate([blob, strays])
    eig, cen = eig_of(pts)
    quarters = quarters_of(pts, eig, cen)
    assert sum(1 for q in quarters if q.shape[0] < sparse_quarter_threshold(20)) == 3
    decision = determine_plane(pts, ExtractionConfig(min_points=20))
    assert decision.sparse_quarter_fallback
    assert decision.is_plane
    assert decision.reject_reason is None
    assert decision.quarter_min_eigenvalues is None


def test_sparse_quarter_threshold_value():
    assert sparse_quarter_threshold(20) == 3
    assert sparse_quarter_threshold(80) == 10
    assert sparse_quarter_threshold(4) == 3


def test_min_points_comes_from_the_config(rng):
    # 25 coplanar points: a plane under the default smallest plane of 20,
    # too few under 30
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 25), rng.uniform(-0.5, 0.5, 25),
                           np.zeros(25)])
    assert determine_plane(pts).is_plane
    assert determine_plane(pts, ExtractionConfig()).is_plane
    decision = determine_plane(pts, ExtractionConfig(min_points=30))
    assert not decision.is_plane
    assert decision.reject_reason is RejectReason.TOO_FEW_POINTS


def test_non_finite_points_rejected():
    pts = np.zeros((30, 3))
    pts[5, 1] = np.nan
    with pytest.raises(InputValidationError):
        determine_plane(pts)


def test_decision_carries_reusable_statistics(rng):
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 100), rng.uniform(-0.5, 0.5, 100),
                           rng.normal(0, 0.002, 100)])
    decision = determine_plane(pts)
    assert decision.cluster.n == 100
    cov_ref, cen_ref = two_pass_covariance(pts)
    assert np.allclose(decision.centroid, cen_ref, atol=1e-12)
    lam_ref = np.sort(np.linalg.eigvalsh(cov_ref))[::-1]
    assert np.allclose(decision.eig.eigenvalues, lam_ref, atol=1e-12)


# ---------------------------------------------------------------------------
# the quarter kernel (one gather, slice sums) against the one-quarter-at-a-time oracle

ORACLE_KINDS = ("coplanar", "grid", "line", "noisy_line", "clumps", "ratio")


def _oracle_case(kind, seed, at_utm):
    """Points and min_points of one oracle case. n runs from min_points - 1
    up; "clumps" keeps n within a few points of min_points, where one to
    four quarters are sparse, and "ratio" makes one quadrant about 3 or
    0.52 times as thick as the rest, which puts a quarter near the 1/3 or 3
    bound of the pooled thickness. A rotated "grid" of odd sides puts whole
    rows on the dividing lines, where the sign of the projection's roundoff
    decides the quarter."""
    gen = np.random.default_rng(seed)
    min_points = int(gen.choice([4, 8, 20, 40]))
    n = min_points + int(gen.integers(-1, 12 if kind == "clumps" else 300))
    if kind == "coplanar":
        pts = np.column_stack([gen.uniform(-1, 1, n), gen.uniform(-0.6, 0.6, n),
                               np.full(n, gen.uniform(-1, 1))])[:, gen.permutation(3)]
    elif kind == "grid":
        a, b = 2 * gen.integers(2, 8, 2) + 1
        x, y = np.meshgrid((np.arange(a) - a // 2) * 0.1, (np.arange(b) - b // 2) * 0.07)
        pts = np.column_stack([x.ravel(), y.ravel(), np.zeros(a * b)]) @ random_rotation(gen).T
        min_points = min(min_points, a * b)
    elif kind == "line":
        t = gen.uniform(-0.5, 0.5, n)
        pts = np.column_stack([t, t * gen.choice([0.0, 0.5, 2.0]), np.zeros(n)])
    elif kind == "noisy_line":
        pts = noisy_line(gen, n, 0.5, 0.005)
    elif kind == "clumps":
        centers = gen.uniform(-1, 1, (int(gen.integers(1, 5)), 2))
        xy = centers[gen.integers(0, centers.shape[0], n)] + gen.normal(0, gen.uniform(0.05, 0.5),
                                                                         (n, 2))
        pts = np.column_stack([xy, gen.normal(0, 0.002, n)]) @ random_rotation(gen).T
    else:
        xy = np.column_stack([gen.uniform(-1, 1, n), gen.uniform(-0.6, 0.6, n)])
        f = gen.choice([3.0, 0.522]) * gen.uniform(0.85, 1.15)
        sigma = np.where((xy[:, 0] >= 0) & (xy[:, 1] >= 0), f, 1.0) * 0.004
        pts = np.column_stack([xy, gen.normal(0, 1, n) * sigma]) @ random_rotation(gen).T
    return pts + gen.uniform(-10, 10, 3) + (pinned.UTM_SHIFT if at_utm else 0.0), min_points


def test_oracle_cases_cover_sparse_quarters_and_ratio_bounds():
    sparse_counts, reasons, near_bound = set(), set(), 0
    for kind in ORACLE_KINDS:
        for seed in range(150):
            pts, min_points = _oracle_case(kind, seed, seed % 2 == 1)
            ref = plane_decision_reference(pts, min_points=min_points)
            reasons.add(ref["reject_reason"])
            if ref["cuts"] is not None:
                sizes = np.diff(ref["cuts"])
                sparse_counts.add(int((sizes < sparse_quarter_threshold(min_points)).sum()))
            if ref["quarter_min"] is not None and ref["eigenvalues"][2] > 0.0:
                ratio = ref["eigenvalues"][2] / ref["quarter_min"][ref["quarter_min"] > 0.0]
                near_bound += bool((np.abs(np.log(ratio * 3.0)) < 0.1).any()
                                   or (np.abs(np.log(ratio / 3.0)) < 0.1).any())
    assert sparse_counts == {0, 1, 2, 3, 4}
    assert reasons == {None, "too_few_points", "line_like", "quarter_ratio_failed"}
    assert near_bound >= 50


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**31 - 1), at_utm=st.booleans())
def test_determine_plane_matches_per_quarter_oracle(kind, seed, at_utm):
    pts, min_points = _oracle_case(kind, seed, at_utm)
    splits = []

    def spy(*args):
        splits.append(quarter_split(*args))
        return splits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plane_test, "quarter_split", spy)
        decision = determine_plane(pts, ExtractionConfig(min_points=min_points))
    ref = plane_decision_reference(pts, min_points=min_points)
    assert decision.is_plane == ref["is_plane"]
    assert (decision.reject_reason and decision.reject_reason.value) == ref["reject_reason"]
    assert decision.sparse_quarter_fallback == ref["fallback"]
    assert decision.eig.eigenvalues.tobytes() == ref["eigenvalues"].tobytes()
    assert decision.eig.eigenvectors.tobytes() == ref["eigenvectors"].tobytes()
    if ref["quarter_min"] is None:
        assert decision.quarter_min_eigenvalues is None
    else:
        assert decision.quarter_min_eigenvalues.tobytes() == ref["quarter_min"].tobytes()
    if ref["cuts"] is None:
        assert splits == []
    else:
        (order, cuts), = splits
        assert np.array_equal(order, ref["order"])
        assert cuts == ref["cuts"]


def test_quarter_split_matches_oracle_on_rotated_grids():
    # Whole grid rows sit on a dividing line, so the offsets' roundoff picks
    # their quarter: only the oracle's summation order gives its quarters.
    for seed in range(300):
        pts, min_points = _oracle_case("grid", seed, seed % 2 == 1)
        calls = []

        def spy(*args):
            calls.append(args)
            return quarter_split(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plane_test, "quarter_split", spy)
            determine_plane(pts, ExtractionConfig(min_points=min_points))
        for cols, eig, center in calls:
            order, cuts = quarter_split(cols, eig, center)
            ref_order, ref_cuts = quarter_split_reference(cols, eig.eigenvectors, center)
            assert np.array_equal(order, ref_order), f"seed {seed}"
            assert cuts == ref_cuts, f"seed {seed}"

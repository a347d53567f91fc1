import numpy as np
import pytest

from voxplane import (
    GenerationError,
    InputValidationError,
    PlaneTestParams,
    RejectReason,
    accumulate,
    covariance,
    determine_plane,
    eigen_symmetric3,
    flatness_test,
    gen_corner,
    gen_false_positive_slab,
    gen_multi_room,
    gen_plane,
    gen_slab_with_object,
)

import pinned

Z = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# gen_plane


def test_zero_noise_points_on_plane():
    cloud = gen_plane(Z, 0.25, (1.0, 1.0), 500.0, 0.0, seed=4)
    assert np.abs(cloud.points @ Z - 0.25).max() <= 1e-12


@pytest.mark.parametrize("density, sigma", [
    (500.0, -0.1), (500.0, float("nan")), (500.0, float("inf")),
    (float("nan"), 0.005), (float("inf"), 0.005), (-1.0, 0.005),
])
def test_gen_plane_rejects_bad_density_or_sigma(density, sigma):
    with pytest.raises(InputValidationError):
        gen_plane(Z, 0.0, (1.0, 1.0), density, sigma, seed=0)


def test_counts_match_pinned_fixture():
    for seed, expected in pinned.GEN_PLANE_COUNTS.items():
        cloud = gen_plane(Z, 0.0, (2.0, 2.0), 1000.0, 0.005, seed)
        assert cloud.points.shape[0] == expected
        # Poisson: expected 4000, fixture inside the 3-sigma band
        assert abs(expected - 4000) <= 3 * np.sqrt(4000)


def test_noise_sigma_matches_covariance():
    cloud = gen_plane(Z, 0.0, (2.0, 2.0), 1500.0, 0.01, seed=8)
    assert cloud.points.shape[0] >= 4000
    cov, _ = covariance(accumulate(cloud.points))
    lam3 = eigen_symmetric3(cov).eigenvalues[2]
    assert lam3 == pytest.approx(0.01 ** 2, rel=0.2)


def test_labels_within_noise_band_and_extent():
    cloud = gen_plane(Z, 0.1, (1.5, 0.8), 800.0, 0.004, seed=12)
    plane = cloud.planes[0]
    dist = np.abs(cloud.points @ plane.normal - plane.offset)
    assert dist.max() <= 6 * plane.noise_sigma + 1e-12
    rel = cloud.points - plane.center
    assert np.abs(rel @ plane.axis_u).max() <= plane.half_u + 1e-12
    assert np.abs(rel @ plane.axis_v).max() <= plane.half_v + 1e-12


def test_determinism_and_seed_sensitivity():
    a = gen_plane(Z, 0.0, (1.0, 1.0), 400.0, 0.005, seed=5)
    b = gen_plane(Z, 0.0, (1.0, 1.0), 400.0, 0.005, seed=5)
    c = gen_plane(Z, 0.0, (1.0, 1.0), 400.0, 0.005, seed=6)
    assert np.array_equal(a.points, b.points)
    assert a.points.shape != c.points.shape or not np.array_equal(a.points, c.points)


def test_tilted_plane_points_satisfy_equation():
    n = np.array([1.0, 2.0, -2.0]) / 3.0
    cloud = gen_plane(n, 1.3, (1.0, 2.0), 300.0, 0.0, seed=2)
    assert np.abs(cloud.points @ n - 1.3).max() <= 1e-12


# ---------------------------------------------------------------------------
# gen_corner


def test_corner_zero_noise_labels():
    cloud = gen_corner(noise_sigma=0.0, seed=3)
    assert set(np.unique(cloud.labels)) == {0, 1, 2}
    for k, plane in enumerate(cloud.planes):
        member = cloud.points[cloud.labels == k]
        assert np.abs(member @ plane.normal - plane.offset).max() <= 1e-12


def test_corner_counts_match_pinned():
    for seed, rec in pinned.GEN_CORNER_COUNTS.items():
        cloud = gen_corner(seed=seed)
        assert cloud.points.shape[0] == rec["total"]
        per = [int((cloud.labels == k).sum()) for k in range(3)]
        assert per == rec["per_plane"]


def test_corner_zero_density_empty():
    cloud = gen_corner(density=0.0, seed=0)
    assert cloud.points.shape[0] == 0
    assert cloud.labels.shape[0] == 0
    assert len(cloud.planes) == 3


# ---------------------------------------------------------------------------
# gen_false_positive_slab


def test_fp_slab_passes_flatness_fails_quarters():
    params = PlaneTestParams()
    cloud = gen_false_positive_slab(seed=0)
    cov, _ = covariance(accumulate(cloud.points))
    assert flatness_test(eigen_symmetric3(cov), params.flatness_ratio_max)
    decision = determine_plane(cloud.points, params)
    assert not decision.is_plane
    assert decision.reject_reason is RejectReason.QUARTER_RATIO_FAILED


def test_fp_slab_labels_protrusion_as_outlier():
    cloud = gen_false_positive_slab(seed=0)
    assert cloud.points.shape[0] == pinned.GEN_FP_SLAB["total"]
    assert int((cloud.labels < 0).sum()) == pinned.GEN_FP_SLAB["outliers"]
    # protrusion points sit above the base plane
    assert cloud.points[cloud.labels < 0][:, 2].max() > 0.02


def test_fp_slab_deterministic():
    a = gen_false_positive_slab(seed=1)
    b = gen_false_positive_slab(seed=1)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_fp_slab_sweep_exhaustion_fails_loudly():
    # an absurdly strict flatness gate can never pass, so no sweep
    # configuration is admissible
    with pytest.raises(GenerationError):
        gen_false_positive_slab(seed=0, params=PlaneTestParams(flatness_ratio_max=1e-12))


# ---------------------------------------------------------------------------
# gen_slab_with_object


def test_slab_object_zero_noise_ground():
    cloud = gen_slab_with_object(seed=0, noise_sigma=0.0)
    ground = cloud.planes[0]
    member = cloud.points[cloud.labels == 0]
    assert np.abs(member @ ground.normal - ground.offset).max() <= 1e-12


def test_slab_object_box_base_near_ground():
    cloud = gen_slab_with_object(seed=0)
    ground = cloud.planes[0]
    dist = np.abs(cloud.points @ ground.normal - ground.offset)
    assert int(((cloud.labels >= 1) & (dist <= 0.03)).sum()) >= 1


def test_slab_object_counts_match_pinned():
    rec = pinned.GEN_SLAB_OBJECT_COUNTS[0]
    cloud = gen_slab_with_object(seed=0)
    assert cloud.points.shape[0] == rec["total"]
    per = [int((cloud.labels == k).sum()) for k in range(6)]
    assert per == rec["per_plane"]
    assert len(cloud.planes) == 6


# ---------------------------------------------------------------------------
# gen_multi_room


def test_multi_room_scale_and_labels():
    cloud = gen_multi_room(rooms=(2, 2), room_size=3.0, target_points=50_000, seed=1)
    assert cloud.points.shape[0] == pytest.approx(50_000, rel=0.05)
    assert len(cloud.planes) == 2 + 3 + 3  # floor, ceiling, walls per axis
    assert set(np.unique(cloud.labels)) == set(range(len(cloud.planes)))

import hashlib

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
from oracles import traced_peak

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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("geometry", [
    dict(extent=(NAN, 1.0)), dict(extent=(-1.0, 1.0)), dict(extent=(INF, 1.0)),
    dict(extent=(-1.0, -1.0)), dict(normal=(NAN, 0.0, 1.0)), dict(normal=(0.0, 0.0, INF)),
    dict(offset=NAN), dict(offset=INF), dict(center=(0.0, NAN, 0.0)),
    dict(normal=(0.6, 0.8)), dict(normal=(0.0, 0.0, 1.0, 0.0)), dict(center=(0.0, 0.0)),
    dict(extent=(1.0,)), dict(extent=(1.0, 1.0, 1.0)),
    # finite lengths whose expected count is past numpy's Poisson limit
    dict(extent=(1e200, 1e200)), dict(extent=(1e9, 1e9)),
    # a center off the plane: the points would lie 5 m and 1 m away from
    # the plane their TruthPlane states
    dict(center=(0.0, 0.0, 5.0)),
    dict(normal=(0.6, 0.0, 0.8), offset=-0.5, center=(1.0, 2.0, -0.125)),
])
def test_gen_plane_rejects_impossible_geometry(geometry):
    with pytest.raises(InputValidationError):
        gen_plane(**dict(normal=Z, offset=0.0, extent=(1.0, 1.0), density=100.0,
                         noise_sigma=0.005, seed=0) | geometry)


@pytest.mark.parametrize("make", [
    lambda seed: gen_plane(Z, 0.0, (1.0, 1.0), 100.0, 0.005, seed=seed),
    lambda seed: gen_corner(seed=seed),
    lambda seed: gen_multi_room(target_points=1000, seed=seed),
    lambda seed: gen_slab_with_object(seed=seed),
    lambda seed: gen_false_positive_slab(seed=seed),
])
@pytest.mark.parametrize("seed", [-1, [0, -1], 1.5, "7"])
def test_generators_reject_bad_seeds(make, seed):
    with pytest.raises(InputValidationError):
        make(seed)


def test_seed_sequence_seeds_are_not_advanced():
    # gen_plane takes the child streams the scene generators spawn; a
    # SeedSequence seed gives the same scene as its integer, every time
    seq = np.random.SeedSequence(3)
    for _ in range(2):
        assert np.array_equal(gen_corner(seed=seq).points, gen_corner(seed=3).points)
        assert np.array_equal(gen_plane(Z, 0.0, (1.0, 1.0), 100.0, 0.005, seed=seq).points,
                              gen_plane(Z, 0.0, (1.0, 1.0), 100.0, 0.005, seed=3).points)


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


def test_plane_zero_density_empty():
    cloud = gen_plane(Z, 0.0, (2.0, 2.0), 0.0, 0.005, seed=0)
    assert cloud.points.shape == (0, 3)
    assert cloud.labels.shape[0] == 0
    assert len(cloud.planes) == 1


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
    # at 5 cm noise the slab alone is too thick for the flatness gate, so
    # no sweep configuration is admissible
    with pytest.raises(GenerationError):
        gen_false_positive_slab(seed=0, noise_sigma=0.05)


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
    cloud = gen_multi_room(target_points=50_000, seed=1)
    assert cloud.points.shape[0] == pytest.approx(50_000, rel=0.05)
    assert len(cloud.planes) == 2 + 4 + 4  # floor, ceiling, walls per axis
    assert set(np.unique(cloud.labels)) == set(range(len(cloud.planes)))


def test_multi_room_generation_peak_memory():
    # The points (24 B a point) are allocated once and each rectangle
    # fills its slice. The peak comes while the floor (a quarter of the
    # points) holds its a, b, e and one product row, 8 B a point of the
    # cloud, before the labels (4 B) exist: 32 B against 28 B returned,
    # 1.14x. Concatenating per-rectangle parts would read 2.15x.
    cloud = gen_multi_room(target_points=200_000, seed=0)
    returned = cloud.points.nbytes + cloud.labels.nbytes
    assert traced_peak(gen_multi_room, 200_000, 0) <= 1.3 * returned


# ---------------------------------------------------------------------------
# every generator, byte for byte


def _scene_digest(clouds) -> str:
    """sha256 over each cloud's points (float64) and labels (int32), then
    every field of each of its TruthPlanes (float64), as raw bytes."""
    h = hashlib.sha256()
    for cloud in clouds:
        h.update(cloud.points.astype("<f8").tobytes())
        h.update(cloud.labels.astype("<i4").tobytes())
        for p in cloud.planes:
            for value in (p.normal, p.offset, p.center, p.axis_u, p.axis_v,
                          p.half_u, p.half_v, p.noise_sigma):
                h.update(np.asarray(value, dtype="<f8").tobytes())
    return h.hexdigest()


def _pinned_scenes():
    yield from (gen_corner(seed=s) for s in range(6))
    for sigma in (0.005, 0.02):
        yield gen_slab_with_object(seed=0, noise_sigma=sigma)
    yield from (gen_multi_room(target_points=30_000, seed=[0, s]) for s in range(3))
    yield gen_multi_room(seed=0)
    yield gen_false_positive_slab(seed=0)
    yield gen_plane(Z, 0.25, (1.0, 2.0), 800.0, 0.004, seed=2)
    yield gen_plane(np.array([0.6, 0.0, 0.8]), -0.5, (1.5, 1.0), 300.0, 0.0, seed=6,
                    center=np.array([0.5, 2.0, -1.0]))


def test_generators_match_pinned_digest():
    assert _scene_digest(_pinned_scenes()) == pinned.GEN_SCENES_SHA256

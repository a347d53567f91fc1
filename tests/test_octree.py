import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxplane import (
    ExtractionConfig,
    InputValidationError,
    NodeState,
    RansacParams,
    VoxelKey,
    accumulate,
    build_root_map,
    build_voxel_forest,
    covariance,
    determine_plane,
    eigen_symmetric3,
    extract_planes,
    flatness_test,
    gen_plane,
    ransac_extract_all,
    voxel_key,
)
from voxplane.octree import iter_leaves, make_root_node, subdivide

from oracles import two_pass_covariance

CFG = ExtractionConfig()


# ---------------------------------------------------------------------------
# voxel_key / build_root_map


def test_voxel_key_basic():
    assert voxel_key((0.5, 0.5, 0.5), 1.0) == VoxelKey(0, 0, 0)


def test_voxel_key_floor_semantics():
    assert voxel_key((-0.01, 2.0, 0.99), 1.0) == VoxelKey(-1, 2, 0)


@pytest.mark.parametrize("root_size", [1.0, 0.5, 2.0])
def test_voxel_key_interval_membership(rng, root_size):
    pts = rng.uniform(-20, 20, (100_000, 3))
    keys = np.floor(pts / root_size).astype(np.int64)
    # oracle: every point must lie in the half-open cube its key names
    lo = keys * root_size
    hi = (keys + 1) * root_size
    assert np.all(pts >= lo) and np.all(pts < hi)
    # and the scalar path agrees with the vectorized one
    for i in rng.integers(0, pts.shape[0], 50):
        assert voxel_key(pts[i], root_size) == VoxelKey(*keys[i])


def test_build_root_map_empty():
    assert build_root_map(np.zeros((0, 3)), 1.0) == {}


def test_build_root_map_eight_cubes():
    centers = np.array([[i + 0.5, j + 0.5, k + 0.5]
                        for i in range(2) for j in range(2) for k in range(2)])
    out = build_root_map(centers, 1.0)
    assert len(out) == 8
    assert all(v.shape[0] == 1 for v in out.values())


def test_build_root_map_partitions_input(rng):
    pts = rng.uniform(-5, 5, (5000, 3))
    out = build_root_map(pts, 1.0)
    counts = sum(v.shape[0] for v in out.values())
    assert counts == 5000
    combined = np.sort(np.concatenate(list(out.values())))
    assert np.array_equal(combined, np.arange(5000))
    # keys come out in sorted lattice order
    keys = list(out.keys())
    assert keys == sorted(keys)


def test_lattice_overflow_rejected():
    # 1e19, -1e19 and 2e19 would all cast to the key INT64_MIN
    for x in (1e19, -1e19, 2e19):
        pts = np.array([[x, 0.0, 0.0], [0.5, 0.5, 0.5]])
        with pytest.raises(InputValidationError):
            build_root_map(pts, 1.0)
        with pytest.raises(InputValidationError):
            voxel_key(pts[0], 1.0)
        with pytest.raises(InputValidationError):
            ransac_extract_all(pts, CFG, RansacParams(seed=0))
    # the quotient, not the coordinate, must fit
    with pytest.raises(InputValidationError):
        build_root_map(np.array([[1e10, 0.0, 0.0]]), 1e-10)


# ---------------------------------------------------------------------------
# subdivide


def _root_with(points, key=VoxelKey(0, 0, 0)):
    node = make_root_node(key, CFG.root_size, np.arange(len(points)))
    return subdivide(node, np.asarray(points, dtype=np.float64), CFG, key)


def test_subdivide_coplanar_single_leaf(rng):
    pts = np.column_stack([rng.uniform(0.01, 0.99, 1000),
                           rng.uniform(0.01, 0.99, 1000),
                           np.full(1000, 0.37)])
    node = _root_with(pts)
    assert node.state is NodeState.PLANE_LEAF
    assert node.depth == 0
    assert node.patch is not None
    assert node.patch.cluster.n == 1000


def test_subdivide_two_parallel_planes(rng):
    # two parallel planes 0.5 m apart inside one root voxel: the union
    # fails the flatness gate (oracle: direct covariance), each half is
    # coplanar, so the root is internal with plane leaves deeper down
    a = np.column_stack([rng.uniform(0.01, 0.99, 800), rng.uniform(0.01, 0.99, 800),
                         np.full(800, 0.2)])
    b = np.column_stack([rng.uniform(0.01, 0.99, 800), rng.uniform(0.01, 0.99, 800),
                         np.full(800, 0.7)])
    pts = np.concatenate([a, b])
    cov_ref, _ = two_pass_covariance(pts)
    lam = np.sort(np.linalg.eigvalsh(cov_ref))[::-1]
    assert lam[2] / lam[0] >= CFG.plane_params.flatness_ratio_max  # union is not flat
    node = _root_with(pts)
    assert node.state is NodeState.INTERNAL
    leaves = list(iter_leaves(node))
    plane_leaves = [l for l in leaves if l.state is NodeState.PLANE_LEAF]
    assert plane_leaves and all(l.depth >= 1 for l in plane_leaves)


def test_subdivide_too_few_points(rng):
    pts = rng.uniform(0, 1, (19, 3))
    node = _root_with(pts)
    assert node.state is NodeState.DISCARDED


def test_subdivide_depth_bound_and_conservation(rng):
    # random clutter forces deep subdivision; check the depth bound and
    # that every index lands in exactly one leaf
    pts = rng.uniform(0, 1, (4000, 3))
    node = _root_with(pts)
    max_depth = math.ceil(math.log2(CFG.root_size / CFG.min_voxel_size))
    seen = []
    for leaf in iter_leaves(node):
        assert leaf.depth <= max_depth
        seen.append(leaf.point_indices)
    combined = np.sort(np.concatenate(seen))
    assert np.array_equal(combined, np.arange(4000))


@pytest.mark.parametrize("root_size,min_voxel", [(1.0, 0.3), (2.0, 0.5), (1.0, 0.6)])
def test_depth_bound_non_default_sizes(rng, root_size, min_voxel):
    cfg = ExtractionConfig(root_size=root_size, min_voxel_size=min_voxel)
    pts = rng.uniform(0, root_size, (3000, 3))
    key = VoxelKey(0, 0, 0)
    node = subdivide(make_root_node(key, root_size, np.arange(3000)), pts, cfg, key)
    bound = math.ceil(math.log2(root_size / min_voxel))
    assert all(leaf.depth <= bound for leaf in iter_leaves(node))


def test_subdivide_leaf_planarity_recheck(rng):
    pts = np.concatenate([
        np.column_stack([rng.uniform(0.01, 0.99, 1500), rng.uniform(0.01, 0.99, 1500),
                         rng.normal(0.3, 0.003, 1500)]),
        rng.uniform(0, 1, (500, 3)),
    ])
    node = _root_with(pts)
    for leaf in iter_leaves(node):
        if leaf.state is NodeState.PLANE_LEAF:
            redo = determine_plane(pts[leaf.point_indices], CFG.plane_params)
            assert redo.is_plane


# ---------------------------------------------------------------------------
# extract_planes


def test_extract_corner_scene(corner_cloud):
    patches = extract_planes(corner_cloud.points, CFG)
    assert len(patches) >= 3
    truth_normals = np.eye(3)
    for p in patches:
        angles = [math.degrees(math.acos(min(1.0, abs(float(p.normal @ n)))))
                  for n in truth_normals]
        assert min(angles) < 3.0


def test_extract_empty():
    assert extract_planes(np.zeros((0, 3)), CFG) == []


def test_extract_plane_spanning_four_roots(rng):
    cloud = gen_plane(np.array([0.0, 0.0, 1.0]), 0.5, (2.0, 2.0), 1500.0,
                      0.002, seed=3, center=np.array([0.0, 0.0, 0.5]))
    # generator bounding box covers 4 root cells in x,y
    keys = {voxel_key(p, CFG.root_size) for p in cloud.points[:: max(1, len(cloud.points) // 500)]}
    assert len(keys) >= 4
    patches = extract_planes(cloud.points, CFG)
    assert len(patches) >= 4
    assert len({p.root_key for p in patches}) >= 4


def test_extract_translation_by_root_multiples(rng):
    pts = np.concatenate([
        np.column_stack([rng.uniform(0.1, 0.9, 600), rng.uniform(0.1, 0.9, 600),
                         rng.normal(0.4, 0.004, 600)]),
        rng.uniform(0, 1, (300, 3)),
    ])
    shift = np.array([3.0, -2.0, 5.0]) * CFG.root_size
    f0 = build_voxel_forest(pts, CFG)
    f1 = build_voxel_forest(pts + shift, CFG)
    k0 = list(f0.keys())
    k1 = list(f1.keys())
    assert [(k.ix + 3, k.iy - 2, k.iz + 5) for k in k0] == [tuple(k) for k in k1]

    def shape(forest):
        out = []
        for root in forest.values():
            for leaf in iter_leaves(root):
                out.append((leaf.depth, leaf.state, leaf.point_indices.shape[0]))
        return out

    assert shape(f0) == shape(f1)


def test_extract_deterministic(rng):
    pts = rng.uniform(0, 3, (3000, 3))
    a = extract_planes(pts, CFG)
    b = extract_planes(pts, CFG)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.root_key == pb.root_key
        assert np.array_equal(pa.point_indices, pb.point_indices)
        assert np.array_equal(pa.normal, pb.normal)
        assert np.array_equal(pa.eigenvalues, pb.eigenvalues)


def test_extract_respects_min_points(rng):
    cloud = gen_plane(np.array([0.0, 0.0, 1.0]), 0.5, (3.0, 3.0), 800.0, 0.003,
                      seed=5, center=np.array([0.0, 0.0, 0.5]))
    for p in extract_planes(cloud.points, CFG):
        assert p.cluster.n >= CFG.min_points


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_point_conservation_random_scenes(seed):
    gen = np.random.default_rng(seed)
    pts = gen.uniform(-2, 2, (int(gen.integers(50, 1500)), 3))
    forest = build_voxel_forest(pts, CFG)
    seen = [leaf.point_indices
            for root in forest.values() for leaf in iter_leaves(root)]
    combined = np.sort(np.concatenate(seen)) if seen else np.zeros(0, dtype=int)
    assert np.array_equal(combined, np.arange(pts.shape[0]))

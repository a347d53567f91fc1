import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxplane import (
    ExtractionConfig,
    InputValidationError,
    NodeState,
    OctreeNode,
    RansacParams,
    VoxelKey,
    accumulate,
    build_root_map,
    covariance,
    determine_plane,
    eigen_symmetric3,
    extract_plane_groups,
    flatness_test,
    gen_multi_room,
    gen_plane,
    octree_leaves,
    ransac_extract_all,
    subdivide,
    voxel_key,
)

import pinned
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


def _resolve(points, cfg=CFG, key=VoxelKey(0, 0, 0)):
    """Subdivide one root voxel holding all of ``points``; return the
    resolved root node and the leaves it appended."""
    root = OctreeNode(center=(np.asarray(key, dtype=np.float64) + 0.5) * cfg.root_size,
                      half_extent=cfg.root_size / 2.0, depth=0,
                      point_indices=np.arange(len(points)))
    leaves = []
    node = subdivide(root, np.asarray(points, dtype=np.float64), cfg, key, leaves)
    return node, leaves


def test_subdivide_coplanar_single_leaf(rng):
    pts = np.column_stack([rng.uniform(0.01, 0.99, 1000),
                           rng.uniform(0.01, 0.99, 1000),
                           np.full(1000, 0.37)])
    node, leaves = _resolve(pts)
    assert len(leaves) == 1 and leaves[0] is node
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
    node, leaves = _resolve(pts)
    assert node.state is NodeState.INTERNAL
    assert all(leaf.depth >= 1 for leaf in leaves)
    plane_leaves = [l for l in leaves if l.state is NodeState.PLANE_LEAF]
    assert plane_leaves and all(l.depth >= 1 for l in plane_leaves)


def test_subdivide_too_few_points(rng):
    pts = rng.uniform(0, 1, (19, 3))
    node, leaves = _resolve(pts)
    assert len(leaves) == 1 and leaves[0] is node
    assert node.state is NodeState.DISCARDED


def test_subdivide_depth_bound_and_conservation(rng):
    # random clutter forces deep subdivision; check the depth bound and
    # that every index lands in exactly one leaf
    pts = rng.uniform(0, 1, (4000, 3))
    _, leaves = _resolve(pts)
    max_depth = math.ceil(math.log2(CFG.root_size / CFG.min_voxel_size))
    seen = []
    for leaf in leaves:
        assert leaf.depth <= max_depth
        seen.append(leaf.point_indices)
    combined = np.sort(np.concatenate(seen))
    assert np.array_equal(combined, np.arange(4000))


@pytest.mark.parametrize("root_size,min_voxel", [(1.0, 0.3), (2.0, 0.5), (1.0, 0.6)])
def test_depth_bound_non_default_sizes(rng, root_size, min_voxel):
    cfg = ExtractionConfig(root_size=root_size, min_voxel_size=min_voxel)
    pts = rng.uniform(0, root_size, (3000, 3))
    _, leaves = _resolve(pts, cfg)
    bound = math.ceil(math.log2(root_size / min_voxel))
    assert all(leaf.depth <= bound for leaf in leaves)


def test_subdivide_leaf_planarity_recheck(rng):
    pts = np.concatenate([
        np.column_stack([rng.uniform(0.01, 0.99, 1500), rng.uniform(0.01, 0.99, 1500),
                         rng.normal(0.3, 0.003, 1500)]),
        rng.uniform(0, 1, (500, 3)),
    ])
    _, leaves = _resolve(pts)
    for leaf in leaves:
        if leaf.state is NodeState.PLANE_LEAF:
            redo = determine_plane(pts[leaf.point_indices], CFG.plane_params)
            assert redo.is_plane


def _octant_path(leaf, key, root_size):
    """Octant indices from the root down to ``leaf``, read off its centre:
    at depth d the centre's cell on the 2^d lattice of the root voxel has
    the octant bit of each axis as its lowest bit."""
    rel = leaf.center - np.asarray(key, dtype=np.float64) * root_size
    bits = [np.floor(rel / (root_size / 2 ** d)).astype(np.int64) & 1
            for d in range(1, leaf.depth + 1)]
    return tuple(int(b[0] + 2 * b[1] + 4 * b[2]) for b in bits)


@pytest.fixture(scope="module")
def room_30k():
    cloud = gen_multi_room(target_points=30_000, seed=0)
    return cloud.points, octree_leaves(cloud.points, CFG)


def test_room_leaf_histogram_pinned(room_30k):
    pts, leaves = room_30k
    pin = pinned.ROOM_30K_LEAVES
    assert pts.shape[0] == pin["points"]
    assert len(leaves) == pin["roots"]
    hist = Counter((leaf.depth, leaf.state.value)
                   for voxel in leaves.values() for leaf in voxel)
    assert dict(hist) == pin["leaves"]


def test_leaf_octant_paths_strictly_increase(room_30k, rng):
    # leaves come depth first, octant index ascending: within each root
    # voxel their octant paths are strictly increasing, as tuples
    clutter = rng.uniform(-1, 1, (6000, 3))
    for leaves in (room_30k[1], octree_leaves(clutter, CFG)):
        for key, voxel in leaves.items():
            paths = [_octant_path(leaf, key, CFG.root_size) for leaf in voxel]
            assert all(a < b for a, b in zip(paths, paths[1:])), key
            assert [len(p) for p in paths] == [leaf.depth for leaf in voxel]


# ---------------------------------------------------------------------------
# extract_plane_groups


def _planes(points):
    return [g.merged for g in extract_plane_groups(points, CFG).groups]


def test_extract_corner_scene(corner_cloud):
    patches = _planes(corner_cloud.points)
    assert len(patches) >= 3
    truth_normals = np.eye(3)
    for p in patches:
        angles = [math.degrees(math.acos(min(1.0, abs(float(p.normal @ n)))))
                  for n in truth_normals]
        assert min(angles) < 3.0


def test_extract_empty():
    assert _planes(np.zeros((0, 3))) == []


def test_extract_plane_spanning_four_roots(rng):
    cloud = gen_plane(np.array([0.0, 0.0, 1.0]), 0.5, (2.0, 2.0), 1500.0,
                      0.002, seed=3, center=np.array([0.0, 0.0, 0.5]))
    # generator bounding box covers 4 root cells in x,y
    keys = {voxel_key(p, CFG.root_size) for p in cloud.points[:: max(1, len(cloud.points) // 500)]}
    assert len(keys) >= 4
    patches = _planes(cloud.points)
    assert len(patches) >= 4
    assert len({p.root_key for p in patches}) >= 4


def test_extract_translation_by_root_multiples(rng):
    pts = np.concatenate([
        np.column_stack([rng.uniform(0.1, 0.9, 600), rng.uniform(0.1, 0.9, 600),
                         rng.normal(0.4, 0.004, 600)]),
        rng.uniform(0, 1, (300, 3)),
    ])
    shift = np.array([3.0, -2.0, 5.0]) * CFG.root_size
    f0 = octree_leaves(pts, CFG)
    f1 = octree_leaves(pts + shift, CFG)
    k0 = list(f0.keys())
    k1 = list(f1.keys())
    assert [(k.ix + 3, k.iy - 2, k.iz + 5) for k in k0] == [tuple(k) for k in k1]

    def shape(leaves):
        return [(leaf.depth, leaf.state, leaf.point_indices.shape[0])
                for voxel in leaves.values() for leaf in voxel]

    assert shape(f0) == shape(f1)


def test_extract_deterministic(rng):
    pts = rng.uniform(0, 3, (3000, 3))
    a = _planes(pts)
    b = _planes(pts)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.root_key == pb.root_key
        assert np.array_equal(pa.point_indices, pb.point_indices)
        assert np.array_equal(pa.normal, pb.normal)
        assert np.array_equal(pa.eigenvalues, pb.eigenvalues)


def test_extract_respects_min_points(rng):
    cloud = gen_plane(np.array([0.0, 0.0, 1.0]), 0.5, (3.0, 3.0), 800.0, 0.003,
                      seed=5, center=np.array([0.0, 0.0, 0.5]))
    for p in _planes(cloud.points):
        assert p.cluster.n >= CFG.plane_params.min_points


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_point_conservation_random_scenes(seed):
    gen = np.random.default_rng(seed)
    pts = gen.uniform(-2, 2, (int(gen.integers(50, 1500)), 3))
    seen = [leaf.point_indices
            for voxel in octree_leaves(pts, CFG).values() for leaf in voxel]
    combined = np.sort(np.concatenate(seen)) if seen else np.zeros(0, dtype=int)
    assert np.array_equal(combined, np.arange(pts.shape[0]))

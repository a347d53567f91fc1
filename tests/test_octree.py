import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxplane import (
    ExtractionConfig,
    NodeState,
    VoxelKey,
    determine_plane,
    extract_plane_groups,
    gen_corner,
    gen_multi_room,
    gen_plane,
)
import voxplane.octree
from voxplane.geometry import accumulate
from voxplane.merging import greedy_merge
from voxplane.octree import _OCTANT_SIGNS, MAX_DEPTH, OctreeNode, build_root_map, subdivide
from voxplane.plane_test import FLATNESS_RATIO_MAX

import pinned
from oracles import member_sets, subdivide_reference, traced_peak, two_pass_covariance

CFG = ExtractionConfig()


# ---------------------------------------------------------------------------
# build_root_map


def _point_keys(out):
    """(members, keys): every member index of a root map and, row for row,
    the key of the voxel holding it, as an int64 array."""
    keys = np.array(list(out), dtype=np.int64).reshape(-1, 3)
    members = np.concatenate([np.empty(0, dtype=np.int64)] + list(out.values()))
    return members, np.repeat(keys, [v.shape[0] for v in out.values()], axis=0)


def test_voxel_key_basic():
    out = build_root_map(np.array([[0.5, 0.5, 0.5]]), 1.0)
    assert {k: v.tolist() for k, v in out.items()} == {VoxelKey(0, 0, 0): [0]}


def test_voxel_key_floor_semantics():
    out = build_root_map(np.array([[-0.01, 2.0, 0.99]]), 1.0)
    assert [tuple(k) for k in out] == [(-1, 2, 0)]


@pytest.mark.parametrize("root_size", [1.0, 0.5, 2.0])
def test_voxel_key_interval_membership(rng, root_size):
    pts = rng.uniform(-20, 20, (100_000, 3))
    out = build_root_map(pts, root_size)
    assert all(type(c) is int for key in out for c in key)
    members, keys = _point_keys(out)
    assert np.array_equal(np.sort(members), np.arange(pts.shape[0]))
    pts = pts[members]
    assert np.array_equal(keys, np.floor(pts / root_size))
    # oracle: every point must lie in the half-open cube its key names
    lo = keys * root_size
    hi = (keys + 1) * root_size
    assert np.all(pts >= lo) and np.all(pts < hi)


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


def _root_map_reference(points, root_size):
    """build_root_map written plainly: a stable lexsort of the wide int64
    keys, x first, then one index array per run of equal keys."""
    keys = np.floor(points / root_size).astype(np.int64)
    out = {}
    for i in np.lexsort(keys.T[::-1]).tolist():
        out.setdefault(VoxelKey(*keys[i].tolist()), []).append(i)
    return {k: np.array(v) for k, v in out.items()}


def _assert_root_map_matches_reference(points, root_size):
    out = build_root_map(points, root_size)
    ref = _root_map_reference(points, root_size)
    assert list(out) == list(ref)
    for key, idx in ref.items():
        assert np.array_equal(out[key], idx), key


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), bits=st.sampled_from([5, 16, 32, 44]),
       root_size=st.sampled_from([0.25, 1.0, 4.0]))
def test_build_root_map_matches_wide_key_reference(seed, bits, root_size):
    # Every axis spans 2^bits - 1 cells about zero, negative keys included,
    # so the narrowed sort rows come out uint8, uint16, uint32 and uint64.
    # The keys repeat, so voxels hold several points in input order.
    gen = np.random.default_rng(seed)
    half = 2 ** (bits - 1)
    pool = gen.integers(-half, half, (int(gen.integers(2, 40)), 3))
    pool[0], pool[1] = -half, half - 1
    keys = pool[np.concatenate(([0, 1], gen.integers(0, len(pool), int(gen.integers(0, 300)))))]
    keys = keys[gen.permutation(len(keys))]
    points = (keys + gen.uniform(0.01, 0.99, keys.shape)) * root_size
    assert np.array_equal(np.floor(points / root_size), keys)
    _assert_root_map_matches_reference(points, root_size)


def test_build_root_map_at_the_domain_edge():
    # coordinates of +-2^40 m over the smallest root voxel, 2^-20 m, give
    # keys of +-2^60, whose span of 2^61 the int64 offsets hold
    edge = 2.0 ** 40
    pts = np.array([[edge, 0.0, 0.0], [-edge, 1.5, 0.0], [0.5, 0.5, -3.0],
                    [edge, 0.2, 0.3], [-edge, 1.5, -edge], [-edge, 1.5, 0.0]])
    out = build_root_map(pts, 2.0 ** -20)
    assert [key.ix for key in out] == [-2 ** 60, -2 ** 60, 2 ** 19, 2 ** 60, 2 ** 60]
    assert [key.iz for key in out][:3] == [-2 ** 60, 0, -3 * 2 ** 20]
    _assert_root_map_matches_reference(pts, 2.0 ** -20)


@pytest.mark.parametrize("layout", ["fortran", "column_strided", "utm_shifted"])
def test_build_root_map_any_memory_layout(room_30k, layout):
    # The keys are built from the columns pts[:, j], whose strides follow
    # the input's layout; every layout must give the same map.
    pts = room_30k[0]
    if layout == "fortran":
        pts = np.asfortranarray(pts)
    elif layout == "column_strided":
        wide = np.zeros((len(pts), 6))
        wide[:, ::2] = pts
        pts = wide[:, ::2]
    else:
        pts = pts + pinned.UTM_SHIFT
    _assert_root_map_matches_reference(pts, CFG.root_size)


@pytest.fixture(scope="module")
def room_200k():
    return gen_multi_room(target_points=200_000, seed=0).points


def test_build_root_map_peak_memory(room_200k):
    # The keys are built one axis at a time: one float row (8 B a point),
    # one int64 row (8 B) and the uint8 sort rows (1 B each) are alive at
    # once, 0.75x the points' 24 B a point; the lexsort order (8 B) and
    # the sorted narrow rows come after the wide rows are gone.
    assert traced_peak(build_root_map, room_200k, CFG.root_size) <= 1.0 * room_200k.nbytes


def test_extract_plane_groups_peak_memory(room_200k):
    # The whole extraction peaks at about 1.06x the points' bytes, nearly
    # all of it the result it returns: one int64 index per point, which
    # every leaf views, then the patches, the groups' member indices and
    # their Python objects. A copy of the indices per internal node, kept
    # alive by its leaves, would read 1.31x.
    assert traced_peak(extract_plane_groups, room_200k, CFG) <= 1.2 * room_200k.nbytes


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
    assert lam[2] / lam[0] >= FLATNESS_RATIO_MAX  # union is not flat
    node, leaves = _resolve(pts)
    assert node.state is NodeState.INTERNAL
    assert all(leaf.depth >= 1 for leaf in leaves)
    plane_leaves = [l for l in leaves if l.state is NodeState.PLANE_LEAF]
    assert plane_leaves and all(l.depth >= 1 for l in plane_leaves)


def test_subdivide_leaves_indices_in_octant_order(rng):
    # an internal node's indices are reordered in place: grouped by octant
    # code, ascending, and equal to its leaves' indices in leaf order, each
    # leaf's a slice of them
    pts = rng.uniform(0, 1, (4000, 3))
    node, leaves = _resolve(pts)
    assert node.state is NodeState.INTERNAL
    code = (pts[node.point_indices] >= node.center) @ np.array([1, 2, 4])
    assert (np.diff(code) >= 0).all()
    assert np.array_equal(node.point_indices,
                          np.concatenate([leaf.point_indices for leaf in leaves]))
    assert all(leaf.point_indices.base is node.point_indices for leaf in leaves)


def test_subdivide_too_few_points(rng):
    pts = rng.uniform(0, 1, (19, 3))
    node, leaves = _resolve(pts)
    assert len(leaves) == 1 and leaves[0] is node
    assert node.state is NodeState.DISCARDED


def _spied_subdivide(monkeypatch):
    """Route every call of ``octree.subdivide``, the recursive ones too,
    through a spy; returns the spy and the list of nodes it was called on."""
    calls = []

    def spy(node, *args):
        calls.append(node)
        return subdivide(node, *args)

    monkeypatch.setattr(voxplane.octree, "subdivide", spy)
    return spy, calls


def _ids(nodes):
    return [id(node) for node in nodes]


def _scatter_node(rng, depth, per_octant):
    """A node at ``depth`` of the root voxel [0, 1)^3, at its low corner,
    holding ``per_octant[k]`` uniform points in octant k, shuffled."""
    he = 0.5 / 2 ** depth
    center = np.full(3, he)
    pts = np.concatenate([center + ((_OCTANT_SIGNS[k] - 1.0) / 2.0
                                    + rng.uniform(0.01, 0.99, (n, 3))) * he
                          for k, n in enumerate(per_octant)])
    pts = pts[rng.permutation(len(pts))]
    node = OctreeNode(center=center, half_extent=he, depth=depth,
                      point_indices=rng.permutation(len(pts)))
    return node, pts


@pytest.mark.parametrize("depth", [0, 1])
def test_subdivide_discards_a_node_with_no_octant_of_min_points(monkeypatch, rng, depth):
    # 8 x 19 points of scatter fail the plane test, and no octant could be
    # tested, so no plane can come out below: the node is one discarded
    # leaf, its indices as given, with no call for its octants
    node, pts = _scatter_node(rng, depth, [CFG.min_points - 1] * 8)
    assert not determine_plane(pts, CFG).is_plane
    given_indices = node.point_indices.copy()
    spy, calls = _spied_subdivide(monkeypatch)
    leaves = []
    assert spy(node, pts, CFG, VoxelKey(0, 0, 0), leaves) is node
    assert _ids(leaves) == _ids(calls) == [id(node)]
    assert node.state is NodeState.DISCARDED and node.patch is None
    assert np.array_equal(node.point_indices, given_indices)


@pytest.mark.parametrize("min_points", [20, 30])
def test_subdivide_splits_at_an_octant_of_exactly_min_points(monkeypatch, rng, min_points):
    # octant 0 holds a coplanar patch and octants 1-7 ten points of scatter
    # each; the node fails the plane test either way. With min_points points
    # in octant 0 it splits and the patch is a plane leaf; with one fewer, no
    # octant can be tested and the node is discarded whole.
    cfg = ExtractionConfig(min_points=min_points)
    for k, state in ((min_points, NodeState.INTERNAL), (min_points - 1, NodeState.DISCARDED)):
        node, pts = _scatter_node(rng, 0, [0] + [10] * 7)
        patch = np.column_stack([rng.uniform(0.02, 0.48, (k, 2)), np.full(k, 0.2)])
        pts = np.concatenate([patch, pts])
        node.point_indices = np.arange(len(pts))
        assert not determine_plane(pts, cfg).is_plane
        spy, calls = _spied_subdivide(monkeypatch)
        leaves = []
        spy(node, pts, cfg, VoxelKey(0, 0, 0), leaves)
        assert node.state is state, k
        if state is NodeState.DISCARDED:
            assert _ids(leaves) == _ids(calls) == [id(node)]
            assert np.array_equal(node.point_indices, np.arange(len(pts)))
        else:
            assert _ids(calls) == _ids([node] + leaves) and len(leaves) == 8
            assert leaves[0].state is NodeState.PLANE_LEAF
            assert np.array_equal(leaves[0].point_indices, np.arange(k))
            assert all(leaf.state is NodeState.DISCARDED for leaf in leaves[1:])


def test_subdivide_depth_bound_and_conservation(rng):
    # random clutter forces deep subdivision; check the depth bound and
    # that every index lands in exactly one leaf
    pts = rng.uniform(0, 1, (4000, 3))
    _, leaves = _resolve(pts)
    seen = []
    for leaf in leaves:
        assert leaf.depth <= MAX_DEPTH
        seen.append(leaf.point_indices)
    combined = np.sort(np.concatenate(seen))
    assert np.array_equal(combined, np.arange(4000))


@pytest.mark.parametrize("root_size", [0.25, 1.0, 2.0, 4.0])
def test_depth_bound_non_default_sizes(rng, root_size):
    # the depth is fixed at any scale: clutter splits down to it, no further
    cfg = ExtractionConfig(root_size=root_size)
    pts = rng.uniform(0, root_size, (3000, 3))
    _, leaves = _resolve(pts, cfg)
    assert max(leaf.depth for leaf in leaves) == MAX_DEPTH


def test_subdivide_leaf_planarity_recheck(rng):
    pts = np.concatenate([
        np.column_stack([rng.uniform(0.01, 0.99, 1500), rng.uniform(0.01, 0.99, 1500),
                         rng.normal(0.3, 0.003, 1500)]),
        rng.uniform(0, 1, (500, 3)),
    ])
    _, leaves = _resolve(pts)
    for leaf in leaves:
        if leaf.state is NodeState.PLANE_LEAF:
            redo = determine_plane(pts[leaf.point_indices], CFG)
            assert redo.is_plane


@pytest.mark.parametrize("min_points", [4, 20, 30])
def test_plane_leaves_pass_the_plane_test_under_their_config(corner_cloud, min_points):
    # subdivide hands determine_plane its own config: under min_points 4 a
    # leaf of fewer than the default 20 points is a plane too
    pts = corner_cloud.points[::10]
    cfg = ExtractionConfig(min_points=min_points)
    leaves = [leaf for voxel in extract_plane_groups(pts, cfg).leaves.values()
              for leaf in voxel if leaf.state is NodeState.PLANE_LEAF]
    sizes = [leaf.point_indices.shape[0] for leaf in leaves]
    assert leaves and min(sizes) >= min_points
    assert (min(sizes) < ExtractionConfig().min_points) == (min_points == 4)
    for leaf in leaves:
        assert determine_plane(pts[leaf.point_indices], cfg).is_plane


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
    return cloud.points, extract_plane_groups(cloud.points, CFG).leaves


def test_room_leaf_histogram_pinned(room_30k):
    pts, leaves = room_30k
    pin = pinned.ROOM_30K_LEAVES
    assert pts.shape[0] == pin["points"]
    assert len(leaves) == pin["roots"]
    hist = Counter((leaf.depth, leaf.state.value)
                   for voxel in leaves.values() for leaf in voxel)
    assert dict(hist) == pin["leaves"]


def _groups_sha256(points, floats=True, config=CFG):
    """sha256 over each output group's merged patch, in output order: root
    key and member indices (int64), then, with ``floats``, centroid, normal
    and eigenvalues (float64), as raw bytes."""
    h = hashlib.sha256()
    for group in extract_plane_groups(points, config).groups:
        patch = group.merged
        h.update(np.asarray(patch.root_key, dtype=np.int64).tobytes())
        h.update(np.asarray(patch.point_indices, dtype=np.int64).tobytes())
        for arr in (patch.centroid, patch.normal, patch.eigenvalues) if floats else ():
            h.update(np.asarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_room_leaves_view_one_index_array(room_30k):
    # every point's index is held once: each leaf's indices are a slice of
    # one array of N indices, and the leaves partition the cloud
    pts, leaves = room_30k
    indices = [leaf.point_indices for voxel in leaves.values() for leaf in voxel]
    base = indices[0].base
    assert base is not None and base.shape == (len(pts),)
    assert all(idx.base is base for idx in indices)
    assert np.array_equal(np.sort(np.concatenate(indices)), np.arange(len(pts)))


def test_room_groups_byte_identical(room_30k):
    # the output bytes of the per-node regime, pinned: any change to the
    # summation order of a kernel shows here first
    assert _groups_sha256(room_30k[0]) == pinned.ROOM_30K_GROUPS_SHA256


def test_room_group_members_pinned(room_30k):
    # which points form which group: a change of moment frame or summation
    # order moves the float bytes above but must leave every decision alone
    assert _groups_sha256(room_30k[0], floats=False) == pinned.ROOM_30K_MEMBERS_SHA256


def test_corner_utm_groups_byte_identical():
    # far from the origin a last-bit change in a kernel shows first; the
    # groups must be the origin scene's, members and order alike
    points = gen_corner(seed=0).points
    assert _groups_sha256(points + pinned.UTM_SHIFT) == pinned.CORNER_UTM_GROUPS_SHA256
    near, far = (extract_plane_groups(p, CFG).groups for p in (points, points + pinned.UTM_SHIFT))
    assert len(far) == pinned.CORNER_EVAL["groups"]
    assert ([g.merged.point_indices.tolist() for g in far]
            == [g.merged.point_indices.tolist() for g in near])


def _crossing_planes(rng):
    """Three noisy planes crossing in [-1, 1]^3 over uniform clutter: plane
    leaves at every depth, so child rows are sliced from parent rows."""
    parts = [rng.uniform(-1, 1, (1000, 3))]
    for normal, d in (([0.3, 0.2, 1.0], 0.1), ([1.0, 0.1, 0.05], -0.4), ([0.1, 1.0, 0.2], 0.3)):
        n = np.asarray(normal) / np.linalg.norm(normal)
        p = rng.uniform(-1, 1, (8000, 3))
        parts.append(p - np.outer(p @ n - d - rng.normal(0, 0.002, 8000), n))
    return np.concatenate(parts)


def test_plane_leaf_cluster_sums_its_own_points(room_30k, rng):
    # A node's rows are a slice of its parent's, gathered apart from its
    # index slice; a block out of step with the indices would sum other
    # points than the leaf names. The sums must be those of the named
    # points, bit for bit.
    clutter = _crossing_planes(rng)
    scenes = (room_30k, (clutter, extract_plane_groups(clutter, CFG).leaves))
    for pts, leaves in scenes:
        for leaf in (leaf for voxel in leaves.values() for leaf in voxel if leaf.patch):
            got, ref = leaf.patch.cluster, accumulate(pts[leaf.point_indices])
            assert got.n == ref.n
            for field in ("sum", "sq_sum", "origin"):
                assert np.array_equal(getattr(got, field), getattr(ref, field)), field
    # the clutter has plane leaves two slices below their root
    assert 2 in {leaf.depth for voxel in scenes[1][1].values() for leaf in voxel if leaf.patch}


@pytest.fixture(scope="module")
def scale_scenes(room_30k):
    corner = gen_corner(seed=0).points
    return {"room_30k": (room_30k[0], pinned.ROOM_30K_MEMBERS_SHA256),
            "corner": (corner, _groups_sha256(corner, floats=False))}


@pytest.mark.parametrize("k", range(-4, 5))
@pytest.mark.parametrize("scene", ["room_30k", "corner"])
def test_extract_scale_invariance(scale_scenes, scene, k):
    # Scaling the points and the root voxel size by 2^k is exact in binary
    # floating point, so no decision may move: same root keys, same groups,
    # same member indices. The merge's fixed 1 um separation floor is not
    # scaled: no merge decision in these scenes comes near it.
    points, members_sha = scale_scenes[scene]
    s = 2.0 ** k
    cfg = dataclasses.replace(CFG, root_size=CFG.root_size * s)
    assert _groups_sha256(points * s, floats=False, config=cfg) == members_sha


def test_leaf_octant_paths_strictly_increase(room_30k, rng):
    # leaves come depth first, octant index ascending: within each root
    # voxel their octant paths are strictly increasing, as tuples
    clutter = rng.uniform(-1, 1, (6000, 3))
    for leaves in (room_30k[1], extract_plane_groups(clutter, CFG).leaves):
        for key, voxel in leaves.items():
            paths = [_octant_path(leaf, key, CFG.root_size) for leaf in voxel]
            assert all(a < b for a, b in zip(paths, paths[1:])), key
            assert [len(p) for p in paths] == [leaf.depth for leaf in voxel]


def _sparse_scene(gen):
    """1-4 root voxels of the unit lattice, each with 20-200 points: up to
    three noisy planar patches, each over part of the voxel, and up to half
    of the points, or all of them when no patch lands, uniform clutter."""
    keys = gen.choice(64, int(gen.integers(1, 5)), replace=False)
    parts = []
    for key in np.column_stack(np.unravel_index(keys, (4, 4, 4))) - 2:
        n = int(gen.integers(20, 201))
        planar = [np.empty((0, 3))]
        for _ in range(int(gen.integers(0, 4))):
            lo = gen.uniform(0.0, 0.6, 2)
            uv = lo + gen.uniform(0.0, 1.0, (n, 2)) * gen.uniform(0.2, 1.0 - lo)
            w = gen.uniform(0.2, 0.8) + uv @ gen.uniform(-0.2, 0.2, 2) + gen.normal(0, 0.002, n)
            planar.append(np.column_stack([uv, w])[:, gen.permutation(3)])
        planar = np.concatenate(planar)
        planar = gen.permutation(planar[((planar > 0.0) & (planar < 1.0)).all(axis=1)])
        planar = planar[:n - int(gen.integers(0, n // 2 + 1))]
        clutter = gen.uniform(0.001, 0.999, (n - len(planar), 3))
        parts.append(gen.permutation(np.concatenate([planar, clutter])) + key)
    return np.concatenate(parts)


def _patch_bytes(patch):
    return (tuple(patch.root_key), patch.depth, patch.point_indices.tobytes(),
            patch.centroid.tobytes(), patch.normal.tobytes(), patch.eigenvalues.tobytes())


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), min_points=st.integers(4, 40), utm=st.booleans())
def test_pruned_subdivide_matches_the_always_split_reference(seed, min_points, utm):
    # Splitting a failing node only when an octant holds min_points points
    # changes no plane leaf and no group: each discarded leaf stands for a
    # run of the reference's leaves, all discarded, holding its points.
    pts = _sparse_scene(np.random.default_rng(seed)) + (pinned.UTM_SHIFT if utm else 0.0)
    cfg = ExtractionConfig(min_points=min_points)
    result = extract_plane_groups(pts, cfg)
    ref_groups = []
    for key, idx in build_root_map(pts, cfg.root_size).items():
        ref = []
        root = OctreeNode(center=(np.asarray(key, dtype=np.float64) + 0.5) * cfg.root_size,
                          half_extent=cfg.root_size / 2.0, depth=0, point_indices=idx)
        subdivide_reference(root, pts.take(idx, axis=0), cfg, key, ref)
        ref_groups += greedy_merge([leaf.patch for leaf in ref if leaf.patch])
        ref = iter(ref)
        for leaf in result.leaves[key]:
            if leaf.patch:
                assert _patch_bytes(leaf.patch) == _patch_bytes(next(ref).patch)
                continue
            replaced = []
            while sum(r.point_indices.shape[0] for r in replaced) < leaf.point_indices.shape[0]:
                replaced.append(next(ref))
            assert all(r.state is NodeState.DISCARDED for r in replaced)
            assert all(r.depth >= leaf.depth for r in replaced)
            assert (np.sort(np.concatenate([r.point_indices for r in replaced])).tolist()
                    == np.sort(leaf.point_indices).tolist())
        assert next(ref, None) is None
    assert ([[_patch_bytes(p) for p in (g.merged, *g.members)] for g in result.groups]
            == [[_patch_bytes(p) for p in (g.merged, *g.members)] for g in ref_groups])


# ---------------------------------------------------------------------------
# extract_plane_groups


def _planes(points):
    return [g.merged for g in extract_plane_groups(points, CFG).groups]


def test_extract_empty():
    assert _planes(np.zeros((0, 3))) == []


def test_extract_plane_spanning_four_roots(rng):
    cloud = gen_plane(np.array([0.0, 0.0, 1.0]), 0.5, (2.0, 2.0), 1500.0,
                      0.002, seed=3, center=np.array([0.0, 0.0, 0.5]))
    # generator bounding box covers 4 root cells in x,y
    assert len(build_root_map(cloud.points, CFG.root_size)) >= 4
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
    near = extract_plane_groups(pts, CFG)
    f0 = near.leaves
    f1 = extract_plane_groups(pts + shift, CFG).leaves
    k0 = list(f0.keys())
    k1 = list(f1.keys())
    assert [(k.ix + 3, k.iy - 2, k.iz + 5) for k in k0] == [tuple(k) for k in k1]

    def shape(leaves):
        return [(leaf.depth, leaf.state, leaf.point_indices.shape[0])
                for voxel in leaves.values() for leaf in voxel]

    assert shape(f0) == shape(f1)

    # the whole extraction at UTM-like coordinates, also a whole number of
    # root voxels away: the same groups and, within roundoff, the same planes
    near = near.groups
    far = extract_plane_groups(pts + pinned.UTM_SHIFT, CFG).groups
    assert member_sets(near) == member_sets(far)
    by_members = {frozenset(g.merged.point_indices.tolist()): g.merged for g in far}
    for g in near:
        f = by_members[frozenset(g.merged.point_indices.tolist())]
        assert math.degrees(math.acos(min(1.0, abs(float(g.merged.normal @ f.normal))))) <= 1e-4
        assert np.abs(g.merged.centroid + pinned.UTM_SHIFT - f.centroid).max() <= 1e-8


@pytest.mark.parametrize("scene", ["room_30k", "corner_utm"])
def test_extract_permutation_gives_same_groups(scene):
    # Input order must not decide a plane test. With min_points 20 a
    # quarter counts from 3 points, and 3 points are always coplanar, so
    # that quarter's smallest eigenvalue is pure roundoff. Summed about the
    # coordinate origin it came out anywhere up to about +/-7e-14 in these
    # rooms, on either side of the 1e-12 * lambda0 flush (about 5e-15), so
    # the summation order, that is the input order, decided the verdict.
    # Summed about a point of the node it is near 1e-20 and always flushed.
    if scene == "room_30k":
        points = gen_multi_room(target_points=30_000, seed=[9, 1]).points
    else:
        points = gen_corner(seed=0).points + pinned.UTM_SHIFT
    ref = member_sets(extract_plane_groups(points, CFG).groups)
    gen = np.random.default_rng(5)
    for _ in range(5):
        order = gen.permutation(points.shape[0])
        assert member_sets(extract_plane_groups(points[order], CFG).groups, order) == ref


def test_extract_respects_min_points(rng):
    cloud = gen_plane(np.array([0.0, 0.0, 1.0]), 0.5, (3.0, 3.0), 800.0, 0.003,
                      seed=5, center=np.array([0.0, 0.0, 0.5]))
    for p in _planes(cloud.points):
        assert p.cluster.n >= CFG.min_points


def test_result_leaves_are_the_groups_members(room_30k, rng):
    # One run gives both outputs: the leaves partition the points, and in
    # each voxel the plane leaves' patches are exactly the groups' members,
    # first fit: members in leaf order, groups in order of their first member
    for pts in (room_30k[0], _crossing_planes(rng)):
        result = extract_plane_groups(pts, CFG)
        seen = [leaf.point_indices for voxel in result.leaves.values() for leaf in voxel]
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(pts.shape[0]))
        groups = iter(result.groups)
        for key, voxel in result.leaves.items():
            position = {id(leaf.patch): i for i, leaf in enumerate(voxel) if leaf.patch}
            paths, found = [], set()
            while len(found) < len(position):
                paths.append([position[id(m)] for m in next(groups).members])
                found.update(paths[-1])
            assert sorted(i for path in paths for i in path) == sorted(position.values()), key
            assert all(a < b for path in paths for a, b in zip(path, path[1:])), key
            assert [p[0] for p in paths] == sorted(p[0] for p in paths), key
        assert next(groups, None) is None


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_point_conservation_random_scenes(seed):
    gen = np.random.default_rng(seed)
    pts = gen.uniform(-2, 2, (int(gen.integers(50, 1500)), 3))
    seen = [leaf.point_indices
            for voxel in extract_plane_groups(pts, CFG).leaves.values() for leaf in voxel]
    combined = np.sort(np.concatenate(seen)) if seen else np.zeros(0, dtype=int)
    assert np.array_equal(combined, np.arange(pts.shape[0]))

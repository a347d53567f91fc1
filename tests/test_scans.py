"""Scan-pattern scenes: the multi-room scene's rectangles as a spinning
multi-beam sensor sees them. Points lie along scan lines whose density
falls with range and whose noise runs along the beam, which drives plane
decisions that the uniformly sampled scenes never reach.

Two suites. The three-room scenes (``POSES``) test density: their poses
sit in different rooms, so no group of theirs spans two poses. The pose
sequence (``SEQUENCE``) tests association: consecutive poses a short step
apart in one room, as LiDAR frames for bundle adjustment are, where one
group must tie each plane's points from several poses."""

from collections import Counter

import numpy as np
import pytest

import voxplane.octree
import voxplane.pipeline
from voxplane import GroundTruthCloud, evaluate, extract_plane_groups, gen_multi_room

from oracles import linked_pairs

POSES = [(2.1, 2.3, 1.6), (6.2, 5.9, 1.5), (9.7, 2.4, 1.7)]
# 0.5 m steps in the first room
SEQUENCE = [(2.1, 2.3, 1.6), (2.6, 2.5, 1.6), (3.1, 2.7, 1.6)]
UTM_SHIFT = np.array([5e5, 4e6, 100.0])


def scan(planes, beams, poses, seed=0) -> tuple[GroundTruthCloud, np.ndarray]:
    """A scan of the rectangles ``planes`` from each pose in turn: ``beams``
    rings spread evenly over -15..+15 degrees of elevation, a 0.2 degree
    azimuth step, the nearest rectangle hit by each beam, Gaussian range
    noise (sigma 5 mm) along the beam. A point's label is the index of the
    rectangle it hit; beams that hit nothing are dropped. Returns the cloud
    and each point's pose index."""
    rng = np.random.default_rng(seed)
    elev, azim = np.meshgrid(np.radians(np.linspace(-15.0, 15.0, beams)),
                             np.radians(np.arange(1800) * 0.2), indexing="ij")
    dirs = np.stack([np.cos(elev) * np.cos(azim), np.cos(elev) * np.sin(azim),
                     np.sin(elev)], axis=-1).reshape(-1, 3)
    points, labels, pose_index = [], [], []
    for i, pose in enumerate(np.asarray(poses, dtype=np.float64)):
        near = np.full(dirs.shape[0], np.inf)
        label = np.full(dirs.shape[0], -1, dtype=np.int32)
        for k, p in enumerate(planes):
            # a beam parallel to the plane has t = +-inf or nan: never a hit
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (p.offset - pose @ p.normal) / (dirs @ p.normal)
                rel = pose - p.center + t[:, None] * dirs
                hit = ((t > 0) & (t < near) & (np.abs(rel @ p.axis_u) <= p.half_u)
                       & (np.abs(rel @ p.axis_v) <= p.half_v))
            near[hit], label[hit] = t[hit], k
        keep = label >= 0
        ranges = near[keep] + rng.normal(0.0, 0.005, int(keep.sum()))
        points.append(pose + ranges[:, None] * dirs[keep])
        labels.append(label[keep])
        pose_index.append(np.full(int(keep.sum()), i))
    return (GroundTruthCloud(np.concatenate(points), np.concatenate(labels), tuple(planes)),
            np.concatenate(pose_index))


@pytest.fixture(scope="module")
def room_planes():
    return gen_multi_room(1000, seed=0).planes


def spied_extraction(monkeypatch, points):
    """Extract ``points`` while counting every octree node by (depth, state,
    reject reason or None; "untested" for a node too small for the plane
    test) and the plane decisions that fell back to the flatness gate."""
    determine_plane, subdivide = voxplane.octree.determine_plane, voxplane.octree.subdivide
    nodes, decisions = Counter(), []

    def spy_plane(*args):
        decisions.append(determine_plane(*args))
        return decisions[-1]

    def spy_subdivide(node, *args):
        # a tested node's decision comes before any of its children's
        first = len(decisions)
        subdivide(node, *args)
        reason = decisions[first].reject_reason if len(decisions) > first else "untested"
        nodes[node.depth, node.state.value, getattr(reason, "value", reason)] += 1
        return node

    monkeypatch.setattr(voxplane.octree, "determine_plane", spy_plane)
    monkeypatch.setattr(voxplane.octree, "subdivide", spy_subdivide)
    monkeypatch.setattr(voxplane.pipeline, "subdivide", spy_subdivide)
    result = extract_plane_groups(points)
    monkeypatch.undo()
    return result, nodes, sum(d.sparse_quarter_fallback for d in decisions)


def member_sets(groups, order=None):
    """Each group's members as a sorted tuple of input indices, mapped
    through ``order`` (the permutation the input was taken in), sorted."""
    return sorted(tuple(sorted((g.merged.point_indices if order is None
                                else order[g.merged.point_indices]).tolist()))
                  for g in groups)


# (beams, poses) -> groups; precision is 1.0 and recall 0.795, 0.808 (16
# beams), 0.919, 0.906 (32) and 0.945, 0.929 (64) on these scenes
SCAN_GROUPS = {(16, 1): 23, (16, 3): 71, (32, 1): 39, (32, 3): 114, (64, 1): 49, (64, 3): 148}


@pytest.mark.parametrize("beams, poses", SCAN_GROUPS, ids=[f"{b}beams-{p}poses"
                                                            for b, p in SCAN_GROUPS])
def test_scan_scenes(monkeypatch, room_planes, beams, poses):
    cloud, _ = scan(room_planes, beams, POSES[:poses])
    result, _, fallbacks = spied_extraction(monkeypatch, cloud.points)
    report = evaluate(result.groups, cloud)
    assert report.precision >= 0.99
    assert len(result.groups) == SCAN_GROUPS[beams, poses]
    # the sparse-quarter fallback fires on none of the scanned scenes
    assert fallbacks == 0
    reference = member_sets(result.groups)
    assert member_sets(extract_plane_groups(cloud.points + UTM_SHIFT).groups) == reference
    order = np.random.default_rng(1).permutation(cloud.points.shape[0])
    assert member_sets(extract_plane_groups(cloud.points[order]).groups, order) == reference


# (depth, state, reject reason) -> nodes; 30 line-like and 130 quarter-ratio
# rejections, and 2 + 89 nodes below min_points
SCAN_16_NODES = {
    (0, "discarded", "untested"): 2,
    (0, "internal", "flatness_failed"): 4,
    (0, "internal", "line_like"): 17,
    (0, "internal", "quarter_ratio_failed"): 6,
    (0, "plane_leaf", None): 15,
    (1, "internal", "flatness_failed"): 16,
    (1, "internal", "line_like"): 13,
    (1, "internal", "quarter_ratio_failed"): 18,
    (1, "plane_leaf", None): 13,
    (2, "discarded", "flatness_failed"): 26,
    (2, "discarded", "quarter_ratio_failed"): 106,
    (2, "discarded", "untested"): 89,
}


def test_scan_node_tally(monkeypatch, room_planes):
    # the node outcomes of the 16-beam scan from one pose, so that a change
    # to the plane test states which decisions it moved
    cloud, _ = scan(room_planes, 16, POSES[:1])
    _, nodes, _ = spied_extraction(monkeypatch, cloud.points)
    assert dict(nodes) == SCAN_16_NODES



# beams -> (points, linked pairs, candidate pairs, recall, groups); precision
# is 1.0 on every sequence
SEQUENCE_PINS = {16: (86_400, 49, 54, 0.929, 49), 32: (172_800, 52, 54, 0.948, 53),
                 64: (345_600, 55, 55, 0.955, 59)}


@pytest.mark.parametrize("beams", SEQUENCE_PINS, ids=[f"{b}beams" for b in SEQUENCE_PINS])
def test_pose_sequence_links_planes_across_poses(room_planes, beams):
    cloud, pose = scan(room_planes, beams, SEQUENCE)
    groups = extract_plane_groups(cloud.points).groups
    report = evaluate(groups, cloud)
    n_points, linked, candidates, recall, n_groups = SEQUENCE_PINS[beams]
    assert cloud.points.shape[0] == n_points
    assert linked_pairs(groups, cloud.points, cloud.labels, pose) == (linked, candidates)
    assert report.precision == 1.0
    assert round(report.recall, 3) == recall
    assert len(groups) == n_groups


def test_pose_sequence_groups_are_frame_invariant(room_planes):
    # at 32 beams 50 groups tie all three poses and 3 tie two, and the
    # same member sets come out after a UTM shift and a permutation
    cloud, pose = scan(room_planes, 32, SEQUENCE)
    groups = extract_plane_groups(cloud.points).groups
    spans = Counter(np.unique(pose[g.merged.point_indices]).shape[0] for g in groups)
    assert spans == {3: 50, 2: 3}
    reference = member_sets(groups)
    assert member_sets(extract_plane_groups(cloud.points + UTM_SHIFT).groups) == reference
    order = np.random.default_rng(1).permutation(cloud.points.shape[0])
    assert member_sets(extract_plane_groups(cloud.points[order]).groups, order) == reference

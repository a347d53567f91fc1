"""The benchmark's workloads: inputs made from the seed, one op, and the
checks every op's output must pass.

Why each workload exists is written next to it and in NOTES.md. Inputs come
from voxplane's labeled scene generators, so every op has ground truth; the
generators run in set-up or between ops, never inside a timed op.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import voxplane
import voxplane.io

# Georeferenced offset for corner_utm: a UTM-like easting/northing/height.
# It is a whole number of default 1 m root voxels, so the voxel partition
# of each frame is the same as at the origin.
UTM_SHIFT = np.array([5e5, 4e6, 100.0])


@dataclass(frozen=True)
class Frame:
    """One op's input: points, per-point truth labels (-1 off-plane) and
    the truth planes as (unit normal, point on the plane)."""

    points: np.ndarray
    labels: np.ndarray
    normals: np.ndarray    # (P, 3)
    anchors: np.ndarray    # (P, 3)
    generate_s: float


def _frame(cloud, shift=None) -> Frame:
    normals = np.array([p.normal for p in cloud.planes])
    anchors = np.array([p.center for p in cloud.planes])
    points = cloud.points
    if shift is not None:
        points = points + shift
        anchors = anchors + shift
    return Frame(points, cloud.labels, normals, anchors, 0.0)


@dataclass
class Quality:
    """Pooled quality counters of one or more ops' outputs."""

    extracted: int = 0         # points inside extracted groups
    correct: int = 0           # of those, labeled with the group's matched plane
    labeled: int = 0           # points on any truth plane
    matched_points: int = 0    # points inside matched groups
    angle_points: float = 0.0  # sum over matched groups of angle * points
    max_angle_deg: float = 0.0
    max_dist_m: float = 0.0

    @property
    def precision(self) -> float:
        return self.correct / self.extracted if self.extracted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.labeled if self.labeled else 0.0

    @property
    def normal_err_deg(self) -> float:
        return self.angle_points / self.matched_points if self.matched_points else 0.0

    def add(self, other: "Quality") -> None:
        self.extracted += other.extracted
        self.correct += other.correct
        self.labeled += other.labeled
        self.matched_points += other.matched_points
        self.angle_points += other.angle_points
        self.max_angle_deg = max(self.max_angle_deg, other.max_angle_deg)
        self.max_dist_m = max(self.max_dist_m, other.max_dist_m)


def _members(groups):
    """All groups' member indices end to end, and each member's group."""
    counts = np.array([g.merged.point_indices.shape[0] for g in groups], dtype=np.int64)
    if not groups:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), counts
    idx = np.concatenate([g.merged.point_indices for g in groups]).astype(np.int64)
    return idx, np.repeat(np.arange(len(groups)), counts), counts


def quality(groups, frame: Frame) -> Quality:
    """Plurality-match each group to a truth plane and score it.

    The plane error is the normal angle and the distance from the group
    centroid to the matched truth plane. Both stay meaningful far from the
    origin, unlike a plane-offset difference measured from the origin.
    """
    q = Quality(labeled=int((frame.labels >= 0).sum()))
    if not groups:
        return q
    idx, gid, counts = _members(groups)
    width = frame.normals.shape[0] + 1          # label -1 goes to column 0
    votes = np.bincount(gid * width + frame.labels[idx] + 1,
                        minlength=len(groups) * width).reshape(len(groups), width)
    plane = np.argmax(votes, axis=1) - 1        # ties go to the smaller label
    matched = plane >= 0
    q.extracted = int(counts.sum())
    if not matched.any():
        return q
    rows = np.flatnonzero(matched)
    q.correct = int(votes[rows, plane[rows] + 1].sum())
    normals = np.array([groups[i].merged.normal for i in rows])
    centroids = np.array([groups[i].merged.centroid for i in rows])
    truth_n = frame.normals[plane[rows]]
    cos = np.minimum(1.0, np.abs(np.einsum("ij,ij->i", normals, truth_n)))
    angle = np.degrees(np.arccos(cos))
    dist = np.abs(np.einsum("ij,ij->i", truth_n, centroids - frame.anchors[plane[rows]]))
    q.matched_points = int(counts[rows].sum())
    q.angle_points = float((angle * counts[rows]).sum())
    q.max_angle_deg = float(angle.max())
    q.max_dist_m = float(dist.max())
    return q


def invariant_error(groups, frame: Frame, root_size: float) -> str | None:
    """The library's output guarantees: groups hold disjoint, in-range
    point indices, never span a root voxel, and carry finite unit normals
    and a count equal to their membership."""
    if not groups:
        return None
    idx, gid, counts = _members(groups)
    n = frame.points.shape[0]
    if (counts == 0).any() or idx.min() < 0 or idx.max() >= n:
        return "a group has no members or out-of-range indices"
    if np.bincount(idx, minlength=n).max() > 1:
        return "groups share member points"
    if any(g.merged.cluster.n != c for g, c in zip(groups, counts)):
        return "a group's count differs from its membership"
    root_keys = np.array([g.merged.root_key for g in groups], dtype=np.int64)
    keys = np.floor(frame.points[idx] / root_size).astype(np.int64)
    outside = (keys != root_keys[gid]).any(axis=1)
    if outside.any():
        return f"group {int(gid[np.argmax(outside)])} has points outside its root voxel"
    normals = np.array([g.merged.normal for g in groups])
    centroids = np.array([g.merged.centroid for g in groups])
    if not (np.isfinite(normals).all() and np.isfinite(centroids).all()):
        return "a group has a non-finite normal or centroid"
    if (np.abs(np.linalg.norm(normals, axis=1) - 1.0) > 1e-9).any():
        return "a group's normal is not unit length"
    return None


def c3_rule(q: Quality) -> bool:
    """The corner-quality acceptance rule (C3): precision >= 0.95, recall
    >= 0.90, every matched plane within 3 degrees and 1 cm."""
    return (q.precision >= 0.95 and q.recall >= 0.90
            and q.max_angle_deg < 3.0 and q.max_dist_m < 0.01)


def floor_rule(precision: float, recall: float) -> Callable[[Quality], bool]:
    def rule(q: Quality) -> bool:
        return q.precision >= precision and q.recall >= recall
    return rule


def groups_digest(groups) -> bytes:
    """Canonical bytes of an op's groups for digests of stream outputs."""
    h = hashlib.sha256()
    for group in groups:
        merged = group.merged
        h.update(np.asarray(merged.root_key, dtype=np.int64).tobytes())
        h.update(np.asarray(merged.point_indices, dtype=np.int64).tobytes())
        for arr in (merged.centroid, merged.normal, merged.eigenvalues):
            h.update(np.asarray(arr, dtype=np.float64).tobytes())
    return h.digest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_frame: Callable[[int, int], Frame]   # (seed, frame index) -> frame
    fixed: int          # ops cycle over this many fixed frames; 0 means a new frame per op
    write: bool         # the op also writes the plane set, as `extract --out` does
    rule: Callable[[Quality], bool]
    rule_text: str

    def frame(self, seed: int, index: int) -> Frame:
        start = time.perf_counter()
        frame = self.make_frame(seed, index)
        return replace(frame, generate_s=time.perf_counter() - start)

    def op(self, frame: Frame, config, planeset_path: Path):
        """One timed op: extraction, plus the plane-set write when asked.

        Names are looked up on their modules at call time so that a tracer
        installed on them sees the calls.
        """
        result = voxplane.extract_plane_groups(frame.points, config)
        if self.write:
            voxplane.io.write_planes(result.groups, planeset_path)
        return result


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="room_map_1m",
            why="1M-point multi-room map, dense ~2k-point nodes: whole-array "
                "passes, real merging and a 5.8 MB plane-set write per op",
            # Cloud 0 is ROADMAP's fixed scene for seed 0. Ops cycle over
            # three clouds so that the quality figures are not one cloud's.
            make_frame=lambda seed, i: _frame(voxplane.gen_multi_room(
                target_points=1_000_000, seed=seed if i == 0 else [seed, i])),
            fixed=3, write=True,
            # Seed 0 measures precision 0.998 and recall 0.820.
            rule=floor_rule(0.98, 0.78),
            rule_text="precision >= 0.98 and recall >= 0.78",
        ),
        Workload(
            name="room_scans_30k",
            why="stream of 30k-point scan frames, ~30 points per root voxel: "
                "per-node Python overhead dominates and merging does no work",
            make_frame=lambda seed, i: _frame(
                voxplane.gen_multi_room(target_points=30_000, seed=[seed, i])),
            fixed=0, write=False,
            # Seed frames measure precision >= 0.994 and recall >= 0.409.
            rule=floor_rule(0.97, 0.35),
            rule_text="precision >= 0.97 and recall >= 0.35",
        ),
        Workload(
            name="corner_utm",
            why="stream of corner frames shifted to UTM-like coordinates, where "
                "moment cancellation changes plane decisions and merges",
            make_frame=lambda seed, i: _frame(
                voxplane.gen_corner(seed=[seed, i]), UTM_SHIFT),
            fixed=0, write=False,
            rule=c3_rule,
            rule_text="C3: precision >= 0.95, recall >= 0.90, every matched "
                      "plane within 3 deg and 1 cm",
        ),
    )
}

"""Scoring of extraction output against ground-truth labels.

``evaluate`` matches each extracted group to the ground-truth plane holding
the plurality of its members' labels; point precision/recall and per-plane
geometric errors follow from that matching. Matching is plurality-greedy
(not globally optimal), deterministic and cheap: one vote table with a row
per group and a column per label (-1 first, then the plane ids), filled by
one ``np.bincount`` over all groups' members. A group's plurality is its
row's first maximum, so ties go to the smallest label, with -1 (outlier
structure) ahead of every plane. Labels must lie in ``[-1, len(planes))``.

The report dataclasses are the report's JSON schema: ``asdict(report)``
is the document that ``eval`` and ``compare`` print, its keys the field
names in field order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError
from .geometry import accumulate, as_integers, as_points, covariance, eigen_symmetric3
from .merging import PlaneGroup
from .pipeline import StageTimings
from .synthetic import GroundTruthCloud, TruthPlane


@dataclass(frozen=True)
class PlaneMatch:
    group: int
    truth_plane: int
    normal_error_deg: float
    offset_error_m: float


@dataclass
class EvalReport:
    precision: float | None
    recall: float | None
    extracted_count: int
    ground_truth_count: int
    matched_planes: list[PlaneMatch]
    wall_time_s: StageTimings | None = None


def geometry_error(group: PlaneGroup, truth_plane: TruthPlane) -> tuple[float, float]:
    """(normal angle error in degrees, plane offset error in meters).

    The offset error is the distance from the group's centroid to the
    truth plane, so a small tilt far from the origin does not read as a
    large offset. Flipping either normal's sign leaves both unchanged.
    """
    n_gt = truth_plane.normal
    dot = float(np.dot(group.merged.normal, n_gt))
    angle = math.degrees(math.acos(min(1.0, abs(dot))))
    offset = abs(float(np.dot(n_gt, group.merged.centroid)) - truth_plane.offset)
    return angle, offset


def evaluate(groups: list[PlaneGroup], truth: GroundTruthCloud,
             timings: StageTimings | None = None) -> EvalReport:
    """Plurality-match each group to a truth plane and score the matching.

    Groups whose plurality label is -1 stay unmatched; several groups may
    match one plane (one per root voxel). precision: the fraction of points
    inside groups whose label is their group's matched plane. recall: the
    same correct points over all labeled points. Either is None when its
    denominator is empty. A point in several groups votes in each.

    Raises InputValidationError unless the labels are one integer per
    point, every one in ``[-1, len(truth.planes))``, and every member index in
    ``[0, len(truth.labels))``.
    """
    n_planes = len(truth.planes)
    labels = as_integers(truth.labels, -1, n_planes, "labels", size=len(truth.points))
    width = n_planes + 1  # column 0 counts label -1
    members = [as_integers(g.merged.point_indices, 0, labels.shape[0], "member indices")
               for g in groups]
    idx = np.concatenate([np.empty(0, dtype=np.int64)] + members)
    gid = np.repeat(np.arange(len(groups)), [m.shape[0] for m in members])
    votes = np.bincount(gid * width + labels[idx] + 1,
                        minlength=len(groups) * width).reshape(len(groups), width)
    plane = votes.argmax(axis=1) - 1
    matched = np.flatnonzero(plane >= 0)
    matches = [PlaneMatch(int(gi), int(plane[gi]),
                          *geometry_error(groups[gi], truth.planes[plane[gi]]))
               for gi in matched]
    correct = int(votes[matched, plane[matched] + 1].sum())
    labeled_total = int((labels >= 0).sum())
    return EvalReport(precision=correct / idx.shape[0] if idx.shape[0] else None,
                      recall=correct / labeled_total if labeled_total else None,
                      extracted_count=len(groups), ground_truth_count=n_planes,
                      matched_planes=matches, wall_time_s=timings)


def fit_truth_planes(points: np.ndarray, labels: np.ndarray) -> tuple[TruthPlane, ...]:
    """Reconstruct ground-truth plane geometry from a labeled cloud by PCA
    over each label's points.

    Used when evaluating from files, where only points and labels survive
    serialization. With the noise levels of the shipped scenes the fit
    error is orders of magnitude below the reporting tolerances, and the
    fit is as exact at georeferenced coordinates (UTM northings near 4e6 m)
    as at the origin, since a cluster sums about one of its own points.
    Raises InputValidationError unless ``as_points`` takes the points and
    the labels are one integer per point, each at least -1 (outlier).
    """
    points = as_points(points)
    labels = as_integers(labels, -1, 2**31, "labels", size=len(points))
    planes = []
    for plane_id in range(int(labels.max(initial=-1)) + 1):
        member = points[labels == plane_id]
        if member.shape[0] < 3:
            raise InputValidationError(
                f"ground-truth plane {plane_id} has fewer than 3 points")
        cov, centroid = covariance(accumulate(member))
        eig = eigen_symmetric3(cov)
        axis_u, axis_v, normal = eig.eigenvectors.T.copy()
        rel = member - centroid
        half_u = float(np.abs(rel @ axis_u).max())
        half_v = float(np.abs(rel @ axis_v).max())
        sigma = float(math.sqrt(max(eig.eigenvalues[2], 0.0)))
        planes.append(TruthPlane(normal=normal, offset=float(np.dot(normal, centroid)),
                                 center=centroid, axis_u=axis_u, axis_v=axis_v,
                                 half_u=half_u, half_v=half_v, noise_sigma=sigma))
    return tuple(planes)

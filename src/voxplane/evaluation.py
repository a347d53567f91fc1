"""Scoring of extraction output against ground-truth labels.

Each extracted group is matched to the ground-truth plane holding the
plurality of its members' labels; point precision/recall and per-plane
geometric errors follow from that matching. Matching is plurality-greedy
(not globally optimal), which is deterministic and cheap at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError
from .geometry import _accumulate_checked, covariance, eigen_symmetric3
from .merging import PlaneGroup
from .pipeline import StageTimings
from .synthetic import GroundTruthCloud, TruthPlane

__all__ = ["PlaneMatch", "EvalReport", "match_planes", "point_metrics",
           "geometry_error", "evaluate", "fit_truth_planes"]


@dataclass(frozen=True)
class PlaneMatch:
    group_index: int
    plane_id: int
    normal_error_deg: float
    offset_error_m: float


@dataclass
class EvalReport:
    precision: float | None
    recall: float | None
    matched_planes: list[PlaneMatch]
    extracted_count: int
    ground_truth_count: int
    wall_time: StageTimings | None = None


def _plurality_label(labels: np.ndarray, n_planes: int) -> int:
    """Most frequent label among a group's points; ties resolve to the
    smallest label (with -1 ordered first)."""
    counts = np.bincount(labels + 1, minlength=n_planes + 1)
    return int(np.argmax(counts)) - 1


def match_planes(groups: list[PlaneGroup], truth: GroundTruthCloud) -> list[PlaneMatch]:
    """Plurality matching of extracted groups onto ground-truth planes.

    Groups whose plurality label is -1 (outlier structure) stay unmatched.
    Several groups may legitimately map to one plane (one per root voxel).
    """
    matches = []
    for gi, group in enumerate(groups):
        labels = truth.labels[group.merged.point_indices]
        plane_id = _plurality_label(labels, len(truth.planes))
        if plane_id < 0:
            continue
        angle, offset = geometry_error(group, truth.planes[plane_id])
        matches.append(PlaneMatch(gi, plane_id, angle, offset))
    return matches


def point_metrics(groups: list[PlaneGroup], truth: GroundTruthCloud,
                  matches: list[PlaneMatch] | None = None
                  ) -> tuple[float | None, float | None]:
    """Point-assignment precision and recall.

    precision: fraction of points inside extracted groups whose label is
    the group's matched plane. recall: the same correct points over all
    labeled ground-truth points. Either is None when its denominator is
    empty (no extracted points / no labeled points).
    """
    if matches is None:
        matches = match_planes(groups, truth)
    matched = {m.group_index: m.plane_id for m in matches}
    correct = 0
    extracted_total = 0
    for gi, group in enumerate(groups):
        labels = truth.labels[group.merged.point_indices]
        extracted_total += labels.shape[0]
        if gi in matched:
            correct += int((labels == matched[gi]).sum())
    labeled_total = int((truth.labels >= 0).sum())
    precision = correct / extracted_total if extracted_total else None
    recall = correct / labeled_total if labeled_total else None
    return precision, recall


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
    matches = match_planes(groups, truth)
    precision, recall = point_metrics(groups, truth, matches)
    return EvalReport(precision=precision, recall=recall,
                      matched_planes=matches, extracted_count=len(groups),
                      ground_truth_count=len(truth.planes), wall_time=timings)


def fit_truth_planes(points: np.ndarray, labels: np.ndarray) -> tuple[TruthPlane, ...]:
    """Reconstruct ground-truth plane geometry from a labeled cloud by PCA
    over each label's points.

    Used when evaluating from files, where only points and labels survive
    serialization. With the noise levels of the shipped scenes the fit
    error is orders of magnitude below the reporting tolerances.
    """
    planes = []
    for plane_id in range(int(labels.max(initial=-1)) + 1):
        member = points[labels == plane_id]
        if member.shape[0] < 3:
            raise InputValidationError(
                f"ground-truth plane {plane_id} has fewer than 3 points")
        cov, centroid = covariance(_accumulate_checked(member))
        eig = eigen_symmetric3(cov)
        normal = eig.eigenvectors[:, 2].copy()
        axis_u = eig.eigenvectors[:, 0].copy()
        axis_v = eig.eigenvectors[:, 1].copy()
        rel = member - centroid
        half_u = float(np.abs(rel @ axis_u).max())
        half_v = float(np.abs(rel @ axis_v).max())
        sigma = float(math.sqrt(max(eig.eigenvalues[2], 0.0)))
        planes.append(TruthPlane(normal=normal, offset=float(np.dot(normal, centroid)),
                                 center=centroid, axis_u=axis_u, axis_v=axis_v,
                                 half_u=half_u, half_v=half_v, noise_sigma=sigma))
    return tuple(planes)

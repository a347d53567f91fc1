"""Plane determination for a point set.

The classic flatness gate (smallest/largest eigenvalue ratio) is necessary
but not sufficient: a set with a compact outlier blob can still look flat
overall. The stronger test here splits the candidate set into four quarters
along the two dominant eigenvectors, through a center pushed off the point
slab along the normal, and requires every populated quarter to have a
"thickness" (smallest eigenvalue) comparable to the pooled one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (
    EigenDecomposition,
    PointCluster,
    _accumulate_checked,
    as_points,
    covariance,
    eigen_symmetric3,
)

__all__ = [
    "PlaneTestParams",
    "RejectReason",
    "PlaneDecision",
    "flatness_test",
    "split_center",
    "quarter_split",
    "determine_plane",
    "sparse_quarter_threshold",
]


@dataclass(frozen=True)
class PlaneTestParams:
    """Tunables of the plane test.

    flatness_ratio_max: upper bound on eigenvalue ratio min/max for the
        flatness gate.
    quarter_ratio_bound: each populated quarter's smallest eigenvalue must
        be within this factor of the pooled one (both directions); > 1.
    min_points: below this count a set is never a plane.
    sigma_shift_multiple: how many standard deviations (sqrt of the
        smallest eigenvalue) the split center is moved along the normal.
    """

    flatness_ratio_max: float = 0.0625
    quarter_ratio_bound: float = 3.0
    min_points: int = 20
    sigma_shift_multiple: float = 5.0

    def __post_init__(self):
        if not self.flatness_ratio_max > 0:
            raise ConfigError("flatness_ratio_max must be positive")
        if not self.quarter_ratio_bound > 1:
            raise ConfigError("quarter_ratio_bound must exceed 1")
        if self.min_points < 4:
            raise ConfigError("min_points must be at least 4")
        if self.sigma_shift_multiple < 0:
            raise ConfigError("sigma_shift_multiple must be non-negative")


class RejectReason(enum.Enum):
    FLATNESS_FAILED = "flatness_failed"
    QUARTER_RATIO_FAILED = "quarter_ratio_failed"
    TOO_FEW_POINTS = "too_few_points"


@dataclass(frozen=True)
class PlaneDecision:
    """Outcome of determine_plane, carrying the statistics already computed
    so callers can build a plane patch without re-touching points.

    quarter_min_eigenvalues is populated only when the flatness gate passed
    and all four quarters held enough points for a covariance.
    sparse_quarter_fallback marks decisions where three or more quarters
    were too sparse to test and the verdict fell back to the flatness gate
    alone.
    """

    is_plane: bool
    eig: EigenDecomposition
    centroid: np.ndarray
    cluster: PointCluster
    quarter_min_eigenvalues: np.ndarray | None = None
    reject_reason: RejectReason | None = None
    sparse_quarter_fallback: bool = False


def sparse_quarter_threshold(min_points: int) -> int:
    """Minimum quarter population for its thickness ratio to count."""
    return max(3, min_points // 8)


def flatness_test(eig: EigenDecomposition, flatness_ratio_max: float) -> bool:
    """Eigenvalue-ratio flatness gate: smallest/largest < threshold.

    A degenerate spectrum with largest eigenvalue <= 0 (all points
    coincident) is never flat.
    """
    lam_max = float(eig.eigenvalues[0])
    lam_min = float(eig.eigenvalues[2])
    if lam_max <= 0.0:
        return False
    return lam_min / lam_max < flatness_ratio_max


def split_center(centroid: np.ndarray, eig: EigenDecomposition,
                 sigma_shift_multiple: float) -> np.ndarray:
    """Centroid pushed along the normal by a multiple of the point-slab
    standard deviation, placing the split center outside the slab."""
    sigma = math.sqrt(max(float(eig.eigenvalues[2]), 0.0))
    return centroid + sigma_shift_multiple * sigma * eig.eigenvectors[:, 2]


def quarter_split(points, eig: EigenDecomposition,
                  center: np.ndarray) -> tuple[np.ndarray, ...]:
    """Partition point indices into four quadrants by the signs of the
    offsets from ``center`` along the two dominant eigenvectors.

    Points exactly on a dividing plane go to the non-negative side. Returns
    four disjoint int arrays of indices into ``points`` whose union is the
    full index range.
    """
    pts = as_points(points)
    rel = pts - center
    u0 = eig.eigenvectors[:, 0]
    u1 = eig.eigenvectors[:, 1]
    d0 = rel[:, 0] * u0[0] + rel[:, 1] * u0[1] + rel[:, 2] * u0[2]
    d1 = rel[:, 0] * u1[0] + rel[:, 1] * u1[1] + rel[:, 2] * u1[2]
    code = (d0 >= 0.0).astype(np.int8) * 2 + (d1 >= 0.0).astype(np.int8)
    idx = np.arange(pts.shape[0])
    return tuple(idx[code == k] for k in range(4))


def _effective_min_eigenvalue(eig: EigenDecomposition) -> float:
    """Smallest eigenvalue with exact-coplanarity roundoff flushed to zero.

    Covariances of exactly coplanar points come out with a smallest
    eigenvalue of order +/-1e-16 of the largest one; treating those as zero
    keeps the quarter ratio test from manufacturing huge ratios out of
    noise floor. The threshold is relative, so the decision is invariant
    under coordinate scaling.
    """
    lam_max = float(eig.eigenvalues[0])
    lam_min = float(eig.eigenvalues[2])
    if lam_min <= 1e-12 * max(lam_max, 0.0):
        return 0.0
    return lam_min


def determine_plane(points, params: PlaneTestParams) -> PlaneDecision:
    """Decide whether a point set forms a single plane.

    Pipeline: size gate, flatness gate on the pooled covariance, then the
    quarter-thickness comparison. Quarters with fewer than
    sparse_quarter_threshold(min_points) points carry no evidence and are
    skipped; if three or more quarters are skipped the verdict falls back
    to the flatness gate alone (recorded on the decision).
    """
    pts = as_points(points)
    n = pts.shape[0]
    cluster = _accumulate_checked(pts)

    if n < params.min_points:
        eig = EigenDecomposition(np.zeros(3), np.eye(3))
        centroid = cluster.sum / n if n else np.zeros(3)
        return PlaneDecision(False, eig, centroid, cluster,
                             reject_reason=RejectReason.TOO_FEW_POINTS)

    cov, centroid = covariance(cluster)
    eig = eigen_symmetric3(cov)

    if not flatness_test(eig, params.flatness_ratio_max):
        return PlaneDecision(False, eig, centroid, cluster,
                             reject_reason=RejectReason.FLATNESS_FAILED)

    center = split_center(centroid, eig, params.sigma_shift_multiple)
    quarters = quarter_split(pts, eig, center)

    quarter_min = sparse_quarter_threshold(params.min_points)
    pooled = _effective_min_eigenvalue(eig)
    bound = params.quarter_ratio_bound

    quarter_l3: list[float | None] = []
    skipped = 0
    failed = False
    for q_idx in quarters:
        if q_idx.shape[0] < quarter_min:
            quarter_l3.append(None)
            skipped += 1
            continue
        q_cov, _ = covariance(_accumulate_checked(pts[q_idx]))
        q_eig = eigen_symmetric3(q_cov)
        q_l3 = _effective_min_eigenvalue(q_eig)
        quarter_l3.append(q_l3)
        # Zero thickness on either side means exact coplanarity somewhere;
        # that can never disqualify a plane.
        if pooled == 0.0 or q_l3 == 0.0:
            continue
        ratio = pooled / q_l3
        if not (1.0 / bound < ratio < bound):
            failed = True

    all_populated = skipped == 0
    q_values = (np.array(quarter_l3, dtype=np.float64) if all_populated else None)

    if skipped >= 3:
        # Too little quarter evidence either way; the flatness gate already
        # passed, so accept and mark the fallback.
        return PlaneDecision(True, eig, centroid, cluster,
                             quarter_min_eigenvalues=q_values,
                             sparse_quarter_fallback=True)

    if failed:
        return PlaneDecision(False, eig, centroid, cluster,
                             quarter_min_eigenvalues=q_values,
                             reject_reason=RejectReason.QUARTER_RATIO_FAILED)

    return PlaneDecision(True, eig, centroid, cluster,
                         quarter_min_eigenvalues=q_values)

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
    _accumulate_centred,
    _central_moments,
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
    min_points: below this count a set is never a plane; an octree node
        with fewer points is discarded without running the test.
    sigma_shift_multiple: how many standard deviations (sqrt of the
        smallest eigenvalue) the split center is moved along the normal.
    """

    flatness_ratio_max: float = 0.0625
    quarter_ratio_bound: float = 3.0
    min_points: int = 20
    sigma_shift_multiple: float = 5.0

    def __post_init__(self):
        if not 0 < self.flatness_ratio_max < math.inf:
            raise ConfigError("flatness_ratio_max must be positive and finite")
        if not 1 < self.quarter_ratio_bound < math.inf:
            raise ConfigError("quarter_ratio_bound must exceed 1 and be finite")
        if self.min_points < 4:
            raise ConfigError("min_points must be at least 4")
        if not 0 <= self.sigma_shift_multiple < math.inf:
            raise ConfigError("sigma_shift_multiple must be non-negative and finite")


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
    four disjoint int arrays of indices into ``points``, each ascending,
    whose union is the full index range.
    """
    pts = as_points(points)
    rel = np.subtract(pts.T, center[:, None], order="C")
    u = eig.eigenvectors
    d0 = rel[0] * u[0, 0] + rel[1] * u[1, 0] + rel[2] * u[2, 0]
    d1 = rel[0] * u[0, 1] + rel[1] * u[1, 1] + rel[2] * u[2, 1]
    # uint8 codes, so the stable argsort is a radix sort
    code = (d0 >= 0.0) * np.uint8(2) + (d1 >= 0.0)
    order = code.argsort(kind="stable")
    a, b, c = np.bincount(code, minlength=4)[:3].cumsum().tolist()
    return order[:a], order[a:b], order[b:c], order[c:]


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
    cluster, cols = _accumulate_centred(pts)

    if n < params.min_points:
        eig = EigenDecomposition(np.zeros(3), np.eye(3))
        centroid = covariance(cluster)[1] if n else np.zeros(3)
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

    # The centred rows in quarter order and their products, once: each
    # quarter's sums are then contiguous slices, bit-equal to summing a copy.
    q_cols = cols.take(np.concatenate(quarters), axis=1)
    q_prod = q_cols[:, None] * q_cols
    quarter_l3: list[float] = []
    failed = False
    stop = 0
    for q_idx in quarters:
        start, stop = stop, stop + q_idx.shape[0]
        if stop - start < quarter_min:
            continue
        q_cov, _ = _central_moments(stop - start, q_cols[:, start:stop].sum(axis=1),
                                    q_prod[..., start:stop].sum(axis=2))
        q_l3 = _effective_min_eigenvalue(eigen_symmetric3(q_cov))
        quarter_l3.append(q_l3)
        # Zero thickness on either side means exact coplanarity somewhere;
        # that can never disqualify a plane.
        if pooled != 0.0 and q_l3 != 0.0 and not (1.0 / bound < pooled / q_l3 < bound):
            failed = True

    # With three or more quarters skipped there is too little quarter
    # evidence either way; the flatness gate already passed, so accept and
    # mark the fallback.
    fallback = len(quarter_l3) <= 1
    rejected = failed and not fallback
    q_values = np.array(quarter_l3) if len(quarter_l3) == 4 else None
    return PlaneDecision(not rejected, eig, centroid, cluster, quarter_min_eigenvalues=q_values,
                         reject_reason=RejectReason.QUARTER_RATIO_FAILED if rejected else None,
                         sparse_quarter_fallback=fallback)

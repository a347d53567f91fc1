"""Plane determination for a point set.

The classic flatness gate (smallest/largest eigenvalue ratio) is necessary
but not sufficient: a set with a compact outlier blob can still look flat
overall. The stronger test here splits the candidate set into four quarters
along the two dominant eigenvectors, through the centroid, and requires
every populated quarter to have a "thickness" (smallest eigenvalue)
comparable to the pooled one. A set that passes the flatness gate but is
also thin in its second direction is a line, not a plane, and is rejected
before the split: plane and edge features are kept apart, as feature-based
LiDAR bundle adjustment does (BALM, Liu and Zhang, RA-L 2021).

Both gates are eigenvalue ratios, independent of the input's scale and
density, so they are constants (FLATNESS_RATIO_MAX, QUARTER_RATIO_BOUND);
the smallest plane, ``min_points``, depends on the density and is an
argument: ``determine_plane`` reads it from the ``ExtractionConfig`` it
is given, which checked it.

Summation order: the node's (12, n) moment rows from ``geometry`` (the
centred coordinates and their nine products) are gathered once in quarter
order, and each tested quarter's sums are one contiguous column slice of
them, bit-equal to those of a copy of its points (see the ``geometry``
module docstring).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .config import ExtractionConfig
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
    "RejectReason",
    "PlaneDecision",
    "flatness_test",
    "quarter_split",
    "determine_plane",
    "sparse_quarter_threshold",
]

# Flatness gate: a set is flat when its smallest/largest eigenvalue ratio is
# below this, and a line when its middle/largest ratio is below it too.
FLATNESS_RATIO_MAX = 0.0625
# Each populated quarter's smallest eigenvalue must be within this factor of
# the pooled one, in both directions.
QUARTER_RATIO_BOUND = 3.0


class RejectReason(enum.Enum):
    FLATNESS_FAILED = "flatness_failed"
    LINE_LIKE = "line_like"
    QUARTER_RATIO_FAILED = "quarter_ratio_failed"
    TOO_FEW_POINTS = "too_few_points"


@dataclass(frozen=True)
class PlaneDecision:
    """Outcome of determine_plane, carrying the statistics already computed
    so callers can build a plane patch without re-touching points.

    quarter_min_eigenvalues is populated only when the flatness and line
    gates passed and all four quarters held enough points for a covariance.
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


def flatness_test(eig: EigenDecomposition) -> bool:
    """Eigenvalue-ratio flatness gate: smallest/largest < FLATNESS_RATIO_MAX.

    A degenerate spectrum with largest eigenvalue <= 0 (all points
    coincident) is never flat.
    """
    lam_max = float(eig.eigenvalues[0])
    lam_min = float(eig.eigenvalues[2])
    if lam_max <= 0.0:
        return False
    return lam_min / lam_max < FLATNESS_RATIO_MAX


def quarter_split(cols: np.ndarray, eig: EigenDecomposition,
                  center: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Sort point indices into four quadrants by the signs of the offsets
    from ``center`` along the two dominant eigenvectors.

    ``cols`` are the (3, N) rows of the points and ``center`` a point in the
    same frame, as ``determine_plane`` holds them: the first three moment
    rows (the centred coordinates) and the mean. Points exactly on a
    dividing plane go to the non-negative side. Returns the stable order of
    the indices by quadrant and the cuts ``[0, a, b, c, N]``:
    ``order[cuts[k]:cuts[k + 1]]`` is quadrant k, in ascending index order.
    """
    # both offsets from one (3, 2, N) product, summed over axis 0 in 0, 1, 2 order
    prod = (cols - center[:, None])[:, None, :] * eig.eigenvectors[:, :2, None]
    d0, d1 = prod[0] + prod[1] + prod[2]
    # uint8 codes, so the stable argsort is a radix sort
    code = (d0 >= 0.0) * np.uint8(2) + (d1 >= 0.0)
    order = code.argsort(kind="stable")
    return order, list(itertools.accumulate(np.bincount(code, minlength=4).tolist(), initial=0))


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


def determine_plane(points, config: ExtractionConfig | None = None) -> PlaneDecision:
    """Decide whether a point set forms a single plane.

    ``config`` is an ExtractionConfig, the default one when None; only its
    ``min_points`` is read. Pipeline: size gate (fewer than ``min_points``
    points is TOO_FEW_POINTS), flatness gate on the pooled covariance,
    line gate (middle/max eigenvalue ratio below FLATNESS_RATIO_MAX
    rejects the set as LINE_LIKE), then the quarter-thickness comparison
    on quarters split through the centroid. Quarters with fewer than
    sparse_quarter_threshold(min_points) points carry no evidence and are
    skipped; if three or more quarters are skipped the verdict falls back
    to the flatness gate alone (recorded on the decision).
    """
    if config is None:
        config = ExtractionConfig()
    cluster, rows = _accumulate_centred(as_points(points))
    if cluster.n < config.min_points:
        eig = EigenDecomposition(np.zeros(3), np.eye(3))
        centroid = covariance(cluster)[1] if cluster.n else np.zeros(3)
        return PlaneDecision(False, eig, centroid, cluster,
                             reject_reason=RejectReason.TOO_FEW_POINTS)

    cov, mean = _central_moments(cluster.n, cluster.sum, cluster.sq_sum)
    eig = eigen_symmetric3(cov)
    reason, quarter_values, fallback = None, None, False
    if not flatness_test(eig):
        reason = RejectReason.FLATNESS_FAILED
    # flat in its second direction too: an edge, not a plane
    elif float(eig.eigenvalues[1]) / float(eig.eigenvalues[0]) < FLATNESS_RATIO_MAX:
        reason = RejectReason.LINE_LIKE
    else:
        order, cuts = quarter_split(rows[:3], eig, mean)
        quarter_min = sparse_quarter_threshold(config.min_points)
        spans = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a >= quarter_min]
        # one gather, then each tested quarter's sums are a contiguous column slice
        gathered = rows.take(order, axis=1)
        sums = np.array([gathered[:, a:b].sum(axis=1) for a, b in spans]).reshape(-1, 12)
        covs = _central_moments([b - a for a, b in spans], sums[:, :3],
                                sums[:, 3:].reshape(-1, 3, 3))[0]
        quarter_l3 = [_effective_min_eigenvalue(eigen_symmetric3(c)) for c in covs]
        quarter_values = np.array(quarter_l3) if len(quarter_l3) == 4 else None
        # With three or more quarters skipped there is too little quarter
        # evidence either way; the flatness gate already passed, so accept
        # and mark the fallback. Zero thickness on either side means exact
        # coplanarity somewhere; that can never disqualify a plane.
        fallback = len(quarter_l3) <= 1
        pooled = _effective_min_eigenvalue(eig)
        bound = QUARTER_RATIO_BOUND
        if not fallback and pooled != 0.0 and any(
                q != 0.0 and not 1.0 / bound < pooled / q < bound for q in quarter_l3):
            reason = RejectReason.QUARTER_RATIO_FAILED
    return PlaneDecision(reason is None, eig, cluster.origin + mean, cluster,
                         quarter_values, reason, fallback)

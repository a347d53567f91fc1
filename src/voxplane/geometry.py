"""Moment statistics of point sets and a 3x3 symmetric eigensolver.

A point cluster stores (count, sum of points, sum of outer products), which
is enough to get the covariance of any point set in O(1) and to merge two
sets in O(1). The octree subdivision and plane-merging stages lean on this
to avoid re-touching raw points. The eigensolver is one call of the LAPACK
kernel behind ``np.linalg.eigh`` plus a sign rule that makes its
eigenvectors deterministic.

Summation order: the moments are summed along the contiguous rows of a
(3, n) coordinate array, the first moments in one reduction and the second
in one reduction over the last axis of the (3, 3, n) product ``cols[:,
None] * cols``. numpy reduces each contiguous row pairwise in the same
blocks as the strided column ``pts[:, j]`` of the (n, 3) array, so the
sums equal the per-column sums bit for bit, whatever the input's layout.
A slice ``[..., a:b]`` of a wider product has contiguous rows too, so it
sums exactly like a copy of that run of points. A row that is not
contiguous (an uncopied transpose, ``cols[:, idx]``) or ``np.add.reduceat``,
which is not pairwise, sums in another order and changes the last bits.

All functions are pure and all returned objects are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import EmptyClusterError, InputValidationError

__all__ = [
    "PointCluster",
    "EigenDecomposition",
    "as_points",
    "accumulate",
    "merge",
    "covariance",
    "eigen_symmetric3",
]

_COLUMNS = np.arange(3)
# The gufunc ``np.linalg.eigh`` dispatches to for the lower triangle, called
# directly to skip its per-call wrapper.
_eigh_lo = _umath_linalg.eigh_lo


def as_points(points) -> np.ndarray:
    """Coerce input to an (N, 3) float64 array of finite coordinates.

    Raises InputValidationError on wrong shape or NaN/Inf entries.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim == 1 and pts.shape == (3,):
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InputValidationError(f"expected points with shape (N, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InputValidationError("points contain NaN or infinite coordinates")
    return pts


@dataclass(frozen=True)
class PointCluster:
    """Running sums of a point set: count, first moment, second moment.

    ``sum`` is the componentwise sum of points (meters) and ``sq_sum`` the
    sum of outer products p p^T (meters^2). Both are plain float64 arrays.
    """

    n: int
    sum: np.ndarray      # (3,)
    sq_sum: np.ndarray   # (3, 3), symmetric

    @staticmethod
    def empty() -> "PointCluster":
        return PointCluster(0, np.zeros(3), np.zeros((3, 3)))


def accumulate(points) -> PointCluster:
    """Build a PointCluster from raw points, validating finiteness. The
    sums run along the rows of the points' C-contiguous transpose (see the
    module docstring)."""
    return _accumulate_rows(np.ascontiguousarray(as_points(points).T))


def _accumulate_rows(cols: np.ndarray) -> PointCluster:
    """Moment sums over a C-contiguous (3, N) array of coordinate rows.

    Each sum is one contiguous row's pairwise reduction, which equals the
    per-column sum of the (N, 3) points bit for bit. Gather a subset with
    ``cols.take(idx, axis=1)``, which keeps the rows contiguous.
    """
    return PointCluster(cols.shape[1], cols.sum(axis=1), (cols[:, None] * cols).sum(axis=2))


def merge(a: PointCluster, b: PointCluster) -> PointCluster:
    """Combine two clusters; equivalent to accumulating the union of points."""
    return PointCluster(a.n + b.n, a.sum + b.sum, a.sq_sum + b.sq_sum)


def covariance(c: PointCluster) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix and centroid of a cluster.

    cov = sq_sum/n - centroid centroid^T. It is not symmetrized: every
    ``sq_sum`` built here is exactly symmetric (x_i x_j == x_j x_i, and
    ``merge`` adds symmetric sums), so cov is too, and averaging it with its
    transpose would return the same bits. The subtraction
    cancels catastrophically far from the origin, with an error of about
    eps * |centroid|^2: 3.5e-3 m^2 at 4e6 m (a UTM northing), against the
    2.5e-5 m^2 normal variance of a plane with 5 mm noise. Plane decisions
    there go wrong: a corner scene shifted to 4e6 m meets its quality check
    in only about 14% of frames.

    Raises EmptyClusterError when the cluster has no points.
    """
    if c.n == 0:
        raise EmptyClusterError("covariance of an empty cluster")
    centroid = c.sum / c.n
    return c.sq_sum / c.n - centroid[:, None] * centroid, centroid


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and matching unit eigenvectors of a
    symmetric 3x3 matrix. Column k of ``eigenvectors`` pairs with
    ``eigenvalues[k]``; each column is sign-fixed so its largest-magnitude
    component is positive, which makes the decomposition deterministic
    despite the inherent +/-u ambiguity."""

    eigenvalues: np.ndarray   # (3,), eigenvalues[0] >= eigenvalues[1] >= eigenvalues[2]
    eigenvectors: np.ndarray  # (3, 3), orthonormal columns


def eigen_symmetric3(m) -> EigenDecomposition:
    """Eigendecomposition of a symmetric 3x3 matrix.

    LAPACK computes it, through one direct call of the gufunc that
    ``np.linalg.eigh`` dispatches to, so the bits are eigh's; only the
    lower triangle is read. LAPACK scales the matrix internally, so the
    result is accurate at any magnitude, and it handles repeated
    eigenvalues without a special case. A non-finite eigenvalue means
    LAPACK did not converge and raises ``np.linalg.LinAlgError``, as eigh
    would. Eigenvalues are returned in descending order, and each
    eigenvector column is flipped so its largest-magnitude component is
    positive (the first such component when several tie; a flipped zero
    becomes -0.0). Output is deterministic for identical input.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.shape != (3, 3):
        raise InputValidationError(f"expected a 3x3 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputValidationError("matrix contains NaN or infinite entries")
    vals, vecs = _eigh_lo(a, signature="d->dd")
    if not np.isfinite(vals).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    vecs = vecs[:, ::-1]
    lead = vecs[np.abs(vecs).argmax(axis=0), _COLUMNS]
    return EigenDecomposition(vals[::-1], vecs * np.copysign(1.0, lead))

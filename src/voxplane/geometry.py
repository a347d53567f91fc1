"""Moment statistics of point sets, a 3x3 symmetric eigensolver, and the
one owner of the rules on arrays from outside: ``as_points`` for points and
``as_integers`` for member indices and labels, wherever they enter (the
file readers add checks that name a line).

A point cluster stores (count, sum of points, sum of outer products) about
its first point, enough to get the covariance of any point set and to merge
two sets in O(1); the octree and merging stages lean on this to avoid
re-touching raw points. Only this module knows that frame. It keeps every
sum at the scale of the set, so a covariance is as exact at georeferenced
coordinates (UTM northings near 4e6 m) as at the origin. The eigensolver is
one call of the LAPACK kernel behind ``np.linalg.eigh`` plus a sign rule
that makes its eigenvectors deterministic.

Which arithmetic runs where: numpy runs the per-point passes (the moment
rows and their sums) and the one LAPACK call per eigensolve. Fixed-size
values (a mean and covariance from 12 sums, ``merge``'s re-basing, the
eigensolver's output check and sign rule) are Python floats taken with ``tolist``,
as numpy's per-call cost on 3 or 9 numbers exceeds the arithmetic. The bits
are those of the numpy broadcasts they replace: Python's float + - * / are
the same correctly rounded IEEE 754 operations that numpy applies
elementwise, and each expression keeps the broadcast's order.

Summation order: a node's moments are summed along the contiguous rows of
one C-contiguous (12, n) array, the centred coordinates ``pts - origin``
transposed and then their nine products, in one reduction over its last
axis. numpy reduces each contiguous row pairwise in the same blocks as the
strided column ``(pts - origin)[:, j]``, so the sums equal the per-column
sums bit for bit, whatever the input's layout. A column slice ``[:, a:b]``
of these rows, or of ``rows.take(idx, axis=1)``, has contiguous rows too,
so it sums exactly like a copy of that run of points. A row that is not
contiguous (an uncopied transpose) or ``np.add.reduceat``, which is not
pairwise, sums in another order and changes the last bits.

The domain: ``as_points`` takes coordinates within +-COORD_LIMIT = 2^40 m
and ``ExtractionConfig`` a ``root_size`` of at least 2^-20 m, so
|x / root_size| <= 2^60 and every int64 lattice key and key span fits.
Two points differ by at most 2^41 m, so no centred product (<= 2^82),
moment sum, ``merge`` shift or covariance nears the float range, and no
stage checks for overflow again.

The other functions trust what their callers checked. All functions
are pure and all returned objects are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InputValidationError

# The gufunc ``np.linalg.eigh`` dispatches to for the lower triangle, called
# directly to skip its per-call wrapper.
_eigh_lo = _umath_linalg.eigh_lo
# Column multipliers of the sign rule, indexed by a bit mask of the columns
# to flip (bit k for LAPACK's column k).
_SIGNS = tuple(np.array([-1.0 if flip >> k & 1 else 1.0 for k in range(3)]) for flip in range(8))
COORD_LIMIT = 2.0 ** 40


def as_points(points) -> np.ndarray:
    """Coerce input to an (N, 3) float64 array of coordinates within
    +-COORD_LIMIT meters. Raises InputValidationError on anything else:
    complex, datetime or non-numeric values, ragged nesting, another shape,
    NaN, Inf or a coordinate past the limit, all failing one comparison."""
    try:
        pts = np.asarray(points)
        if pts.dtype.kind not in "cmM":
            pts = np.asarray(pts, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputValidationError(f"points must be real numbers: {exc}") from None
    if pts.dtype != np.float64:
        raise InputValidationError(f"points must be real numbers, got {pts.dtype} values")
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim == 1 and pts.shape == (3,):
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InputValidationError(f"expected points with shape (N, 3), got {pts.shape}")
    if not (-COORD_LIMIT <= pts.min() and pts.max() <= COORD_LIMIT):
        raise InputValidationError("points contain NaN or infinite coordinates, or past +-2^40 m")
    return pts


def as_integers(values, lo: int, hi: int, what: str, size: int | None = None) -> np.ndarray:
    """A 1-D array of ``size`` (if given) integers of dtype kind ``i`` or
    ``u`` in [lo, hi), hi <= 2^63, as int64, uncopied if it already is.
    Raises InputValidationError naming ``what`` on anything else: bool,
    float, object or text values, ragged nesting, another shape, or a value
    out of range (a uint64 at or above 2^63 included)."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise InputValidationError(f"{what} must be a 1-D integer array: {exc}") from None
    if arr.dtype.kind not in "iu" or arr.ndim != 1 or size not in (None, arr.shape[0]):
        raise InputValidationError(f"{what} must be integers in a 1-D array of "
                                   f"{'any number of' if size is None else size} values, "
                                   f"got {arr.dtype} of shape {arr.shape}")
    if arr.size and not lo <= int(arr.min()) <= int(arr.max()) < hi:
        raise InputValidationError(f"{what} must lie in [{lo}, {hi}), got "
                                   f"{arr.min()} to {arr.max()}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PointCluster:
    """Count, first and second moment of a point set about ``origin``, its
    first point (zero when empty): ``sum`` of p - origin (meters) and
    ``sq_sum`` of (p - origin)(p - origin)^T (meters^2), plain float64
    arrays. This is the point-cluster statistic that voxel LiDAR bundle
    adjustment consumes (BALM, Liu and Zhang, RA-L 2021)."""

    n: int
    sum: np.ndarray      # (3,)
    sq_sum: np.ndarray   # (3, 3), symmetric
    origin: np.ndarray   # (3,)


def accumulate(points: np.ndarray) -> PointCluster:
    """The PointCluster of (N, 3) float64 points in the module's domain,
    which the caller has checked (``as_points``)."""
    return _accumulate_centred(points)[0]


def _accumulate_centred(pts: np.ndarray) -> tuple[PointCluster, np.ndarray]:
    """The cluster of validated (N, 3) points and the C-contiguous (12, N)
    moment rows it was summed from: the three rows of pts - origin, then
    their nine products in row-major (i, j) order. Gather a subset with
    ``rows.take(idx, axis=1)``, which keeps the rows contiguous (see the
    module docstring)."""
    n = pts.shape[0]
    origin = pts[0].copy() if n else np.zeros(3)
    rows = np.empty((12, n))
    np.subtract(pts.T, origin[:, None], out=rows[:3])
    np.multiply(rows[:3, None], rows[:3], out=rows[3:].reshape(3, 3, n))
    sums = rows.sum(axis=1)
    return PointCluster(n, sums[:3], sums[3:].reshape(3, 3), origin), rows


def merge(a: PointCluster, b: PointCluster) -> PointCluster:
    """Combine two clusters; equivalent to accumulating the union of points.

    The result keeps a's origin, and b's sums are re-based onto it with
    d = b.origin - a.origin (Chan, Golub and LeVeque, 1983): sum + n d and
    sq_sum + (d s^T + s d^T) + n d d^T, each term exactly symmetric. Neither
    cluster is empty.
    """
    n, s = b.n, b.sum.tolist()
    d = [q - p for p, q in zip(a.origin.tolist(), b.origin.tolist())]
    shift = [(di * sj + dj * si) + di * dj * n for di, si in zip(d, s) for dj, sj in zip(d, s)]
    sums = [p + (q + n * e) for p, q, e in zip(a.sum.tolist(), s, d)]
    sq_sums = zip(a.sq_sum.ravel().tolist(), b.sq_sum.ravel().tolist(), shift)
    return PointCluster(a.n + n, np.array(sums),
                        np.array([p + (q + r) for p, q, r in sq_sums]).reshape(3, 3), a.origin)


def _central_moments(n: int, sums: list[float]) -> tuple[np.ndarray, list[float]]:
    """Covariance, a (3, 3) array, and mean, three floats, relative to their
    origin, of n points' 12 moment sums in ``_accumulate_centred``'s row
    order: cov[i][j] = ss[i][j] / n - m[i] m[j] with m = s / n."""
    sx, sy, sz, xx, xy, xz, yx, yy, yz, zx, zy, zz = sums
    x, y, z = mean = [sx / n, sy / n, sz / n]
    return np.array([xx / n - x * x, xy / n - x * y, xz / n - x * z,
                     yx / n - y * x, yy / n - y * y, yz / n - y * z,
                     zx / n - z * x, zy / n - z * y, zz / n - z * z]).reshape(3, 3), mean


def covariance(c: PointCluster) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix and centroid of a cluster.

    cov = sq_sum/n - m m^T with m = sum/n, and the centroid is origin + m.
    About a point of the set the subtraction loses about eps * extent^2,
    not eps * |centroid|^2 (3.5e-3 m^2 at a 4e6 m northing, against the
    2.5e-5 m^2 normal variance of a plane with 5 mm noise). cov is not
    symmetrized: every ``sq_sum`` built here is exactly symmetric, so cov
    is too, and averaging it with its transpose would return the same bits.
    The cluster holds at least one point; every caller makes sure of it.
    """
    cov, mean = _central_moments(c.n, c.sum.tolist() + c.sq_sum.ravel().tolist())
    return cov, c.origin + mean


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and matching unit eigenvectors of a
    symmetric 3x3 matrix, column k pairing with ``eigenvalues[k]``. Each
    column's largest-magnitude component is positive, which makes the
    decomposition deterministic despite the inherent +/-u ambiguity."""

    eigenvalues: np.ndarray   # (3,), eigenvalues[0] >= eigenvalues[1] >= eigenvalues[2]
    eigenvectors: np.ndarray  # (3, 3), orthonormal columns


def eigen_symmetric3(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric (3, 3) float64 matrix, such as a
    ``covariance``, ordered and signed as EigenDecomposition states (the
    first of tied largest components decides the sign; a flipped zero
    becomes -0.0).

    One direct call of the gufunc behind ``np.linalg.eigh`` computes it, so
    the bits are eigh's. The entries are finite and not checked again: every
    matrix solved here comes from points in the module's domain. LAPACK
    scales the matrix internally, so the result is accurate at any
    magnitude, and it handles repeated eigenvalues without a special case.
    A non-finite eigenvalue means LAPACK did not converge and raises
    ``np.linalg.LinAlgError``, as eigh would.
    """
    vals, vecs = _eigh_lo(m, signature="d->dd")
    if not all(map(math.isfinite, vals.tolist())):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    # a tie keeps the first component; LAPACK's column j is column 2 - j here
    flip = 0
    for bit, (x, y, z) in zip((1, 2, 4), vecs.T.tolist()):
        lead = y if abs(y) > abs(x) else x
        if (z if abs(z) > abs(lead) else lead) < 0.0:
            flip += bit
    if flip:
        vecs *= _SIGNS[flip]
    return EigenDecomposition(vals[::-1], vecs[:, ::-1])

"""Moment statistics of point sets and a 3x3 symmetric eigensolver.

A point cluster stores (count, sum of points, sum of outer products), which
is enough to get the covariance of any point set in O(1) and to merge two
sets in O(1). The octree subdivision and plane-merging stages lean on this
to avoid re-touching raw points.

All functions are pure and all returned objects are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# Relative eigenvalue gap below which the closed-form eigenvector
# construction is ill-conditioned and the Jacobi fallback takes over.
_DEGENERATE_GAP = 1e-6


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
    """Build a PointCluster from raw points, validating finiteness."""
    return _accumulate_checked(as_points(points))


def _accumulate_checked(pts: np.ndarray) -> PointCluster:
    """Moment sums over an already-validated (N, 3) array.

    Componentwise multiply+sum is used instead of a matrix product so the
    summation order is fixed (pairwise reduction), keeping results
    reproducible run to run.
    """
    n = pts.shape[0]
    if n == 0:
        return PointCluster.empty()
    x = pts[:, 0]
    y = pts[:, 1]
    z = pts[:, 2]
    s = np.array([x.sum(), y.sum(), z.sum()])
    xx = np.multiply(x, x).sum()
    yy = np.multiply(y, y).sum()
    zz = np.multiply(z, z).sum()
    xy = np.multiply(x, y).sum()
    xz = np.multiply(x, z).sum()
    yz = np.multiply(y, z).sum()
    sq = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
    return PointCluster(n, s, sq)


def merge(a: PointCluster, b: PointCluster) -> PointCluster:
    """Combine two clusters; equivalent to accumulating the union of points."""
    return PointCluster(a.n + b.n, a.sum + b.sum, a.sq_sum + b.sq_sum)


def covariance(c: PointCluster) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix and centroid of a cluster.

    cov = sq_sum/n - centroid centroid^T, symmetrized. The subtraction
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
    cov = c.sq_sum / c.n - np.outer(centroid, centroid)
    cov = (cov + cov.T) * 0.5
    return cov, centroid


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

    Uses the closed-form characteristic-polynomial solution and falls back
    to cyclic Jacobi rotations when the spectrum is near-degenerate
    (relative gap < 1e-6) or the closed-form eigenvectors fail a residual
    check. Output is deterministic for identical input.

    The arithmetic is done on Python scalars: this runs once per octree
    node per quarter, and numpy call overhead on 3-vectors would dominate
    the whole pipeline.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.shape != (3, 3):
        raise InputValidationError(f"expected a 3x3 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputValidationError("matrix contains NaN or infinite entries")

    a00 = float(a[0, 0])
    a11 = float(a[1, 1])
    a22 = float(a[2, 2])
    a01 = (float(a[0, 1]) + float(a[1, 0])) * 0.5
    a02 = (float(a[0, 2]) + float(a[2, 0])) * 0.5
    a12 = (float(a[1, 2]) + float(a[2, 1])) * 0.5

    off2 = a01 * a01 + a02 * a02 + a12 * a12
    fro = math.sqrt(a00 * a00 + a11 * a11 + a22 * a22 + 2.0 * off2)
    if fro == 0.0:
        return EigenDecomposition(np.zeros(3), np.eye(3))

    q = (a00 + a11 + a22) / 3.0
    b00 = a00 - q
    b11 = a11 - q
    b22 = a22 - q
    p2 = (b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * off2) / 6.0
    if p2 <= (1e-14 * fro) ** 2:
        # Scalar multiple of the identity.
        return EigenDecomposition(np.full(3, q), np.eye(3))
    p = math.sqrt(p2)
    if not math.isfinite(p):
        raise InputValidationError("matrix entries too large to decompose")
    det_b = (b00 * (b11 * b22 - a12 * a12)
             - a01 * (a01 * b22 - a12 * a02)
             + a02 * (a01 * a12 - b11 * a02))
    r = det_b / (2.0 * p * p * p)
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam0 = q + 2.0 * p * math.cos(phi)
    lam2 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam1 = 3.0 * q - lam0 - lam2

    scale = max(abs(lam0), abs(lam2), 1e-300)
    if min(lam0 - lam1, lam1 - lam2) < _DEGENERATE_GAP * scale:
        return _jacobi_decomposition(a00, a01, a02, a11, a12, a22)

    v0 = _null_direction(a00, a01, a02, a11, a12, a22, lam0)
    w = _null_direction(a00, a01, a02, a11, a12, a22, lam1)
    if v0 is None or w is None:  # cross products underflowed
        return _jacobi_decomposition(a00, a01, a02, a11, a12, a22)
    # Re-orthogonalize against v0 before completing the basis by cross
    # product; with well-separated eigenvalues this is a tiny correction.
    dot01 = w[0] * v0[0] + w[1] * v0[1] + w[2] * v0[2]
    v1 = (w[0] - dot01 * v0[0], w[1] - dot01 * v0[1], w[2] - dot01 * v0[2])
    n1 = math.sqrt(v1[0] * v1[0] + v1[1] * v1[1] + v1[2] * v1[2])
    if n1 < 1e-12:
        return _jacobi_decomposition(a00, a01, a02, a11, a12, a22)
    v1 = (v1[0] / n1, v1[1] / n1, v1[2] / n1)
    v2 = (v0[1] * v1[2] - v0[2] * v1[1],
          v0[2] * v1[0] - v0[0] * v1[2],
          v0[0] * v1[1] - v0[1] * v1[0])

    tol = 1e-9 * max(1.0, fro)
    for v, lam in ((v0, lam0), (v1, lam1), (v2, lam2)):
        rx = a00 * v[0] + a01 * v[1] + a02 * v[2] - lam * v[0]
        ry = a01 * v[0] + a11 * v[1] + a12 * v[2] - lam * v[1]
        rz = a02 * v[0] + a12 * v[1] + a22 * v[2] - lam * v[2]
        if math.sqrt(rx * rx + ry * ry + rz * rz) > tol:
            return _jacobi_decomposition(a00, a01, a02, a11, a12, a22)

    vecs = np.array([[v0[0], v1[0], v2[0]],
                     [v0[1], v1[1], v2[1]],
                     [v0[2], v1[2], v2[2]]])
    return EigenDecomposition(np.array([lam0, lam1, lam2]), _fix_signs(vecs))


def _null_direction(a00, a01, a02, a11, a12, a22, lam):
    """Unit vector spanning the null space of (a - lam I) for a simple
    eigenvalue, taken as the largest cross product of two rows. Returns
    None when every cross product underflows to zero."""
    r0 = (a00 - lam, a01, a02)
    r1 = (a01, a11 - lam, a12)
    r2 = (a02, a12, a22 - lam)
    best = None
    best_n = 0.0
    for u, v in ((r0, r1), (r0, r2), (r1, r2)):
        c = (u[1] * v[2] - u[2] * v[1],
             u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
        n = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
        if n > best_n:
            best, best_n = c, n
    if best is None:
        return None
    norm = math.sqrt(best_n)
    return (best[0] / norm, best[1] / norm, best[2] / norm)


def _jacobi_decomposition(a00, a01, a02, a11, a12, a22) -> EigenDecomposition:
    """Cyclic Jacobi rotations on the symmetric matrix with this upper triangle,
    run until the off-diagonal mass is at machine-precision level. Robust for
    repeated eigenvalues."""
    w = np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])
    v = np.eye(3)
    norm = float(np.linalg.norm(w))
    for _ in range(64):
        off = math.sqrt(2.0 * (w[0, 1] ** 2 + w[0, 2] ** 2 + w[1, 2] ** 2))
        if off <= 1e-15 * norm:
            break
        for p_i, q_i in ((0, 1), (0, 2), (1, 2)):
            apq = w[p_i, q_i]
            if apq == 0.0:
                continue
            theta = (w[q_i, q_i] - w[p_i, p_i]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            rot = np.eye(3)
            rot[p_i, p_i] = c
            rot[q_i, q_i] = c
            rot[p_i, q_i] = s
            rot[q_i, p_i] = -s
            w = rot.T @ w @ rot
            v = v @ rot
    vals = np.diag(w).copy()
    order = np.argsort(-vals, kind="stable")
    return EigenDecomposition(vals[order], _fix_signs(v[:, order]))


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude component is positive."""
    out = vecs.copy()
    for k in range(3):
        i = int(np.argmax(np.abs(out[:, k])))
        if out[i, k] < 0.0:
            out[:, k] = -out[:, k]
    return out

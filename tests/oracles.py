"""Independent oracles for the test suite.

These deliberately avoid the library's code paths: the eigenvalue oracle
is a classical (largest-pivot) Jacobi iteration working on numpy arrays,
the covariance oracle is a plain two-pass computation over raw points, and
the scoring oracle counts each group's labels in its own loop. The text
cloud writers, which make xyz and ascii ply input for the readers, format
their rows on their own, and the plane-set writer builds the whole
document as lines with one ``str`` per member index.
"""

from collections import Counter
from pathlib import Path

import numpy as np


def jacobi_eigenvalues(matrix, tol: float = 1e-14, max_iter: int = 200) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix by classical Jacobi rotations,
    zeroing the largest off-diagonal entry each step until the off-diagonal
    norm falls below tol * initial Frobenius norm. Returned descending."""
    a = np.array(matrix, dtype=np.float64)
    a = (a + a.T) / 2.0
    norm0 = np.linalg.norm(a)
    if norm0 == 0.0:
        return np.zeros(3)
    for _ in range(max_iter):
        off = np.abs(a - np.diag(np.diag(a)))
        p, q = np.unravel_index(np.argmax(off), off.shape)
        if off[p, q] <= tol * norm0:
            break
        if a[p, p] == a[q, q]:
            theta = np.pi / 4.0
        else:
            theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
        c, s = np.cos(theta), np.sin(theta)
        rot = np.eye(3)
        rot[p, p] = c
        rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def two_pass_covariance(points) -> tuple[np.ndarray, np.ndarray]:
    """(covariance, centroid) computed directly from raw points: mean
    first, then the average outer product of the deviations."""
    pts = np.asarray(points, dtype=np.float64)
    centroid = pts.mean(axis=0)
    dev = pts - centroid
    cov = dev.T @ dev / pts.shape[0]
    return (cov + cov.T) / 2.0, centroid


def point_plane_distance(points, normal, offset) -> np.ndarray:
    """|n.p - d| / ||n||, the textbook point-to-plane distance."""
    n = np.asarray(normal, dtype=np.float64)
    return np.abs(np.asarray(points) @ n - offset) / np.linalg.norm(n)


def random_symmetric(rng, lo: float = -10.0, hi: float = 10.0) -> np.ndarray:
    m = rng.uniform(lo, hi, (3, 3))
    return (m + m.T) / 2.0


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def plurality_scores(groups, labels, n_planes: int):
    """([(group index, plane id), ...], precision, recall) of plurality
    matching, one group at a time: each group takes its most frequent
    label, ties to the smallest with -1 first, and stays unmatched on -1."""
    matches = []
    correct = 0
    extracted = 0
    for gi, group in enumerate(groups):
        member = labels[group.merged.point_indices]
        counts = np.bincount(member + 1, minlength=n_planes + 1)
        plane_id = int(np.argmax(counts)) - 1
        extracted += member.shape[0]
        if plane_id >= 0:
            matches.append((gi, plane_id))
            correct += int((member == plane_id).sum())
    labeled = int((labels >= 0).sum())
    return (matches, correct / extracted if extracted else None,
            correct / labeled if labeled else None)


def _write_rows(path, lines) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_xyz(path, points) -> None:
    """One "x y z" row per point, in shortest round-trip ``repr``."""
    _write_rows(path, [" ".join(map(repr, p)) for p in np.asarray(points).tolist()])


def write_ply(path, points, labels=None) -> None:
    """ASCII ply with double x, y, z and, given labels, an int label."""
    rows = [" ".join(map(repr, p)) for p in np.asarray(points).tolist()]
    if labels is not None:
        rows = [f"{row} {label}" for row, label in zip(rows, np.asarray(labels).tolist())]
    header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}",
              "property double x", "property double y", "property double z",
              *(["property int label"] if labels is not None else []), "end_header"]
    _write_rows(path, header + rows)


def write_planeset(groups, path) -> None:
    """The plane-set document built as one list of lines: header, then the
    nine-line block of each group."""
    lines = ["voxplane-planeset 1", f"groups {len(groups)}"]
    for i, g in enumerate(groups):
        m = g.merged
        depths = sorted(Counter(p.depth for p in g.members).items())
        lines += [
            f"group {i}",
            "root " + " ".join(map(str, m.root_key)),
            f"count {int(m.cluster.n)}",
            "centroid " + " ".join(map(repr, m.centroid.tolist())),
            "normal " + " ".join(map(repr, m.normal.tolist())),
            "eigenvalues " + " ".join(map(repr, m.eigenvalues.tolist())),
            "depths " + " ".join(f"{d}:{c}" for d, c in depths),
            "indices " + " ".join(map(str, m.point_indices.tolist())),
            "end",
        ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

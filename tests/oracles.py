"""Independent oracles for the test suite.

These deliberately avoid the library's code paths: the eigenvalue oracle
is a classical (largest-pivot) Jacobi iteration working on numpy arrays,
the covariance oracle is a plain two-pass computation over raw points, and
the scoring oracle counts each group's labels in its own loop. The text
cloud writers, which make xyz and ascii ply input for the readers, format
their rows on their own, and the plane-set writer builds the whole
document as lines with one ``str`` per member index. The plane-test oracle
splits a set into quarters with one projection per eigenvector and sums each
quarter's moments in its own loop step. ``linked_pairs`` counts the planes
that groups tie across scan poses, from each point's lattice cell, label
and pose. ``traced_peak`` measures a call's peak of traced memory for the
memory bounds. ``package_imports`` reads a module's source for the
package modules it imports, for the import-graph tests. ``member_sets``
states a grouping as sets of input indices, to compare extractions of
shifted or reordered input.
"""

import ast
import tracemalloc
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


def linked_pairs(groups, points, labels, poses, root_size: float = 1.0,
                 min_points: int = 20) -> tuple[int, int]:
    """(linked, candidates) among the (truth plane, root voxel) pairs seen
    from several scan poses. A pair is a candidate when at least
    ``min_points`` of its labeled points come from each of two or more
    poses, and linked when a group in that voxel whose plurality label is
    that plane holds points from two or more poses: one plane constraint
    that ties the poses, as LiDAR bundle adjustment uses it."""
    cells = np.floor(np.asarray(points) / root_size).astype(np.int64)
    rows, counts = np.unique(np.column_stack([cells, labels, poses])[labels >= 0],
                             axis=0, return_counts=True)
    seen = Counter(tuple(row[:4]) for row in rows[counts >= min_points].tolist())
    candidates = {pair for pair, n_poses in seen.items() if n_poses >= 2}
    linked = set()
    for gi, plane_id in plurality_scores(groups, labels, int(labels.max()) + 1)[0]:
        members = groups[gi].merged.point_indices
        pair = (*groups[gi].merged.root_key, plane_id)
        if pair in candidates and np.unique(poses[members]).shape[0] >= 2:
            linked.add(pair)
    return len(linked), len(candidates)


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


def eigh_descending(m) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh reversed to descending order, each eigenvector signed
    so that its first largest-magnitude component is positive."""
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs[:, ::-1]
    lead = vecs[np.abs(vecs).argmax(axis=0), np.arange(3)]
    return vals[::-1], vecs * np.copysign(1.0, lead)


def quarter_split_reference(cols, vecs, center) -> tuple[np.ndarray, list[int]]:
    """Stable quadrant order and cuts [0, a, b, c, N] of the (3, N) rows
    ``cols`` by the signs of their offsets from ``center`` along the first
    two columns of ``vecs``, one projection at a time."""
    rel = cols - center[:, None]
    u = vecs
    d0 = rel[0] * u[0, 0] + rel[1] * u[1, 0] + rel[2] * u[2, 0]
    d1 = rel[0] * u[0, 1] + rel[1] * u[1, 1] + rel[2] * u[2, 1]
    code = (d0 >= 0.0) * np.uint8(2) + (d1 >= 0.0)
    order = code.argsort(kind="stable")
    return order, [0, *np.bincount(code, minlength=4)[:3].cumsum().tolist(), code.shape[0]]


def _min_eigenvalue_flushed(vals) -> float:
    lam_max, lam_min = float(vals[0]), float(vals[2])
    return 0.0 if lam_min <= 1e-12 * max(lam_max, 0.0) else lam_min


def plane_decision_reference(points, flatness_ratio_max=0.0625, quarter_ratio_bound=3.0,
                             min_points=20) -> dict:
    """The quarter-thickness plane test with one loop step per quarter.

    Moments are summed about the first point along contiguous rows, and each
    quarter's first and second moments come from slices of its own (3, n)
    and (3, 3, n) arrays. Returns is_plane, reject_reason (the reason's
    string or None), fallback, eigenvalues, eigenvectors, quarter_min (the
    four quarter values or None), and the quarter order and cuts (None when
    the quarter test did not run).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    out = dict(is_plane=False, reject_reason=None, fallback=False, eigenvalues=np.zeros(3),
               eigenvectors=np.eye(3), quarter_min=None, order=None, cuts=None)
    if n < min_points:
        return {**out, "reject_reason": "too_few_points"}
    cols = np.subtract(pts.T, pts[0][:, None], order="C")
    mean = cols.sum(axis=1) / n
    vals, vecs = eigh_descending((cols[:, None] * cols).sum(axis=2) / n - mean[:, None] * mean)
    out.update(eigenvalues=vals, eigenvectors=vecs)
    if not (vals[0] > 0.0 and vals[2] / vals[0] < flatness_ratio_max):
        return {**out, "reject_reason": "flatness_failed"}
    if vals[1] / vals[0] < flatness_ratio_max:
        return {**out, "reject_reason": "line_like"}

    order, cuts = quarter_split_reference(cols, vecs, mean)
    pooled = _min_eigenvalue_flushed(vals)
    q_cols = cols.take(order, axis=1)
    q_prod = q_cols[:, None] * q_cols
    quarter_l3 = []
    failed = False
    for start, stop in zip(cuts, cuts[1:]):
        if stop - start < max(3, min_points // 8):
            continue
        q_mean = q_cols[:, start:stop].sum(axis=1) / (stop - start)
        q_cov = q_prod[..., start:stop].sum(axis=2) / (stop - start) - q_mean[:, None] * q_mean
        q_l3 = _min_eigenvalue_flushed(eigh_descending(q_cov)[0])
        quarter_l3.append(q_l3)
        bound = quarter_ratio_bound
        if pooled != 0.0 and q_l3 != 0.0 and not (1.0 / bound < pooled / q_l3 < bound):
            failed = True
    fallback = len(quarter_l3) <= 1
    rejected = failed and not fallback
    return {**out, "is_plane": not rejected, "fallback": fallback, "order": order, "cuts": cuts,
            "reject_reason": "quarter_ratio_failed" if rejected else None,
            "quarter_min": np.array(quarter_l3) if len(quarter_l3) == 4 else None}


def traced_peak(call, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during ``call(*args)``,
    its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def package_imports(module) -> list[str]:
    """The package modules ``module``'s source imports, in AST walk order:
    a relative import by its module name, an absolute one by its dotted
    name."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    package = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("voxplane"))]
    package += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.startswith("voxplane")]
    return package


def member_sets(groups, order=None):
    """Each group's members as a sorted tuple of input indices, mapped
    through ``order`` (the permutation the input was taken in), sorted."""
    return sorted(tuple(sorted((g.merged.point_indices if order is None
                                else order[g.merged.point_indices]).tolist()))
                  for g in groups)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxplane import InputValidationError, extract_plane_groups, geometry
from voxplane.geometry import accumulate, covariance, eigen_symmetric3, merge

from oracles import random_rotation, random_symmetric, two_pass_covariance


def rel_close(a, b, tol):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.linalg.norm(a - b) <= tol * max(1.0, np.linalg.norm(b))


# ---------------------------------------------------------------------------
# accumulate / merge / covariance


def test_accumulate_empty():
    c = accumulate(np.empty((0, 3)))
    assert c.n == 0
    assert np.all(c.sum == 0) and np.all(c.sq_sum == 0)


def test_accumulate_symmetric_pair():
    c = accumulate(np.array([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]))
    assert c.n == 2
    cov, cen = covariance(c)
    assert rel_close(cen, np.zeros(3), 1e-12)
    assert rel_close(cov, np.diag([1.0, 0.0, 0.0]), 1e-12)


def test_accumulate_matches_two_pass_covariance(rng):
    pts = rng.uniform(-100, 100, (100, 3))
    cov, cen = covariance(accumulate(pts))
    cov_ref, cen_ref = two_pass_covariance(pts)
    assert rel_close(cen, cen_ref, 1e-12)
    assert rel_close(cov, cov_ref, 1e-12)


def test_as_points_rejects_non_finite():
    # the one owner of the rule; accumulate and the stages behind the entry
    # points take what it returned
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputValidationError, match="NaN or infinite"):
            geometry.as_points([(0.0, 0.0, 1.0), (bad, 0.0, 0.0)])


@pytest.mark.filterwarnings("error")
def test_complex_points_rejected():
    # a cast to float64 would drop the imaginary part (with a
    # ComplexWarning) and extract planes from the real parts alone
    pts = np.ones((30, 3), complex)
    for call in (geometry.as_points, extract_plane_groups):
        with pytest.raises(InputValidationError, match="complex"):
            call(pts)
    with pytest.raises(InputValidationError, match="complex"):
        geometry.as_points([(1.0, 2.0, 3j)])


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), layout=st.sampled_from(["C", "F", "strided", "gathered"]),
       offset=st.sampled_from([0.0, 1e3, 4e6]), seed=st.integers(0, 2**31 - 1))
def test_accumulate_equals_per_column_sums_bitwise(n, layout, offset, seed):
    # The moments must be exactly the per-column pairwise sums of the
    # points centred on the first one, whatever the memory layout of the
    # input: the plane decisions and the output bytes depend on the last bit.
    gen = np.random.default_rng(seed)
    base = gen.uniform(-5.0, 5.0, (2 * n, 6)) + offset
    if layout == "C":
        pts = np.ascontiguousarray(base[:n, :3])
    elif layout == "F":
        pts = np.asfortranarray(base[:n, :3])
    elif layout == "strided":
        pts = base[::2, ::2]
    else:
        pts = base[gen.choice(2 * n, n, replace=False), 1:4]
    c = accumulate(pts)
    rel = pts - pts[0]
    assert c.n == n
    assert _bits(c.origin) == _bits(pts[0])
    assert _bits(c.sum) == _bits([rel[:, j].sum() for j in range(3)])
    assert _bits(c.sq_sum) == _bits([[(rel[:, i] * rel[:, j]).sum() for j in range(3)]
                                     for i in range(3)])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2000), k=st.integers(1, 4), offset=st.sampled_from([0.0, 4e6]),
       seed=st.integers(0, 2**31 - 1))
def test_moment_row_slices_and_stacked_moments_bitwise(n, k, offset, seed):
    # The plane test gathers a node's (12, n) moment rows once in quarter
    # order and sums a column slice per quarter: each slice must sum like a
    # copy of its points, and the stacked central moments of k slices must
    # equal k single calls, bit for bit.
    gen = np.random.default_rng(seed)
    pts = gen.uniform(-5.0, 5.0, (n, 3)) + offset
    cluster, rows = geometry._accumulate_centred(pts)
    assert rows.shape == (12, n) and rows.flags.c_contiguous
    assert _bits(rows.sum(axis=1)) == _bits([*cluster.sum, *cluster.sq_sum.reshape(9)])
    code = gen.integers(0, k, n)
    order = code.argsort(kind="stable")
    cuts = [0, *np.bincount(code, minlength=k).cumsum().tolist()]
    gathered = rows.take(order, axis=1)
    spans = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    sums = np.array([gathered[:, a:b].sum(axis=1) for a, b in spans])
    for (a, b), row in zip(spans, sums):
        copy = pts[order[a:b]]
        if order[a] == 0:
            # the slice led by the node's origin: accumulate's own frame
            c = accumulate(copy)
            assert _bits(row) == _bits([*c.sum, *c.sq_sum.reshape(9)])
        rel = copy - pts[0]
        assert _bits(row[:3]) == _bits([rel[:, j].sum() for j in range(3)])
        assert _bits(row[3:]) == _bits([(rel[:, i] * rel[:, j]).sum()
                                        for i in range(3) for j in range(3)])
    counts = [b - a for a, b in spans]
    covs, means = geometry._central_moments(counts, sums[:, :3], sums[:, 3:].reshape(-1, 3, 3))
    for m, row, cov, mean in zip(counts, sums, covs, means):
        cov_1, mean_1 = geometry._central_moments(m, row[:3], row[3:].reshape(3, 3))
        assert _bits(cov) == _bits(cov_1) and _bits(mean) == _bits(mean_1)


def test_merge_equals_accumulate_of_union(rng):
    # q's origin lies up to 100 m from p's, so merging re-bases its sums;
    # at 4e6 m sums about the coordinate origin would cancel in covariance
    for offset in (0.0, 4e6):
        p = rng.uniform(-50, 50, (37, 3)) + offset
        q = rng.uniform(-50, 50, (23, 3)) + offset
        m = merge(accumulate(p), accumulate(q))
        u = accumulate(np.concatenate([p, q]))
        assert m.n == u.n
        assert _bits(m.origin) == _bits(u.origin) == _bits(p[0])
        assert rel_close(m.sum, u.sum, 1e-12)
        assert rel_close(m.sq_sum, u.sq_sum, 1e-12)
        cov, cen = covariance(m)
        cov_ref, cen_ref = two_pass_covariance(np.concatenate([p, q]))
        assert rel_close(cen, cen_ref, 1e-12)
        assert rel_close(cov, cov_ref, 1e-12)


def test_merge_commutative_and_associative(rng):
    for _ in range(25):
        a = accumulate(rng.uniform(-10, 10, (rng.integers(1, 30), 3)))
        b = accumulate(rng.uniform(-10, 10, (rng.integers(1, 30), 3)))
        c = accumulate(rng.uniform(-10, 10, (rng.integers(1, 30), 3)))
        # the operands' origins differ, so compare what the sums describe
        ab = merge(a, b)
        ba = merge(b, a)
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        for x, y in ((ab, ba), (left, right)):
            assert x.n == y.n
            (cov_x, cen_x), (cov_y, cen_y) = covariance(x), covariance(y)
            assert rel_close(cen_x, cen_y, 1e-12)
            assert rel_close(cov_x, cov_y, 1e-12)


def test_covariance_single_point():
    cov, cen = covariance(accumulate(np.array([(3.0, -2.0, 7.0)])))
    assert np.allclose(cen, [3.0, -2.0, 7.0])
    assert np.allclose(cov, 0.0, atol=1e-12)


def test_covariance_unit_square():
    pts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], dtype=np.float64)
    cov, cen = covariance(accumulate(pts))
    cov_ref, _ = two_pass_covariance(pts)
    assert np.allclose(cov, cov_ref, atol=1e-14)
    assert np.allclose(cov, np.diag([0.25, 0.25, 0.0]), atol=1e-14)
    assert np.allclose(cen, [0.5, 0.5, 0.0])


def test_covariance_positive_semidefinite(rng):
    for _ in range(50):
        n = int(rng.integers(1, 200))
        pts = rng.uniform(-100, 100, (n, 3))
        cluster = accumulate(pts)
        # a merged cluster too: covariance does not symmetrize, so merging
        # must keep the second moments exactly symmetric
        far = accumulate(rng.uniform(-100, 100, (int(rng.integers(1, 200)), 3)) + 4e6)
        for c in (cluster, merge(cluster, far)):
            cov, _ = covariance(c)
            assert _bits(cov) == _bits(cov.T)
            lam = np.linalg.eigvalsh(cov)
            assert lam.min() >= -1e-12 * max(np.trace(cov), 1e-30)


def test_cluster_vs_raw_large_far_from_origin(rng):
    # 1e4 points, coordinates up to 100 m: the moment-sum formula must not
    # lose more than 1e-12 relative to the two-pass reference.
    pts = rng.uniform(-100, 100, (10_000, 3)) + np.array([87.0, -93.0, 41.0])
    cov, cen = covariance(accumulate(pts))
    cov_ref, cen_ref = two_pass_covariance(pts)
    assert rel_close(cen, cen_ref, 1e-12)
    assert rel_close(cov, cov_ref, 1e-12)


# ---------------------------------------------------------------------------
# eigen_symmetric3


def test_eigen_identity():
    e = eigen_symmetric3(np.eye(3))
    assert np.allclose(e.eigenvalues, 1.0)
    assert np.allclose(e.eigenvectors @ e.eigenvectors.T, np.eye(3), atol=1e-12)


def test_eigen_diagonal():
    e = eigen_symmetric3(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(e.eigenvalues, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(e.eigenvectors), np.eye(3), atol=1e-12)
    # sign convention: largest component positive
    assert np.all(e.eigenvectors[np.argmax(np.abs(e.eigenvectors), axis=0),
                                 np.arange(3)] > 0)


def test_eigen_invariants(rng):
    for _ in range(300):
        m = random_symmetric(rng)
        e = eigen_symmetric3(m)
        lam, u = e.eigenvalues, e.eigenvectors
        assert lam[0] >= lam[1] >= lam[2]
        # orthonormal within 1e-9
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-9
        fro = np.linalg.norm(m)
        # eigen residual within 1e-9 * max(1, ||M||_F)
        for k in range(3):
            assert np.linalg.norm(m @ u[:, k] - lam[k] * u[:, k]) <= 1e-9 * max(1.0, fro)
        # reconstruction within 1e-8 * ||M||_F
        recon = (u * lam) @ u.T
        assert np.linalg.norm(recon - m) <= 1e-8 * max(fro, 1e-30)


def test_eigen_rotation_equivariance(rng):
    for _ in range(100):
        m = random_symmetric(rng)
        r = random_rotation(rng)
        lam_a = eigen_symmetric3(m).eigenvalues
        lam_b = eigen_symmetric3(r @ m @ r.T).eigenvalues
        assert np.abs(lam_a - lam_b).max() <= 1e-9 * max(1.0, np.abs(lam_a).max())


def test_eigen_degenerate_spectra():
    # repeated and nearly repeated eigenvalues must still give an
    # orthonormal basis of eigenvectors
    cases = [
        np.diag([2.0, 1.0, 1.0]),
        np.diag([1.0, 1.0, 1.0 - 1e-9]),
        np.full((3, 3), 1.0),          # rank one: eigenvalues (3, 0, 0)
        np.diag([5.0, 5.0, -1.0]),
    ]
    for m in cases:
        e = eigen_symmetric3(m)
        assert np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(3)).max() <= 1e-9
        for k in range(3):
            resid = m @ e.eigenvectors[:, k] - e.eigenvalues[k] * e.eigenvectors[:, k]
            assert np.linalg.norm(resid) <= 1e-9 * max(1.0, np.linalg.norm(m))
    assert np.allclose(eigen_symmetric3(np.full((3, 3), 1.0)).eigenvalues,
                       [3.0, 0.0, 0.0], atol=1e-12)


def test_eigen_any_scale(rng):
    # Magnitudes whose squares or cubes overflow or underflow a double.
    for s in (1e-200, 1e200):
        lam = eigen_symmetric3(np.full((3, 3), s)).eigenvalues
        assert np.abs(lam - [3 * s, 0.0, 0.0]).max() <= 1e-12 * 3 * s
    # Exact up to the rounding of LAPACK's internal rescaling, which leaves
    # each eigenvalue one ulp low; the smallest is right relative to itself.
    lam = eigen_symmetric3(np.diag([1e300, 1e300, 1.0])).eigenvalues
    np.testing.assert_allclose(lam, [1e300, 1e300, 1.0], rtol=4e-16, atol=0)
    for _ in range(200):
        m = random_symmetric(rng)
        ref = eigen_symmetric3(m).eigenvalues
        for s in (1e-290, 1e-150, 1e150, 1e290):
            lam = eigen_symmetric3(m * s).eigenvalues
            assert np.abs(lam - s * ref).max() <= 1e-12 * s * np.abs(ref).max()


def test_eigen_deterministic(rng):
    m = random_symmetric(rng)
    a = eigen_symmetric3(m)
    b = eigen_symmetric3(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigen_sign_convention(rng):
    for _ in range(100):
        u = eigen_symmetric3(random_symmetric(rng)).eigenvectors
        for k in range(3):
            i = np.argmax(np.abs(u[:, k]))
            assert u[i, k] > 0


@pytest.mark.parametrize("m, vals, vecs", [
    # LAPACK returns 0.7071067811865475 twice in the top eigenvector: the
    # first of the tied components decides the sign, and the zero entry of
    # the flipped bottom eigenvector keeps its negative sign.
    ([[1, 1, 0], [1, 1, 0], [0, 0, 0]], [2.0, 0.0, 0.0],
     [[0.7071067811865475, 0.0, 0.7071067811865475],
      [0.7071067811865475, 0.0, -0.7071067811865475],
      [0.0, 1.0, -0.0]]),
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [3.9999999999999987, 1.0, 0.9999999999999993],
     [[0.5773502691896261, 0.0, 0.8164965809277258],
      [0.5773502691896253, -0.7071067811865475, -0.408248290463863],
      [0.5773502691896255, 0.7071067811865476, -0.4082482904638632]]),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 5]], [5.0, 1.0, -1.0],
     [[0.0, 0.7071067811865475, 0.7071067811865475],
      [0.0, 0.7071067811865475, -0.7071067811865475],
      [1.0, 0.0, -0.0]]),
])
def test_eigen_sign_rule_on_tied_components(m, vals, vecs):
    e = eigen_symmetric3(np.array(m, dtype=np.float64))
    assert _bits(e.eigenvalues) == _bits(vals)
    assert _bits(e.eigenvectors) == _bits(vecs)
    assert np.array_equal(np.signbit(e.eigenvectors), np.signbit(vecs))


def _eigh_reference(m):
    """np.linalg.eigh, reversed to descending order, with the sign rule
    written out the long way: the first largest-magnitude component of each
    eigenvector is made positive by np.negative(where=)."""
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs[:, ::-1].copy()
    lead = vecs[np.abs(vecs).argmax(axis=0), np.arange(3)]
    np.negative(vecs, out=vecs, where=lead < 0.0)
    return vals[::-1], vecs


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["random", "zero", "double", "triple"]),
       exponent=st.floats(-200.0, 200.0), seed=st.integers(0, 2**31 - 1))
def test_eigen_equals_numpy_eigh_bitwise(kind, exponent, seed):
    # eigen_symmetric3 calls the gufunc behind np.linalg.eigh directly; a
    # numpy release that changes that gufunc or its wrapper fails here
    # instead of drifting the output
    gen = np.random.default_rng(seed)
    if kind == "zero":
        m = np.zeros((3, 3))
    elif kind == "random":
        m = random_symmetric(gen) * 10.0 ** exponent
    else:
        a, b = gen.uniform(-10.0, 10.0, 2)
        lam = np.array([a, b, b] if kind == "double" else [a, a, a])
        r = random_rotation(gen)
        m = (r * lam) @ r.T
        m = (m + m.T) * (0.5 * 10.0 ** exponent)
    vals, vecs = _eigh_reference(m)
    e = eigen_symmetric3(m)
    assert _bits(e.eigenvalues) == _bits(vals)
    assert _bits(e.eigenvectors) == _bits(vecs)


def test_eigen_nonconvergence_raises(monkeypatch):
    # LAPACK's failure shows as NaN output from the gufunc; np.linalg.eigh
    # raised LinAlgError for it, and so must the direct call
    nan = (np.full(3, np.nan), np.full((3, 3), np.nan))
    monkeypatch.setattr(geometry, "_eigh_lo", lambda a, signature: nan)
    with pytest.raises(np.linalg.LinAlgError):
        eigen_symmetric3(np.eye(3))


def test_eigen_rejects_bad_input():
    with pytest.raises(InputValidationError):
        eigen_symmetric3(np.full((3, 3), np.nan))
    # LAPACK reads only the lower triangle, so only the check sees these
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[0, 2] = bad
        with pytest.raises(InputValidationError, match="NaN or infinite"):
            eigen_symmetric3(m)


def test_eigen_stacked_view_inputs_match_eigh(rng):
    # the plane test passes each quarter's covariance as a view of one stack
    stack = np.array([random_symmetric(rng) for _ in range(4)])
    for m in stack:
        vals, vecs = _eigh_reference(m)
        e = eigen_symmetric3(m)
        assert _bits(e.eigenvalues) == _bits(vals)
        assert _bits(e.eigenvectors) == _bits(vecs)


def test_eigen_all_eight_sign_patterns_match_eigh(rng):
    # the sign rule flips any subset of LAPACK's three columns
    patterns = set()
    for _ in range(300):
        m = random_symmetric(rng)
        raw = np.linalg.eigh(m)[1]
        patterns.add(tuple(raw[np.abs(raw).argmax(axis=0), [0, 1, 2]] < 0.0))
        vals, vecs = _eigh_reference(m)
        e = eigen_symmetric3(m)
        assert _bits(e.eigenvalues) == _bits(vals)
        assert _bits(e.eigenvectors) == _bits(vecs)
    assert len(patterns) == 8

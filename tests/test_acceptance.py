"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from voxplane import (
    ExtractionConfig,
    NodeState,
    PlaneGroup,
    RejectReason,
    determine_plane,
    extract_plane_groups,
    gen_corner,
    gen_false_positive_slab,
    gen_multi_room,
    gen_plane,
    gen_slab_with_object,
    ransac_extract_all,
)
from voxplane import merging
from voxplane.cli import cli_main
from voxplane.evaluation import evaluate
from voxplane.geometry import accumulate, covariance, eigen_symmetric3
from voxplane.io import write_planes
from voxplane.octree import MAX_DEPTH
from voxplane.plane_test import flatness_test, quarter_split

import pinned
from oracles import jacobi_eigenvalues, random_symmetric

DATA = Path(__file__).parent / "data"
CFG = ExtractionConfig()
Z = np.array([0.0, 0.0, 1.0])


def _announce(cid, name, fn):
    try:
        fn()
    except BaseException:
        print(f"\nACCEPTANCE {cid} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {cid} {name}: PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_eigensolver_oracle():
    def body():
        rng = np.random.default_rng(1234)
        mats = [random_symmetric(rng) for _ in range(1000)]
        start = time.process_time()  # CPU time: other processes' load does not count
        for m in mats:
            e = eigen_symmetric3(m)
            ref = jacobi_eigenvalues(m)
            tol = 1e-9 * max(1.0, float(np.abs(ref).max()))
            assert np.abs(e.eigenvalues - ref).max() <= tol
            recon = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.T
            assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)
        elapsed = time.process_time() - start
        assert elapsed < 1.0, f"eigen oracle run took {elapsed:.2f}s of CPU time"

    _announce("C1", "eigensolver-oracle", body)


def test_criterion_2_flatness_vs_quarter_separation():
    def body():
        for seed in (0, 1):
            fp = gen_false_positive_slab(seed=seed)
            cov, _ = covariance(accumulate(fp.points))
            assert flatness_test(eigen_symmetric3(cov))
            decision = determine_plane(fp.points)
            assert not decision.is_plane
            assert decision.reject_reason is RejectReason.QUARTER_RATIO_FAILED
            again = gen_false_positive_slab(seed=seed)
            assert np.array_equal(fp.points, again.points)

        clean = gen_plane(Z, 0.0, (1.0, 1.0), 400.0, 0.005, seed=0)
        ccov, _ = covariance(accumulate(clean.points))
        assert flatness_test(eigen_symmetric3(ccov))
        cdec = determine_plane(clean.points)
        assert cdec.is_plane

    _announce("C2", "fp-slab-regression", body)


def test_criterion_3_corner_quality():
    def body():
        cloud = gen_corner(seed=0)
        result = extract_plane_groups(cloud.points, CFG)
        report = evaluate(result.groups, cloud, result.timings)
        assert report.precision is not None and report.precision >= 0.95
        assert report.recall is not None and report.recall >= 0.90
        for m in report.matched_planes:
            assert m.normal_error_deg < 3.0
            assert m.offset_error_m < 0.01
        # pinned on first green run: rates within +/-0.02, counts exact
        assert abs(report.precision - pinned.CORNER_EVAL["precision"]) <= 0.02
        assert abs(report.recall - pinned.CORNER_EVAL["recall"]) <= 0.02
        assert report.extracted_count == pinned.CORNER_EVAL["groups"]
        assert len(report.matched_planes) == pinned.CORNER_EVAL["matched"]

    _announce("C3", "corner-extraction-quality", body)


def merge_regression_scene(seed=11, n_plane=2000, blob_n=500, blob_h=0.15):
    """Noiseless plane filling one root voxel plus a dense protrusion box
    confined to one octant, sized so the plane test fails at depth 0."""
    gen = np.random.default_rng(seed)
    plane = np.column_stack([gen.uniform(0.02, 0.98, n_plane),
                             gen.uniform(0.10, 0.90, n_plane),
                             np.full(n_plane, 0.3)])
    blob = np.column_stack([gen.uniform(0.05, 0.20, blob_n),
                            gen.uniform(0.15, 0.30, blob_n),
                            gen.uniform(0.30, 0.30 + blob_h, blob_n)])
    return np.concatenate([plane, blob]), n_plane


def test_criterion_4_merging_effectiveness():
    def body():
        pts, n_plane = merge_regression_scene()
        decision = determine_plane(pts, CFG)
        assert not decision.is_plane, "protrusion must defeat the depth-0 test"

        result = extract_plane_groups(pts, CFG)
        merged = result.groups
        assert len(merged) == 1
        group = merged[0]
        assert len(group.members) >= 2
        # protrusion points are not part of the merged plane group
        assert int((group.merged.point_indices >= n_plane).sum()) == 0
        angle = math.acos(min(1.0, abs(float(group.merged.normal @ Z))))
        assert angle < 1e-6

        unmerged = [leaf.patch for voxel in result.leaves.values() for leaf in voxel
                    if leaf.patch is not None]
        assert len(unmerged) >= 2

    _announce("C4", "merging-effectiveness", body)


def test_criterion_5_ransac_contrast():
    def body():
        cloud = gen_slab_with_object(seed=0)

        patches = ransac_extract_all(cloud.points, CFG, seed=0)
        groups_r = [PlaneGroup(members=[p], merged=p) for p in patches]
        box_in_ground_r = _box_points_in_ground_groups(groups_r, cloud)
        assert box_in_ground_r >= 1

        groups_o = extract_plane_groups(cloud.points, CFG).groups
        box_in_ground_o = _box_points_in_ground_groups(groups_o, cloud)
        assert box_in_ground_o == 0

    _announce("C5", "ransac-contrast", body)


def _box_points_in_ground_groups(groups, cloud):
    total = 0
    for m in evaluate(groups, cloud).matched_planes:
        if m.truth_plane == 0:  # ground plane label
            labels = cloud.labels[groups[m.group].merged.point_indices]
            total += int((labels >= 1).sum())
    return total


def test_criterion_6_structural_invariants():
    def body():
        rng = np.random.default_rng(777)

        # quarter_split partition, 200 random cases
        for _ in range(200):
            n = int(rng.integers(1, 300))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.05, 2.0, 3)
            cov, cen = covariance(accumulate(pts))
            eig = eigen_symmetric3(cov)
            order, cuts = quarter_split(np.ascontiguousarray(pts.T), eig, cen)
            assert cuts[0] == 0 and cuts[-1] == n and cuts == sorted(cuts)
            assert np.array_equal(np.sort(order), np.arange(n))

        # octree conservation, depth bound, leaf planarity; merge partition
        # and root confinement: 200 random scenes
        for case in range(200):
            kind = case % 4
            n = int(rng.integers(60, 900))
            if kind == 0:
                pts = rng.uniform(-1.5, 1.5, (n, 3))
            elif kind == 1:
                pts = np.column_stack([rng.uniform(-1.5, 1.5, n),
                                       rng.uniform(-1.5, 1.5, n),
                                       rng.normal(0.4, 0.004, n)])
            elif kind == 2:
                half = n // 2
                pts = np.concatenate([
                    np.column_stack([rng.uniform(0, 1.4, half),
                                     rng.uniform(0, 1.4, half),
                                     rng.normal(0.3, 0.003, half)]),
                    np.column_stack([rng.normal(0.7, 0.003, n - half),
                                     rng.uniform(0, 1.4, n - half),
                                     rng.uniform(0, 1.4, n - half)]),
                ])
            else:
                pts = np.concatenate([
                    np.column_stack([rng.uniform(-1, 1, n - 30),
                                     rng.uniform(-1, 1, n - 30),
                                     rng.normal(0.0, 0.002, n - 30)]),
                    rng.uniform(-1, 1, (30, 3)),
                ])
            result = extract_plane_groups(pts, CFG)
            leaves = [leaf for voxel in result.leaves.values() for leaf in voxel]
            idx_all = np.concatenate([l.point_indices for l in leaves])
            assert np.array_equal(np.sort(idx_all), np.arange(pts.shape[0]))
            for leaf in leaves:
                assert leaf.depth <= MAX_DEPTH
                if leaf.state is NodeState.PLANE_LEAF:
                    assert determine_plane(pts[leaf.point_indices], CFG).is_plane

            groups = result.groups
            patch_ids = [id(mm) for g in groups for mm in g.members]
            assert len(patch_ids) == len(set(patch_ids))
            n_patches = sum(leaf.patch is not None for leaf in leaves)
            assert len(groups) <= n_patches or n_patches == 0
            for g in groups:
                assert len({mm.root_key for mm in g.members}) == 1

        # determinism: identical plane-set bytes across two runs
        import tempfile
        corner = gen_corner(seed=0)
        scenes = [corner.points] + [
            np.random.default_rng(s).uniform(-2, 2, (2000, 3)) for s in (1, 2)]
        with tempfile.TemporaryDirectory() as tmp:
            for i, pts in enumerate(scenes):
                pa, pb = Path(tmp) / f"a{i}.txt", Path(tmp) / f"b{i}.txt"
                write_planes(extract_plane_groups(pts, CFG).groups, pa)
                write_planes(extract_plane_groups(pts, CFG).groups, pb)
                assert pa.read_bytes() == pb.read_bytes()

    _announce("C6", "structural-invariants", body)


def test_criterion_7_throughput(monkeypatch):
    def body():
        scene = gen_multi_room(target_points=1_000_000, seed=0)
        assert scene.points.shape[0] >= 990_000

        # The merge work is counted, which no load can change: every run
        # makes the same coplanar tests and joins.
        calls = Counter()

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(merging, name, counted)

        spy("coplanar_test", merging.coplanar_test)
        spy("merge_patches", merging.merge_patches)
        runs = []
        for _ in range(3):
            calls.clear()
            runs.append(extract_plane_groups(scene.points, CFG).timings)
            assert calls == {"coplanar_test": 1_999, "merge_patches": 1_366}

        # Both sides of the merge-cost bound come from one run's stage
        # timers, so noise between separate runs cannot decide it; load only
        # adds time, so the run with the smallest merge share is the one
        # closest to the code's own cost.
        t = min(runs, key=lambda timings: timings.merge / timings.total)
        print(f"\n  1e6-point extraction: {t.total:.2f}s, merge {t.merge:.2f}s")
        assert t.total < 5.0
        assert t.total <= 1.15 * (t.total - t.merge)

    _announce("C7", "throughput", body)


def test_criterion_8_cli_round_trip(tmp_path):
    def body():
        cloud = tmp_path / "corner.vxc"
        planes_a = tmp_path / "planes_a.txt"
        planes_b = tmp_path / "planes_b.txt"
        report = tmp_path / "report.json"
        assert cli_main(["synth", "corner", "--seed", "0", "--out", str(cloud)]) == 0
        assert cli_main(["extract", str(cloud), "--out", str(planes_a)]) == 0
        assert cli_main(["extract", str(cloud), "--out", str(planes_b)]) == 0
        assert cli_main(["eval", "--planes", str(planes_a), "--truth", str(cloud),
                         "--report", str(report)]) == 0

        import json
        data = json.loads(report.read_text())
        assert data["precision"] >= 0.95
        assert data["recall"] >= 0.90
        for m in data["matched_planes"]:
            assert m["normal_error_deg"] < 3.0
            assert m["offset_error_m"] < 0.01

        a = planes_a.read_bytes()
        assert a == planes_b.read_bytes()  # byte-stable across runs
        golden = (DATA / "corner_planeset.golden.txt").read_bytes()
        assert a == golden

    _announce("C8", "cli-round-trip", body)

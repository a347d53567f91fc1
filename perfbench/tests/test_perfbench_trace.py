"""Tests of the benchmark's tracer and result arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import tail
from tracing import LayerStats, Span, Tracer, child_time

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [11, 12] is top level.
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 5.0, 9.0, 0),
        Span("d", 6.0, 8.0, 2),
        Span("e", 11.0, 12.0, -1),
    ]
    children, _ = child_time(spans)
    self_s = [s.duration - c for s, c in zip(spans, children)]
    assert children == [7.0, 0.0, 2.0, 0.0, 0.0]
    assert self_s == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert sum(self_s) == 11.0   # the time the top-level spans cover


def test_recursive_spans_count_inclusive_time_once():
    # One recursive name three deep, with a different name inside the middle.
    spans = [
        Span("sub", 0.0, 10.0, -1, (0, "internal")),
        Span("sub", 1.0, 7.0, 0, (1, "internal")),
        Span("test", 1.5, 2.5, 1, (3, False, "flatness_failed", False)),
        Span("sub", 3.0, 6.0, 1, (2, "plane_leaf")),
    ]
    all_children, same_name = child_time(spans)
    assert all_children == [6.0, 4.0, 0.0, 0.0]
    assert same_name == [6.0, 3.0, 0.0, 0.0]

    renamed = [Span("octree.subdivide" if s.name == "sub" else "plane_test.determine_plane",
                    s.start, s.end, s.parent, s.note) for s in spans]
    stats = LayerStats({"octree.subdivide", "plane_test.determine_plane"})
    stats.add_op(renamed)
    m = stats.metrics()
    assert m["octree.depth0.self_s"] == 4.0
    assert m["octree.depth1.self_s"] == 3.0
    assert m["octree.depth2.self_s"] == 3.0
    assert m["octree.subdivide.self_s"] == 4.0 + 2.0 + 3.0
    assert m["octree.depth1.internal"] == 1 and m["octree.depth2.plane_leaf"] == 1
    assert m["plane_test.reject.flatness_failed"] == 1
    assert m["plane_test.accept_ratio"] == 0.0


def test_absent_targets_are_reported_not_raised():
    targets = (
        ("voxplane.octree", "no_such_function", "gone.one", None),
        ("voxplane.no_such_module", "subdivide", "gone.two", None),
        ("voxplane.merging", "coplanar_test", "merging.coplanar_test", None),
    )
    import voxplane.merging
    original = voxplane.merging.coplanar_test
    tracer = Tracer(targets)
    with tracer:
        assert tracer.absent == ["voxplane.octree.no_such_function",
                                 "voxplane.no_such_module.subdivide"]
        installed = tracer.installed
        assert installed == {"merging.coplanar_test"}
        assert voxplane.merging.coplanar_test is not original
    assert voxplane.merging.coplanar_test is original

    metrics = LayerStats(installed).metrics()
    assert "merging.coplanar_test.calls" in metrics
    assert "octree.subdivide.self_s" not in metrics


def test_span_is_recorded_when_the_call_raises():
    def boom():
        raise ValueError("no")

    tracer = Tracer(())
    wrapped = tracer._wrap("boom", boom, None)
    with pytest.raises(ValueError):
        wrapped()
    (span,) = tracer.take()
    assert span.name == "boom" and span.parent == -1 and span.end >= span.start


def test_tail_has_ten_samples_above_it():
    value, percentile, n = tail(list(range(100, 0, -1)))
    assert (value, percentile, n) == (90, 90.0, 100)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3.0, 3)


def test_room_map_counts_match_the_roadmap_baseline():
    import voxplane

    cloud = voxplane.gen_multi_room(target_points=1_000_000, seed=0)
    tracer = Tracer()
    with tracer:
        stats = LayerStats(tracer.installed)
        result = voxplane.extract_plane_groups(cloud.points, voxplane.ExtractionConfig())
        stats.add_op(tracer.take())
    assert tracer.absent == []
    m = stats.metrics()
    assert m["octree.root_voxels"] == 514
    assert m["plane_test.determine_plane.calls"] == 4548
    assert m["geometry.eigen_symmetric3.calls"] == 16318
    assert m["geometry.eigen_symmetric3.plane_test_calls"] == 14952
    assert m["geometry.eigen_symmetric3.merging_calls"] == 1366
    assert m["merging.groups_out"] == len(result.groups) == 689
    assert [m[f"octree.depth{d}.{s}"] for d in range(3)
            for s in ("internal", "plane_leaf", "discarded")] == [
        206, 308, 0, 442, 496, 0, 0, 1251, 1845]


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corner_utm",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip() or not out.stdout.strip().splitlines()[-1].startswith("{")

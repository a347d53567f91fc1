"""The benchmark's per-depth metrics cover exactly the octree's depths."""

import runpy
from pathlib import Path

from voxplane.octree import MAX_DEPTH

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_perfbench_depths_are_the_octree_depths():
    # a depth the tracer does not list would drop its times and counts
    assert runpy.run_path(str(TRACING))["DEPTHS"] == tuple(range(MAX_DEPTH + 1))

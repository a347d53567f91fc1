"""Adaptive voxelization on a wall corner.

Hashes the cloud into 1 m root voxels, subdivides the voxels where two
walls meet, and writes a colored cloud of the extracted planes next to
this script (corner_planes.ply, viewable in any point-cloud viewer).
"""

from collections import Counter
from pathlib import Path

import numpy as np

from voxplane import ExtractionConfig, NodeState, extract_plane_groups, gen_corner
from voxplane.io import write_colored_cloud

cloud = gen_corner(seed=0)
config = ExtractionConfig()
print(f"corner scene: {cloud.points.shape[0]} points, "
      f"{len(cloud.planes)} ground-truth planes")

result = extract_plane_groups(cloud.points, config)
print(f"non-empty root voxels: {len(result.leaves)}")

states = Counter()
depths = Counter()
for voxel in result.leaves.values():
    for leaf in voxel:
        states[leaf.state.value] += 1
        if leaf.state is NodeState.PLANE_LEAF:
            depths[leaf.depth] += 1
print(f"leaf states: {dict(states)}")
print(f"plane-leaf depth histogram: {dict(sorted(depths.items()))}")
print("(depth 1 leaves appear exactly where two walls share a voxel)\n")

print(f"after per-voxel merging: {len(result.groups)} plane groups")
for stage, seconds in result.timings.as_dict().items():
    print(f"  {stage:>9}: {seconds * 1e3:7.2f} ms")

assign = np.full(cloud.points.shape[0], -1, dtype=np.int64)
for gi, g in enumerate(result.groups):
    assign[g.merged.point_indices] = gi
out = Path(__file__).parent / "corner_planes.ply"
write_colored_cloud(cloud.points, assign, out)
print(f"\ncolored plane cloud written to {out}")

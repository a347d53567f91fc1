"""How merging repairs octree over-segmentation.

A single noiseless plane fills one root voxel; a dense protrusion box in
one octant defeats the plane test at the root, so the octree shatters the
plane into several leaves. Greedy per-voxel merging puts them back
together into one group while the protrusion leaves are discarded.
"""

import numpy as np

from voxplane import ExtractionConfig, determine_plane
from voxplane.merging import NORMAL_ANGLE_MAX_DEG, SEPARATION_ANGLE_TOL_DEG
from voxplane.pipeline import extract_plane_groups

print(f"coplanar: normals within {NORMAL_ANGLE_MAX_DEG} deg, and the centroid offset "
      f"within {SEPARATION_ANGLE_TOL_DEG} deg of both planes\n")

rng = np.random.default_rng(11)
n_plane, n_blob = 2000, 500
plane = np.column_stack([rng.uniform(0.02, 0.98, n_plane),
                         rng.uniform(0.10, 0.90, n_plane),
                         np.full(n_plane, 0.3)])
blob = np.column_stack([rng.uniform(0.05, 0.20, n_blob),
                        rng.uniform(0.15, 0.30, n_blob),
                        rng.uniform(0.30, 0.45, n_blob)])
points = np.concatenate([plane, blob])

config = ExtractionConfig()
decision = determine_plane(points, config)
print(f"root-voxel plane test: is_plane={decision.is_plane} "
      f"({decision.reject_reason.value})")

result = extract_plane_groups(points, config)
plain = [leaf.patch for voxel in result.leaves.values() for leaf in voxel
         if leaf.patch is not None]
print(f"\nwithout merging: {len(plain)} separate patches")
for p in plain:
    print(f"  depth {p.depth}, {p.cluster.n} points")

merged = result.groups
print(f"\nwith merging: {len(merged)} group(s)")
for g in merged:
    normal = g.merged.normal
    blob_pts = int((g.merged.point_indices >= n_plane).sum())
    print(f"  {len(g.members)} members, {g.merged.cluster.n} points, "
          f"normal ({normal[0]:.1e}, {normal[1]:.1e}, {normal[2]:.6f}), "
          f"protrusion points absorbed: {blob_pts}")
print(f"\nprotrusion points discarded: "
      f"{points.shape[0] - sum(g.merged.cluster.n for g in merged)} "
      f"(includes the plane scraps sharing leaves with the protrusion)")

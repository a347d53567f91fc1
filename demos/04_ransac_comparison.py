"""Ours vs the voxelized RANSAC baseline on a box resting on the ground.

RANSAC keeps every point within its distance band, so the bottom fringe
of the box sides gets absorbed into the ground plane, exactly the kind of
wrong point association that hurts downstream pose optimization. The
adaptive-voxel pipeline drops the ambiguous region instead.
"""

from voxplane import ExtractionConfig, PlaneGroup, ransac_extract_all
from voxplane.evaluation import evaluate
from voxplane.pipeline import extract_plane_groups
from voxplane.synthetic import gen_slab_with_object

cloud = gen_slab_with_object(seed=0)
config = ExtractionConfig()
print(f"scene: {cloud.points.shape[0]} points; label 0 = ground, 1..5 = box faces\n")


def box_points_claimed_as_ground(groups):
    claimed = 0
    for m in evaluate(groups, cloud).matched_planes:
        if m.truth_plane == 0:
            labels = cloud.labels[groups[m.group].merged.point_indices]
            claimed += int((labels >= 1).sum())
    return claimed


ours = extract_plane_groups(cloud.points, config).groups
rep = evaluate(ours, cloud)
print(f"ours:   {len(ours)} groups, precision {rep.precision:.3f}, "
      f"recall {rep.recall:.3f}")
print(f"        box points inside ground groups: {box_points_claimed_as_ground(ours)}")

patches = ransac_extract_all(cloud.points, config, seed=0)
ransac_groups = [PlaneGroup(members=[p], merged=p) for p in patches]
rep_r = evaluate(ransac_groups, cloud)
print(f"ransac: {len(ransac_groups)} patches, precision {rep_r.precision:.3f}, "
      f"recall {rep_r.recall:.3f}")
print(f"        box points inside ground groups: "
      f"{box_points_claimed_as_ground(ransac_groups)}")
print("\nransac recalls more points but smears the box base into the ground;")
print("ours trades those ambiguous points away for clean associations.")

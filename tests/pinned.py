"""Fixture-pinned values, recorded from the first green run of the
generators and pipeline on the fixed seeds. Count assertions are exact;
rate assertions allow the stated band around the pinned value."""

# gen_plane(normal=+z, d=0, extent 2x2, density 1000/m^2, sigma 0.005)
GEN_PLANE_COUNTS = {0: 4025, 1: 4002, 2: 3954}

# gen_corner(defaults), total and per-plane-label counts
GEN_CORNER_COUNTS = {
    0: {"total": 12236, "per_plane": [4132, 4033, 4071]},
    1: {"total": 11981, "per_plane": [4037, 3996, 3948]},
}

# gen_slab_with_object(seed=0): ground + 4 sides + top
GEN_SLAB_OBJECT_COUNTS = {0: {"total": 5425,
                              "per_plane": [4132, 248, 257, 234, 247, 307]}}

# gen_false_positive_slab(seed=0)
GEN_FP_SLAB = {"total": 528, "outliers": 120}

# corner-scene extraction quality at paper defaults, seed 0
# (criterion: precision >= 0.95, recall >= 0.90; pinned values asserted
# within +/-0.02 thereafter, counts exactly)
CORNER_EVAL = {
    "precision": 1.0,
    "recall": 1.0,
    "groups": 27,
    "matched": 27,
}

# gen_multi_room(target_points=30_000, seed=0) at the default config:
# points, root voxels, and octree leaves by (depth, state)
ROOM_30K_LEAVES = {
    "points": 30205,
    "roots": 514,
    "leaves": {(0, "discarded"): 4, (0, "plane_leaf"): 242, (1, "discarded"): 1021,
               (1, "plane_leaf"): 2, (2, "discarded"): 1267},
}

# sha256 over extract_plane_groups(gen_multi_room(target_points=30_000,
# seed=0).points) at the default config: for each group in output order, its
# merged patch's root key and member indices (int64), then its centroid,
# normal and eigenvalues (float64), as raw bytes
# sha256 over the same extraction: for each group in output order, its
# merged patch's root key and member indices (int64) only. The float half of
# ROOM_30K_GROUPS_SHA256 moves with any change to summation order; this
# half holds only while every decision and merge stays the same
ROOM_30K_MEMBERS_SHA256 = "e19c77badfed6f71d5076b977d7137dba5ba4eece562f3b5d45f213582e798fe"

ROOM_30K_GROUPS_SHA256 = "539ebb73e613677ef46dc3eab0a9d774c5f57b5bd5573061f316c3d38f7befd1"

# The same digest over extract_plane_groups(gen_corner(seed=0).points +
# (5e5, 4e6, 100)) at the default config: the corner scene at UTM-like
# coordinates, 27 groups with the same members as at the origin
CORNER_UTM_GROUPS_SHA256 = "4daa1ca67ce2d1251db84b22cbdf7c888e039a63fd7ae188fcf74ef6d4855fe6"

# sha256 of the report JSON of `voxplane compare corner --seed 0` (both
# methods, default config) with each method's "wall_time_s" removed,
# re-serialized as json.dumps(report, indent=2); pins every score the
# evaluator prints for ours and for the RANSAC baseline
CORNER_COMPARE_SHA256 = "85565918529c4ebc7cd593dc25ce3810ca1b1af6211628e718a4b6e35ceb20c7"

# sha256 of the plane set and of the colored ply that `voxplane extract
# --no-merge --out ... --colored ...` writes for `voxplane synth corner
# --seed 0`: one singleton group per plane leaf, in leaf order
CORNER_NO_MERGE_PLANESET_SHA256 = "ce6796c99f661c6363c05e5041a21cf628acf81fcb6b223d1f08b033fcc85d83"
CORNER_NO_MERGE_COLORED_SHA256 = "e7812c4206061a9647439b94b14a883621e13c0a2670dde2671d70d12ba927cb"

# sha256 over ransac_extract_all(...) at seed 0 and the default config, on
# gen_corner(seed=0) and then gen_slab_with_object(seed=0): for each patch
# in output order, its root key and point indices (int64), then its
# centroid, normal and eigenvalues (float64), as raw bytes
RANSAC_PATCHES_SHA256 = "19d2e507523ddbbf86c1e423461a5cabcfb70248bdfa8cf8fd8c41e1c3790f94"

# sha256 over tests/test_synthetic.py::_pinned_scenes() (corner, slab-object,
# multi-room, false-positive-slab and single-plane calls at fixed seeds and
# settings): each cloud's points and labels, then every TruthPlane field
GEN_SCENES_SHA256 = "6ffe11f442a3ea5a536bd144514e0641598f02ca1e6c7b1041f774914751e5c7"

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

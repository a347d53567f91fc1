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
ROOM_30K_GROUPS_SHA256 = "6d015e4a7eccf159d523ca9d25abf12235606396dbdf72114a2071fe64a4993c"

# The same digest over extract_plane_groups(gen_corner(seed=0).points +
# (5e5, 4e6, 100)) at the default config: the corner scene at UTM-like
# coordinates, where moment cancellation makes plane decisions sensitive to
# the last bit of every kernel
CORNER_UTM_GROUPS_SHA256 = "65102e801fe875153e6c91a2a0ab69a12f39269ba75b9bbe8b2ea0d705da7596"

# sha256 of the report JSON of `voxplane compare corner --seed 0` (both
# methods, default config) with each method's "wall_time_s" removed,
# re-serialized as json.dumps(report, indent=2); pins every score the
# evaluator prints for ours and for the RANSAC baseline
CORNER_COMPARE_SHA256 = "143d438d98b0185d0c8828725c9462661a020fa628d7f55026d7e853141de57f"

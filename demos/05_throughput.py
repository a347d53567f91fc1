"""Throughput on a million-point multi-room scene, single-threaded.

Generates a 3x3 grid of rooms (about a million points over floors,
ceiling, and shared walls) and reports the per-stage timing of the
extraction pipeline, with and without merging.
"""

import time
from dataclasses import replace

from voxplane import ExtractionConfig, gen_multi_room
from voxplane.pipeline import extract_plane_groups

t0 = time.perf_counter()
scene = gen_multi_room(rooms=(3, 3), room_size=4.0, target_points=1_000_000, seed=0)
print(f"generated {scene.points.shape[0]:,} points over {len(scene.planes)} "
      f"surfaces in {time.perf_counter() - t0:.2f}s\n")

config = ExtractionConfig()
result = extract_plane_groups(scene.points, config)
print(f"with merging: {len(result.groups)} plane groups")
for stage, seconds in result.timings.as_dict().items():
    print(f"  {stage:>9}: {seconds:6.3f} s")

plain = extract_plane_groups(scene.points, replace(config, merging_enabled=False))
print(f"\nwithout merging: {len(plain.groups)} patches, "
      f"total {plain.timings.total:.3f} s")
print(f"merging condensed {len(plain.groups)} patches into "
      f"{len(result.groups)} groups in a {result.timings.merge:.3f} s merge stage")

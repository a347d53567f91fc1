"""Labeled synthetic scenes with exact ground truth.

Real plane ground truth for LiDAR maps is hard to come by, so the
evaluation harness runs on generated scenes instead: noisy rectangles,
a three-wall corner, a slab with a fixed compact protrusion that the
flatness gate passes and the quarter test rejects, a ground plane with a
box resting on it, and a multi-room layout for throughput runs.

All generation is seeded and deterministic: the random stream is numpy's
PCG64 (via numpy.random.default_rng), with per-plane child streams spawned
through SeedSequence, so recorded fixture counts are reproducible across
platforms. Perpendicular Gaussian noise is clipped at six standard
deviations so every labeled point stays inside its plane's stated noise
band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError

OUTLIER_LABEL = -1


@dataclass(frozen=True)
class TruthPlane:
    """Ground-truth rectangle: the plane {p : normal . p = offset}
    restricted to center + [-half_u, half_u] axis_u + [-half_v, half_v]
    axis_v, with generation noise sigma recorded for band checks."""

    normal: np.ndarray   # (3,), unit
    offset: float        # meters
    center: np.ndarray   # (3,), on the plane
    axis_u: np.ndarray   # (3,), unit, in-plane
    axis_v: np.ndarray   # (3,), unit, in-plane
    half_u: float
    half_v: float
    noise_sigma: float


@dataclass(frozen=True)
class GroundTruthCloud:
    """Points with per-point plane ids (-1 marks outlier / non-planar
    structure) and the generating planes."""

    points: np.ndarray   # (N, 3)
    labels: np.ndarray   # (N,), int32
    planes: tuple[TruthPlane, ...]


def plane_basis(normal) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane axes for a unit normal."""
    n = np.asarray(normal, dtype=np.float64)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    u = ref - np.dot(ref, n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v


def _seed_sequence(seed) -> np.random.SeedSequence:
    """The random stream's root. The seed is a non-negative integer (not a
    bool), a sequence of them, or a SeedSequence (the child streams the
    scene generators hand to gen_plane). A SeedSequence is copied, so
    spawning from it never advances the caller's object."""
    if isinstance(seed, bool):
        raise InputValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise InputValidationError(
            f"seed must be a non-negative integer or a sequence of them, got {seed!r}") from exc


def _rectangle_points(plane: TruthPlane, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the rectangle's (count, 3) rows ``out`` from its stream: uniform
    a, uniform b, clipped normal e, and each point ((center + a u) + b v) +
    e n, summed one column at a time so no (count, 3) temporary is made."""
    count = out.shape[0]
    a = rng.uniform(-plane.half_u, plane.half_u, count)
    b = rng.uniform(-plane.half_v, plane.half_v, count)
    if plane.noise_sigma > 0.0:
        e = rng.normal(0.0, plane.noise_sigma, count)
        np.clip(e, -6.0 * plane.noise_sigma, 6.0 * plane.noise_sigma, out=e)
    else:
        e = np.zeros(count)
    for j, column in enumerate(out.T):
        np.multiply(a, plane.axis_u[j], out=column)
        column += plane.center[j]
        column += b * plane.axis_v[j]
        column += e * plane.normal[j]


def _drawn_rectangle(normal, offset: float, extent, density: float, noise_sigma: float,
                     seed, center=None) -> tuple[TruthPlane, np.random.Generator, int]:
    """gen_plane's checks, then the rectangle, its stream after the Poisson
    count draw, and that count."""
    n = np.asarray(normal, dtype=np.float64)
    if not (n.shape == (3,) and abs(float(np.linalg.norm(n)) - 1.0) <= 1e-9):
        raise InputValidationError("normal must be a finite unit 3-vector")
    if not np.isfinite(offset):
        raise InputValidationError(f"offset must be finite, got {offset}")
    if not (np.isfinite(density) and density >= 0):
        raise InputValidationError(f"density must be finite and non-negative, got {density}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InputValidationError(
            f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    size = np.asarray(extent, dtype=np.float64)
    if not (size.shape == (2,) and np.isfinite(size).all() and size.min() >= 0):
        raise InputValidationError(
            f"extent must be two finite non-negative lengths, got {extent}")
    w, h = size.tolist()
    center = np.asarray(offset * n if center is None else center, dtype=np.float64)
    if not (center.shape == (3,) and np.isfinite(center).all()):
        raise InputValidationError("center must be a finite 3-vector")
    # n . c may drift by 2e-9 |c|: the normal's length is checked to 1e-9
    if abs(float(np.dot(n, center)) - offset) > 4e-9 * max(1.0, float(np.linalg.norm(center))):
        raise InputValidationError(f"center must lie on the plane normal . p = {offset}")
    u, v = plane_basis(n)
    plane = TruthPlane(normal=n, offset=float(offset), center=center,
                       axis_u=u, axis_v=v, half_u=w / 2.0, half_v=h / 2.0,
                       noise_sigma=float(noise_sigma))
    rng = np.random.default_rng(_seed_sequence(seed))
    try:
        count = int(rng.poisson(density * w * h))
    except ValueError as exc:
        raise InputValidationError(
            f"expected point count {density * w * h:g} is too large to draw") from exc
    return plane, rng, count


def _cloud(drawn) -> GroundTruthCloud:
    """One cloud of the rectangles ``_drawn_rectangle`` returned, rectangle
    k with label k. The (N, 3) points and (N,) int32 labels are allocated
    once and each rectangle fills its own slice, so no part is copied."""
    counts = [count for _, _, count in drawn]
    points = np.empty((sum(counts), 3))
    stop = 0
    for plane, rng, count in drawn:
        start, stop = stop, stop + count
        _rectangle_points(plane, rng, points[start:stop])
    return GroundTruthCloud(points=points,
                            labels=np.repeat(np.arange(len(drawn), dtype=np.int32), counts),
                            planes=tuple(plane for plane, _, _ in drawn))


def gen_plane(normal, offset: float, extent: tuple[float, float],
              density: float, noise_sigma: float, seed,
              center=None) -> GroundTruthCloud:
    """One noisy rectangle: uniform in-plane sampling at the given density
    (points per square meter, Poisson count), Gaussian perpendicular noise.

    ``center`` places the rectangle on the plane; it defaults to the point
    of the plane closest to the origin. The normal must be a finite unit
    3-vector, offset and the 3-vector center finite, the center on the
    plane (normal . center = offset up to rounding), the extent two finite
    non-negative lengths, and the expected count within numpy's Poisson
    range. Deterministic per seed.
    """
    return _cloud([_drawn_rectangle(normal, offset, extent, density, noise_sigma, seed,
                                    center)])


def _scene(rects, noise_sigma: float, seed) -> GroundTruthCloud:
    """Rectangles listed as (normal, extent, center, density), each on the
    plane through its center (offset normal . center) and drawn from its
    own child stream; rectangle k carries label k. Every rectangle is
    checked and its count drawn before any point is made."""
    seeds = _seed_sequence(seed).spawn(len(rects))
    return _cloud([_drawn_rectangle(n, float(np.dot(n, c)), extent, density, noise_sigma, s, c)
                   for (n, extent, c, density), s in zip(rects, seeds)])


def _unit(axis: int, sign: float = 1.0) -> np.ndarray:
    return np.where(np.arange(3) == axis, float(sign), 0.0)


def gen_corner(noise_sigma: float = 0.005, seed=0) -> GroundTruthCloud:
    """Three mutually orthogonal 2 x 2 m planes around the corner point
    (-0.75, -0.75, -0.75), sampled at 1000 points per square meter.

    Each plane starts 0.25 m away from the other two planes, so no point is
    ambiguous between planes. This placement aligns plane edges with the
    0.25 m octant boundaries of the default 1 m root voxels at depth 2
    (``octree.MAX_DEPTH``): voxels containing two walls then resolve into
    clean leaves after one subdivision instead of leaving slivers thinner
    than the deepest octant. Labels are 0, 1, 2 for the planes
    perpendicular to x, y, z respectively.
    """
    size, density, corner, margin = 2.0, 1000.0, np.full(3, -0.75), 0.25
    return _scene([(_unit(axis), (size, size),
                    np.where(np.arange(3) == axis, corner, corner + margin + size / 2.0),
                    density)
                   for axis in range(3)], noise_sigma, seed)


def gen_false_positive_slab(seed=0, noise_sigma: float = 0.005) -> GroundTruthCloud:
    """A noisy 1 x 1 m plane at 400 points per square meter plus a fixed
    protrusion of 120 points, uniform in [0.15, 0.35]^2 x [0, 0.15] m from
    one child stream (x, then y, then z) and labelled -1. The flatness gate
    passes the scene and the quarter test rejects it at noise of 0.5 to
    15 mm; at other noise it is made all the same.
    """
    base = gen_plane(np.array([0.0, 0.0, 1.0]), 0.0, (1.0, 1.0), 400.0, noise_sigma, seed)
    blob_rng = np.random.default_rng(_seed_sequence(seed).spawn(1)[0])
    count = 120
    blob = np.column_stack([blob_rng.uniform(0.15, 0.35, count),
                            blob_rng.uniform(0.15, 0.35, count),
                            blob_rng.uniform(0.0, 0.15, count)])
    return GroundTruthCloud(
        points=np.concatenate([base.points, blob]),
        labels=np.concatenate([base.labels, np.full(count, OUTLIER_LABEL, dtype=np.int32)]),
        planes=base.planes)


def gen_slab_with_object(seed=0, noise_sigma: float = 0.005) -> GroundTruthCloud:
    """A 2 x 2 m ground plane at 1000 points per square meter with a box
    resting on it, whose faces hold 2000 points per square meter.

    The box bottom sits 0.01 m above the ground plane (well inside a
    0.03 m inlier band), so the lowest side-face points are within reach
    of a distance-threshold plane fit on the ground. Label 0 is the
    ground; 1..5 are the four box sides and the top.
    """
    ground_z = 0.1
    box_center = np.array([0.5, 0.5])
    box_half = 0.2
    box_bottom = ground_z + 0.01
    box_height = 0.3
    box_top = box_bottom + box_height
    face_density = 2000.0

    rects = [(_unit(2), (2.0, 2.0), np.array([0.0, 0.0, ground_z]), 1000.0)]
    z_mid = (box_bottom + box_top) / 2.0
    # Four vertical side faces, then the top.
    for axis, sign in ((0, -1), (0, 1), (1, -1), (1, 1)):
        center = np.array([*box_center, z_mid])
        center[axis] += sign * box_half
        rects.append((_unit(axis, sign), (2 * box_half, box_height), center,
                      face_density))
    rects.append((_unit(2), (2 * box_half, 2 * box_half),
                  np.array([*box_center, box_top]), face_density))
    return _scene(rects, noise_sigma, seed)


def gen_multi_room(target_points: int = 1_000_000, seed=0) -> GroundTruthCloud:
    """Grid of 3 x 3 rooms of 4 m sharing 3 m high walls: one floor, one
    ceiling, and full-length walls along every grid line (10 planes), sized
    so the expected total point count matches ``target_points``, with 5 mm
    noise. Surfaces sit at x/y/z = 0.25 offsets so plane noise bands stay
    inside single voxel layers at the default 1 m root size."""
    rooms, room_size, wall_height, o = 3, 4.0, 3.0, 0.25
    width = rooms * room_size
    z_mid = o + wall_height / 2.0
    # (normal, extent, center): floor, ceiling, then the walls along x and y
    specs = [(_unit(2), (width, width), np.array([o + width / 2.0, o + width / 2.0, z]))
             for z in (o, o + wall_height)]
    specs += [(_unit(0), (width, wall_height),
               np.array([o + i * room_size, o + width / 2.0, z_mid])) for i in range(rooms + 1)]
    specs += [(_unit(1), (width, wall_height),
               np.array([o + width / 2.0, o + j * room_size, z_mid])) for j in range(rooms + 1)]
    density = target_points / sum(w * h for _, (w, h), _ in specs)
    return _scene([spec + (density,) for spec in specs], 0.005, seed)

"""Labeled synthetic scenes with exact ground truth.

Real plane ground truth for LiDAR maps is hard to come by, so the
evaluation harness runs on generated scenes instead: noisy rectangles,
a three-wall corner, a slab with a compact protrusion sized to fool the
flatness-only test, a ground plane with a box resting on it, and a
multi-room layout for throughput runs.

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

from .errors import GenerationError, InputValidationError
from .geometry import _accumulate_checked, covariance, eigen_symmetric3
from .plane_test import PlaneTestParams, RejectReason, determine_plane, flatness_test

__all__ = [
    "TruthPlane",
    "GroundTruthCloud",
    "plane_basis",
    "gen_plane",
    "gen_corner",
    "gen_false_positive_slab",
    "gen_slab_with_object",
    "gen_multi_room",
]

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


def _rectangle_points(plane: TruthPlane, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(-plane.half_u, plane.half_u, count)
    b = rng.uniform(-plane.half_v, plane.half_v, count)
    if plane.noise_sigma > 0.0:
        e = rng.normal(0.0, plane.noise_sigma, count)
        np.clip(e, -6.0 * plane.noise_sigma, 6.0 * plane.noise_sigma, out=e)
    else:
        e = np.zeros(count)
    return (plane.center
            + a[:, None] * plane.axis_u
            + b[:, None] * plane.axis_v
            + e[:, None] * plane.normal)


def gen_plane(normal, offset: float, extent: tuple[float, float],
              density: float, noise_sigma: float, seed,
              center=None) -> GroundTruthCloud:
    """One noisy rectangle: uniform in-plane sampling at the given density
    (points per square meter, Poisson count), Gaussian perpendicular noise.

    ``center`` places the rectangle on the plane; it defaults to the point
    of the plane closest to the origin. Deterministic per seed.
    """
    n = np.asarray(normal, dtype=np.float64)
    if abs(float(np.linalg.norm(n)) - 1.0) > 1e-9:
        raise InputValidationError("normal must be unit length")
    if not (np.isfinite(density) and density >= 0):
        raise InputValidationError(f"density must be finite and non-negative, got {density}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InputValidationError(
            f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    w, h = float(extent[0]), float(extent[1])
    if center is None:
        center = offset * n
    center = np.asarray(center, dtype=np.float64)
    u, v = plane_basis(n)
    plane = TruthPlane(normal=n, offset=float(offset), center=center,
                       axis_u=u, axis_v=v, half_u=w / 2.0, half_v=h / 2.0,
                       noise_sigma=float(noise_sigma))
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(density * w * h))
    pts = _rectangle_points(plane, count, rng)
    return GroundTruthCloud(points=pts,
                            labels=np.zeros(count, dtype=np.int32),
                            planes=(plane,))


def _combine(parts: list[GroundTruthCloud],
             outliers: np.ndarray | None = None) -> GroundTruthCloud:
    """Concatenate clouds, renumbering plane labels sequentially; outlier
    points keep label -1 and belong to no plane."""
    points = []
    labels = []
    planes: list[TruthPlane] = []
    for part in parts:
        shifted = part.labels.copy()
        shifted[shifted >= 0] += len(planes)
        points.append(part.points)
        labels.append(shifted)
        planes.extend(part.planes)
    if outliers is not None and outliers.shape[0]:
        points.append(outliers)
        labels.append(np.full(outliers.shape[0], OUTLIER_LABEL, dtype=np.int32))
    return GroundTruthCloud(points=np.concatenate(points) if points else np.zeros((0, 3)),
                            labels=np.concatenate(labels) if labels else np.zeros(0, np.int32),
                            planes=tuple(planes))


def gen_corner(size: float = 2.0, density: float = 1000.0,
               noise_sigma: float = 0.005, seed=0,
               corner=(-0.75, -0.75, -0.75), edge_margin: float = 0.25) -> GroundTruthCloud:
    """Three mutually orthogonal planes around a corner point.

    Each plane keeps the full ``size`` x ``size`` extent but starts
    ``edge_margin`` away from the other two planes, so no point is ambiguous
    between planes. The default placement aligns plane edges with octant
    boundaries of the default 1 m / 0.25 m voxel lattice: voxels containing
    two walls then resolve into clean leaves after one subdivision instead
    of leaving sub-minimum slivers. Labels are 0, 1, 2 for the planes
    perpendicular to x, y, z respectively.
    """
    c = np.asarray(corner, dtype=np.float64)
    seeds = np.random.SeedSequence(seed).spawn(3)
    parts = []
    for axis in range(3):
        normal = np.zeros(3)
        normal[axis] = 1.0
        lo = c + edge_margin
        center = np.where(np.arange(3) == axis, c, lo + size / 2.0)
        parts.append(gen_plane(normal, float(c[axis]), (size, size), density,
                               noise_sigma, seeds[axis], center=center))
    return _combine(parts)


def gen_false_positive_slab(seed=0, plane_density: float = 400.0,
                            noise_sigma: float = 0.005,
                            params: PlaneTestParams | None = None) -> GroundTruthCloud:
    """A noisy 1x1 m plane plus a compact protrusion in one quadrant, sized
    so the flatness gate still passes while the quarter-thickness test
    rejects.

    The protrusion height and population are swept at generation time and
    the first admissible configuration wins; if the sweep is exhausted the
    premise of the regression scenario is broken and generation fails
    loudly. Protrusion points carry label -1.
    """
    if params is None:
        params = PlaneTestParams()
    base = gen_plane(np.array([0.0, 0.0, 1.0]), 0.0, (1.0, 1.0),
                     plane_density, noise_sigma, seed)
    blob_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    footprint = np.array([[0.15, 0.35], [0.15, 0.35]])  # one (+,+) quadrant corner

    for height in (0.15, 0.12, 0.10, 0.08, 0.18, 0.20, 0.06, 0.25):
        for count in (120, 80, 160, 60, 200, 40):
            blob = np.column_stack([
                blob_rng.uniform(footprint[0, 0], footprint[0, 1], count),
                blob_rng.uniform(footprint[1, 0], footprint[1, 1], count),
                blob_rng.uniform(0.0, height, count),
            ])
            cloud = _combine([base], outliers=blob)
            cov, _ = covariance(_accumulate_checked(cloud.points))
            eig = eigen_symmetric3(cov)
            if not flatness_test(eig, params.flatness_ratio_max):
                continue
            decision = determine_plane(cloud.points, params)
            if (not decision.is_plane
                    and decision.reject_reason is RejectReason.QUARTER_RATIO_FAILED):
                return cloud
    raise GenerationError(
        "no protrusion configuration passes the flatness gate while failing "
        "the quarter test; the regression scenario premise does not hold")


def gen_slab_with_object(seed=0, ground_size: float = 2.0,
                         ground_density: float = 1000.0,
                         face_density: float = 2000.0,
                         noise_sigma: float = 0.005) -> GroundTruthCloud:
    """Ground plane with a box resting on it.

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

    seeds = np.random.SeedSequence(seed).spawn(6)
    parts = [gen_plane(np.array([0.0, 0.0, 1.0]), ground_z,
                       (ground_size, ground_size), ground_density,
                       noise_sigma, seeds[0],
                       center=np.array([0.0, 0.0, ground_z]))]

    z_mid = (box_bottom + box_top) / 2.0
    # Four vertical side faces.
    for i, (axis, sign) in enumerate(((0, -1), (0, 1), (1, -1), (1, 1))):
        normal = np.zeros(3)
        normal[axis] = float(sign)
        coord = box_center[axis] + sign * box_half
        center = np.array([0.0, 0.0, z_mid])
        center[axis] = coord
        center[1 - axis] = box_center[1 - axis]
        parts.append(gen_plane(normal, float(sign * coord),
                               (2 * box_half, box_height), face_density,
                               noise_sigma, seeds[1 + i], center=center))
    # Top face.
    parts.append(gen_plane(np.array([0.0, 0.0, 1.0]), box_top,
                           (2 * box_half, 2 * box_half), face_density,
                           noise_sigma, seeds[5],
                           center=np.array([box_center[0], box_center[1], box_top])))
    return _combine(parts)


def gen_multi_room(rooms: tuple[int, int] = (3, 3), room_size: float = 4.0,
                   wall_height: float = 3.0, target_points: int = 1_000_000,
                   noise_sigma: float = 0.005, seed=0) -> GroundTruthCloud:
    """Grid of rooms sharing walls: one floor, one ceiling, and full-length
    walls along every grid line, sized so the expected total point count
    matches ``target_points``. Surfaces sit at x/y/z = 0.25 offsets so
    plane noise bands stay inside single voxel layers at the default 1 m
    root size."""
    nx, ny = rooms
    ox = oy = oz = 0.25
    width, depth = nx * room_size, ny * room_size

    specs: list[tuple[np.ndarray, float, tuple[float, float], np.ndarray]] = []
    floor_center = np.array([ox + width / 2.0, oy + depth / 2.0, oz])
    specs.append((np.array([0.0, 0.0, 1.0]), oz, (width, depth), floor_center))
    ceil_center = np.array([ox + width / 2.0, oy + depth / 2.0, oz + wall_height])
    specs.append((np.array([0.0, 0.0, 1.0]), oz + wall_height, (width, depth), ceil_center))
    z_mid = oz + wall_height / 2.0
    for i in range(nx + 1):
        x = ox + i * room_size
        specs.append((np.array([1.0, 0.0, 0.0]), x, (depth, wall_height),
                      np.array([x, oy + depth / 2.0, z_mid])))
    for j in range(ny + 1):
        y = oy + j * room_size
        specs.append((np.array([0.0, 1.0, 0.0]), y, (width, wall_height),
                      np.array([ox + width / 2.0, y, z_mid])))

    total_area = sum(w * h for _, _, (w, h), _ in specs)
    density = target_points / total_area
    seeds = np.random.SeedSequence(seed).spawn(len(specs))
    parts = [gen_plane(n, d, extent, density, noise_sigma, s, center=c)
             for (n, d, extent, c), s in zip(specs, seeds)]
    return _combine(parts)

"""Pipeline configuration with shipped defaults, plus JSON file loading.

The settings are what depends on the input: its scale (the voxel sizes)
and its density (``min_points``); the plane-test and merge gates are
dimensionless constants in ``plane_test`` and ``merging``. A config file
is one flat JSON object that overrides defaults field by field; unknown
keys are rejected rather than silently ignored. ``ExtractionConfig``
itself holds every value rule, so the constructor refuses what a file
refuses: every settable value is a number, and a boolean is never one.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .plane_test import MIN_POINTS, check_min_points

__all__ = ["ExtractionConfig", "load_config"]


@dataclass(frozen=True)
class ExtractionConfig:
    """All tunables of the extraction pipeline, each checked here
    (ConfigError naming the field otherwise).

    root_size: edge length of root voxels (meters).
    min_voxel_size: octants at or below this edge length are never split
        further; one that fails the plane test is discarded. Both sizes
        are finite real numbers, not bools, and root_size / min_voxel_size
        is at most 2^52: past 52 octree levels, child centres no longer
        differ in float64.
    min_points: nodes with fewer points are discarded without a plane
        test, and a RANSAC plane needs this many inliers. An integer of
        at least 4.
    """

    root_size: float = 1.0
    min_voxel_size: float = 0.25
    min_points: int = MIN_POINTS

    def __post_init__(self):
        for name in ("root_size", "min_voxel_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        # compared, not converted: an int past the float range has no float
        if not 0 < self.min_voxel_size < self.root_size <= sys.float_info.max:
            raise ConfigError("require finite root_size > min_voxel_size > 0")
        if self.root_size / self.min_voxel_size > 2.0 ** 52:
            raise ConfigError("root_size / min_voxel_size must be at most 2^52 "
                              "(52 octree levels)")
        check_min_points(self.min_points)


def config_from_dict(data) -> ExtractionConfig:
    """Build a config from a config-file object: a JSON object whose keys
    are ExtractionConfig's fields; the values are checked by
    ExtractionConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - {f.name for f in fields(ExtractionConfig)}
    if unknown:
        raise ConfigError(f"unknown keys in config root: {sorted(unknown)}")
    return ExtractionConfig(**data)


def load_config(path) -> ExtractionConfig:
    """Read a JSON config file; missing fields keep shipped defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)

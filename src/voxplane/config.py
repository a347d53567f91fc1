"""Pipeline configuration with shipped defaults, plus JSON file loading.

The settings are what depends on the input: its scale (``root_size``)
and its density (``min_points``); the octree depth and the plane-test
and merge gates are dimensionless constants in ``octree``, ``plane_test``
and ``merging``. A config file is one flat JSON object that overrides
defaults field by field. ``ExtractionConfig`` itself holds every rule,
so the constructor refuses what a file refuses: an unknown key, and a
value that is not a number (a boolean is never one). Of the package it
imports only ``errors``, so any module may import it.
"""

from __future__ import annotations

import json
import numbers
import operator
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

__all__ = ["ExtractionConfig", "load_config"]


@dataclass(frozen=True)
class ExtractionConfig:
    """All tunables of the extraction pipeline, each checked here
    (ConfigError naming the field otherwise).

    root_size: edge length of root voxels (meters), a finite positive
        real number, not a bool; octants split down to root_size / 4.
    min_points: the smallest plane. A set with fewer points is never a
        plane, an octree node with fewer is discarded without a plane
        test, and a RANSAC plane needs this many inliers. An integer of
        at least 4.
    """

    root_size: float = 1.0
    min_points: int = 20

    def __new__(cls, *args, **values):
        # the generated __init__ would raise a TypeError for an unknown key
        if unknown := set(values) - {f.name for f in fields(cls)}:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return super().__new__(cls)

    def __post_init__(self):
        if isinstance(self.root_size, bool) or not isinstance(self.root_size, numbers.Real):
            raise ConfigError(f"root_size must be a real number, got {self.root_size!r}")
        # compared, not converted: an int past the float range has no float
        if not 0 < self.root_size <= sys.float_info.max:
            raise ConfigError("root_size must be finite and positive")
        try:
            min_points = operator.index(self.min_points)
        except TypeError as exc:
            raise ConfigError(f"min_points must be an integer, got {self.min_points!r}") from exc
        if min_points < 4:
            raise ConfigError("min_points must be at least 4")


def config_from_dict(data) -> ExtractionConfig:
    """Build a config from a config-file object: a JSON object whose keys
    and values ExtractionConfig checks."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
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

"""Pipeline configuration with shipped defaults, plus JSON file loading.

A config file overrides defaults field by field; anything not mentioned
keeps its default. Unknown keys are rejected rather than silently ignored.
Every settable value is a number; a JSON boolean is never taken as one.
"""

from __future__ import annotations

import json
import sys
from dataclasses import Field, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError
from .merging import MergeParams
from .plane_test import PlaneTestParams

__all__ = ["ExtractionConfig", "load_config", "config_to_dict"]


@dataclass(frozen=True)
class ExtractionConfig:
    """All tunables of the extraction pipeline.

    root_size: edge length of root voxels (meters).
    min_voxel_size: octants at or below this edge length are never split
        further; one that fails the plane test is discarded. Both sizes
        are finite, and root_size / min_voxel_size is at most 2^52: past
        52 octree levels, child centres no longer differ in float64.

    Nodes with fewer than ``plane_params.min_points`` points are discarded
    without a plane test.
    """

    root_size: float = 1.0
    min_voxel_size: float = 0.25
    plane_params: PlaneTestParams = field(default_factory=PlaneTestParams)
    merge_params: MergeParams = field(default_factory=MergeParams)

    def __post_init__(self):
        # compared, not converted: an int past the float range has no float
        if not 0 < self.min_voxel_size < self.root_size <= sys.float_info.max:
            raise ConfigError("require finite root_size > min_voxel_size > 0")
        if self.root_size / self.min_voxel_size > 2.0 ** 52:
            raise ConfigError("root_size / min_voxel_size must be at most 2^52 "
                              "(52 octree levels)")


# JSON value types each plain field type takes (field types are strings,
# as the config modules postpone annotations), and their name in errors.
# A JSON boolean is never taken as a number.
_JSON_TYPES = {"int": (int, "integer"), "float": ((int, float), "number")}


def _sections(cls) -> dict[str, Field]:
    """Nested parameter blocks of a config dataclass, keyed by their
    config-file section name (the field name without ``_params``)."""
    return {f.name.removesuffix("_params"): f for f in fields(cls)
            if is_dataclass(f.default_factory)}


def _from_dict(cls, data, where: str):
    """Build ``cls`` from a config-file object. The allowed keys are the
    dataclass's own fields, with nested blocks under their section names."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    sections = _sections(cls)
    plain = {f.name for f in fields(cls)} - {f.name for f in sections.values()}
    unknown = set(data) - plain - set(sections)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = {k: v for k, v in data.items() if k in plain}
    for f in fields(cls):
        if f.name in kwargs:
            value = kwargs[f.name]
            accepted, noun = _JSON_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"'{f.name}' in {where} must be a JSON {noun}, "
                                  f"got {value!r}")
    for name, f in sections.items():
        if name in data:
            kwargs[f.name] = _from_dict(f.default_factory, data[name],
                                        f"'{name}' section")
    return cls(**kwargs)


def config_from_dict(data) -> ExtractionConfig:
    return _from_dict(ExtractionConfig, data, "config root")


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


def config_to_dict(config: ExtractionConfig) -> dict:
    """Plain-dict form of a config, matching the config-file schema."""
    out = asdict(config)
    for name, f in _sections(ExtractionConfig).items():
        out[name] = out.pop(f.name)
    return out

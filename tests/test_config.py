import json

import pytest

from voxplane import ConfigError, ExtractionConfig, MergeParams, PlaneTestParams
from voxplane.config import config_from_dict, config_to_dict, load_config
from voxplane.ransac import RansacParams


def test_defaults_carry_shipped_values():
    cfg = ExtractionConfig()
    assert cfg.root_size == 1.0
    assert cfg.min_voxel_size == 0.25
    assert cfg.min_points == 20
    assert cfg.plane_params.flatness_ratio_max == 0.0625
    assert cfg.plane_params.quarter_ratio_bound == 3.0
    assert cfg.plane_params.sigma_shift_multiple == 5.0
    assert cfg.merge_params.normal_angle_max_deg == 8.0
    assert cfg.merge_params.separation_angle_tol_deg == 10.0
    assert cfg.merging_enabled
    assert RansacParams().dist_threshold == 0.03


def test_invariant_violations_raise():
    with pytest.raises(ConfigError):
        ExtractionConfig(root_size=0.2, min_voxel_size=0.25)
    with pytest.raises(ConfigError):
        ExtractionConfig(min_voxel_size=0.0)
    with pytest.raises(ConfigError):
        PlaneTestParams(flatness_ratio_max=0.0)
    with pytest.raises(ConfigError):
        PlaneTestParams(quarter_ratio_bound=1.0)
    with pytest.raises(ConfigError):
        PlaneTestParams(min_points=3)
    with pytest.raises(ConfigError):
        MergeParams(normal_angle_max_deg=90.0)
    with pytest.raises(ConfigError):
        MergeParams(separation_angle_tol_deg=0.0)
    with pytest.raises(ConfigError):
        RansacParams(dist_threshold=0.0)
    with pytest.raises(ConfigError):
        RansacParams(success_probability=1.0)


def test_field_by_field_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"root_size": 2.0,
                                "plane": {"quarter_ratio_bound": 4.0}}))
    cfg = load_config(path)
    assert cfg.root_size == 2.0
    assert cfg.min_voxel_size == 0.25           # untouched default
    assert cfg.plane_params.quarter_ratio_bound == 4.0
    assert cfg.plane_params.flatness_ratio_max == 0.0625


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"voxel_size": 1.0})
    with pytest.raises(ConfigError):
        config_from_dict({"plane": {"tau": 0.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"merge": {"angle": 5}})
    with pytest.raises(ConfigError):
        config_from_dict({"plane": 5})
    with pytest.raises(ConfigError):
        config_from_dict({"merge": None})


def test_dict_round_trip():
    cfg = ExtractionConfig(root_size=2.0, min_voxel_size=0.5, min_points=30)
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")

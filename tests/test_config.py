import json
from pathlib import Path

import numpy as np
import pytest

from voxplane import ConfigError, ExtractionConfig, MergeParams, PlaneTestParams
from voxplane.cli import EXIT_CONFIG, cli_main
from voxplane.config import config_from_dict, config_to_dict, load_config
from voxplane.io import write_cloud
from voxplane.ransac import DIST_THRESHOLD

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_carry_shipped_values():
    cfg = ExtractionConfig()
    assert cfg.root_size == 1.0
    assert cfg.min_voxel_size == 0.25
    assert cfg.plane_params.min_points == 20
    assert cfg.plane_params.flatness_ratio_max == 0.0625
    assert cfg.plane_params.quarter_ratio_bound == 3.0
    assert cfg.merge_params.normal_angle_max_deg == 8.0
    assert cfg.merge_params.separation_angle_tol_deg == 10.0
    assert DIST_THRESHOLD == 0.03


def test_invariant_violations_raise():
    with pytest.raises(ConfigError):
        ExtractionConfig(root_size=0.2, min_voxel_size=0.25)
    with pytest.raises(ConfigError):
        ExtractionConfig(min_voxel_size=0.0)
    # non-finite sizes, and more than 52 octree levels
    for sizes in ({"root_size": float("inf")}, {"root_size": float("nan")},
                  {"root_size": float("inf"), "min_voxel_size": float("inf")},
                  {"root_size": 1e300, "min_voxel_size": 1e-300},
                  {"root_size": 1.0, "min_voxel_size": 2.0 ** -53}):
        with pytest.raises(ConfigError):
            ExtractionConfig(**sizes)
    assert ExtractionConfig(root_size=1.0, min_voxel_size=2.0 ** -52).min_voxel_size > 0
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
    # non-finite plane and merge settings: with min_separation=inf two
    # parallel squares in one voxel merged into groups of the wrong points
    inf, nan = float("inf"), float("nan")
    for params, bad in ((PlaneTestParams, {"flatness_ratio_max": inf}),
                        (PlaneTestParams, {"flatness_ratio_max": nan}),
                        (PlaneTestParams, {"quarter_ratio_bound": inf}),
                        (PlaneTestParams, {"quarter_ratio_bound": nan}),
                        (MergeParams, {"min_separation": inf}),
                        (MergeParams, {"min_separation": nan})):
        with pytest.raises(ConfigError):
            params(**bad)


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
    bad_values = [
        {"plane": {"min_points": 20.5}}, {"plane": {"min_points": True}},
        {"plane": {"min_points": "20"}}, {"min_points": 20},
        {"root_size": False}, {"root_size": "1.0"}, {"root_size": None},
        {"plane": {"min_points": 20.0}}, {"merge": {"normal_angle_max_deg": [8]}},
    ]
    for data in bad_values:
        with pytest.raises(ConfigError):
            config_from_dict(data)
    cfg = config_from_dict({"root_size": 2, "merge": {"min_separation": 0}})
    assert cfg.root_size == 2


def test_removed_split_shift_key_rejected(tmp_path, capsys):
    # the quarters are split through the centroid; a file that still sets
    # the old shift along the normal fails like any unknown key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"plane": {"sigma_shift_multiple": 5.0}}))
    with pytest.raises(ConfigError, match="sigma_shift_multiple"):
        load_config(path)
    cloud = tmp_path / "c.vxc"
    write_cloud(cloud, np.zeros((4, 3)))
    assert cli_main(["extract", str(cloud), "--config", str(path)]) == EXIT_CONFIG
    assert "sigma_shift_multiple" in capsys.readouterr().err


def test_removed_merge_switch_rejected(tmp_path, capsys):
    # merging always runs (extract --no-merge writes the unmerged leaves of
    # the same run); a file that still sets the old switch fails like any
    # unknown key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"merging_enabled": False}))
    with pytest.raises(ConfigError, match="merging_enabled"):
        load_config(path)
    assert cli_main(["extract", "--config", str(path), "--print-config"]) == EXIT_CONFIG
    assert "merging_enabled" in capsys.readouterr().err


def test_readme_config_block_is_the_defaults():
    section = README.read_text(encoding="utf-8").split("### Configuration file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == config_to_dict(ExtractionConfig())


def test_hostile_sizes_in_config_file(tmp_path):
    # Python's json reads Infinity; neither document may reach the octree
    path = tmp_path / "cfg.json"
    for text in ('{"root_size": Infinity}',
                 '{"root_size": 1e300, "min_voxel_size": 1e-300}'):
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)


def test_dict_round_trip():
    cfg = ExtractionConfig(root_size=2.0, min_voxel_size=0.5,
                           plane_params=PlaneTestParams(min_points=30))
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")

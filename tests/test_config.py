import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from voxplane import (
    ConfigError,
    ExtractionConfig,
    determine_plane,
    extract_plane_groups,
    ransac_extract_all,
)
from voxplane import config as config_module
from voxplane.cli import EXIT_CONFIG, cli_main
from voxplane.config import config_from_dict, load_config
from voxplane.io import write_cloud
from voxplane.merging import NORMAL_ANGLE_MAX_DEG, SEPARATION_ANGLE_TOL_DEG
from voxplane.octree import MAX_DEPTH
from voxplane.plane_test import FLATNESS_RATIO_MAX, QUARTER_RATIO_BOUND
from voxplane.ransac import DIST_THRESHOLD

from oracles import package_imports

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_carry_shipped_values():
    cfg = ExtractionConfig()
    assert [f.name for f in fields(cfg)] == ["root_size", "min_points"]
    assert cfg.root_size == 1.0
    assert cfg.min_points == 20
    assert MAX_DEPTH == 2
    assert FLATNESS_RATIO_MAX == 0.0625
    assert QUARTER_RATIO_BOUND == 3.0
    assert NORMAL_ANGLE_MAX_DEG == 8.0
    assert SEPARATION_ANGLE_TOL_DEG == 10.0
    assert DIST_THRESHOLD == 0.03


def test_invariant_violations_raise():
    # root sizes that are not finite and at least 2^-20: -1 once gave a
    # mirrored lattice, inf put every point in voxel (0, 0, 0), and 0 and
    # nan failed as a coordinate too large; below 2^-20 a key of a point
    # within +-2^40 m could pass 2^60
    for root_size in (-1.0, float("inf"), 0.0, float("nan"), np.nextafter(2.0 ** -20, 0),
                      10 ** 400):  # once an OverflowError
        with pytest.raises(ConfigError):
            ExtractionConfig(root_size=root_size)
    assert ExtractionConfig(root_size=2.0 ** -20).root_size == 2.0 ** -20


def test_config_stores_plain_numbers():
    # numpy scalars were once kept as given: a float32 root_size warned of an
    # overflow in the range check, and an int64 min_points made asdict no JSON
    cfg = ExtractionConfig(root_size=np.float32(0.5), min_points=np.int64(20))
    assert (type(cfg.root_size), type(cfg.min_points)) == (float, int)
    assert json.loads(json.dumps(asdict(cfg))) == {"root_size": 0.5, "min_points": 20}
    # past the float range either way: an infinite float and an int with none
    for root_size in (float(np.longdouble("1e400")), np.longdouble("1e400"), 10 ** 400):
        with pytest.raises(ConfigError, match="root_size"):
            ExtractionConfig(root_size=root_size)


def test_extractors_take_root_size_through_the_config():
    # ExtractionConfig owns the root_size rule, and the root map does not
    # check it again: a new or replaced config is the extractors' only way in
    points = np.random.default_rng(0).uniform(size=(50, 3))
    for root_size in (-1.0, float("inf"), 0.0, float("nan")):
        for make in (lambda: ExtractionConfig(root_size=root_size),
                     lambda: replace(ExtractionConfig(), root_size=root_size)):
            with pytest.raises(ConfigError, match="root_size"):
                extract_plane_groups(points, make())
            with pytest.raises(ConfigError, match="root_size"):
                ransac_extract_all(points, make(), seed=0)


@pytest.mark.parametrize("min_points", [float("inf"), 20.5, 20.0, "20", None, 3, True])
def test_min_points_must_be_an_integer(tmp_path, min_points):
    # the config and a config file refuse each of these: an infinite
    # min_points once silently extracted no group at all
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"min_points": min_points}))
    for build in (lambda: ExtractionConfig(min_points=min_points), lambda: load_config(path)):
        with pytest.raises(ConfigError, match="min_points"):
            build()
    points = np.random.default_rng(0).uniform(size=(50, 3)) * [1.0, 1.0, 0.0]
    assert ExtractionConfig(min_points=np.int64(20)).min_points == 20
    assert determine_plane(points, ExtractionConfig(min_points=np.int64(20))).is_plane


def test_config_imports_only_errors_of_the_package():
    # the config owns its rules, so the settings module stays a leaf that
    # every other module may import
    assert package_imports(config_module) == ["errors"]


@pytest.mark.parametrize("value", [True, False, "2", None, [1.0]], ids=repr)
@pytest.mark.parametrize("field", ["root_size"])
def test_sizes_must_be_real_numbers(tmp_path, field, value):
    # the constructor refuses what a config file refuses: root_size=True
    # once extracted with 1 m voxels, and "2" and None raised a bare TypeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    for build in (lambda: ExtractionConfig(**{field: value}), lambda: load_config(path)):
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            build()


def test_field_by_field_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"min_points": 30}))
    cfg = load_config(path)
    assert cfg.root_size == 1.0                 # untouched default
    assert cfg.min_points == 30


def test_a_utf8_byte_order_mark_is_skipped(tmp_path):
    # as Windows editors write: once "Unexpected UTF-8 BOM"
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"min_points": 30}).encode())
    assert load_config(path).min_points == 30


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
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict([{"root_size": 1.0}])
    bad_values = [
        {"min_points": 20.5}, {"min_points": True}, {"min_points": "20"},
        {"root_size": False}, {"root_size": "1.0"}, {"root_size": None},
        {"min_points": 20.0}, {"min_points": [20]},
    ]
    for data in bad_values:
        with pytest.raises(ConfigError):
            config_from_dict(data)
    cfg = config_from_dict({"root_size": 2, "min_points": 30})
    assert (cfg.root_size, cfg.min_points) == (2, 30)


@pytest.mark.parametrize("key, value", [
    # the quarters are split through the centroid, not shifted along the normal
    ("sigma_shift_multiple", 5.0),
    # merging always runs (extract --no-merge writes the unmerged leaves)
    ("merging_enabled", False),
    # coincident centroids are judged against the fixed merging.MIN_SEPARATION
    ("min_separation", 1e-6),
    # the plane-test gates are fixed in plane_test; min_points is a top-level key
    ("plane", {"flatness_ratio_max": 0.0625, "quarter_ratio_bound": 3.0, "min_points": 20}),
    # the merge angles are fixed in merging
    ("merge", {"normal_angle_max_deg": 8.0, "separation_angle_tol_deg": 10.0}),
    # the octree depth is fixed at octree.MAX_DEPTH
    ("min_voxel_size", 0.25),
], ids=["sigma_shift_multiple", "merging_enabled", "min_separation", "plane", "merge",
        "min_voxel_size"])
def test_removed_keys_rejected(tmp_path, capsys, key, value):
    # a constructor call or a file that still sets a removed setting fails
    # like any unknown key
    with pytest.raises(ConfigError, match=key):
        ExtractionConfig(**{key: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert cli_main(["extract", "--config", str(path), "--print-config"]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_readme_config_block_is_the_defaults():
    section = README.read_text(encoding="utf-8").split("### Configuration file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == asdict(ExtractionConfig())


def test_hostile_sizes_in_config_file(tmp_path):
    # Python's json reads Infinity; neither document may reach the octree
    path = tmp_path / "cfg.json"
    for text in ('{"root_size": Infinity}', '{"root_size": NaN}'):
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)


def test_dict_round_trip():
    cfg = ExtractionConfig(root_size=2.0, min_points=30)
    back = config_from_dict(asdict(cfg))
    assert back == cfg


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")

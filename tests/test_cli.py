import hashlib
import json

import numpy as np
import pytest

from voxplane.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, cli_main
from voxplane.io import read_cloud, read_planes, write_cloud

import pinned


def run(*argv):
    return cli_main(list(argv))


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "extract" in capsys.readouterr().out


def test_subcommand_help(capsys):
    for cmd in ("extract", "synth", "eval", "compare"):
        assert run(cmd, "--help") == 0
        capsys.readouterr()


def test_unknown_flag_rejected(capsys):
    assert run("extract", "cloud.xyz", "--frobnicate") == 2
    assert run("extract", "--print-config", "--threads", "2") == 2
    capsys.readouterr()
    assert run("bench", "x.vxc") == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_missing_file_input_error(tmp_path, capsys):
    assert run("extract", str(tmp_path / "nope.xyz")) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_print_config(capsys):
    assert run("extract", "--print-config") == EXIT_OK
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["root_size"] == 1.0
    assert cfg["min_voxel_size"] == 0.25
    assert "min_points" not in cfg
    assert cfg["plane"]["min_points"] == 20
    assert cfg["plane"]["flatness_ratio_max"] == 0.0625
    assert cfg["plane"]["quarter_ratio_bound"] == 3.0
    assert cfg["merge"]["normal_angle_max_deg"] == 8.0
    assert cfg["merge"]["separation_angle_tol_deg"] == 10.0


def test_synth_extract_eval_chain(tmp_path, capsys):
    cloud = tmp_path / "corner.vxc"
    planes = tmp_path / "planes.txt"
    report = tmp_path / "report.json"
    assert run("synth", "corner", "--seed", "0", "--out", str(cloud)) == EXIT_OK
    assert run("extract", str(cloud), "--out", str(planes)) == EXIT_OK
    assert run("eval", "--planes", str(planes), "--truth", str(cloud),
               "--report", str(report)) == EXIT_OK
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["precision"] >= 0.95
    assert data["recall"] >= 0.90


def test_synth_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "plane", "--seed", "1") == EXIT_OK
    capsys.readouterr()
    pts, labels = read_cloud(tmp_path / "plane.vxc")
    assert pts.shape[0] > 300
    assert labels is not None


def test_synth_rejects_unknown_scene(capsys):
    assert run("synth", "pyramid") == 2
    capsys.readouterr()


def test_hostile_seed_and_sigma_exit_two(tmp_path, capsys):
    out = str(tmp_path / "x.vxc")
    assert run("synth", "corner", "--seed", "-1", "--out", out) == EXIT_INPUT
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    assert run("compare", "corner", "--seed", "-1") == EXIT_INPUT
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    for sigma in ("-0.1", "nan", "inf"):
        for scene in ("plane", "corner", "fp-slab", "slab-object"):
            assert run("synth", scene, "--sigma", sigma, "--out", out) == EXIT_INPUT
            assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "x.vxc").exists()


def test_fp_slab_without_admissible_protrusion_exits_two(tmp_path, capsys):
    out = tmp_path / "fp.vxc"
    assert run("synth", "fp-slab", "--sigma", "0.05", "--out", str(out)) == EXIT_INPUT
    assert "no protrusion configuration" in capsys.readouterr().err
    assert not out.exists()


def test_extract_no_merge_and_colored(tmp_path, capsys):
    cloud = tmp_path / "c.vxc"
    assert run("synth", "corner", "--out", str(cloud)) == EXIT_OK
    merged = tmp_path / "m.txt"
    plain = tmp_path / "p.txt"
    colored = tmp_path / "col.ply"
    assert run("extract", str(cloud), "--out", str(merged),
               "--colored", str(colored)) == EXIT_OK
    assert run("extract", str(cloud), "--no-merge", "--out", str(plain)) == EXIT_OK
    capsys.readouterr()
    points, _ = read_cloud(cloud)
    assert len(read_planes(plain, points)) >= len(read_planes(merged, points))
    assert colored.read_text().startswith("ply")


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plane": {"min_points": 40}}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["plane"]["min_points"] == 40
    monkeypatch.setenv("VOXPLANE_CONFIG", str(cfg))
    assert run("extract", "--print-config") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["plane"]["min_points"] == 40


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"min_pts": 40}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    cfg.write_text(json.dumps({"plane": 5}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    cfg.write_text(json.dumps({"merging_enabled": "no"}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    assert "must be a JSON boolean" in capsys.readouterr().err
    cfg.write_text("{not json")
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    capsys.readouterr()


def test_extract_hostile_sizes_exit_code(tmp_path, capsys):
    # the sizes once recursed until RecursionError on NaN octant centres;
    # an infinite min_separation once merged points into the wrong groups
    cloud = tmp_path / "c.vxc"
    assert run("synth", "corner", "--out", str(cloud)) == EXIT_OK
    cfg = tmp_path / "bad.json"
    for text in ('{"root_size": Infinity}',
                 '{"root_size": 1e300, "min_voxel_size": 1e-300}',
                 '{"merge": {"min_separation": Infinity}}'):
        cfg.write_text(text)
        assert run("extract", str(cloud), "--config", str(cfg)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


def test_eval_hostile_planeset(tmp_path, capsys):
    cloud = tmp_path / "c.vxc"
    planes = tmp_path / "planes.txt"
    assert run("synth", "plane", "--out", str(cloud)) == EXIT_OK
    for text in ("voxplane-planeset \ngroups 0\n",
                 "voxplane-planeset 1\ngroups 1\ngroup 0\nroot 0 0 0\ncount 1\n"
                 "centroid 0.0 0.0 0.0\nnormal 0.0 0.0 1.0\neigenvalues 1.0 1.0 0.0\n"
                 "depths 0:1\nindices 99999999\nend\n",
                 "voxplane-planeset 1\ngroups 1\ngroup 0\nroot 0 0 0\ncount 0\n"
                 "centroid 0.0 0.0 0.0\nnormal 0.0 0.0 1.0\neigenvalues 1.0 1.0 0.0\n"
                 "depths 0:0\nindices\nend\n"):
        planes.write_text(text)
        assert run("eval", "--planes", str(planes), "--truth", str(cloud)) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


def test_eval_rejects_nan_normals(tmp_path, capsys):
    cloud = tmp_path / "c.vxc"
    planes = tmp_path / "planes.txt"
    assert run("synth", "corner", "--seed", "0", "--out", str(cloud)) == EXIT_OK
    assert run("extract", str(cloud), "--out", str(planes)) == EXIT_OK
    lines = planes.read_text().splitlines()
    planes.write_text("".join(("normal nan 0.0 0.0" if line.startswith("normal ") else line)
                              + "\n" for line in lines))
    assert run("eval", "--planes", str(planes), "--truth", str(cloud)) == EXIT_INPUT
    assert "line 7: non-finite normal" in capsys.readouterr().err


def test_eval_requires_labels(tmp_path, capsys):
    xyz = tmp_path / "plain.xyz"
    xyz.write_text("0 0 0\n1 0 0\n0 1 0\n")
    planes = tmp_path / "planes.txt"
    planes.write_text("voxplane-planeset 1\ngroups 0\n")
    assert run("eval", "--planes", str(planes), "--truth", str(xyz)) == EXIT_INPUT
    capsys.readouterr()


def test_compare_scene(tmp_path, capsys):
    report = tmp_path / "cmp.json"
    assert run("compare", "corner", "--methods", "ours,ransac",
               "--report", str(report)) == EXIT_OK
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert set(data) == {"target", "ours", "ransac"}
    assert data["ours"]["precision"] >= 0.95
    assert data["ours"]["recall"] >= 0.90
    assert data["ransac"]["extracted_count"] >= 3


def test_compare_corner_report_pinned(tmp_path, capsys):
    report = tmp_path / "cmp.json"
    assert run("compare", "corner", "--seed", "0", "--report", str(report)) == EXIT_OK
    capsys.readouterr()
    data = json.loads(report.read_text())
    for method in ("ours", "ransac"):
        data[method].pop("wall_time_s")
    digest = hashlib.sha256(json.dumps(data, indent=2).encode()).hexdigest()
    assert digest == pinned.CORNER_COMPARE_SHA256


def test_eval_and_compare_reject_out_of_range_labels(tmp_path, capsys):
    cloud = tmp_path / "c.vxc"
    planes = tmp_path / "planes.txt"
    assert run("synth", "plane", "--out", str(cloud)) == EXIT_OK
    assert run("extract", str(cloud), "--out", str(planes)) == EXIT_OK
    points, labels = read_cloud(cloud)
    labels = labels.copy()
    labels[::10] = -2
    write_cloud(cloud, points, labels)
    capsys.readouterr()
    assert run("eval", "--planes", str(planes), "--truth", str(cloud)) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert run("compare", str(cloud)) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_compare_unknown_method(capsys):
    assert run("compare", "corner", "--methods", "ours,hough") == EXIT_INPUT
    capsys.readouterr()


def test_compare_bad_target(capsys):
    assert run("compare", "no-such-thing") == EXIT_INPUT
    capsys.readouterr()

import argparse
import ast
import hashlib
import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import voxplane.io
from voxplane import (
    EvalReport,
    ExtractionConfig,
    PlaneGroup,
    PlaneMatch,
    StageTimings,
    cli,
    extract_plane_groups,
    gen_corner,
)
from voxplane.cli import _SCENES, EXIT_CONFIG, EXIT_INPUT, EXIT_IO, EXIT_OK, build_parser, cli_main
from voxplane.io import read_cloud, read_planes, write_cloud, write_colored_cloud, write_planes

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


def test_readme_cli_section_matches_the_parser():
    # a flag or scene cannot be added or removed without the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    [commands] = [a.choices for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.items():
        for option in (o for a in sub._actions for o in a.option_strings):
            if option.startswith("--") and option != "--help":
                assert re.search(rf"{option}(?![\w-])", cli), (name, option)
    scenes = re.search(r"^Scenes:.*?\n\n", cli, re.M | re.S).group()
    assert all(f"`{scene}`" in scenes for scene in _SCENES)
    assert "VOXPLANE_" not in readme


def test_unknown_flag_rejected(capsys):
    assert run("extract", "cloud.xyz", "--frobnicate") == 2
    assert run("extract", "--print-config", "--threads", "2") == 2
    capsys.readouterr()
    assert run("bench", "x.vxc") == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_missing_file_input_error(tmp_path, capsys):
    assert run("extract", str(tmp_path / "nope.xyz")) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_extract_without_a_cloud_exits_two(capsys):
    assert run("extract") == EXIT_INPUT
    assert "missing input cloud (or use --print-config)" in capsys.readouterr().err


def test_unwritable_output_paths_exit_four(tmp_path, capsys):
    # an output path in a missing directory once exited 2 as an input error
    cloud, missing = tmp_path / "c.vxc", tmp_path / "missing_dir"
    assert run("synth", "plane", "--out", str(cloud)) == EXIT_OK
    planes = tmp_path / "p.txt"
    assert run("extract", str(cloud), "--out", str(planes)) == EXIT_OK
    capsys.readouterr()
    for argv in (("extract", str(cloud), "--out", str(missing / "p.txt")),
                 ("synth", "plane", "--out", str(missing / "x.vxc")),
                 ("eval", "--planes", str(planes), "--truth", str(cloud),
                  "--report", str(missing / "r.json"))):
        assert run(*argv) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
    assert not missing.exists()


def test_print_config(capsys):
    assert run("extract", "--print-config") == EXIT_OK
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["root_size"] == 1.0
    assert cfg["min_points"] == 20
    assert len(cfg) == 2


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


def test_compare_refuses_a_file_seed_before_extracting(tmp_path, capsys, monkeypatch):
    # compare FILE --seed -1 once ran the whole extraction before RANSAC
    # refused the seed
    cloud = tmp_path / "corner.vxc"
    scene = gen_corner(seed=0)
    write_cloud(cloud, scene.points, scene.labels)
    calls = []
    monkeypatch.setattr(cli, "extract_plane_groups", lambda *args: calls.append(args))
    assert run("compare", str(cloud), "--seed", "-1") == EXIT_INPUT
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert calls == []


def test_hostile_seed_and_sigma_exit_two(tmp_path, capsys):
    out = str(tmp_path / "x.vxc")
    # the generators and RANSAC refuse a bad seed, for a scene and for a file
    assert run("synth", "corner", "--seed", "-1", "--out", out) == EXIT_INPUT
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert run("compare", "corner", "--seed", "-1") == EXIT_INPUT
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert run("synth", "plane", "--out", out) == EXIT_OK
    assert run("compare", out, "--seed", "-1") == EXIT_INPUT
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert run("synth", "corner", "--seed", "1.5", "--out", out) == EXIT_INPUT
    assert "--seed: invalid int value" in capsys.readouterr().err
    Path(out).unlink()
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


def test_extract_no_merge_writes_the_plane_leaves(tmp_path, capsys):
    # one singleton group per plane leaf of the same run, in leaf order
    cloud = tmp_path / "c.vxc"
    assert run("synth", "corner", "--seed", "0", "--out", str(cloud)) == EXIT_OK
    plain, colored = tmp_path / "p.txt", tmp_path / "p.ply"
    assert run("extract", str(cloud), "--no-merge", "--out", str(plain),
               "--colored", str(colored)) == EXIT_OK
    capsys.readouterr()
    points, _ = read_cloud(cloud)
    patches = [leaf.patch for voxel in extract_plane_groups(points).leaves.values()
               for leaf in voxel if leaf.patch is not None]
    ref_plain, ref_colored = tmp_path / "ref.txt", tmp_path / "ref.ply"
    write_planes([PlaneGroup(members=[p], merged=p) for p in patches], ref_plain)
    write_colored_cloud(points, [PlaneGroup(members=[p], merged=p) for p in patches],
                        ref_colored)
    assert plain.read_bytes() == ref_plain.read_bytes()
    assert colored.read_bytes() == ref_colored.read_bytes()
    assert (hashlib.sha256(plain.read_bytes()).hexdigest()
            == pinned.CORNER_NO_MERGE_PLANESET_SHA256)
    assert (hashlib.sha256(colored.read_bytes()).hexdigest()
            == pinned.CORNER_NO_MERGE_COLORED_SHA256)


def test_config_file_reaches_extract_and_compare(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"min_points": 40}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["min_points"] == 40
    # 0.5 m root voxels split the corner's planes into more groups
    cfg.write_text(json.dumps({"root_size": 0.5}))
    counts = []
    for extra in ((), ("--config", str(cfg))):
        report = tmp_path / "cmp.json"
        assert run("compare", "corner", "--report", str(report), *extra) == EXIT_OK
        counts.append(json.loads(report.read_text())["ours"]["extracted_count"])
    capsys.readouterr()
    assert counts[1] > counts[0]


def test_min_points_reaches_the_octree_and_ransac(tmp_path, capsys, monkeypatch):
    # the corner thinned to every 10th point has plane leaves and RANSAC
    # planes of 21 to 29 points at the default min_points of 20
    scene = gen_corner(seed=0)
    cloud, cfg, report = tmp_path / "thin.vxc", tmp_path / "cfg.json", tmp_path / "cmp.json"
    write_cloud(cloud, scene.points[::10], scene.labels[::10])
    cfg.write_text(json.dumps({"min_points": 30}))
    results = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]
        return wrapped

    monkeypatch.setattr(cli, "extract_plane_groups", spy(cli.extract_plane_groups))
    monkeypatch.setattr(cli, "ransac_extract_all", spy(cli.ransac_extract_all))
    runs = []
    for extra in ((), ("--config", str(cfg))):
        results.clear()
        assert run("extract", str(cloud), *extra) == EXIT_OK
        assert run("compare", str(cloud), "--report", str(report), *extra) == EXIT_OK
        extracted, ransac, compared = results
        data = json.loads(report.read_text())
        sizes = ([leaf.patch.cluster.n for result in (extracted, compared)
                  for voxel in result.leaves.values() for leaf in voxel
                  if leaf.patch is not None] + [p.cluster.n for p in ransac])
        runs.append(([len(extracted.groups), data["ours"]["extracted_count"],
                      data["ransac"]["extracted_count"]], min(sizes)))
    capsys.readouterr()
    (default_counts, default_smallest), (counts, smallest) = runs
    assert default_smallest < 30 <= smallest
    assert all(a != b for a, b in zip(default_counts, counts))


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"min_pts": 40}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    cfg.write_text(json.dumps({"min_points": 3}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    assert "min_points must be at least 4" in capsys.readouterr().err
    cfg.write_text(json.dumps({"root_size": True}))
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    assert "root_size must be a real number" in capsys.readouterr().err
    cfg.write_text("{not json")
    assert run("extract", "--config", str(cfg), "--print-config") == EXIT_CONFIG
    capsys.readouterr()
    # these once escaped as a UnicodeDecodeError and OverflowErrors
    huge = b"1" + b"0" * 400
    for raw in (b'{"root_size": 1.0}\xff', b'{"root_size": ' + huge + b"}",
                b'{"root_size": -' + huge + b"}"):
        cfg.write_bytes(raw)
        for argv in (("extract", "--print-config"), ("compare", "corner")):
            assert run(*argv, "--config", str(cfg)) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err


def test_extract_hostile_sizes_exit_code(tmp_path, capsys):
    # root sizes once recursed until RecursionError on NaN octant centres
    cloud = tmp_path / "c.vxc"
    assert run("synth", "corner", "--out", str(cloud)) == EXIT_OK
    cfg = tmp_path / "bad.json"
    for text in ('{"root_size": Infinity}',
                 '{"root_size": NaN}',
                 '{"min_points": Infinity}'):
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
                 "depths 0:0\nindices\nend\n",
                 "voxplane-planeset 1\ngroups 0\n\xff"):
        planes.write_text(text, encoding="latin-1")
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


def test_eval_refuses_a_truth_plane_of_two_points(tmp_path, capsys):
    cloud, planes = tmp_path / "c.vxc", tmp_path / "planes.txt"
    assert run("synth", "corner", "--out", str(cloud)) == EXIT_OK
    assert run("extract", str(cloud), "--out", str(planes)) == EXIT_OK
    points, labels = read_cloud(cloud)
    labels = labels.copy()
    labels[labels == 1] = 0
    labels[:2] = 1
    write_cloud(cloud, points, labels)
    capsys.readouterr()
    assert run("eval", "--planes", str(planes), "--truth", str(cloud)) == EXIT_INPUT
    assert "ground-truth plane 1 has fewer than 3 points" in capsys.readouterr().err


def test_compare_scene(tmp_path, capsys):
    report = tmp_path / "cmp.json"
    assert run("compare", "corner", "--report", str(report)) == EXIT_OK
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


def _names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _assert_report_schema(report: dict, timed: bool) -> None:
    """The report's keys, read recursively, are the report dataclasses'
    field names in field order."""
    assert list(report) == _names(EvalReport)
    assert report["matched_planes"]
    assert all(list(m) == _names(PlaneMatch) for m in report["matched_planes"])
    if timed:
        assert list(report["wall_time_s"]) == _names(StageTimings)
    else:
        assert report["wall_time_s"] is None


def test_reports_and_config_are_their_dataclasses(tmp_path, capsys):
    # one schema per record: the JSON keys are the dataclass fields
    cloud, planes = tmp_path / "c.vxc", tmp_path / "planes.txt"
    report, compared = tmp_path / "eval.json", tmp_path / "compare.json"
    assert run("synth", "corner", "--out", str(cloud)) == EXIT_OK
    assert run("extract", str(cloud), "--out", str(planes)) == EXIT_OK
    assert run("eval", "--planes", str(planes), "--truth", str(cloud),
               "--report", str(report)) == EXIT_OK
    _assert_report_schema(json.loads(report.read_text()), timed=False)
    assert run("compare", "corner", "--report", str(compared)) == EXIT_OK
    capsys.readouterr()
    written = json.loads(compared.read_text())
    assert list(written) == ["target", "ours", "ransac"]
    _assert_report_schema(written["ours"], timed=True)
    _assert_report_schema(written["ransac"], timed=False)
    # without --report, compare prints the document --report writes
    assert run("compare", "corner") == EXIT_OK
    out = capsys.readouterr().out
    printed = json.loads(out)
    assert out == json.dumps(printed, indent=2) + "\n"
    printed["ours"]["wall_time_s"] = written["ours"]["wall_time_s"]  # differs run to run
    assert json.dumps(printed, indent=2) + "\n" == compared.read_text()
    assert run("extract", "--print-config") == EXIT_OK
    assert list(json.loads(capsys.readouterr().out)) == _names(ExtractionConfig)


def test_io_does_not_import_evaluation():
    # the file formats know nothing of the report
    tree = ast.parse(inspect.getsource(voxplane.io))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {name for name in imported if name and name.endswith("evaluation")}


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


def test_compare_bad_target(capsys):
    assert run("compare", "no-such-thing") == EXIT_INPUT
    capsys.readouterr()
    # a name past the file-system limit once raised OSError in the file
    # check and exited 4, the output-error code
    assert run("compare", "x" * 5000) == EXIT_INPUT
    assert "neither a file nor a scene name" in capsys.readouterr().err

"""Command-line surface: extract / synth / eval / compare.

Exit codes: 0 success, 2 input errors (missing or malformed files, bad
values), 3 configuration errors, 4 output I/O errors. Unknown flags are
rejected by the parser (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExtractionConfig, config_to_dict, load_config
from .errors import CloudFormatError, ConfigError, GenerationError, InputValidationError
from .evaluation import evaluate, fit_truth_planes
from .io import (
    read_cloud,
    read_planes,
    report_to_dict,
    write_cloud,
    write_colored_cloud,
    write_planes,
)
from .merging import PlaneGroup
from .pipeline import extract_plane_groups
from .ransac import ransac_extract_all
from .synthetic import (
    GroundTruthCloud,
    gen_corner,
    gen_false_positive_slab,
    gen_plane,
    gen_slab_with_object,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_IO = 4

CONFIG_ENV_VAR = "VOXPLANE_CONFIG"

_SCENES = ("plane", "corner", "fp-slab", "slab-object")


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxplane",
        description="Voxel-based plane extraction for LiDAR point clouds.")
    parser.add_argument("--version", action="version", version=f"voxplane {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract planes from a point cloud")
    p.add_argument("cloud", nargs="?", help="input cloud (labeled/xyz/ply)")
    p.add_argument("--config", help=f"JSON config file (falls back to ${CONFIG_ENV_VAR})")
    p.add_argument("--out", help="write the plane-set document here")
    p.add_argument("--colored", help="write a colored ply of extracted planes here")
    p.add_argument("--no-merge", action="store_true", help="write the plane leaves unmerged")
    p.add_argument("--print-config", action="store_true",
                   help="print the effective config as JSON and exit")

    p = sub.add_parser("synth", help="generate a labeled synthetic scene")
    p.add_argument("scene", choices=_SCENES)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--sigma", type=float, default=0.005, help="noise sigma in meters")
    p.add_argument("--out", help="output file (default <scene>.vxc)")

    p = sub.add_parser("eval", help="score a plane set against a labeled cloud")
    p.add_argument("--planes", required=True, help="plane-set document with indices")
    p.add_argument("--truth", required=True, help="labeled cloud file")
    p.add_argument("--report", help="write the JSON report here (default stdout)")

    p = sub.add_parser("compare", help="run ours and the RANSAC baseline side by side")
    p.add_argument("target", help=f"labeled cloud file or scene name {_SCENES}")
    p.add_argument("--methods", default="ours,ransac",
                   help="comma-separated subset of: ours, ransac")
    p.add_argument("--seed", type=non_negative_int, default=0, help="seed when target is a scene")
    p.add_argument("--report", help="write the JSON report here (default stdout)")
    return parser


def _load_effective_config(path_arg: str | None) -> ExtractionConfig:
    path = path_arg or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_config(path)
    return ExtractionConfig()


def _generate_scene(scene: str, seed: int, sigma: float) -> GroundTruthCloud:
    if scene == "plane":
        return gen_plane(np.array([0.0, 0.0, 1.0]), 0.0, (1.0, 1.0),
                         400.0, sigma, seed)
    if scene == "corner":
        return gen_corner(noise_sigma=sigma, seed=seed)
    if scene == "fp-slab":
        return gen_false_positive_slab(seed=seed, noise_sigma=sigma)
    if scene == "slab-object":
        return gen_slab_with_object(seed=seed, noise_sigma=sigma)
    raise InputValidationError(f"unknown scene {scene!r}")


def _group_assignment(n_points: int, groups: list[PlaneGroup]) -> np.ndarray:
    assign = np.full(n_points, -1, dtype=np.int64)
    for gi, g in enumerate(groups):
        assign[g.merged.point_indices] = gi
    return assign


def _emit_report(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_extract(args) -> int:
    config = _load_effective_config(args.config)
    if args.print_config:
        print(json.dumps(config_to_dict(config), indent=2))
        return EXIT_OK
    if args.cloud is None:
        raise InputValidationError("missing input cloud (or use --print-config)")
    points, _ = read_cloud(args.cloud)
    result = extract_plane_groups(points, config)
    groups = result.groups
    if args.no_merge:
        groups = [PlaneGroup(members=[leaf.patch], merged=leaf.patch)
                  for voxel in result.leaves.values() for leaf in voxel if leaf.patch is not None]
    print(f"{len(groups)} plane groups from {points.shape[0]} points "
          f"in {result.timings.total:.3f}s")
    if args.out:
        write_planes(groups, args.out)
    if args.colored:
        write_colored_cloud(points, _group_assignment(points.shape[0], groups), args.colored)
    return EXIT_OK


def _cmd_synth(args) -> int:
    cloud = _generate_scene(args.scene, args.seed, args.sigma)
    out = args.out or f"{args.scene}.vxc"
    write_cloud(out, cloud.points, cloud.labels)
    print(f"{cloud.points.shape[0]} points, {len(cloud.planes)} planes -> {out}")
    return EXIT_OK


def _truth_from_file(path) -> tuple[np.ndarray, GroundTruthCloud]:
    points, labels = read_cloud(path)
    if labels is None:
        raise InputValidationError(f"{path} carries no labels; evaluation needs "
                                   "a labeled cloud")
    planes = fit_truth_planes(points, labels)
    return points, GroundTruthCloud(points=points, labels=labels, planes=planes)


def _cmd_eval(args) -> int:
    points, truth = _truth_from_file(args.truth)
    report = evaluate(read_planes(args.planes, points), truth)
    _emit_report(report_to_dict(report), args.report)
    return EXIT_OK


def _cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = set(methods) - {"ours", "ransac"}
    if unknown:
        raise InputValidationError(f"unknown methods: {sorted(unknown)}")

    if Path(args.target).exists():
        points, truth = _truth_from_file(args.target)
    elif args.target in _SCENES:
        truth = _generate_scene(args.target, args.seed, 0.005)
        points = truth.points
    else:
        raise InputValidationError(f"{args.target!r} is neither a file nor a "
                                   f"scene name {_SCENES}")

    config = _load_effective_config(None)
    payload: dict = {"target": args.target}
    if "ours" in methods:
        result = extract_plane_groups(points, config)
        payload["ours"] = report_to_dict(evaluate(result.groups, truth, result.timings))
    if "ransac" in methods:
        patches = ransac_extract_all(points, config, seed=args.seed)
        groups = [PlaneGroup(members=[p], merged=p) for p in patches]
        payload["ransac"] = report_to_dict(evaluate(groups, truth))
    _emit_report(payload, args.report)
    return EXIT_OK


_COMMANDS = {
    "extract": _cmd_extract,
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CloudFormatError, InputValidationError, GenerationError,
            FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli_main())

"""File formats: point clouds (binary labeled, xyz, ascii ply), plane-set
documents, colored clouds, and evaluation reports.

One writer per format, each formatting whole arrays: one ``tolist()`` per
array, floats in shortest round-trip ``repr``. Output is byte-stable for
identical input: field order is fixed, and nothing timing-dependent is
written except the explicit timing section of reports. Plane sets always
carry each group's member point indices (the point association); the
readers reject malformed or out-of-range content with line numbers.
"""

from __future__ import annotations

import colorsys
import json
import logging
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CloudFormatError, InputValidationError
from .evaluation import EvalReport
from .geometry import _accumulate_checked
from .merging import PlaneGroup
from .octree import PlanePatch, VoxelKey

logger = logging.getLogger(__name__)

__all__ = [
    "read_cloud",
    "write_cloud",
    "PlaneRecord",
    "records_to_groups",
    "write_planes",
    "read_planes",
    "write_colored_cloud",
    "group_color",
    "report_to_dict",
    "write_report",
]

_MAGIC = b"VXPC"
_VERSION = 1
_HEADER = struct.Struct("<4sIQB")  # magic, version, point count, has_labels

_FORMATS = ("auto", "labeled", "xyz", "ply_ascii")


# ---------------------------------------------------------------------------
# point clouds


def read_cloud(path, fmt: str = "auto") -> tuple[np.ndarray, np.ndarray | None]:
    """Read a point cloud, returning (points, labels-or-None).

    Malformed content is a hard error carrying the line number where one
    applies; nothing is silently skipped. Non-finite coordinates are
    rejected.
    """
    if fmt not in _FORMATS:
        raise CloudFormatError(f"unknown format {fmt!r}; expected one of {_FORMATS}", path)
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CloudFormatError(f"cannot read file: {exc}", path) from exc
    if fmt == "auto":
        fmt = _sniff_format(raw, path)
    if fmt == "labeled":
        return _read_labeled(raw, path)
    text = _decode_text(raw, path)
    if fmt == "ply_ascii":
        return _read_ply(text, path)
    return _read_xyz(text, path)


def _sniff_format(raw: bytes, path) -> str:
    if raw.startswith(_MAGIC):
        return "labeled"
    if raw[:3] == b"ply":
        return "ply_ascii"
    return "xyz"


def _decode_text(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CloudFormatError(f"not a recognized cloud file (binary content, "
                               f"bad magic): {exc}", path) from exc


def _check_finite(pts: np.ndarray, path) -> np.ndarray:
    if pts.size and not np.isfinite(pts).all():
        raise InputValidationError(f"{path}: cloud contains non-finite coordinates")
    return pts


def _read_labeled(raw: bytes, path) -> tuple[np.ndarray, np.ndarray | None]:
    if len(raw) < _HEADER.size:
        raise CloudFormatError("truncated header", path)
    magic, version, count, has_labels = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CloudFormatError("bad magic; not a labeled-cloud file", path)
    if version != _VERSION:
        raise CloudFormatError(f"unsupported labeled-cloud version {version}", path)
    need = _HEADER.size + count * 24 + (count * 4 if has_labels else 0)
    if len(raw) != need:
        raise CloudFormatError(f"size mismatch: header promises {count} points "
                               f"({need} bytes), file has {len(raw)}", path)
    pts = np.frombuffer(raw, dtype="<f8", count=count * 3,
                        offset=_HEADER.size).reshape(count, 3).astype(np.float64)
    labels = None
    if has_labels:
        labels = np.frombuffer(raw, dtype="<i4", count=count,
                               offset=_HEADER.size + count * 24).astype(np.int32)
    if count == 0:
        logger.warning("%s: empty cloud", path)
        pts = pts.reshape(0, 3)
    return _check_finite(pts, path), labels


def _read_xyz(text: str, path) -> tuple[np.ndarray, None]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 3:
            raise CloudFormatError(f"expected 3 fields, got {len(fields)}",
                                   path, lineno)
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise CloudFormatError(f"bad number: {exc}", path, lineno) from exc
    if not rows:
        logger.warning("%s: empty cloud", path)
        return np.zeros((0, 3)), None
    return _check_finite(np.array(rows, dtype=np.float64), path), None


_PLY_XYZ_TYPES = {"float", "float32", "double", "float64"}


def _read_ply(text: str, path) -> tuple[np.ndarray, np.ndarray | None]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudFormatError("missing 'ply' magic line", path, 1)
    vertex_count = None
    properties: list[str] = []
    in_vertex = False
    data_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:2] != ["ascii"]:
                raise CloudFormatError(f"unsupported ply format {' '.join(tokens[1:])!r}; "
                                       "only ascii is handled", path, lineno)
        elif tokens[0] == "element":
            if tokens[1] == "vertex":
                vertex_count = int(tokens[2])
                in_vertex = True
            else:
                if int(tokens[2]) != 0:
                    raise CloudFormatError(f"unsupported non-empty element "
                                           f"{tokens[1]!r}", path, lineno)
                in_vertex = False
        elif tokens[0] == "property":
            if in_vertex:
                if tokens[1] == "list":
                    raise CloudFormatError("list properties are not supported",
                                           path, lineno)
                properties.append(tokens[2])
        elif tokens[0] == "end_header":
            data_start = lineno
            break
        else:
            raise CloudFormatError(f"unrecognized header line {line.strip()!r}",
                                   path, lineno)
    if data_start is None or vertex_count is None:
        raise CloudFormatError("header ended without element vertex / end_header", path)
    for axis in ("x", "y", "z"):
        if axis not in properties:
            raise CloudFormatError(f"vertex element lacks property {axis!r}", path)
    col = {name: i for i, name in enumerate(properties)}
    has_label = "label" in col

    data_lines = lines[data_start:]
    rows = np.zeros((vertex_count, 3))
    labels = np.zeros(vertex_count, dtype=np.int32) if has_label else None
    seen = 0
    for offset, line in enumerate(data_lines):
        lineno = data_start + 1 + offset
        stripped = line.strip()
        if not stripped:
            if seen < vertex_count:
                raise CloudFormatError("blank line inside vertex data", path, lineno)
            continue
        if seen >= vertex_count:
            raise CloudFormatError("more data rows than declared vertices", path, lineno)
        fields = stripped.split()
        if len(fields) != len(properties):
            raise CloudFormatError(f"expected {len(properties)} fields, got "
                                   f"{len(fields)}", path, lineno)
        try:
            rows[seen, 0] = float(fields[col["x"]])
            rows[seen, 1] = float(fields[col["y"]])
            rows[seen, 2] = float(fields[col["z"]])
            if has_label:
                labels[seen] = int(fields[col["label"]])
        except ValueError as exc:
            raise CloudFormatError(f"bad number: {exc}", path, lineno) from exc
        seen += 1
    if seen != vertex_count:
        raise CloudFormatError(f"truncated: {seen} of {vertex_count} vertices", path)
    if vertex_count == 0:
        logger.warning("%s: empty cloud", path)
    return _check_finite(rows, path), labels


def write_cloud(path, points, labels=None, fmt: str = "labeled") -> None:
    """Write a cloud. The labeled binary format round-trips coordinates
    bit-exactly; xyz and ply_ascii use shortest round-trip decimal."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    if labels is not None and len(labels) != pts.shape[0]:
        raise InputValidationError(
            f"labels length {len(labels)} does not match {pts.shape[0]} points")
    path = Path(path)
    if fmt == "labeled":
        has = labels is not None
        blob = _HEADER.pack(_MAGIC, _VERSION, pts.shape[0], int(has))
        blob += pts.astype("<f8").tobytes()
        if has:
            blob += np.asarray(labels, dtype="<i4").tobytes()
        path.write_bytes(blob)
        return
    if fmt == "xyz":
        rows = _text_rows(pts)
        path.write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")
        return
    if fmt == "ply_ascii":
        if labels is None:
            _write_ply(path, pts)
        else:
            _write_ply(path, pts, ("int label",),
                       np.asarray(labels, dtype=np.int64).reshape(-1, 1))
        return
    raise CloudFormatError(f"unknown format {fmt!r}", path)


def _text_rows(points: np.ndarray, ints: np.ndarray | None = None) -> list[str]:
    """One text row per point: x y z in shortest round-trip repr, then the
    matching row of the (n, k) integer array ``ints``, if given."""
    cols = [map(repr, points[:, k].tolist()) for k in range(3)]
    if ints is not None:
        cols += [map(str, ints[:, k].tolist()) for k in range(ints.shape[1])]
    return list(map(" ".join, zip(*cols)))


def _write_ply(path, points: np.ndarray, int_properties: tuple[str, ...] = (),
               ints: np.ndarray | None = None) -> None:
    """ASCII ply with double x, y, z and one integer property per column of
    ``ints``, each declared as "<type> <name>" in ``int_properties``."""
    header = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}",
              "property double x", "property double y", "property double z",
              *(f"property {prop}" for prop in int_properties), "end_header"]
    Path(path).write_text("\n".join(header + _text_rows(points, ints)) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# plane-set documents


@dataclass(frozen=True)
class PlaneRecord:
    """Serialized form of one plane group: plain tuples so equality is
    structural and round-trips through text exactly."""

    root_key: tuple[int, int, int]
    count: int
    centroid: tuple[float, float, float]
    normal: tuple[float, float, float]
    eigenvalues: tuple[float, float, float]
    depth_histogram: tuple[tuple[int, int], ...]  # (depth, member count), depth ascending
    indices: tuple[int, ...] | None = None


def records_to_groups(records: list[PlaneRecord], points: np.ndarray) -> list[PlaneGroup]:
    """Rebuild evaluable groups from records plus the original points.

    Every record must carry member indices, each in [0, len(points)); the
    cluster is re-accumulated from them while centroid/normal/eigenvalues
    keep the stored values.
    """
    groups = []
    for rec in records:
        if rec.indices is None:
            raise InputValidationError(
                "plane record lacks member indices, which every plane set "
                "written by voxplane carries")
        idx = np.asarray(rec.indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(points)):
            raise InputValidationError(
                f"plane record indices must lie in [0, {len(points)}), "
                f"got {idx.min()}..{idx.max()}")
        patch = PlanePatch(
            cluster=_accumulate_checked(points[idx]),
            centroid=np.array(rec.centroid),
            normal=np.array(rec.normal),
            eigenvalues=np.array(rec.eigenvalues),
            point_indices=idx,
            root_key=VoxelKey(*rec.root_key),
            depth=rec.depth_histogram[0][0] if rec.depth_histogram else 0,
        )
        groups.append(PlaneGroup(members=[patch], merged=patch))
    return groups


def _floats(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def write_planes(groups: list[PlaneGroup], path) -> None:
    """Write a plane-set document: for each group its root voxel, point
    count, centroid, normal, eigenvalues, member-depth histogram and member
    point indices. Field order is fixed and floats use shortest round-trip
    repr, so output is byte-stable across runs."""
    lines = [f"voxplane-planeset {_VERSION}", f"groups {len(groups)}"]
    for i, g in enumerate(groups):
        m = g.merged
        depths = sorted(Counter(p.depth for p in g.members).items())
        lines += [
            f"group {i}",
            "root " + " ".join(map(str, m.root_key)),
            f"count {int(m.cluster.n)}",
            "centroid " + _floats(m.centroid),
            "normal " + _floats(m.normal),
            "eigenvalues " + _floats(m.eigenvalues),
            "depths " + " ".join(f"{d}:{c}" for d, c in depths),
            "indices " + " ".join(map(str, m.point_indices.tolist())),
            "end",
        ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _depth_pair(pair: str) -> tuple[int, int]:
    depth, count = pair.split(":")
    return int(depth), int(count)


def read_planes(path) -> list[PlaneRecord]:
    """Parse a plane-set document. Malformed content raises
    CloudFormatError, with the line number where one applies."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CloudFormatError(f"cannot read file: {exc}", path) from exc

    def fail(msg, lineno=None):
        raise CloudFormatError(msg, path, lineno)

    def values(lineno, text, cast, n=None):
        try:
            vals = tuple(cast(v) for v in text.split())
        except ValueError as exc:
            fail(f"bad value: {exc}", lineno)
        if n is not None and len(vals) != n:
            fail(f"expected {n} values, got {len(vals)}", lineno)
        return vals

    def header(lineno, key, missing):
        line = lines[lineno - 1] if len(lines) >= lineno else ""
        name, _, rest = line.partition(" ")
        if name != key:
            fail(missing, lineno)
        return values(lineno, rest, int, 1)[0]

    version = header(1, "voxplane-planeset", "not a plane-set document")
    if version != _VERSION:
        fail(f"unsupported version {version}", 1)
    expected = header(2, "groups", "missing group count")

    records = []
    i = 2
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        if not lines[i].startswith("group "):
            fail(f"expected 'group', got {lines[i]!r}", i + 1)
        start = i + 1
        fields: dict[str, tuple[int, str]] = {}  # key -> (line number, values)
        i += 1
        while i < len(lines) and lines[i] != "end":
            key, _, rest = lines[i].partition(" ")
            fields[key] = (i + 1, rest)
            i += 1
        if i >= len(lines):
            fail("group without 'end'", start)
        i += 1

        def field(key, cast, n=None):
            if key not in fields:
                fail(f"group block lacks {key!r}", start)
            return values(*fields[key], cast, n)

        records.append(PlaneRecord(
            root_key=field("root", int, 3),
            count=field("count", int, 1)[0],
            centroid=field("centroid", float, 3),
            normal=field("normal", float, 3),
            eigenvalues=field("eigenvalues", float, 3),
            depth_histogram=field("depths", _depth_pair),
            indices=field("indices", int) if "indices" in fields else None,
        ))
    if len(records) != expected:
        fail(f"document promises {expected} groups, found {len(records)}")
    return records


# ---------------------------------------------------------------------------
# colored clouds and reports


def group_color(index: int) -> tuple[int, int, int]:
    """Deterministic palette: golden-ratio hue stepping, full saturation.
    Distinct for all practical group counts."""
    hue = (index * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.85, 0.95)
    return int(r * 255), int(g * 255), int(b * 255)


def write_colored_cloud(points, assignment, path) -> None:
    """ASCII ply of the points assigned to groups, one distinct color per
    group (palette indexed by group number). Points with assignment < 0
    are not part of any plane and are omitted."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    assign = np.asarray(assignment, dtype=np.int64).reshape(-1)
    keep = np.flatnonzero(assign >= 0)
    groups, member_of = np.unique(assign[keep], return_inverse=True)
    palette = np.array([group_color(g) for g in groups.tolist()],
                       dtype=np.int64).reshape(-1, 3)
    _write_ply(path, pts[keep], ("uchar red", "uchar green", "uchar blue"),
               palette[member_of])


def report_to_dict(report: EvalReport) -> dict:
    return {
        "precision": report.precision,
        "recall": report.recall,
        "extracted_count": report.extracted_count,
        "ground_truth_count": report.ground_truth_count,
        "matched_planes": [
            {"group": m.group_index, "truth_plane": m.plane_id,
             "normal_error_deg": m.normal_error_deg,
             "offset_error_m": m.offset_error_m}
            for m in report.matched_planes
        ],
        "wall_time_s": report.wall_time.as_dict() if report.wall_time else None,
    }


def write_report(report: EvalReport, path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n",
                          encoding="utf-8")

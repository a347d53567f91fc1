"""File formats: point clouds (binary labeled, xyz, ascii ply), plane-set
documents, colored clouds, and the JSON form of evaluation reports.

One writer per format, each formatting whole arrays: one ``tolist()`` per
array, floats in shortest round-trip ``repr``. Output is byte-stable for
identical input: field order is fixed, and nothing timing-dependent is
written except the explicit timing section of reports. Plane sets always
carry each group's member point indices (the point association).

One reader per format, each parsing straight into the library's types:
``read_cloud`` tells the cloud formats apart by content and returns
arrays (xyz and ply rows share one row parser), and ``read_planes``
returns ``PlaneGroup``s over the cloud. The readers reject malformed or
out-of-range content with line numbers.
"""

from __future__ import annotations

import colorsys
import logging
import struct
from collections import Counter
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
    "write_planes",
    "read_planes",
    "write_colored_cloud",
    "group_color",
    "report_to_dict",
]

_MAGIC = b"VXPC"
_VERSION = 1
_HEADER = struct.Struct("<4sIQB")  # magic, version, point count, has_labels


# ---------------------------------------------------------------------------
# point clouds


def read_cloud(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a point cloud, returning (points, labels-or-None).

    The format comes from the content: the labeled-cloud magic, else a
    first line of ``ply``, else xyz. Malformed content is a hard error
    carrying the line number where one applies; nothing is silently
    skipped. Non-finite coordinates are rejected.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CloudFormatError(f"cannot read file: {exc}", path) from exc
    if raw.startswith(_MAGIC):
        pts, labels = _read_labeled(raw, path)
    else:
        try:
            lines = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise CloudFormatError(f"not a recognized cloud file (binary content, "
                                   f"bad magic): {exc}", path) from exc
        if lines and lines[0].strip() == "ply":
            pts, labels = _read_ply(lines, path)
        else:
            rows = [(lineno, line) for lineno, line in enumerate(lines, start=1)
                    if line.strip() and not line.lstrip().startswith("#")]
            pts, labels = _parse_rows(rows, ["x", "y", "z"], path)
    if pts.shape[0] == 0:
        logger.warning("%s: empty cloud", path)
    if not np.isfinite(pts).all():
        raise InputValidationError(f"{path}: cloud contains non-finite coordinates")
    return pts, labels


def _parse_rows(rows: list[tuple[int, str]], columns: list[str],
                path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse (line number, text) rows of whitespace-separated fields named
    by ``columns``: x, y and z as floats, ``label`` (if a column) as an
    int32, any other column skipped."""
    xyz = [columns.index(axis) for axis in ("x", "y", "z")]
    label = columns.index("label") if "label" in columns else None
    pts = np.empty((len(rows), 3))
    labels = None if label is None else np.empty(len(rows), dtype=np.int32)
    for i, (lineno, line) in enumerate(rows):
        fields = line.split()
        if len(fields) != len(columns):
            raise CloudFormatError(f"expected {len(columns)} fields, got "
                                   f"{len(fields)}", path, lineno)
        try:
            pts[i] = [float(fields[k]) for k in xyz]
            if labels is not None:
                labels[i] = int(fields[label])
        except (ValueError, OverflowError) as exc:
            raise CloudFormatError(f"bad number: {exc}", path, lineno) from exc
    return pts, labels


def _read_labeled(raw: bytes, path) -> tuple[np.ndarray, np.ndarray | None]:
    if len(raw) < _HEADER.size:
        raise CloudFormatError("truncated header", path)
    _, version, count, has_labels = _HEADER.unpack_from(raw)
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
    return pts, labels


def _read_ply(lines: list[str], path) -> tuple[np.ndarray, np.ndarray | None]:
    """ASCII ply whose first line is ``ply``: a header with one vertex
    element of scalar properties, then one row per vertex."""
    vertex_count = None
    properties: list[str] = []
    in_vertex = False
    data_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:2] != ["ascii"]:
                raise CloudFormatError(f"unsupported ply format {' '.join(tokens[1:])!r}; "
                                       "only ascii is handled", path, lineno)
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdecimal():
                raise CloudFormatError("expected 'element <name> <count>' with a "
                                       "non-negative integer count", path, lineno)
            in_vertex = tokens[1] == "vertex"
            if in_vertex:
                vertex_count = int(tokens[2])
            elif int(tokens[2]) != 0:
                raise CloudFormatError(f"unsupported non-empty element "
                                       f"{tokens[1]!r}", path, lineno)
        elif tokens[0] == "property":
            if tokens[1:2] == ["list"]:
                if in_vertex:
                    raise CloudFormatError("list properties are not supported",
                                           path, lineno)
            elif len(tokens) != 3:
                raise CloudFormatError("expected 'property <type> <name>'",
                                       path, lineno)
            elif in_vertex:
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
    rows = list(enumerate(lines[data_start:], start=data_start + 1))
    if len(rows) < vertex_count:
        raise CloudFormatError(f"truncated: {len(rows)} of {vertex_count} vertices", path)
    for lineno, line in rows[vertex_count:]:
        if line.strip():
            raise CloudFormatError("more data rows than declared vertices", path, lineno)
    return _parse_rows(rows[:vertex_count], properties, path)


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


def read_planes(path, points: np.ndarray) -> list[PlaneGroup]:
    """Read a plane-set document back as groups over ``points``, the cloud
    it was extracted from: one single-member group per block.

    Centroid, normal and eigenvalues are used as stored; the cluster is
    re-accumulated from the member points, and the depth is the smallest
    one in the depth histogram. Malformed content, including a ``count``
    below 1 or member indices that are not ``count`` distinct values in
    [0, len(points)), raises CloudFormatError with the line number where
    one applies.
    """
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

    groups = []
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

        root = field("root", int, 3)
        count = field("count", int, 1)[0]
        if count < 1:
            fail(f"group count must be at least 1, got {count}", fields["count"][0])
        centroid = field("centroid", float, 3)
        normal = field("normal", float, 3)
        eigenvalues = field("eigenvalues", float, 3)
        depths = field("depths", _depth_pair)
        idx = field("indices", int)
        if (len(idx) != count or len(set(idx)) != count
                or (idx and (min(idx) < 0 or max(idx) >= len(points)))):
            fail(f"indices must be {count} distinct values in [0, {len(points)})",
                 fields["indices"][0])
        idx = np.array(idx, dtype=np.int64)
        patch = PlanePatch(
            cluster=_accumulate_checked(points[idx]),
            centroid=np.array(centroid),
            normal=np.array(normal),
            eigenvalues=np.array(eigenvalues),
            point_indices=idx,
            root_key=VoxelKey(*root),
            depth=min((d for d, _ in depths), default=0),
        )
        groups.append(PlaneGroup(members=[patch], merged=patch))
    if len(groups) != expected:
        fail(f"document promises {expected} groups, found {len(groups)}")
    return groups


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


"""File formats: point clouds (binary labeled, xyz, ascii ply), plane-set
documents and colored clouds.

Clouds are read in all three formats and written in the labeled binary
one, which round-trips coordinates bit-exactly; the text writers put
floats in shortest round-trip ``repr``. The plane set is written group by
group, each group's member indices made text in a few array passes, so
one group's text at most is held. Output is byte-stable for identical
input: field order is fixed, and nothing timing-dependent is written.
Plane sets always carry each group's member point indices (the point
association).

One reader per format, each parsing straight into the library's types:
``read_cloud`` tells the cloud formats apart by content and returns
arrays (xyz and ply rows share one row parser; text, told from binary on
the raw bytes, is UTF-8, a leading byte-order mark allowed), and ``read_planes``
returns ``PlaneGroup``s over the cloud, held to the writer's block rules.
The readers reject malformed or out-of-range content with line numbers.
"""

from __future__ import annotations

import colorsys
import logging
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import CloudFormatError, InputValidationError
from .geometry import accumulate, as_integers, as_points
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
    skipped. Points that ``as_points`` refuses raise its error, naming the file.
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
            lines = raw.decode("utf-8-sig").splitlines()
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
    try:
        return as_points(pts), labels
    except InputValidationError as exc:
        raise InputValidationError(f"{path}: {exc}") from None


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
    if has_labels > 1:
        raise CloudFormatError(f"has-labels flag must be 0 or 1, got {has_labels}", path)
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
    """ASCII ply whose first line is ``ply``: a header with one format line,
    one vertex element of scalar properties and any comment and obj_info
    lines (Turk 1994), then one row per vertex."""
    vertex_count = None
    properties: list[str] = []
    in_vertex = has_format = False
    data_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0] in ("comment", "obj_info"):
            continue
        if tokens[0] == "format":
            if has_format or tokens[1:2] != ["ascii"]:
                raise CloudFormatError(f"expected one 'format ascii' line, got "
                                       f"{line.strip()!r}", path, lineno)
            has_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdecimal():
                raise CloudFormatError("expected 'element <name> <count>' with a "
                                       "non-negative integer count", path, lineno)
            in_vertex = tokens[1] == "vertex"
            if in_vertex:
                if vertex_count is not None:
                    raise CloudFormatError("repeated element vertex", path, lineno)
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
                if tokens[2] in properties:
                    raise CloudFormatError(f"repeated property {tokens[2]!r}", path, lineno)
                properties.append(tokens[2])
        elif tokens[0] == "end_header":
            data_start = lineno
            break
        else:
            raise CloudFormatError(f"unrecognized header line {line.strip()!r}",
                                   path, lineno)
    if data_start is None or vertex_count is None or not has_format:
        raise CloudFormatError("header ended without element vertex / end_header / format", path)
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


def write_cloud(path, points, labels=None) -> None:
    """Write a cloud in the labeled binary format, which round-trips
    coordinates bit-exactly; labels are optional. The points must be an
    (N, 3) array that ``as_points`` takes, and the labels N integers within
    the int32 range (InputValidationError otherwise)."""
    pts = as_points(points)
    blob = _HEADER.pack(_MAGIC, _VERSION, pts.shape[0], labels is not None)
    blob += pts.astype("<f8").tobytes()
    if labels is not None:
        blob += as_integers(labels, -2**31, 2**31, "int32 labels",
                            size=pts.shape[0]).astype("<i4").tobytes()
    Path(path).write_bytes(blob)


# ---------------------------------------------------------------------------
# plane-set documents


# A value in c base-1000 cells is a row of 4 c bytes: three digits and a
# space per cell. Row w of _KEEP, over the last 4 c of its seven cells (any
# int64), keeps the last w digits and the final space. The tables are built
# in plain Python, as numpy code first run at import adds to peak RSS.
_CELLS = np.frombuffer(b"".join(b"%03d " % k for k in range(1000)), dtype="<u4")
_POW10 = np.array([10 ** k for k in range(1, 19)], dtype=np.int64)
_KEEP = np.array([[p == 27 or p % 4 < 3 and 21 - 3 * (p // 4) - p % 4 <= w for p in range(28)]
                  for w in range(20)])


def _index_text(idx: np.ndarray) -> np.ndarray:
    """The bytes of " ".join(map(str, idx.tolist())) + "\\n" for a non-empty,
    non-negative int64 array, as uint8, in a few array passes per base-1000
    cell."""
    cells = (len(str(int(idx.max()))) + 2) // 3
    rows, rest = np.empty((idx.size, cells), "<u4"), idx
    for k in range(cells - 1, 0, -1):
        rest, low = np.divmod(rest, 1000)
        rows[:, k] = _CELLS[low]
    rows[:, 0] = _CELLS[rest]
    width = sum((idx >= p).view(np.int8) for p in _POW10[:3 * cells - 1]) + 1
    text = rows.view(np.uint8)[_KEEP[:, -4 * cells:].take(width, axis=0)]
    text[-1] = ord("\n")
    return text


def _depth_pair(pair: str) -> tuple[int, int]:
    depth, count = pair.split(":")
    return int(depth), int(count)


# One group block as write_planes writes it: (key, value type, value count
# or None for any, text of a value). Line k of group i is line 3 + 9 i + k
# of the document; the indices are made text by _index_text.
_BLOCK = (("group", int, 1, str), ("root", int, 3, str), ("count", int, 1, str),
          ("centroid", float, 3, repr), ("normal", float, 3, repr),
          ("eigenvalues", float, 3, repr), ("depths", _depth_pair, None, "%s:%s".__mod__),
          ("indices", int, None, None), ("end", int, 0, None))


def _block_fault(block, i: int, hi: int) -> tuple[int, str] | None:
    """The first rule that group ``i``'s values of each _BLOCK line break, as
    (line k, message), or None; the indices, a list or array, lie in [0, hi)."""
    [index], root, [count], centroid, normal, eigenvalues, depths, idx, _ = block
    if index != i:
        return 0, f"expected group {i}, got group {index}"
    if not -2**63 <= min(root) <= max(root) < 2**63:
        return 1, "root key values must fit in int64"
    if count < 1:
        return 2, f"count must be at least 1, got {count}"
    if not all(map(math.isfinite, centroid)):
        return 3, "non-finite centroid"
    if not abs(math.hypot(*normal) - 1.0) <= 1e-9:
        return 4, "non-finite normal, or not of unit length within 1e-9"
    if not all(map(math.isfinite, eigenvalues)):
        return 5, "non-finite eigenvalues"
    order = [d for d, _ in depths]
    if not order or order[0] < 0 or order != sorted(set(order)) or min(c for _, c in depths) < 1:
        return 6, ("depths must be one or more depth:count pairs, depths >= 0 and strictly "
                   "ascending, counts >= 1")
    # a list past int64 makes a uint64, float64 or object array: the range test still holds
    ordered = np.sort(idx)
    if (ordered.size != count or not 0 <= int(ordered[0]) <= int(ordered[-1]) < hi
            or (ordered[1:] == ordered[:-1]).any()):
        return 7, f"member indices must be {count} distinct values in [0, {hi})"
    return None


def write_planes(groups: list[PlaneGroup], path) -> None:
    """Write a plane-set document: per group the _BLOCK lines of its root
    voxel, point count (``cluster.n``), centroid, normal, eigenvalues,
    member-depth histogram and member indices, floats in shortest
    round-trip repr, so output is byte-stable. Each block keeps the rules
    of _block_fault with hi = 2^63, the root key, count, member depths
    and indices are of an integer dtype and the centroid, normal and
    eigenvalues of 3 values (InputValidationError before the file is
    opened otherwise)."""
    blocks = []
    for i, g in enumerate(groups):
        m = g.merged
        if not np.shape(m.centroid) == np.shape(m.normal) == np.shape(m.eigenvalues) == (3,):
            raise InputValidationError(f"group {i}: centroid, normal or eigenvalues not 3 values")
        depths = as_integers([p.depth for p in g.members], -2**63, 2**63,
                             f"group {i}: member depths")
        block = ([i], as_integers(m.root_key, -2**63, 2**63, f"group {i}: root key",
                                  size=3).tolist(),
                 as_integers([m.cluster.n], -2**63, 2**63, f"group {i}: count").tolist(),
                 m.centroid.tolist(), m.normal.tolist(), m.eigenvalues.tolist(),
                 sorted(Counter(depths.tolist()).items()),
                 as_integers(m.point_indices, -2**63, 2**63, f"group {i}: member indices"), [])
        if fault := _block_fault(block, i, 2**63):
            raise InputValidationError(f"group {i}: {fault[1]}")
        blocks.append(block)
    with open(path, "wb") as fh:
        fh.write(f"voxplane-planeset {_VERSION}\ngroups {len(groups)}\n".encode())
        for block in blocks:
            fh.write(("".join([f"{key} {' '.join(map(text, values))}\n" for (key, _, _, text),
                               values in zip(_BLOCK[:7], block)]) + "indices ").encode())
            fh.write(_index_text(block[7]))
            fh.write(b"end\n")


def _line_values(lines: list[str], lineno: int, key: str, cast, n, path) -> list:
    """The ``n`` values of type ``cast`` after ``key`` on line ``lineno``."""
    line = lines[lineno - 1] if lineno <= len(lines) else None
    name, _, rest = (line or "").partition(" ")
    if name != key:
        got = "end of file" if line is None else repr(line[:40])
        raise CloudFormatError(f"expected {key!r}, got {got}", path, lineno)
    try:
        vals = [cast(v) for v in rest.split()]
    except ValueError as exc:
        raise CloudFormatError(f"bad value: {exc}", path, lineno) from exc
    if n is not None and len(vals) != n:
        raise CloudFormatError(f"expected {n} values, got {len(vals)}", path, lineno)
    return vals


def read_planes(path, points: np.ndarray) -> list[PlaneGroup]:
    """Read a plane-set document back as groups over ``points``, the cloud
    it was extracted from: one single-member group per block.

    Only the layout write_planes writes is read: the two header lines, then
    each group's nine _BLOCK lines and nothing else, whose values keep the
    rules of _block_fault with indices in [0, len(points)). Root key,
    centroid, normal, eigenvalues and indices are used as stored, the
    cluster is re-accumulated from the member points, and the depth is the
    first d in the depth histogram: a group of several leaves comes back
    as one member, written back as ``depths d:1``. Anything else raises
    CloudFormatError with its line number, and bad points raise
    InputValidationError.
    """
    points = as_points(points)
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CloudFormatError(f"cannot read file: {exc}", path) from exc
    [version] = _line_values(lines, 1, "voxplane-planeset", int, 1, path)
    if version != _VERSION:
        raise CloudFormatError(f"unsupported version {version}", path, 1)
    [expected] = _line_values(lines, 2, "groups", int, 1, path)
    if expected < 0:
        raise CloudFormatError(f"negative group count {expected}", path, 2)

    groups = []
    for i in range(expected):
        start = 3 + len(_BLOCK) * i
        block = [_line_values(lines, start + k, key, cast, n, path)
                 for k, (key, cast, n, _) in enumerate(_BLOCK)]
        if fault := _block_fault(block, i, len(points)):
            raise CloudFormatError(fault[1], path, start + fault[0])
        _, root, _, centroid, normal, eigenvalues, depths, idx, _ = block
        idx = np.array(idx, dtype=np.int64)
        patch = PlanePatch(cluster=accumulate(points[idx]), centroid=np.array(centroid),
                           normal=np.array(normal), eigenvalues=np.array(eigenvalues),
                           point_indices=idx, root_key=VoxelKey(*root), depth=depths[0][0])
        groups.append(PlaneGroup(members=[patch], merged=patch))
    end = 3 + len(_BLOCK) * expected
    if len(lines) >= end:
        raise CloudFormatError(f"content after the {expected} promised groups", path, end)
    return groups


# ---------------------------------------------------------------------------
# colored clouds and reports


def group_color(index: int) -> tuple[int, int, int]:
    """Deterministic palette: golden-ratio hue stepping, full saturation.
    Distinct for all practical group counts."""
    hue = (index * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.85, 0.95)
    return int(r * 255), int(g * 255), int(b * 255)


def write_colored_cloud(points, groups: list[PlaneGroup], path) -> None:
    """ASCII ply of the points in plane groups, group i in palette color
    ``group_color(i)``: double x, y, z in shortest round-trip repr and uchar
    red, green, blue. A point in several groups takes the last one's color;
    points in no group are omitted. The points must be an (N, 3) array
    that ``as_points`` takes and every member index an integer in [0, N)
    (InputValidationError before the file is opened otherwise)."""
    pts = as_points(points)
    assign = np.full(pts.shape[0], -1, dtype=np.int64)
    for i, g in enumerate(groups):
        assign[as_integers(g.merged.point_indices, 0, pts.shape[0],
                           f"group {i}: member indices")] = i
    keep = np.flatnonzero(assign >= 0)
    palette = np.array([group_color(i) for i in range(len(groups))],
                       dtype=np.int64).reshape(-1, 3)
    kept, colors = pts[keep], palette[assign[keep]]
    cols = [map(repr, kept[:, k].tolist()) for k in range(3)]
    cols += [map(str, colors[:, k].tolist()) for k in range(3)]
    header = ["ply", "format ascii 1.0", f"element vertex {keep.shape[0]}",
              "property double x", "property double y", "property double z",
              "property uchar red", "property uchar green", "property uchar blue",
              "end_header"]
    Path(path).write_text("\n".join(header + list(map(" ".join, zip(*cols)))) + "\n",
                          encoding="utf-8")

import json
import logging
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voxplane import (
    CloudFormatError,
    InputValidationError,
    PlaneGroup,
    PlanePatch,
    VoxelKey,
    extract_plane_groups,
    gen_corner,
    gen_multi_room,
    gen_plane,
)
from voxplane.cli import cli_main
from voxplane.evaluation import evaluate
from voxplane.geometry import PointCluster
from voxplane.io import (
    read_cloud,
    read_planes,
    write_cloud,
    write_colored_cloud,
    write_planes,
)

from oracles import traced_peak, write_planeset, write_ply, write_xyz

Z = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# clouds


def test_xyz_roundtrip(tmp_path):
    pts = np.array([[0.0, 1.5, -2.25], [1e-9, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "three.xyz"
    write_xyz(path, pts)
    back, labels = read_cloud(path)
    assert labels is None
    assert np.array_equal(back, pts)


def test_empty_file_warns(tmp_path, caplog):
    path = tmp_path / "empty.xyz"
    path.write_text("")
    with caplog.at_level(logging.WARNING):
        pts, labels = read_cloud(path)
    assert pts.shape == (0, 3)
    assert any("empty" in rec.message for rec in caplog.records)


def test_labeled_bit_exact_roundtrip(tmp_path, rng):
    pts = rng.uniform(-100, 100, (100_000, 3))
    labels = rng.integers(-1, 7, 100_000).astype(np.int32)
    path = tmp_path / "big.vxc"
    write_cloud(path, pts, labels)
    back, lab = read_cloud(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, pts)          # bit-exact coordinates
    assert np.array_equal(lab, labels)


def test_labeled_without_labels(tmp_path, rng):
    pts = rng.uniform(0, 1, (10, 3))
    path = tmp_path / "nolabel.vxc"
    write_cloud(path, pts)
    back, lab = read_cloud(path)
    assert lab is None
    assert np.array_equal(back, pts)


def test_xyz_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n3 4 5\n")
    with pytest.raises(CloudFormatError) as err:
        read_cloud(path)
    assert err.value.line == 2


def test_xyz_bad_number_reports_lineno(tmp_path):
    path = tmp_path / "bad2.xyz"
    path.write_text("0 0 0\n# comment is fine\n1 2 zebra\n")
    with pytest.raises(CloudFormatError) as err:
        read_cloud(path)
    assert err.value.line == 3


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "naughty.xyz"
    path.write_text("0 0 0\n1 nan 2\n")
    with pytest.raises(InputValidationError):
        read_cloud(path)


def test_truncated_labeled_file(tmp_path, rng):
    path = tmp_path / "trunc.vxc"
    write_cloud(path, rng.uniform(0, 1, (50, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CloudFormatError):
        read_cloud(path)


def test_ply_roundtrip_with_labels(tmp_path, rng):
    pts = rng.uniform(-5, 5, (200, 3))
    labels = rng.integers(-1, 4, 200).astype(np.int32)
    path = tmp_path / "cloud.ply"
    write_ply(path, pts, labels)
    back, lab = read_cloud(path)
    assert np.array_equal(back, pts)   # repr round-trips doubles exactly
    assert np.array_equal(lab, labels)


def test_ply_rejects_binary_format(tmp_path):
    path = tmp_path / "bin.ply"
    path.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
                    "property double x\nproperty double y\nproperty double z\n"
                    "end_header\n")
    with pytest.raises(CloudFormatError):
        read_cloud(path)


_PLY_HEAD = ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
             "property double y\nproperty double z\nproperty int label\nend_header\n")


@pytest.mark.parametrize("good, bad, line", [
    ("element vertex 1", "element vertex x", 3),
    ("element vertex 1", "element vertex", 3),
    ("element vertex 1", "element vertex -1", 3),
    ("element vertex 1", "element", 3),
    ("property double y", "property double", 5),
    ("end_header\n", "end_header\n0 0 0 4294967296\n", 9),
    ("end_header\n", "element vertex 1\nproperty double x\nproperty double y\n"
                     "property double z\nend_header\n0 0 0 7 1 1 1\n", 8),
    # the second x was once read as a column and silently dropped
    ("property double y\n", "property double y\nproperty float x\n", 6),
], ids=["count-not-a-number", "count-missing", "count-negative", "element-bare",
        "property-no-name", "label-past-int32", "second-vertex-element", "repeated-property"])
def test_ply_hostile_input(tmp_path, good, bad, line):
    path = tmp_path / "hostile.ply"
    path.write_text(_PLY_HEAD.replace(good, bad))
    with pytest.raises(CloudFormatError) as err:
        read_cloud(path)
    assert err.value.line == line


def _ply(good, bad):
    assert good in _PLY_HEAD
    return _PLY_HEAD.replace(good, bad).encode()


@pytest.mark.parametrize("content, message, line", [
    (b"\xff\xfe\x00\x01binary", "binary content, bad magic", None),
    (b"VXPC\x01\x00", "truncated header", None),
    (struct.pack("<4sIQB", b"VXPC", 2, 0, 0), "unsupported labeled-cloud version 2", None),
    (_ply("end_header", "element face 1\nend_header"),
     "unsupported non-empty element 'face'", 8),
    (_ply("property int label", "property list uchar int label"),
     "list properties are not supported", 7),
    (_ply("format ascii 1.0\n", "format ascii 1.0\nobj_info scanner 7\n"),
     "unrecognized header line 'obj_info scanner 7'", 3),
    (_ply("element vertex 1\n", ""), "header ended without element vertex", None),
    (_ply("end_header\n", ""), "header ended without element vertex / end_header", None),
    (_ply("property double x\n", ""), "vertex element lacks property 'x'", None),
    (_ply("property double y\n", ""), "vertex element lacks property 'y'", None),
    (_ply("property double z\n", ""), "vertex element lacks property 'z'", None),
    (_ply("end_header\n", "end_header\n0 0 0 1\n1 1 1 1\n"),
     "more data rows than declared vertices", 10),
], ids=["binary-without-magic", "labeled-truncated-header", "labeled-version-2",
        "ply-non-empty-face-element", "ply-vertex-list-property", "ply-unknown-header-line",
        "ply-no-element-vertex", "ply-no-end-header", "ply-no-x", "ply-no-y", "ply-no-z",
        "ply-extra-rows"])
def test_read_cloud_refusals(tmp_path, content, message, line):
    path = tmp_path / "cloud"
    path.write_bytes(content)
    with pytest.raises(CloudFormatError, match=re.escape(message)) as err:
        read_cloud(path)
    assert err.value.line == line


def test_ply_header_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "commented.ply"
    path.write_bytes(_ply("format ascii 1.0\n", "format ascii 1.0\ncomment scanner 7\n\n"
                          "comment element face 9\n") + b"0.5 1.5 2.5 3\n")
    points, labels = read_cloud(path)
    assert points.tolist() == [[0.5, 1.5, 2.5]]
    assert labels.tolist() == [3]


def test_ply_hostile_header_exit_code(tmp_path, capsys):
    path = tmp_path / "hostile.ply"
    path.write_text(_PLY_HEAD.replace("element vertex 1", "element vertex"))
    assert cli_main(["extract", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_ply_truncated_data(tmp_path):
    path = tmp_path / "short.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property double x\nproperty double y\nproperty double z\n"
                    "end_header\n0 0 0\n1 1 1\n")
    with pytest.raises(CloudFormatError):
        read_cloud(path)


def test_auto_sniffing(tmp_path, rng):
    pts = rng.uniform(0, 1, (20, 3))
    for write, name in ((write_cloud, "a.bin"), (write_xyz, "b.txt"), (write_ply, "c.dat")):
        path = tmp_path / name
        write(path, pts)
        back, _ = read_cloud(path)  # format sniffed from content
        assert np.array_equal(back, pts)


_EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                 1e308, -1e308, 1.7976931348623157e308]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pts=arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from(_EDGE_DOUBLES)),
       data=st.data())
def test_read_back_bit_exact(tmp_path, pts, data):
    labels = data.draw(arrays(np.int32, pts.shape[0],
                              elements=st.integers(-2**31, 2**31 - 1)))
    for fmt in ("labeled", "xyz", "ply"):
        path = tmp_path / f"cloud.{fmt}"
        if fmt == "xyz":
            write_xyz(path, pts)
        else:
            (write_cloud if fmt == "labeled" else write_ply)(path, pts, labels)
        back, lab = read_cloud(path)
        assert back.dtype == np.float64 and back.shape == pts.shape
        assert np.array_equal(back.view(np.int64), pts.view(np.int64))
        if fmt == "xyz":
            assert lab is None
        else:
            assert lab.dtype == np.int32 and np.array_equal(lab, labels)


@pytest.mark.parametrize("write", [
    lambda path, pts: write_cloud(path, pts),
    lambda path, pts: write_colored_cloud(pts, [_group([0])], path),
], ids=["labeled", "colored"])
@pytest.mark.parametrize("pts", [
    np.arange(12.0).reshape(3, 4),
    np.arange(6.0),
    np.array([[0.0, 1.0, 2.0], [3.0, np.nan, 5.0]]),
    np.array([[0.0, np.inf, 2.0]]),
], ids=["four-columns", "flat", "nan", "inf"])
def test_writers_reject_what_the_readers_reject(tmp_path, write, pts):
    path = tmp_path / "out"
    with pytest.raises(InputValidationError):
        write(path, pts)
    assert not path.exists()


def test_colored_cloud_assignment_length(tmp_path):
    # a member index must name a point of the cloud: a negative one once
    # colored the point it wrapped round to
    path = tmp_path / "c.ply"
    for bad in ([-1], [0, 3]):
        with pytest.raises(InputValidationError, match="group 1: member indices"):
            write_colored_cloud(np.zeros((3, 3)), [_group([0]), _group(bad)], path)
        assert not path.exists()


def test_colored_cloud_rejects_non_integer_assignments(tmp_path):
    # a float index cast to an integer once colored the wrong point
    path = tmp_path / "c.ply"
    for bad in ([0.0, 1.0], [True, False], ["0", "1"], np.array([], dtype=float)):
        with pytest.raises(InputValidationError, match="group 1: member indices"):
            write_colored_cloud(np.zeros((3, 3)), [_group([0]), _group(bad)], path)
        assert not path.exists()
    write_colored_cloud(np.zeros((3, 3)), [_group(np.array([0, 2], dtype=np.uint8))], path)
    assert "element vertex 2" in path.read_text()


def test_labeled_writer_rejects_non_integer_labels(tmp_path):
    # a cast would truncate them: [0.7, -1.5] once read back as [0, -1]
    with pytest.raises(InputValidationError, match="integers"):
        write_cloud(tmp_path / "f.vxc", np.zeros((2, 3)), np.array([0.7, -1.5]))


def test_labeled_writer_rejects_labels_outside_int32(tmp_path):
    # a cast would wrap them: [2**40, 3] once read back as [0, 3]
    for labels in ([2**40, 3], [-2**31 - 1, 3], np.array([2**31, 3], dtype=np.uint64)):
        with pytest.raises(InputValidationError, match="int32"):
            write_cloud(tmp_path / "w.vxc", np.zeros((2, 3)), np.array(labels))
    write_cloud(tmp_path / "edge.vxc", np.zeros((2, 3)), [-2**31, 2**31 - 1])
    assert read_cloud(tmp_path / "edge.vxc")[1].tolist() == [-2**31, 2**31 - 1]


def test_labeled_flag_must_be_zero_or_one(tmp_path, rng):
    path = tmp_path / "flag.vxc"
    write_cloud(path, rng.uniform(0, 1, (5, 3)), np.arange(5))
    raw = bytearray(path.read_bytes())
    assert raw[16] == 1  # magic, version, count, then the has-labels byte
    raw[16] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(CloudFormatError, match="has-labels"):
        read_cloud(path)


def test_text_writers_exact_bytes(tmp_path):
    pts = np.array([[0.1, -0.0, 1e-300],
                    [123456789.125, 0.1, -0.0],
                    [-1e-300, 123456789.125, -0.1]])
    colored = tmp_path / "c.ply"
    # group i takes color i, and a point in two groups the later one's
    write_colored_cloud(pts, [_group([0]), _group([2]), _group([2])], colored)
    assert colored.read_text() == (
        "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
        "property double y\nproperty double z\nproperty uchar red\n"
        "property uchar green\nproperty uchar blue\nend_header\n"
        "0.1 -0.0 1e-300 242 36 36\n-1e-300 123456789.125 -0.1 156 242 36\n")


# ---------------------------------------------------------------------------
# plane sets


def _extract_groups(rng):
    cloud = gen_plane(Z, 0.5, (2.0, 2.0), 1200.0, 0.003, seed=9,
                      center=np.array([0.0, 0.0, 0.5]))
    return cloud, extract_plane_groups(cloud.points).groups


def test_planeset_empty_document(tmp_path):
    path = tmp_path / "empty.planes"
    write_planes([], path)
    assert read_planes(path, np.zeros((0, 3))) == []


def test_planeset_roundtrip(tmp_path, rng):
    cloud, groups = _extract_groups(rng)
    path = tmp_path / "planes.txt"
    write_planes(groups, path)
    back = read_planes(path, cloud.points)
    assert len(back) == len(groups)
    for rg, g in zip(back, groups):
        m, r = g.merged, rg.merged
        assert len(rg.members) == 1 and rg.members[0] is r
        assert r.root_key == m.root_key
        assert r.cluster.n == m.cluster.n
        assert np.array_equal(r.centroid, m.centroid)
        assert np.array_equal(r.normal, m.normal)
        assert np.array_equal(r.eigenvalues, m.eigenvalues)
        assert r.depth == min(p.depth for p in g.members)
        assert np.array_equal(r.point_indices, m.point_indices)


_ONE_GROUP = ("voxplane-planeset 1\ngroups 1\ngroup 0\nroot 0 0 0\ncount 2\n"
              "centroid 0.0 0.0 0.0\nnormal 0.0 0.0 1.0\neigenvalues 1.0 1.0 0.0\n"
              "depths 0:1\nindices 3 4\nend\n")


def test_planeset_without_indices(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text(_ONE_GROUP.replace("indices 3 4\n", ""))
    with pytest.raises(CloudFormatError, match="expected 'indices'") as err:
        read_planes(path, np.zeros((10, 3)))
    assert err.value.line == 10


def test_read_planes_evaluates(tmp_path, rng):
    cloud, groups = _extract_groups(rng)
    path = tmp_path / "planes.txt"
    write_planes(groups, path)
    report = evaluate(read_planes(path, cloud.points), cloud)
    assert report.precision == 1.0
    assert report.recall > 0.9


def test_planeset_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("not a plane set\n")
    with pytest.raises(CloudFormatError):
        read_planes(path, np.zeros((10, 3)))


def test_planeset_count_mismatch(tmp_path):
    path = tmp_path / "miscount.txt"
    path.write_text("voxplane-planeset 1\ngroups 2\ngroup 0\nroot 0 0 0\ncount 1\n"
                    "centroid 0.0 0.0 0.0\nnormal 0.0 0.0 1.0\n"
                    "eigenvalues 1.0 1.0 0.0\ndepths 0:1\nindices 0\nend\n")
    with pytest.raises(CloudFormatError):
        read_planes(path, np.zeros((10, 3)))


_TWO_GROUPS = (_ONE_GROUP.replace("groups 1", "groups 2")
               + "group 1\nroot 1 0 0\ncount 2\ncentroid 1.5 0.0 0.0\n"
                 "normal 1.0 0.0 0.0\neigenvalues 1.0 1.0 0.0\ndepths 1:1\n"
                 "indices 5 6\nend\n")


# The reader walks the nine-line block that write_planes writes: line k of
# group i is line 3 + 9 i + k, and anything else is an error on that line.
@pytest.mark.parametrize("good, bad, line", [
    ("voxplane-planeset 1", "voxplane-planeset x", 1),
    ("voxplane-planeset 1", "voxplane-planeset ", 1),
    ("voxplane-planeset 1", "voxplane-planeset 2", 1),
    ("groups 2", "groups many", 2),
    ("root 0 0 0", "root 0 0", 4),
    ("centroid 0.0 0.0 0.0", "centroid 0.0 0.0", 6),
    ("normal 0.0 0.0 1.0", "normal 0.0 0.0 1.0 0.0", 7),
    ("eigenvalues 1.0 1.0 0.0", "eigenvalues 1.0", 8),
    ("depths 0:1", "depths 0:x", 9),
    ("indices 3 4", "indices 3 99", 10),
    ("indices 3 4", "indices -1 5", 10),
    ("count 2", "count 7", 10),
    ("indices 3 4", "indices 3 3", 10),
    ("count 2", "count 0", 5),
    ("normal 0.0 0.0 1.0", "normal nan 0.0 0.0", 7),
    ("normal 1.0 0.0 0.0", "normal 1.0 0.0 -inf", 16),
    ("normal 0.0 0.0 1.0", "normal 0.0 0.0 1.000001", 7),
    ("normal 0.0 0.0 1.0", "normal 0.0 0.0 0.0", 7),
    ("centroid 1.5 0.0 0.0", "centroid 1.5 inf 0.0", 15),
    ("eigenvalues 1.0 1.0 0.0", "eigenvalues 1.0 nan 0.0", 8),
    ("indices 3 4\n", "indices 3 4\nindices 3 4\n", 11),
    ("count 2\n", "count 2\nlabel 7\n", 6),
    ("group 1", "group 0", 12),
    ("group 0", "group 5", 3),
    ("centroid 0.0 0.0 0.0\nnormal 0.0 0.0 1.0",
     "normal 0.0 0.0 1.0\ncentroid 0.0 0.0 0.0", 6),
    ("end\ngroup 1", "end\n\ngroup 1", 12),
    ("indices 5 6\nend\n", "indices 5 6\nend\n\n", 21),
    ("indices 5 6\nend\n", "indices 5 6\nend\n" + _ONE_GROUP.split("\n", 2)[2], 21),
    ("indices 5 6\nend\n", "indices 5 6\n", 20),
    ("groups 2", "groups -1", 2),
    ("depths 1:1", "depths", 18),
    ("depths 0:1", "depths -1:1", 9),
    ("depths 0:1", "depths 0:0", 9),
    # once read, though write_planes refuses the first and never writes the others
    ("root 0 0 0", "root 9223372036854775808 0 0", 4),
    ("depths 0:1", "depths 1:1 0:2", 9),
    ("depths 0:1", "depths 0:1 0:2", 9),
], ids=["bad-version", "no-version", "unsupported-version", "bad-group-count",
        "short-root", "short-centroid", "long-normal", "short-eigenvalues", "bad-depth",
        "index-past-end", "negative-index", "count-above-indices", "duplicate-index", "count-zero",
        "nan-normal", "inf-normal", "non-unit-normal", "zero-normal", "inf-centroid",
        "nan-eigenvalue", "repeated-indices", "unknown-key", "repeated-group-index",
        "wrong-group-index", "reordered-keys", "blank-between-groups", "trailing-blank",
        "trailing-content", "truncated", "negative-group-count", "empty-depths",
        "negative-depth", "zero-depth-count", "root-past-int64", "descending-depths",
        "repeated-depth"])
def test_planeset_hostile_documents(tmp_path, good, bad, line):
    path = tmp_path / "hostile.txt"
    path.write_text(_TWO_GROUPS)
    assert len(read_planes(path, np.zeros((10, 3)))) == 2
    assert good in _TWO_GROUPS
    text = _TWO_GROUPS.replace(good, bad, 1)
    if bad == "count 0":  # an empty group: no indices either
        text = text.replace("indices 3 4", "indices")
    path.write_text(text)
    with pytest.raises(CloudFormatError) as err:
        read_planes(path, np.zeros((10, 3)))
    assert err.value.line == line


def test_golden_planeset_reads_back():
    golden = Path(__file__).parent / "data" / "corner_planeset.golden.txt"
    cloud = gen_corner(seed=0)
    groups = extract_plane_groups(cloud.points).groups
    back = read_planes(golden, cloud.points)
    assert len(back) == len(groups) == 27
    for r, g in zip(back, groups):
        assert np.array_equal(r.merged.normal, g.merged.normal)
        assert np.array_equal(r.merged.point_indices, g.merged.point_indices)


def test_read_planes_keeps_one_member_per_group(tmp_path, corner_cloud):
    # a group read back is one member at its shallowest depth, so the depth
    # histogram of a group that merged several leaves is not kept: the
    # corner's six two-leaf groups are written back as one leaf each, every
    # other line is kept, and a second read and write changes nothing
    golden = Path(__file__).parent / "data" / "corner_planeset.golden.txt"
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    write_planes(read_planes(golden, corner_cloud.points), first)
    write_planes(read_planes(first, corner_cloud.points), second)
    lines = golden.read_text(encoding="utf-8").splitlines()
    again = first.read_text(encoding="utf-8").splitlines()
    assert len(again) == len(lines)
    assert [(a, b) for a, b in zip(lines, again) if a != b] == [("depths 1:2", "depths 1:1")] * 6
    assert second.read_bytes() == first.read_bytes()


def test_read_planes_checks_its_points(corner_cloud):
    # a list once raised a bare TypeError, and a NaN point in no group was
    # read without a word
    golden = Path(__file__).parent / "data" / "corner_planeset.golden.txt"
    points = corner_cloud.points
    back = read_planes(golden, points.tolist())
    for r, g in zip(back, read_planes(golden, points), strict=True):
        assert np.array_equal(r.merged.point_indices, g.merged.point_indices)
        assert np.array_equal(r.merged.cluster.sum, g.merged.cluster.sum)
    # every corner point is in a group; an appended point is in none
    for bad in (points.copy(), np.vstack([points, points[:1]])):
        bad[-1, 1] = np.nan
        with pytest.raises(InputValidationError, match="NaN"):
            read_planes(golden, bad)
    with pytest.raises(InputValidationError, match="shape"):
        read_planes(golden, points[:, :2])


def _group(indices, count=None, depth=0) -> PlaneGroup:
    """A one-member group over the given member indices; ``count`` is the
    cluster's point count (the number of indices unless given)."""
    n = len(indices) if count is None else count
    patch = PlanePatch(cluster=PointCluster(n, np.zeros(3), np.zeros((3, 3)), np.zeros(3)),
                       centroid=np.array([0.5, -1e-300, 4e6]), normal=np.array([0.0, 0.0, 1.0]),
                       eigenvalues=np.array([1.0, 0.25, 1e-9]), point_indices=np.asarray(indices),
                       root_key=VoxelKey(-3, 0, 7), depth=depth)
    return PlaneGroup(members=[patch], merged=patch)


@pytest.mark.parametrize("indices, count, depth", [
    (np.array([], dtype=np.int64), 0, 0),
    (np.array([-1, 8193, 8194]), 3, 0),
    (np.array([3, 4, 5]), 2, 0),
    (np.array([3, 4]), 3, 0),
    (np.array([3.0, 4.0]), 2, 0),
    (np.array([2**63 + 1], dtype=np.uint64), 1, 0),
    # the reader refuses these at the indices and the depths line; a float
    # or bool depth was once written as "depths 1.5:1" or "depths True:1"
    (np.array([5, 3, 5]), 3, 0),
    (np.array([3, 4]), 2, -1),
    (np.array([3, 4]), 2, 1.5),
    (np.array([3, 4]), 2, True),
    # a count that is not an integer was once written truncated, as "count 2"
    (np.array([3, 4]), 2.7, 0),
    (np.array([3]), True, 0),
], ids=["empty", "negative", "count-below-indices", "count-above-indices",
        "float-indices", "past-int64", "repeated-index", "negative-depth", "float-depth",
        "bool-depth", "float-count", "bool-count"])
def test_write_planes_refuses_what_read_planes_refuses(tmp_path, indices, count, depth):
    path = tmp_path / "refused.txt"
    groups = [_group([0, 1]), _group(indices, count, depth)]
    with pytest.raises(InputValidationError, match="group 1"):
        write_planes(groups, path)
    assert not path.exists()


@pytest.mark.parametrize("field, value, message", [
    ("centroid", np.array([0.5, np.nan, 4e6]), "non-finite centroid"),
    ("eigenvalues", np.array([np.inf, 0.25, 1e-9]), "non-finite eigenvalues"),
    ("normal", np.array([0.0, 0.0, 2.0]), "unit"),
    ("normal", np.array([0.0, 0.0, 1.0 + 2e-9]), "unit"),
    ("normal", np.array([np.nan, 0.0, 1.0]), "unit"),
    # the reader refuses these at their line: "expected 3 values", "bad value"
    ("centroid", np.array([0.5, 0.0, 4e6, 1.0]), "3 values"),
    ("normal", np.array([0.6, 0.8]), "3 values"),
    ("eigenvalues", np.array([1.0, 0.25]), "3 values"),
    ("root_key", (-3, 0), "root key"),
    ("root_key", (-3.0, 0.0, 7.0), "root key"),
], ids=["nan-centroid", "inf-eigenvalue", "normal-length-2", "normal-off-by-2e-9",
        "nan-normal", "centroid-of-4", "normal-of-2", "eigenvalues-of-2", "root-key-of-2",
        "float-root-key"])
def test_write_planes_refuses_floats_read_planes_refuses(tmp_path, field, value, message):
    path = tmp_path / "refused.txt"
    bad = _group([2, 3])
    setattr(bad.merged, field, value)
    with pytest.raises(InputValidationError, match=f"group 1: .*{message}"):
        write_planes([_group([0, 1]), bad], path)
    assert not path.exists()


def test_write_planes_accepts_normals_read_planes_accepts(tmp_path, corner_cloud):
    # a normal within 1e-9 of unit length, off by more than rounding,
    # is written and read back as it is
    group = _group([0, 1])
    group.merged.normal = np.array([0.0, 0.6, 0.8 + 5e-10])
    write_planes([group], tmp_path / "ok.txt")
    [back] = read_planes(tmp_path / "ok.txt", corner_cloud.points)
    assert np.array_equal(back.merged.normal, group.merged.normal)


def _group_with(field, value) -> PlaneGroup:
    group = _group([3, 4])
    setattr(group.merged, field, np.array(value))
    return group


# Each block rule, broken once in a group write_planes is given and once at
# its line of a document read_planes is given: both refusals carry one
# message. (The writer's groups cannot break the group-index and int64
# root-key rules: it numbers the groups, and its root keys are int64.)
@pytest.mark.parametrize("group, good, bad, line, message", [
    (_group([3, 4], count=0), "count 2", "count 0", 5, "count must be at least 1, got 0"),
    (_group_with("centroid", [0.0, np.nan, 0.0]), "centroid 0.0 0.0 0.0",
     "centroid 0.0 nan 0.0", 6, "non-finite centroid"),
    (_group_with("normal", [0.0, 0.0, 2.0]), "normal 0.0 0.0 1.0", "normal 0.0 0.0 2.0", 7,
     "non-finite normal, or not of unit length"),
    (_group_with("eigenvalues", [np.inf, 1.0, 0.0]), "eigenvalues 1.0 1.0 0.0",
     "eigenvalues inf 1.0 0.0", 8, "non-finite eigenvalues"),
    (_group([3, 4], depth=-1), "depths 0:1", "depths -1:1", 9, "depths must be one or more"),
    (_group([3, 3]), "indices 3 4", "indices 3 3", 10, "member indices must be 2 distinct"),
], ids=["count", "centroid", "normal", "eigenvalues", "depths", "indices"])
def test_writer_and_reader_refuse_a_rule_alike(tmp_path, group, good, bad, line, message):
    with pytest.raises(InputValidationError) as wrote:
        write_planes([group], tmp_path / "refused.txt")
    path = tmp_path / "hostile.txt"
    path.write_text(_ONE_GROUP.replace(good, bad))
    with pytest.raises(CloudFormatError) as read:
        read_planes(path, np.zeros((10, 3)))
    assert read.value.line == line
    ours = str(wrote.value).split("group 0: ", 1)[1]
    theirs = str(read.value).split(f"line {line}: ", 1)[1]
    assert message in ours
    assert ours.split(" [0,")[0] == theirs.split(" [0,")[0]  # hi differs: 2^63 and 10


@st.composite
def _single_member_sets(draw):
    """A cloud size and single-member groups over it, as read_planes
    returns them: boundary indices, UTM centroids and depths 0 to 3."""
    size = draw(st.sampled_from([1, 2, 999, 1000, 10**6 + 1]))
    index = st.one_of(st.sampled_from([0, size - 1]), st.integers(0, size - 1))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        idx = np.array(draw(st.lists(index, min_size=1, max_size=20, unique=True)))
        normal = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)
                               .filter(lambda v: np.linalg.norm(v) > 0.1)))
        utm = [draw(st.floats(lo, hi)) for lo, hi in ((-1e6, 1e6), (0, 1e7), (-1e4, 1e4))]
        patch = PlanePatch(
            cluster=PointCluster(idx.size, np.zeros(3), np.zeros((3, 3)), np.zeros(3)),
            centroid=np.array(utm), normal=normal / np.linalg.norm(normal),
            eigenvalues=np.array(draw(st.lists(finite, min_size=3, max_size=3))),
            point_indices=idx, root_key=VoxelKey(*draw(st.lists(
                st.integers(-2**63, 2**63 - 1), min_size=3, max_size=3))),
            depth=draw(st.integers(0, 3)))
        groups.append(PlaneGroup(members=[patch], merged=patch))
    return size, groups


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_single_member_sets())
def test_planeset_write_read_write_is_byte_stable(tmp_path, case):
    # what read_planes returns, write_planes writes back byte for byte
    size, groups = case
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    write_planes(groups, first)
    write_planes(read_planes(first, np.broadcast_to(np.zeros(3), (size, 3))), second)
    assert first.read_bytes() == second.read_bytes()


# distinct within each group, as the writer requires
_BOUNDARIES = [0, 2**63 - 1] + [10**k + d for k in range(1, 19) for d in (-1, 0)]
_INDICES = st.lists(st.one_of(st.sampled_from(_BOUNDARIES), st.integers(0, 2**63 - 1),
                              st.integers(0, 10**6)), min_size=1, max_size=40, unique=True)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_INDICES, min_size=1, max_size=12))
@example([_BOUNDARIES, [0], [2**63 - 1], [7, 10**6, 42]])
def test_planeset_index_text_matches_reference(tmp_path, groups):
    # every index line, in groups of mixed widths, is the one str() per
    # value gives, and so is the rest of the document
    groups = [_group(np.array(g, dtype=np.int64), depth=i % 3) for i, g in enumerate(groups)]
    ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
    write_planes(groups, ours)
    write_planeset(groups, ref)
    assert ours.read_bytes() == ref.read_bytes()


@pytest.fixture(scope="module")
def room_1m_groups():
    return extract_plane_groups(gen_multi_room(target_points=1_000_000, seed=0).points).groups


def test_planeset_bytes_match_reference_on_room_scenes(tmp_path, room_1m_groups):
    scenes = [extract_plane_groups(gen_multi_room(target_points=30_000, seed=[0, i]).points)
              .groups for i in range(3)] + [room_1m_groups]
    for groups in scenes:
        ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
        write_planes(groups, ours)
        write_planeset(groups, ref)
        assert ours.read_bytes() == ref.read_bytes()


def test_planeset_write_holds_at_most_half_the_document(tmp_path, room_1m_groups):
    # One group's text at a time: a writer that builds the whole document
    # first holds it at least once, and is caught here.
    path = tmp_path / "room.txt"
    peak = traced_peak(write_planes, room_1m_groups, path)
    size = path.stat().st_size
    assert size >= 1_000_000
    assert peak < size / 2, (peak, size)


# ---------------------------------------------------------------------------
# colored clouds and reports


def test_colored_cloud_palette(tmp_path, rng):
    pts = rng.uniform(0, 1, (30, 3))
    groups = [_group(np.arange(0, 10)), _group(np.arange(10, 20)), _group(np.arange(20, 25))]
    path = tmp_path / "colored.ply"
    write_colored_cloud(pts, groups, path)
    lines = path.read_text().splitlines()
    n = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
    assert n == 25  # unassigned points omitted
    body = lines[lines.index("end_header") + 1:]
    colors = {tuple(l.split()[3:6]) for l in body if l.strip()}
    assert len(colors) == 3


def test_colored_cloud_single_group(tmp_path, rng):
    pts = rng.uniform(0, 1, (10, 3))
    path = tmp_path / "one.ply"
    write_colored_cloud(pts, [_group(np.arange(10))], path)
    body = path.read_text().splitlines()
    body = body[body.index("end_header") + 1:]
    assert len({tuple(l.split()[3:6]) for l in body if l.strip()}) == 1


def test_colored_cloud_empty(tmp_path):
    path = tmp_path / "none.ply"
    write_colored_cloud(np.zeros((0, 3)), [], path)
    assert "element vertex 0" in path.read_text()


def test_report_json(rng):
    cloud, groups = _extract_groups(rng)
    result = extract_plane_groups(cloud.points)
    report = evaluate(result.groups, cloud, result.timings)
    data = json.loads(json.dumps(asdict(report)))
    assert set(data) == {"precision", "recall", "extracted_count",
                         "ground_truth_count", "matched_planes", "wall_time_s"}
    assert data["precision"] == report.precision
    assert data["wall_time_s"]["total"] >= 0
    rt = asdict(report)
    assert rt["matched_planes"] == data["matched_planes"]

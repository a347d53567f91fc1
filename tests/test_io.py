import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voxplane import (
    CloudFormatError,
    InputValidationError,
    extract_plane_groups,
    gen_plane,
)
from voxplane.cli import cli_main
from voxplane.evaluation import evaluate
from voxplane.io import (
    read_cloud,
    read_planes,
    report_to_dict,
    write_cloud,
    write_colored_cloud,
    write_planes,
)

Z = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# clouds


def test_xyz_roundtrip(tmp_path):
    pts = np.array([[0.0, 1.5, -2.25], [1e-9, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "three.xyz"
    write_cloud(path, pts, fmt="xyz")
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
    write_cloud(path, pts, labels, fmt="ply_ascii")
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
], ids=["count-not-a-number", "count-missing", "count-negative", "element-bare",
        "property-no-name", "label-past-int32"])
def test_ply_hostile_input(tmp_path, good, bad, line):
    path = tmp_path / "hostile.ply"
    path.write_text(_PLY_HEAD.replace(good, bad))
    with pytest.raises(CloudFormatError) as err:
        read_cloud(path)
    assert err.value.line == line


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
    for fmt, name in (("labeled", "a.bin"), ("xyz", "b.txt"), ("ply_ascii", "c.dat")):
        path = tmp_path / name
        write_cloud(path, pts, fmt=fmt)
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
    for fmt in ("labeled", "xyz", "ply_ascii"):
        path = tmp_path / f"cloud.{fmt}"
        write_cloud(path, pts, labels, fmt=fmt)
        back, lab = read_cloud(path)
        assert back.dtype == np.float64 and back.shape == pts.shape
        assert np.array_equal(back.view(np.int64), pts.view(np.int64))
        if fmt == "xyz":
            assert lab is None
        else:
            assert lab.dtype == np.int32 and np.array_equal(lab, labels)


def test_text_writers_exact_bytes(tmp_path):
    pts = np.array([[0.1, -0.0, 1e-300],
                    [123456789.125, 0.1, -0.0],
                    [-1e-300, 123456789.125, -0.1]])
    rows = ["0.1 -0.0 1e-300", "123456789.125 0.1 -0.0", "-1e-300 123456789.125 -0.1"]
    xyz, ply, colored = tmp_path / "a.xyz", tmp_path / "a.ply", tmp_path / "c.ply"
    write_cloud(xyz, pts, fmt="xyz")
    write_cloud(ply, pts, np.array([3, -1, 0], dtype=np.int32), fmt="ply_ascii")
    write_colored_cloud(pts, np.array([0, -1, 2]), colored)
    head = ("ply\nformat ascii 1.0\nelement vertex {}\nproperty double x\n"
            "property double y\nproperty double z\n")
    assert xyz.read_text() == "\n".join(rows) + "\n"
    assert ply.read_text() == (head.format(3) + "property int label\nend_header\n"
                               f"{rows[0]} 3\n{rows[1]} -1\n{rows[2]} 0\n")
    assert colored.read_text() == (
        head.format(2) + "property uchar red\nproperty uchar green\n"
        "property uchar blue\nend_header\n"
        f"{rows[0]} 242 36 36\n{rows[2]} 156 242 36\n")


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


def test_planeset_deterministic_bytes(tmp_path, rng):
    cloud, _ = _extract_groups(rng)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_planes(extract_plane_groups(cloud.points).groups, p1)
    write_planes(extract_plane_groups(cloud.points).groups, p2)
    assert p1.read_bytes() == p2.read_bytes()


_ONE_GROUP = ("voxplane-planeset 1\ngroups 1\ngroup 0\nroot 0 0 0\ncount 2\n"
              "centroid 0.0 0.0 0.0\nnormal 0.0 0.0 1.0\neigenvalues 1.0 1.0 0.0\n"
              "depths 0:1\nindices 3 4\nend\n")


def test_planeset_without_indices(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text(_ONE_GROUP.replace("indices 3 4\n", ""))
    with pytest.raises(CloudFormatError, match="lacks 'indices'") as err:
        read_planes(path, np.zeros((10, 3)))
    assert err.value.line == 3


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


@pytest.mark.parametrize("good, bad, line", [
    ("voxplane-planeset 1", "voxplane-planeset x", 1),
    ("voxplane-planeset 1", "voxplane-planeset ", 1),
    ("groups 1", "groups many", 2),
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
], ids=["bad-version", "no-version", "bad-group-count", "short-root", "short-centroid",
        "long-normal", "short-eigenvalues", "bad-depth", "index-past-end",
        "negative-index", "count-above-indices", "duplicate-index", "count-zero"])
def test_planeset_hostile_documents(tmp_path, good, bad, line):
    path = tmp_path / "hostile.txt"
    text = _ONE_GROUP.replace(good, bad)
    if bad == "count 0":  # an empty group: no indices either
        text = text.replace("indices 3 4", "indices")
    path.write_text(text)
    with pytest.raises(CloudFormatError) as err:
        read_planes(path, np.zeros((10, 3)))
    assert err.value.line == line


# ---------------------------------------------------------------------------
# colored clouds and reports


def test_colored_cloud_palette(tmp_path, rng):
    pts = rng.uniform(0, 1, (30, 3))
    assign = np.array([0] * 10 + [1] * 10 + [2] * 5 + [-1] * 5)
    path = tmp_path / "colored.ply"
    write_colored_cloud(pts, assign, path)
    lines = path.read_text().splitlines()
    n = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
    assert n == 25  # unassigned points omitted
    body = lines[lines.index("end_header") + 1:]
    colors = {tuple(l.split()[3:6]) for l in body if l.strip()}
    assert len(colors) == 3


def test_colored_cloud_single_group(tmp_path, rng):
    pts = rng.uniform(0, 1, (10, 3))
    path = tmp_path / "one.ply"
    write_colored_cloud(pts, np.zeros(10, dtype=int), path)
    body = path.read_text().splitlines()
    body = body[body.index("end_header") + 1:]
    assert len({tuple(l.split()[3:6]) for l in body if l.strip()}) == 1


def test_colored_cloud_empty(tmp_path):
    path = tmp_path / "none.ply"
    write_colored_cloud(np.zeros((0, 3)), np.zeros(0, dtype=int), path)
    assert "element vertex 0" in path.read_text()


def test_report_json(rng):
    cloud, groups = _extract_groups(rng)
    result = extract_plane_groups(cloud.points)
    report = evaluate(result.groups, cloud, result.timings)
    data = json.loads(json.dumps(report_to_dict(report)))
    assert set(data) == {"precision", "recall", "extracted_count",
                         "ground_truth_count", "matched_planes", "wall_time_s"}
    assert data["precision"] == report.precision
    assert data["wall_time_s"]["total"] >= 0
    rt = report_to_dict(report)
    assert rt["matched_planes"] == data["matched_planes"]

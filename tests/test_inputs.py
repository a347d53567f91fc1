"""Hostile arrays against every entry point that takes one from outside:
points through the extractor, member indices through both group writers
and the scorer, labels through the cloud writer and the scorer. Every
refusal is an InputValidationError raised before any file is opened, and
valid values pass as a plain list and as an ndarray alike."""

import dataclasses

import numpy as np
import pytest

from voxplane import (
    InputValidationError,
    PlaneGroup,
    PlanePatch,
    PointCluster,
    VoxelKey,
    evaluate,
    extract_plane_groups,
)
from voxplane.io import read_cloud, write_cloud, write_colored_cloud, write_planes

POINTS = {
    "complex": np.ones((30, 3), complex),
    "complex-objects": np.array([[1.0, 2.0, 3j]] * 30, dtype=object),
    "text": np.array([["x", "y", "z"]] * 30),
    "datetime64": np.zeros((30, 3), "datetime64[s]"),
    "timedelta64": np.zeros((30, 3), "timedelta64[s]"),
    "ragged": [[0.0, 1.0, 2.0], [0.0, 1.0]],
    "int-past-float": [[10 ** 400, 0, 0]],
    "nan": np.array([[0.0, np.nan, 1.0]] * 30),
    "two-columns": np.zeros((30, 2)),
    "three-d": np.zeros((10, 3, 3)),
}

# Out of range for every entry point, whatever its range.
INTEGERS = {
    "bool": np.array([True, False]),
    "float": np.array([0.0, 1.0]),
    "object": np.array([0, 1], dtype=object),
    "text": ["0", "1"],
    "empty-float": np.array([], dtype=float),
    "two-d": np.array([[0, 1], [1, 2]]),
    "ragged": [[0, 1], [2]],
    "scalar": np.int64(0),
    "below-int32": [-2 ** 31 - 1, 0],
    "past-int64": np.array([0, 2 ** 63], dtype=np.uint64),
}


def _group(indices) -> PlaneGroup:
    """A one-member group over ``indices`` as given, its count their
    number (1 for a scalar)."""
    try:
        n = len(indices)
    except TypeError:
        n = 1
    patch = PlanePatch(cluster=PointCluster(n, np.zeros(3), np.zeros((3, 3)), np.zeros(3)),
                       centroid=np.array([0.5, 0.5, 0.0]), normal=np.array([0.0, 0.0, 1.0]),
                       eigenvalues=np.array([1.0, 0.25, 1e-9]), point_indices=indices,
                       root_key=VoxelKey(0, 0, 0), depth=0)
    return PlaneGroup(members=[patch], merged=patch)


def _truth(corner_cloud, labels):
    """corner_cloud's planes over three points at the origin."""
    return dataclasses.replace(corner_cloud, points=np.zeros((3, 3)), labels=labels)


MEMBER_ENTRIES = {
    "write_planes": lambda path, cloud, idx: write_planes([_group(idx)], path),
    "write_colored_cloud":
        lambda path, cloud, idx: write_colored_cloud(np.zeros((3, 3)), [_group(idx)], path),
    "evaluate": lambda path, cloud, idx: evaluate([_group(idx)],
                                                  _truth(cloud, np.array([0, 1, -1]))),
}

# Refused as labels: one more label than points for every label entry.
LABELS = {**INTEGERS, "one-extra": [0, 1, -1, 0]}

LABEL_ENTRIES = {
    "write_cloud": lambda path, cloud, labels: write_cloud(path, np.zeros((2, 3)), labels),
    "evaluate": lambda path, cloud, labels: evaluate([], _truth(cloud, labels)),
}


@pytest.mark.parametrize("points", POINTS.values(), ids=POINTS.keys())
def test_hostile_points_are_refused(points):
    with pytest.raises(InputValidationError):
        extract_plane_groups(points)


@pytest.mark.parametrize("values", INTEGERS.values(), ids=INTEGERS.keys())
@pytest.mark.parametrize("entry", MEMBER_ENTRIES.values(), ids=MEMBER_ENTRIES.keys())
def test_hostile_member_indices_are_refused(tmp_path, corner_cloud, entry, values):
    with pytest.raises(InputValidationError, match="member indices"):
        entry(tmp_path / "out", corner_cloud, values)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", LABELS.values(), ids=LABELS.keys())
@pytest.mark.parametrize("entry", LABEL_ENTRIES.values(), ids=LABEL_ENTRIES.keys())
def test_hostile_labels_are_refused(tmp_path, corner_cloud, entry, values):
    with pytest.raises(InputValidationError, match="labels"):
        entry(tmp_path / "out", corner_cloud, values)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("form", [list, np.array, lambda v: np.array(v, dtype=np.uint8)],
                         ids=["list", "int64-array", "uint8-array"])
def test_valid_values_pass_every_entry_point(tmp_path, corner_cloud, form):
    points = corner_cloud.points[:2000]
    ref = extract_plane_groups(points).groups
    groups = extract_plane_groups(points.tolist() if form is list else points).groups
    assert [g.merged.point_indices.tolist() for g in groups] == \
        [g.merged.point_indices.tolist() for g in ref]
    for name, entry in MEMBER_ENTRIES.items():
        entry(tmp_path / name, corner_cloud, form([0, 2]))
    assert (tmp_path / "write_planes").read_text().split("\n")[-3] == "indices 0 2"
    assert "element vertex 2" in (tmp_path / "write_colored_cloud").read_text()
    LABEL_ENTRIES["write_cloud"](tmp_path / "labels.vxc", corner_cloud, form([0, 1]))
    assert read_cloud(tmp_path / "labels.vxc")[1].tolist() == [0, 1]
    report = LABEL_ENTRIES["evaluate"](None, corner_cloud, form([0, 2, 1]))
    assert report.recall == 0.0

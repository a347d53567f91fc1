import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import voxplane

MODULES = ["voxplane"] + [f"voxplane.{m.name}" for m in pkgutil.iter_modules(voxplane.__path__)]
README = Path(__file__).resolve().parent.parent / "README.md"

# The paper's surface: configuration, errors, the plane test, the voxel and
# patch types, one extraction, the RANSAC baseline, scenes and scoring.
PUBLIC = [
    "__version__",
    "ExtractionConfig", "load_config",
    "VoxplaneError", "InputValidationError",
    "CloudFormatError", "ConfigError",
    "PlaneDecision", "RejectReason", "determine_plane",
    "VoxelKey", "NodeState", "PlanePatch",
    "PlaneGroup", "StageTimings", "ExtractionResult", "extract_plane_groups",
    "ransac_extract_all",
    "GroundTruthCloud", "TruthPlane", "gen_plane", "gen_corner",
    "gen_false_positive_slab", "gen_slab_with_object", "gen_multi_room",
    "EvalReport", "PlaneMatch", "evaluate", "fit_truth_planes",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # "from voxplane import *" and the documented API
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_only_public_namespaces_declare_all():
    # the public surface is stated once, by the package and its one public
    # module; an internal module's list would promise names it does not keep
    declaring = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert declaring == ["voxplane", "voxplane.io"]


def test_public_api_is_the_papers_surface():
    # a name added to the top level is a promise: it is added here first
    assert voxplane.__all__ == PUBLIC


def test_readme_names_the_public_api():
    # the README's list is the bullets of its ## Library section
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, re.M)
    assert [name for b in bullets for name in re.findall(r"`([^`]+)`", b)] == voxplane.__all__

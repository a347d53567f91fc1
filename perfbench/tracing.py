"""In-memory span tracing of voxplane's public functions, from outside.

Each traced function is replaced, at the module attribute where its caller
looks it up, by a wrapper that records one span per call: name, start,
end, the index of the enclosing span, and a small note taken from the
call's arguments or result. Nothing inside the library changes, so the
recursion in ``octree.subdivide`` is caught because the recursive call
looks the name up in ``voxplane.octree`` again.

A target that no longer exists (a later refactor may remove per-node
``subdivide``) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

Note = Callable[[tuple, dict, Any], Any]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _decision_note(args, kwargs, decision):
    reason = decision.reject_reason
    return (len(args[0]), decision.is_plane,
            None if reason is None else reason.value,
            decision.sparse_quarter_fallback)


def _subdivide_note(args, kwargs, node):
    return (node.depth, node.state.value)


def _merge_note(args, kwargs, groups):
    return (len(args[0]), len(groups))


def _file_size_note(args, kwargs, _):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# (module, attribute looked up by the caller, span name, note). One span
# name may be installed at several lookup sites.
TARGETS: tuple[tuple[str, str, str, Note | None], ...] = (
    ("voxplane.pipeline", "build_root_map", "octree.build_root_map",
     lambda a, k, out: len(out)),
    ("voxplane.pipeline", "subdivide", "octree.subdivide", _subdivide_note),
    ("voxplane.octree", "subdivide", "octree.subdivide", _subdivide_note),
    ("voxplane.octree", "determine_plane", "plane_test.determine_plane", _decision_note),
    ("voxplane.plane_test", "quarter_split", "plane_test.quarter_split", None),
    ("voxplane.plane_test", "eigen_symmetric3", "geometry.eigen_symmetric3.plane_test", None),
    ("voxplane.merging", "eigen_symmetric3", "geometry.eigen_symmetric3.merging", None),
    ("voxplane.pipeline", "greedy_merge", "merging.greedy_merge", _merge_note),
    ("voxplane.merging", "coplanar_test", "merging.coplanar_test", None),
    ("voxplane.merging", "merge_patches", "merging.merge_patches", None),
    ("voxplane.io", "write_planes", "io.write_planes", _file_size_note),
)


class Tracer:
    """Records spans of the installed targets while installed.

    Single-threaded use only: the stack of open spans is shared by every
    wrapper, which is what makes parent links correct in a closed loop.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span | None] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn, note: Note | None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, start, time.perf_counter(), parent)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[index] = Span(name, start, end, parent,
                                note(args, kwargs, out) if note else None)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the absent ones as
        ``module.attribute`` strings."""
        self.absent = []
        for module_name, attr, span_name, note in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn, note))
        return list(self.absent)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def installed(self) -> set[str]:
        """Span names with at least one wrapped lookup site, while
        installed."""
        wrapped = {(m.__name__, a) for m, a, _ in self._saved}
        return {name for module, attr, name, _ in self.targets
                if (module, attr) in wrapped}

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called with spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def child_time(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: time covered by all its direct children, and by direct
    children of the same name.

    Spans from one thread nest strictly, so direct children never overlap
    and their durations add up to the part of the parent they cover.
    """
    all_children = [0.0] * len(spans)
    same_name = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            all_children[span.parent] += span.duration
            if spans[span.parent].name == span.name:
                same_name[span.parent] += span.duration
    return all_children, same_name


DEPTHS = (0, 1, 2)   # octree depths at the default 1 m root / 0.25 m minimum
NODE_STATES = ("internal", "plane_leaf", "discarded")
REJECT_REASONS = ("flatness_failed", "quarter_ratio_failed", "too_few_points")
EIGEN_SITES = ("plane_test", "merging")


@dataclass
class _Totals:
    calls: int = 0
    inclusive_s: float = 0.0   # not counting time already under a same-name child
    self_s: float = 0.0


@dataclass
class LayerStats:
    """Per-layer figures summed over traced ops and reported per op.

    ``installed`` holds the span names that were wrapped; metrics of a span
    name that was never installed are left out, so a refactor that removes
    a traced function shows as absent metrics rather than as zeros.
    """

    installed: set[str]
    ops: int = 0
    totals: dict[str, _Totals] = field(default_factory=lambda: defaultdict(_Totals))
    counts: Counter = field(default_factory=Counter)
    depth_s: dict[int, float] = field(default_factory=lambda: defaultdict(float))

    def add_op(self, spans: list[Span]) -> None:
        self.ops += 1
        all_children, same_name = child_time(spans)
        for span, c_all, c_same in zip(spans, all_children, same_name):
            totals = self.totals[span.name]
            totals.calls += 1
            totals.inclusive_s += span.duration - c_same
            totals.self_s += span.duration - c_all
            note, counts = span.note, self.counts
            if note is None:
                continue
            if span.name == "octree.subdivide":
                depth, state = note
                self.depth_s[depth] += span.duration - c_same
                counts[f"octree.depth{depth}.{state}"] += 1
            elif span.name == "plane_test.determine_plane":
                n, is_plane, reason, sparse = note
                counts["plane_test.points_touched"] += n
                counts["plane_test.accepted"] += is_plane
                if reason is not None:
                    counts[f"plane_test.reject.{reason}"] += 1
                counts["plane_test.sparse_quarter_fallback"] += sparse
            elif span.name == "octree.build_root_map":
                counts["octree.root_voxels"] += note
            elif span.name == "merging.greedy_merge":
                counts["merging.patches_in"] += note[0]
                counts["merging.groups_out"] += note[1]
            elif span.name == "io.write_planes":
                counts["io.planeset_bytes"] += note

    def metrics(self) -> dict[str, float]:
        n = max(self.ops, 1)
        have = self.installed.__contains__
        tot, counts = self.totals, self.counts
        out: dict[str, float] = {}

        def per_op(name: str, value: float) -> None:
            out[name] = value / n

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        if have("octree.build_root_map"):
            per_op("octree.build_root_map.s", tot["octree.build_root_map"].inclusive_s)
            per_op("octree.root_voxels", counts["octree.root_voxels"])
        if have("octree.subdivide"):
            per_op("octree.subdivide.self_s", tot["octree.subdivide"].self_s)
            for d in DEPTHS:
                per_op(f"octree.depth{d}.self_s", self.depth_s[d])
                for state in NODE_STATES:
                    per_op(f"octree.depth{d}.{state}", counts[f"octree.depth{d}.{state}"])
        if have("plane_test.determine_plane"):
            calls = tot["plane_test.determine_plane"].calls
            per_op("plane_test.determine_plane.calls", calls)
            per_op("plane_test.determine_plane.self_s",
                   tot["plane_test.determine_plane"].self_s)
            per_op("plane_test.points_touched", counts["plane_test.points_touched"])
            out["plane_test.accept_ratio"] = ratio(counts["plane_test.accepted"], calls)
            for reason in REJECT_REASONS:
                per_op(f"plane_test.reject.{reason}", counts[f"plane_test.reject.{reason}"])
            per_op("plane_test.sparse_quarter_fallback",
                   counts["plane_test.sparse_quarter_fallback"])
        if have("plane_test.quarter_split"):
            per_op("plane_test.quarter_split.calls", tot["plane_test.quarter_split"].calls)
            per_op("plane_test.quarter_split.s", tot["plane_test.quarter_split"].inclusive_s)
        sites = [s for s in EIGEN_SITES if have(f"geometry.eigen_symmetric3.{s}")]
        if sites:
            calls = sum(tot[f"geometry.eigen_symmetric3.{s}"].calls for s in sites)
            secs = sum(tot[f"geometry.eigen_symmetric3.{s}"].inclusive_s for s in sites)
            per_op("geometry.eigen_symmetric3.calls", calls)
            per_op("geometry.eigen_symmetric3.s", secs)
            out["geometry.eigen_symmetric3.us_per_call"] = ratio(secs, calls) * 1e6
            for s in sites:
                per_op(f"geometry.eigen_symmetric3.{s}_calls",
                       tot[f"geometry.eigen_symmetric3.{s}"].calls)
        if have("merging.greedy_merge"):
            per_op("merging.greedy_merge.s", tot["merging.greedy_merge"].inclusive_s)
            per_op("merging.patches_in", counts["merging.patches_in"])
            per_op("merging.groups_out", counts["merging.groups_out"])
        if have("merging.coplanar_test"):
            per_op("merging.coplanar_test.calls", tot["merging.coplanar_test"].calls)
        if have("merging.merge_patches"):
            per_op("merging.merge_patches.calls", tot["merging.merge_patches"].calls)
            per_op("merging.merge_patches.s", tot["merging.merge_patches"].inclusive_s)
        if have("merging.coplanar_test") and have("merging.merge_patches"):
            out["merging.join_ratio"] = ratio(tot["merging.merge_patches"].calls,
                                              tot["merging.coplanar_test"].calls)
        if have("io.write_planes"):
            per_op("io.write_planes.s", tot["io.write_planes"].inclusive_s)
            per_op("io.planeset_bytes", counts["io.planeset_bytes"])
        return out

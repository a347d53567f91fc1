"""voxplane benchmark: closed-loop plane extraction on seeded scenes.

    python3 perfbench/run.py --workload room_map_1m --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One process, one thread, BLAS pinned to one thread. Each op starts when
the previous one has finished. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` every second op runs with the
per-layer tracer installed, and the run prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--record PATH``
also writes the full record: machine facts, output digest, tail percentile
and absent trace targets. ``--workload all`` runs every workload in a fresh
process of its own and prints one table. NOTES.md explains every number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("room_map_1m", "room_scans_30k", "corner_utm")
SETUP_REPEATS = 3     # set-ups per run; setup_s reports their median
DIGEST_FRAMES = 8     # a stream's digest covers its first measured frames
# Reference speed for times: the calibration kernels' time (geometric mean
# of each kernel's fastest 5% over 25 s) on the machine the benchmark was
# written on (2-core x86-64, Python 3.11, numpy 2.4), under its usual load.
CAL_REF_S = 7.3e-3
CAL_EVERY_S = 0.2     # op time between calibrations
MEMORY_EVERY_S = 1.0  # op time between timings of the memory kernel


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no voxplane sources)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="voxplane benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the full record as JSON to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def tail(values):
    """Highest order statistic with at least ten samples above it.

    Returns (value, percentile, sample count). With ten samples or fewer
    none has ten above it, and the smallest is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - 10)
    return ordered[rank - 1], 100.0 * rank / n, n


class Calibration:
    """Two fixed kernels timed between ops, to put op times on one scale.

    Other processes on the machine change its speed by up to 2x over
    seconds to minutes, and they slow interpreter-bound and memory-bound
    code by different amounts. The kernels are one of each: small numpy
    reductions with Python arithmetic, dicts and lists; and a 64k-row
    floor, lexsort and gather. The memory kernel is the slower one, so it
    runs after every MEMORY_EVERY_S of op time and its last value is used
    in between. Their geometric mean tracks the slowdown of
    ops of either kind, so an op time multiplied by CAL_REF_S / (kernel
    time around the op) is its time at the reference speed. The kernels run
    no voxplane code, so a change to the library moves only the op time.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(12345)
        self.small = rng.normal(size=(240, 3))
        self.large = rng.normal(size=(65536, 3)) * 8.0
        self.last = None   # kernel time at the previous calibration
        self.memory = None           # memory kernel time at its last timing
        self.since_memory = 0.0      # op time since then

    def _interpreter(self):
        np, data = self.np, self.small
        start = time.perf_counter()
        acc = 0.0
        for i in range(300):
            x = data[i % 200:i % 200 + 40]
            s = x.sum(axis=0)
            acc += float(s[0]) * 0.5 + float((x * x).sum()) + float(np.dot(s, s))
            d = {"a": i, "b": acc}
            acc += sum([d["a"] * 2 for _ in range(10)])
        return time.perf_counter() - start

    def _memory(self):
        np, data = self.np, self.large
        start = time.perf_counter()
        keys = np.floor(data).astype(np.int64)
        order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
        float((data[order] ** 2).sum())
        return time.perf_counter() - start

    def scale(self, busy_s=0.0):
        """Reference-speed seconds per measured second for the work done
        since the previous call. Each kernel's time is the median of as
        many runs as fit in about 2% of ``busy_s`` (one to nine)."""
        runs = min(9, max(1, round(0.02 * busy_s / (2 * CAL_REF_S))))
        interp = statistics.median(self._interpreter() for _ in range(runs))
        self.since_memory += busy_s
        if self.memory is None or self.since_memory >= MEMORY_EVERY_S:
            self.memory = statistics.median(self._memory() for _ in range(runs))
            self.since_memory = 0.0
        now = math.sqrt(interp * self.memory)
        around = now if self.last is None else (self.last + now) / 2
        self.last = now
        return CAL_REF_S / around


def import_voxplane():
    """Import the library from this checkout's sources."""
    if not (SRC / "voxplane" / "__init__.py").is_file():
        raise SetupError(f"no voxplane sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import voxplane
    import voxplane.io  # noqa: F401
    if Path(voxplane.__file__).resolve().parent != (SRC / "voxplane").resolve():
        raise SetupError(f"voxplane imported from {voxplane.__file__}, not {SRC}")


@dataclass
class OpRecord:
    index: int
    seconds: float
    points: int
    generate_s: float
    error: str | None       # raised, broke an output invariant, or not deterministic
    passed: bool            # no error and the workload's quality rule holds
    quality: object | None
    timings: object | None
    digest: bytes | None
    scale: float = 1.0      # reference-speed seconds per measured second, set by the loop

    @property
    def ref_seconds(self):
        return self.seconds * self.scale


class Bench:
    """Set-up and closed loop of one workload, in this process."""

    def __init__(self, workload, seed, tmp_dir, calibration):
        import voxplane
        self.calibration = calibration
        self.workload = workload
        self.seed = seed
        self.config = voxplane.ExtractionConfig()
        self.planeset_path = tmp_dir / "planes.txt"
        self.fixed = []          # the fixed frames ops cycle over, if any
        self.reference = {}      # fixed frame -> plane-set bytes of its first op

    def frame(self, index):
        if self.fixed:
            return self.fixed[index % len(self.fixed)]
        return self.workload.frame(self.seed, index)

    def setup(self, fixed):
        """Make the first ``fixed`` fixed inputs (none for a stream) and run
        a checked warm-up op on the first input."""
        self.fixed = [self.workload.frame(self.seed, i) for i in range(fixed)]
        return self.op(0, self.frame(0))

    def fresh_setup(self, pin_mmap_threshold=False):
        """Set up once in a fresh interpreter: import, first input and a
        warm-up op. Returns (reference-speed seconds, peak RSS in MB).

        glibc raises its mmap threshold when a large block is freed, so
        later large arrays may come from the heap and stay resident. On
        room_map_1m that alone moved the peak between 134 and 155 MB with
        the seed. ``pin_mmap_threshold`` fixes the threshold at glibc's
        128 KiB default, so the peak is that of the memory the op holds.
        """
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", self.workload.name, "--seed", str(self.seed)]
        env = dict(os.environ)
        if pin_mmap_threshold:
            env["MALLOC_MMAP_THRESHOLD_"] = "131072"
        self.calibration.scale()
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        busy = probe["import_s"] + probe["generate_s"] + probe["op_s"]
        return busy * self.calibration.scale(busy), probe["peak_rss_mb"]

    def op(self, index, frame, tracer=None, layers=None):
        from workloads import groups_digest, invariant_error, quality
        start = time.perf_counter()
        try:
            result = self.workload.op(frame, self.config, self.planeset_path)
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.take()
            return OpRecord(index, elapsed, frame.points.shape[0], frame.generate_s,
                            f"{type(exc).__name__}: {exc}", False, None, None, None)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            layers.add_op(tracer.take())

        error = invariant_error(result.groups, frame, self.config.root_size)
        digest = None
        if self.workload.write:
            planeset = self.planeset_path.read_bytes()
            first = self.reference.setdefault(index % len(self.fixed), planeset)
            if planeset != first and error is None:
                error = "plane-set bytes differ from the first op's on this input"
        elif index <= DIGEST_FRAMES:
            digest = groups_digest(result.groups)
        q = quality(result.groups, frame)
        return OpRecord(index, elapsed, frame.points.shape[0], frame.generate_s,
                        error, error is None and self.workload.rule(q), q,
                        result.timings, digest)

    def loop(self, seconds, tracer=None, layers=None):
        """Ops until ``seconds`` have passed; returns (untraced, traced).

        With a tracer every second op runs traced, so that both kinds of op
        see the same machine load and their ratio is the tracing overhead.
        """
        untraced, traced, pending = [], [], []
        index = 1
        self.calibration.scale()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            frame = self.frame(index)
            if tracer is not None and index % 2 == 0:
                with tracer:
                    record = self.op(index, frame, tracer, layers)
                traced.append(record)
            else:
                record = self.op(index, frame)
                untraced.append(record)
            pending.append(record)
            busy = sum(r.seconds for r in pending)
            if busy >= CAL_EVERY_S or time.perf_counter() >= deadline:
                scale = self.calibration.scale(busy)
                for r in pending:
                    r.scale = scale
                pending = []
            index += 1
        return untraced, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(name, seed):
    """One set-up in this fresh process; prints its times and peak RSS."""
    start = time.perf_counter()
    import_voxplane()
    import voxplane
    from workloads import WORKLOADS
    import_s = time.perf_counter() - start

    workload = WORKLOADS[name]
    frame = workload.frame(seed, 0)
    TMP_PARENT.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        start = time.perf_counter()
        workload.op(frame, voxplane.ExtractionConfig(), tmp_dir / "planes.txt")
        op_s = time.perf_counter() - start
    finally:
        remove_tmp(tmp_dir)
    print(json.dumps({"import_s": import_s, "generate_s": frame.generate_s,
                      "op_s": op_s, "peak_rss_mb": peak_rss_mb()}))


def remove_tmp(tmp_dir):
    shutil.rmtree(tmp_dir, ignore_errors=True)
    try:
        TMP_PARENT.rmdir()
    except OSError:
        pass   # another run still uses it


def end_to_end(records, setup_s, rss_mb, quality):
    """End-to-end metrics of the untraced ops. Times are at the reference
    speed (see Calibration); the wall-clock figures go into the record."""
    times = [r.ref_seconds for r in records]
    tail_value, tail_pct, n = tail(times)
    wall = [r.seconds for r in records]
    failed = sum(not r.passed for r in records)
    metrics = {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "points_per_s": statistics.median(r.points / r.ref_seconds for r in records),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "pass_frac": 1.0 - failed / len(records),
        "precision": quality.precision,
        "recall": quality.recall,
        "normal_err_deg": quality.normal_err_deg,
    }
    facts = {"op_tail_percentile": tail_pct, "op_samples": n,
             "wall": {"op_p50_ms": statistics.median(wall) * 1e3,
                      "op_tail_ms": tail(wall)[0] * 1e3,
                      "points_per_s": statistics.median(r.points / r.seconds
                                                        for r in records),
                      "speed_vs_reference": statistics.median(r.scale for r in records)},
             "failed_frac": failed / len(records), "check_failed_ops": failed}
    return metrics, facts


def pipeline_layers(records):
    stages = [r.timings for r in records if r.timings is not None]
    if not stages:
        return {}
    return {f"pipeline.{stage}_s": statistics.median(getattr(t, stage) for t in stages)
            for stage in ("voxelize", "subdivide", "merge")}


def run_workload(name, seed, seconds, trace):
    """Set up and measure one workload; return the full record."""
    import_voxplane()
    import numpy
    import tracing
    from workloads import WORKLOADS, Quality

    calibration = Calibration()
    workload = WORKLOADS[name]
    TMP_PARENT.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        bench = Bench(workload, seed, tmp_dir, calibration)
        setups = [bench.fresh_setup() for _ in range(SETUP_REPEATS)]
        _, rss_mb = bench.fresh_setup(pin_mmap_threshold=True)
        # A traced run keeps to the first fixed input, so that its counts
        # are those of one scene (ROADMAP's fixed scene at seed 0).
        warm_up = bench.setup(min(workload.fixed, 1) if trace else workload.fixed)

        tracer = layers = None
        absent = []
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                absent = tracer.absent
                layers = tracing.LayerStats(tracer.installed)
        records, traced = bench.loop(seconds, tracer, layers)
    finally:
        remove_tmp(tmp_dir)

    every = records + traced
    quality = Quality()
    for r in every:
        if r.quality is not None:
            quality.add(r.quality)
    errors = [r for r in every if r.error is not None]
    if workload.write:
        digest_over = len(bench.reference)
        digest = hashlib.sha256(b"".join(
            bench.reference[k] for k in sorted(bench.reference))).hexdigest()
    else:
        parts = [r.digest or b"" for r in sorted(every, key=lambda r: r.index)
                 if r.index <= DIGEST_FRAMES]
        digest_over = len(parts)
        digest = hashlib.sha256(b"".join(parts)).hexdigest()

    metrics, facts = end_to_end(records, statistics.median(s for s, _ in setups),
                                rss_mb, quality)
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "check": workload.rule_text,
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "correct": not errors and warm_up.error is None,
        "attempted": len(every), "failed": len(errors),
        "errors": [f"op {r.index}: {r.error}" for r in [warm_up] + every
                   if r.error is not None][:10],
        "digest": {"sha256": digest, "ops": digest_over},
        "setups": [{"setup_s": s, "peak_rss_mb": m} for s, m in setups],
        "main_peak_rss_mb": peak_rss_mb(),
        "synthetic.generate_s": statistics.median(
            [f.generate_s for f in bench.fixed] if bench.fixed
            else [warm_up.generate_s] + [r.generate_s for r in every]),
        "end_to_end": metrics, **facts,
    }
    if trace:
        per_layer = pipeline_layers(records)
        per_layer.update(layers.metrics())
        per_layer["synthetic.generate_s"] = record["synthetic.generate_s"]
        if traced:
            per_layer["trace.overhead_frac"] = (
                statistics.median(r.ref_seconds for r in traced)
                / statistics.median(r.ref_seconds for r in records) - 1.0)
        record["per_layer"] = per_layer
        record["traced_ops"] = len(traced)
        record["absent_trace_targets"] = absent
    return record


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def result_line(record, spec):
    """The contract's last line: the end-to-end or per-layer metrics that
    the benchmark spec names, each with its unit."""
    key = "per_layer" if record["trace"] else "end_to_end"
    values = record[key]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[key] if m["name"] in values}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def describe(record, spec):
    """Human-readable lines for one workload's record."""
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"seconds {record['seconds']:g}  trace {record['trace']}",
             f"  check per op: {record['check']}",
             f"  ops {record['attempted']}  hard failures {record['failed']}  "
             f"failed_frac {record['failed_frac']:.4f} "
             f"({record['check_failed_ops']} of {record['op_samples']} untraced ops "
             f"failed the check)",
             f"  op_tail_ms is p{record['op_tail_percentile']:.1f} of "
             f"{record['op_samples']} ops ({min(10, record['op_samples'] - 1)} above it)",
             "  times at reference speed; wall clock: " + ", ".join(
                 f"{k} {v:.6g}" for k, v in record["wall"].items()),
             f"  digest sha256 {record['digest']['sha256'][:16]} over "
             f"{record['digest']['ops']} output(s)"]
    key = "per_layer" if record["trace"] else "end_to_end"
    values = record[key]
    for m in spec[key]:
        if m["name"] in values:
            lines.append(f"  {m['name']:44s} {values[m['name']]:.6g} {m['unit']}")
    missing = [m["name"] for m in spec[key] if m["name"] not in values]
    if missing:
        lines.append(f"  absent: {', '.join(missing)} "
                     f"(trace targets gone: {', '.join(record['absent_trace_targets'])})")
    for error in record["errors"]:
        lines.append(f"  error: {error}")
    return lines


def run_all(args, spec):
    """Every workload, each in a fresh process of its own."""
    records = {}
    for name in WORKLOAD_NAMES:
        TMP_PARENT.mkdir(exist_ok=True)
        tmp_dir = Path(tempfile.mkdtemp(dir=TMP_PARENT))
        child_record = tmp_dir / "record.json"
        try:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--record", str(child_record)]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            records[name] = json.loads(child_record.read_text(encoding="utf-8"))
        finally:
            remove_tmp(tmp_dir)
        print("\n".join(describe(records[name], spec)), flush=True)
    if args.record is not None:
        write_record(args.record, {"workloads": records})
    return 0 if all(r["correct"] for r in records.values()) else 1


def write_record(path, record):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:   # one BLAS thread; numpy is not imported yet
        os.environ[var] = "1"
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        spec = load_spec()
        if args.workload == "all":
            return run_all(args, spec)
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.record is not None:
        write_record(args.record, record)
    print("\n".join(describe(record, spec)))
    print(json.dumps(result_line(record, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload: set-up, timed rounds, correctness gates, metrics.

A round runs every operation of the workload once.  Rounds repeat until the
requested seconds have passed, and at least twice, because the gates compare
rounds: every round of one seed must reproduce the same artifact hashes,
counts and verification text (the byte-identity property of mdtail runs).

End-to-end metrics come from untraced rounds, with every latency scaled by
the machine speed sampled around it (see Speed).  With tracing on, half the
time runs untraced and half traced, per-module span metrics come from the
traced rounds, the difference of the two medians is the tracing overhead,
and direct probes time the layers that are too fine-grained to trace.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import mdtail
import probes
import workloads
from mdtail import simulate
from tracing import MODULES, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = {"full": 3, "tiny": 1}

# Estimators counted at the span boundary: span name -> estimates per call.
ESTIMATORS = {
    "simulate.crude_mc": 1,
    "simulate.tilted_mc_truncated": 1,
    "simulate.split_estimate": 2,
    "simulate.bounded_array_mc": 1,
}
FUNCTION_SPANS = (
    "simulate.crude_mc",
    "simulate.tilted_mc_truncated",
    "simulate.split_estimate",
    "simulate.convergence_trajectory",
    "report.run_experiment",
)


def slug(label: str) -> str:
    """A metric-name-safe form of an operation label."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label).strip("_")


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def unit_of(name: str) -> str:
    if name.startswith("point_s."):
        return "s"
    for part in name.split("."):
        if part.endswith("_per_s"):
            return "1/s"
        if part.endswith("_s"):
            return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_eff_2w", "_rate")):
        return "ratio"
    if name.endswith("relvar_per_rep"):
        return "relvar"
    return "count"


# --- statistics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, ladder=(50.0, 90.0, 99.0, 99.9)):
    """Highest percentile of the ladder with at least ten samples above it.

    Returns (q, value, samples above) or None when even the median has fewer
    than ten samples beyond it.
    """
    best = None
    for q in ladder:
        value = percentile(values, q)
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            best = (q, value, beyond)
    return best


# --- set-up --------------------------------------------------------------------------


def check_import_location() -> None:
    src = (ROOT / "src").resolve()
    where = Path(mdtail.__file__).resolve()
    if src not in where.parents:
        raise BenchError(f"mdtail imported from {where}, not from {src}")


def prepare(name: str, seed: int, size: str, workdir: Path):
    """Build the workload's operations, load their configs, and warm up.

    Returns (operations, mean load_config seconds per config).
    """
    check_import_location()
    ops = workloads.PLANS[name](seed, size)
    loads = [op.prepare(workdir, i) for i, op in enumerate(ops)]
    workloads.warm_up(name, workdir)
    timed = [t for t in loads if t > 0]
    return ops, (sum(timed) / len(timed) if timed else math.nan)


def setup_samples(name: str, seed: int, size: str) -> list[float]:
    """Seconds from process start to ready, over fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--size", size, "--setup-only"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for _ in range(SETUP_SAMPLES[size]):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=str(ROOT)) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=120)
            code = proc.returncode
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"set-up process failed with exit code {code}")
        samples.append(ready - start)
    return samples


def setup_only(name: str, seed: int, size: str) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        prepare(name, seed, size, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- rounds -----------------------------------------------------------------------------


class Speed:
    """The machine's speed, sampled around every timed operation.

    On a shared host the CPU speed drifts by tens of percent within seconds,
    and the average over one run differs from the next run's.  A fixed block
    of work that does not touch mdtail (an interpreted integer loop and a
    numpy sort, the two kinds of work mdtail does) is timed before and after
    each operation; the operation's latency is scaled by REF_BLOCK_S over the
    mean of the two block times.  Timings are thus seconds at the speed at
    which the block takes REF_BLOCK_S; the unscaled ones are kept as raw.*.
    Operations on two worker threads are not scaled.
    """

    REF_BLOCK_S = 1.8e-3
    BLOCKS = 6

    def __init__(self):
        self.array = np.random.default_rng(0).standard_normal(100_000)
        self._block()
        self.last = self.sample()

    def _block(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        np.sort(self.array)
        return time.perf_counter() - start

    def sample(self) -> float:
        """Median block time now; also kept as the next operation's 'before'."""
        self.last = statistics.median(self._block() for _ in range(self.BLOCKS))
        return self.last

    def scale_since_last(self) -> float:
        """Scale factor for an operation that ran since the previous sample."""
        before = self.last
        return self.REF_BLOCK_S / ((before + self.sample()) / 2.0)


class Rounds:
    """Timings, failures and fingerprints of the rounds run so far.

    Latencies are speed-scaled (see Speed) and kept raw as well; a round's
    wall time is the sum of its operations' latencies, so calibration and
    the harness's own checks are not in it.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.clock: list[float] = []
        self.relerr: float | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: list[tuple] = []
        self.counts: list[dict] = []
        self.op_latencies: dict[str, list[float]] = {}
        self.raw_op_latencies: dict[str, list[float]] = {}

    def run_round(self, ops) -> None:
        prints = []
        counts: Counter = Counter()
        wall = raw_wall = 0.0
        start = time.perf_counter()
        self.speed.sample()
        for op in ops:
            for _ in range(op.repeats):
                out = op.run()
                factor = self.speed.scale_since_last()
                # the speed block runs on one thread and does not track the
                # speed of two (it widened the spread of tilted_kernel's metrics)
                scaled = out.seconds * (factor if op.workers == 1 else 1.0)
                wall += scaled
                raw_wall += out.seconds
                self.attempted += out.attempted
                self.failures.extend(out.failures)
                prints.append(out.fingerprint)
                counts.update(out.counts)
                self.op_latencies.setdefault(op.label, []).append(scaled)
                self.raw_op_latencies.setdefault(op.label, []).append(out.seconds)
                if op.reference:
                    self.relerr = out.relerr
        self.walls.append(wall)
        self.raw_walls.append(raw_wall)
        self.clock.append(time.perf_counter() - start)
        self.fingerprints.append(tuple(prints))
        self.counts.append(dict(counts))


def run_for(ops, seconds: float, rounds: Rounds, min_rounds: int) -> None:
    """Run rounds while another one is expected to end within the time given."""
    start = time.perf_counter()
    done = 0
    while done < min_rounds or (
        time.perf_counter() - start + percentile(rounds.clock, 50) <= seconds
    ):
        rounds.run_round(ops)
        done += 1


def alternate(ops, seconds: float, plain: Rounds, traced: Rounds, tracer: Tracer,
              run_prefix: str) -> None:
    """Alternate untraced and traced rounds, so drift in machine speed hits both."""
    start = time.perf_counter()
    i = 0
    while i == 0 or (time.perf_counter() - start + percentile(plain.clock, 50)
                     + percentile(traced.clock, 50) <= seconds):
        plain.run_round(ops)
        tracer.run_id = f"{run_prefix}-r{i}"
        with tracer:
            traced.run_round(ops)
        i += 1


# --- gates ------------------------------------------------------------------------------


def tree_snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file in the checkout, outside the benchmark's scratch."""
    skip = {root / ".git", root / ".bench_build", WORK}
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        here = Path(dirpath)
        dirnames[:] = [d for d in dirnames if here / d not in skip]
        for f in filenames:
            st = (here / f).lstat()
            snap[str((here / f).relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return snap


def tree_changes(before: dict, after: dict) -> list[str]:
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    return changed


def repeat_gate(rounds: list[Rounds]) -> list[str]:
    """Every round of one seed must reproduce the same outputs and counts."""
    prints = [fp for r in rounds for fp in r.fingerprints]
    counts = [c for r in rounds for c in r.counts]
    msgs = []
    if any(fp != prints[0] for fp in prints[1:]):
        msgs.append("artifacts or verification output differ between rounds of one seed")
    if any(c != counts[0] for c in counts[1:]):
        msgs.append(f"exact-repeat counts differ between rounds: {counts}")
    return msgs


# --- traced metrics --------------------------------------------------------------------


def span_metrics(spans, n_rounds: int) -> dict[str, float]:
    """Per-round self time and call count of each module, plus boundary counts."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = 0.0
        out[f"{m}.calls"] = 0
    for name in FUNCTION_SPANS:
        out[f"{name}.self_s"] = 0.0
    counts = Counter()
    for s in spans:
        module = s.name.split(".", 1)[0]
        out[f"{module}.self_s"] += selfs[s.span_id]
        out[f"{module}.calls"] += 1
        if s.name in FUNCTION_SPANS:
            out[f"{s.name}.self_s"] += selfs[s.span_id]
        if s.name == "report.verify_suite":
            key = f"report.verify_suite_s.{s.args.get('suite')}"
            out[key] = out.get(key, 0.0) + (s.end - s.start)
        per_call = ESTIMATORS.get(s.name)
        if per_call:
            if s.error is not None:
                counts["simulate.estimator_errors"] += 1
                continue
            n, reps = int(s.args["n"]), int(s.args["reps"])
            draws = reps if s.name == "simulate.bounded_array_mc" else reps * n
            counts["simulate.estimates"] += per_call
            counts["simulate.draws"] += per_call * draws
            counts["simulate.chunks"] += per_call * workloads.chunk_count(reps, n)
    for key in ("simulate.estimates", "simulate.draws", "simulate.chunks",
                "simulate.estimator_errors"):
        out[key] = counts[key]
    return {k: (v / n_rounds) for k, v in out.items()}


def record_args() -> dict[str, tuple[str, ...]]:
    rec = {name: ("n", "reps") for name in ESTIMATORS}
    rec["report.verify_suite"] = ("suite",)
    return rec


# --- the run ----------------------------------------------------------------------------


def environment(name: str, seed: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "CHUNK_TARGET": simulate.CHUNK_TARGET,
        "command": list(sys.orig_argv),
    }


def latency_metrics(ops, walls: list[float], latencies: dict[str, list[float]],
                    relerr: float) -> dict[str, float]:
    """wall_s, point percentiles and wnp_s from one set of round timings.

    The point percentiles are taken over the workload's points of each
    point's median latency.  Pooling the samples instead would put p50 in
    the gap between two points' latencies, where it reads the slowest sample
    of one point and the fastest of the next.
    """
    medians = [percentile(latencies[op.label], 50) for op in ops if op.is_point]
    ref = next(op for op in ops if op.reference)
    return {
        "wall_s": percentile(walls, 50),
        "point_p50_s": percentile(medians, 50),
        "point_p90_s": percentile(medians, 90),
        "wnp_s": percentile(latencies[ref.label], 50) * relerr * relerr,
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str,
        end_to_end: list[str], per_layer: list[str]) -> dict:
    """Run one workload and return the result record (metrics, gates, table)."""
    before = tree_snapshot(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    table: dict[str, float] = {}
    gate_failures: list[str] = []
    spans = []
    try:
        if not trace:
            setups = setup_samples(name, seed, size)
            table["setup_s"] = percentile(setups, 50)
        ops, load_s = prepare(name, seed, size, workdir)
        speed = Speed()
        plain = Rounds(speed)
        traced = Rounds(speed)
        if not trace:
            run_for(ops, seconds, plain, min_rounds=2)
        else:
            tracer = Tracer(mdtail, record_args())
            alternate(ops, seconds, plain, traced, tracer, f"{name}-{seed}")
            spans = tracer.spans
            table.update(span_metrics(spans, len(traced.walls)))
            table["trace.overhead_s"] = percentile(traced.walls, 50) - percentile(plain.walls, 50)
            table.update(probes.run_probes(workdir / "probes", size))
        all_rounds = [plain] + ([traced] if trace else [])
        gate_failures += repeat_gate(all_rounds)
        attempted = sum(r.attempted for r in all_rounds)
        failures = [f for r in all_rounds for f in r.failures]
        relerr = plain.relerr if plain.relerr is not None else math.nan
        table.update(latency_metrics(ops, plain.walls, plain.op_latencies, relerr))
        raw = latency_metrics(ops, plain.raw_walls, plain.raw_op_latencies, relerr)
        table.update({f"raw.{k}": v for k, v in raw.items()})
        table["speed.block_s"] = plain.speed.last
        table["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        table["failure_rate"] = len(failures) / attempted
        table["report.load_config_workload_s"] = load_s
        # in traced runs the counts taken at the estimator boundary take precedence
        for key, value in plain.counts[0].items():
            table.setdefault(key, value)
        ref_method = {"crude_kernel": "crude", "tilted_kernel": "tilted",
                      "tilted_setup": "split", "verify_exact": "bounded_array"}[name]
        reps = next(op.reps for op in ops if op.reference)
        table[f"simulate.{ref_method}.relvar_per_rep"] = reps * relerr * relerr
        for label, lat in plain.op_latencies.items():
            table[f"point_s.{slug(label)}"] = percentile(lat, 50)
        samples = [x for op in ops if op.is_point for x in plain.op_latencies[op.label]]
        tail = tail_percentile(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    changed = tree_changes(before, tree_snapshot(ROOT))
    if changed:
        gate_failures.append(f"benchmark changed the working tree: {changed[:5]}")
    wanted = per_layer if trace else end_to_end
    missing = [k for k in wanted if k not in table]
    if missing:
        raise BenchError(f"metrics not measured on {name}: {missing}")
    metrics = {k: table[k] for k in wanted}
    record = {
        "correct": not failures and not gate_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": _finite(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }
    details = {
        "env": environment(name, seed),
        "table": {k: _finite(v) for k, v in table.items()},
        "point_tail": tail,
        "point_samples": len(samples),
        "wall_samples": plain.walls,
        "failures": failures[:50],
        "gate_failures": gate_failures,
    }
    _write_results(name, seed, trace, record, details, spans)
    return {"record": record, "details": details}


def _finite(v):
    v = float(v)
    return v if math.isfinite(v) else None


def _write_results(name, seed, trace, record, details, spans) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    payload = dict(details, result=record, spans=[
        {"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "run_id": s.run_id, "error": s.error}
        for s in spans
    ])
    path = out / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n", encoding="utf-8")

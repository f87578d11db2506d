"""Tests of the benchmark harness itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import mdtail  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


# --- statistics --------------------------------------------------------------------


def test_percentile_matches_numpy_linear_rule():
    rng = random.Random(3)
    for n in (1, 2, 7, 100):
        xs = [rng.random() for _ in range(n)]
        for q in (0, 10, 50, 90, 99, 100):
            assert harness.percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-12)


@pytest.mark.parametrize(
    "n, want",
    [(19, None), (20, 50.0), (91, 50.0), (92, 90.0), (901, 90.0), (902, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, want):
    xs = [float(i) for i in range(n)]
    got = harness.tail_percentile(xs)
    if want is None:
        assert got is None
        return
    q, value, beyond = got
    assert q == want
    assert value == harness.percentile(xs, q)
    assert beyond == sum(1 for v in xs if v > value) >= 10


def test_point_percentiles_are_over_per_point_medians():
    class Op:
        is_point = True

        def __init__(self, label, reference=False):
            self.label, self.reference = label, reference

    ops = [Op("a", reference=True), Op("b")]
    latencies = {"a": [1.0, 1.1, 5.0], "b": [3.0, 2.0, 2.1]}
    got = harness.latency_metrics(ops, [4.0, 3.1], latencies, 0.5)
    # medians 1.1 and 2.1; pooling the samples would give p50 = 2.05
    assert got["point_p50_s"] == pytest.approx(1.6)
    assert got["point_p90_s"] == pytest.approx(2.0)
    assert got["wnp_s"] == pytest.approx(1.1 * 0.25)
    assert got["wall_s"] == pytest.approx(3.55)


def test_speed_scale_is_reference_over_mean_block_time():
    speed = harness.Speed()
    speed.last = 2.0 * harness.Speed.REF_BLOCK_S
    speed.sample = lambda: 2.0 * harness.Speed.REF_BLOCK_S
    assert speed.scale_since_last() == pytest.approx(0.5)


def test_tail_percentile_counts_ties_as_not_beyond():
    assert harness.tail_percentile([1.0] * 1000) is None


# --- tracing ------------------------------------------------------------------------


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, "r")


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),   # overlaps span 2: [1, 6] covered once
        _span(4, 8.0, 12.0, parent=1),  # runs past the parent: only [8, 10] counts
        _span(5, 2.0, 3.0, parent=2),   # grandchild: charged to span 2 only
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got[2] == pytest.approx(3.0 - 1.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(4.0)
    assert got[5] == pytest.approx(1.0)


def test_tracer_sees_cross_module_calls_and_restores_functions():
    original = mdtail.report.max_bound_full_sweep
    with Tracer(mdtail) as tracer:
        mdtail.report.max_bound_full_sweep()
    assert mdtail.report.max_bound_full_sweep is original
    names = {s.span_id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "simulate.max_lower_bound_sweep"]
    assert len(inner) == 1
    assert names[inner[0].parent].name == "report.max_bound_full_sweep"


def test_span_metrics_count_draws_at_the_estimator_boundary():
    g = mdtail.power_scale(1.0)
    with Tracer(mdtail, harness.record_args()) as tracer:
        mdtail.simulate.crude_mc(mdtail.gaussian(), g, 50, 1.0, 2000, 1)
    got = harness.span_metrics(tracer.spans, 1)
    assert got["simulate.draws"] == 50 * 2000
    assert got["simulate.estimates"] == 1
    assert got["simulate.chunks"] == 1
    assert got["simulate.calls"] == 1
    assert got["simulate.self_s"] > 0


# --- oracles and gates -----------------------------------------------------------------


def test_binomial_tail_matches_enumeration():
    from itertools import product

    for n in (1, 4, 7):
        sums = [sum(signs) for signs in product((-1, 1), repeat=n)]
        for t in (-n - 0.5, -1.0, 0.0, 0.3, 2.0, n + 0.5):
            want = sum(1 for s in sums if s > t) / 2**n
            assert workloads._binomial_tail(n, t) == pytest.approx(want, abs=0, rel=1e-15)


def test_tree_changes_reports_new_and_modified_files(tmp_path):
    (tmp_path / "a.txt").write_text("a")
    before = harness.tree_snapshot(tmp_path)
    (tmp_path / "b.txt").write_text("b")
    (tmp_path / "a.txt").write_text("aa")
    assert harness.tree_changes(before, harness.tree_snapshot(tmp_path)) == ["a.txt", "b.txt"]


# --- the benchmark definition and runs ------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert harness.unit_of(m["name"]) == m["unit"], m["name"]
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    printed = [ln.split(" = ")[0] for ln in lines if " = " in ln and not ln.startswith("point ")]
    for name in printed:
        assert NAME.match(name) or name.startswith("point_s."), name
    assert json.loads(lines[-2])["env"]["workload"] == workload


def test_exact_repeat_counts_agree_across_runs_of_one_seed():
    keys = ("simulate.draws", "simulate.chunks", "simulate.estimates",
            "simulate.estimator_errors", "report.artifact_bytes",
            "simulate.crude.relvar_per_rep")
    runs = [harness.run("crude_kernel", 9, 0.0, False, "tiny", ["wall_s"], [])
            for _ in range(2)]
    tables = [r["details"]["table"] for r in runs]
    for key in keys:
        assert tables[0][key] == tables[1][key], key
    assert all(r["record"]["correct"] for r in runs)


def test_fails_without_result_where_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    proc = run_bench("--workload", "crude_kernel", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The four benchmark workloads, the inputs they make from a seed, and their checks.

Each workload is a list of operations that one round runs in order.  A Monte
Carlo operation is one trajectory point: a single-point experiment config,
loaded with ``report.load_config`` during set-up and run with
``report.run_experiment`` into a scratch directory.  A ``verify_exact``
operation is one verification suite.

Why these workloads:

* ``crude_kernel``: the crude estimator at one worker.  Time is the samplers
  plus the draw, row-sum, compare kernel; no discretization, tilting or
  exact arithmetic runs, so a tilted-only change should leave it unchanged.
* ``tilted_kernel``: few tilted and split points with many reps at two
  workers.  The tilted chunk kernel (CDF lookup) dominates and the thread
  pool runs; per-point set-up is a small share.
* ``tilted_setup``: over a hundred small-n split points at the minimum reps.
  Per-point fixed costs dominate (truncation plan, 32768-cell
  discretization, tilt root-find, model construction), which the kernel
  workloads hide.
* ``verify_exact``: the verification suites.  Exact Fraction enumeration,
  exponent grids and model construction, with no large chunk kernel.

The seed chooses the Monte Carlo seeds of every point and, in
``tilted_setup``, the sample sizes.  The reference point of each workload,
used for work-normalized precision, keeps one fixed seed: its relative
error is then a property of the code rather than of the workload seed
(a crude reference with about ten hits would otherwise move by a third
between seeds).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mdtail
from mdtail import report, simulate, tails
from mdtail.scale import scale_from_spec
from scipy.special import ndtr

REF_SEED = 20221
POWER1 = {"kind": "power", "rho": 1.0}
GAUSSIAN = {"preset": "gaussian"}
TWO_POINT = {"preset": "two_point"}
PARETO3 = {"preset": "pareto", "alpha": 3.0}
DESIGNED = {"preset": "designed", "lambda_plus": 0.5, "lambda_minus": 2.0, "scale": POWER1}

# Smallest n in [20, 200] at which split_estimate accepts the point.  Below
# it the tilt has no root and the estimator raises TiltingError: for the
# designed law the truncation level c_n lies under the tail start t0 = e, so
# the truncated law is the single core atom; for Pareto(3) the lower
# bracket's per-summand target lies beyond c_n.  Points are drawn only from
# the accepted range, so every operation is expected to succeed.
SPLIT_N_MIN = {
    ("designed", 0.5): 62,
    ("designed", 1.0): 62,
    ("designed", 1.5): 62,
    ("designed", 2.0): 62,
    ("pareto", 1.5): 26,
    ("pareto", 2.0): 32,
}


def point_config(model: dict, method: str, x: float, n: int, reps: int, seed: int) -> dict:
    return {
        "schema_version": 1,
        "model": model,
        "scale": POWER1,
        "method": method,
        "x_values": [x],
        "n_grid": [n],
        "reps": reps,
        "seed": seed,
    }


@dataclass
class Outcome:
    """What one execution of an operation did."""

    seconds: float
    attempted: int
    failures: list[str]
    fingerprint: tuple
    counts: dict = field(default_factory=dict)
    relerr: float | None = None


class PointOp:
    """One trajectory point, run through report.run_experiment."""

    is_point = True

    def __init__(self, label: str, raw: dict, workers: int, checks: tuple[str, ...],
                 reference: bool = False, repeats: int = 1):
        self.label = label
        self.repeats = repeats
        self.raw = raw
        self.workers = workers
        self.checks = checks
        self.reference = reference
        self.config = None
        self.out_dir: Path | None = None

    def prepare(self, workdir: Path, index: int) -> float:
        """Write the config file and load it; returns the load time."""
        path = workdir / "configs" / f"{index:03d}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.raw, sort_keys=True), encoding="utf-8")
        start = time.perf_counter()
        self.config = report.load_config(path)
        elapsed = time.perf_counter() - start
        self.out_dir = workdir / "out" / f"{index:03d}"
        return elapsed

    @property
    def reps(self) -> int:
        return self.config.reps

    def run(self) -> Outcome:
        start = time.perf_counter()
        try:
            paths = report.run_experiment(self.config, workers=self.workers,
                                          out_dir=str(self.out_dir))
        except simulate.EstimatorError as exc:
            seconds = time.perf_counter() - start
            return Outcome(seconds, 1, [f"{self.label}: estimator_error {exc}"],
                           ("error", str(exc)), {"simulate.estimator_errors": 1})
        seconds = time.perf_counter() - start
        blobs = {kind: Path(p).read_bytes() for kind, p in sorted(paths.items())}
        rows = list(csv.DictReader(io.StringIO(blobs["trajectory"].decode("utf-8"))))
        failures = [f"{self.label}: {msg}" for msg in self._check(rows)]
        reps = self.config.reps
        counts = {
            "simulate.estimates": 0,
            "simulate.estimator_errors": 0,
            "simulate.draws": 0,
            "simulate.chunks": 0,
            "report.artifact_bytes": sum(len(b) for b in blobs.values()),
        }
        for row in rows:
            if "estimator_error" in row["flags"]:
                counts["simulate.estimator_errors"] += 1
                continue
            n = int(row["n"])
            counts["simulate.estimates"] += 1
            counts["simulate.draws"] += reps * n
            counts["simulate.chunks"] += chunk_count(reps, n)
        relerr = None
        if self.reference and rows:
            first = rows[0]
            p_hat, stderr = float(first["p_hat"]), float(first["stderr"])
            relerr = stderr / p_hat if p_hat > 0 else math.inf
        digests = tuple(hashlib.sha256(b).hexdigest() for b in blobs.values())
        return Outcome(seconds, 1, failures, digests, counts, relerr)

    def _check(self, rows: list[dict]) -> list[str]:
        errors = [r["flags"] for r in rows if "estimator_error" in r["flags"]]
        if errors:
            return [f"estimator_error row: {errors[0]}"]
        want = 2 if self.config.method == "split" else 1
        if len(rows) != want:
            return [f"expected {want} trajectory rows, got {len(rows)}"]
        msgs = []
        for name in self.checks:
            msgs.extend(CHECKS[name](self, rows))
        return msgs


class SuiteOp:
    """One verification suite; each PASS/FAIL line is one attempted check."""

    is_point = True
    reference = False
    repeats = 1
    workers = 1

    def __init__(self, suite: str):
        self.label = f"verify {suite}"
        self.suite = suite

    def prepare(self, workdir: Path, index: int) -> float:
        return 0.0

    def run(self) -> Outcome:
        buf = io.StringIO()
        start = time.perf_counter()
        ok = report.verify_suite(self.suite, buf)
        seconds = time.perf_counter() - start
        lines = [ln for ln in buf.getvalue().splitlines() if ln.startswith(("PASS", "FAIL"))]
        failures = [f"{self.label}: {ln}" for ln in lines if ln.startswith("FAIL")]
        if not ok and not failures:
            failures.append(f"{self.label}: suite returned False")
        if not lines:
            failures.append(f"{self.label}: no checks ran")
        return Outcome(seconds, max(len(lines), 1), failures, (buf.getvalue(),))


class SignArrayOp:
    """The sign-array estimate of the envelopes suite, timed on its own.

    It is the one Monte Carlo estimate in verify_exact, so it is that
    workload's reference for work-normalized precision.  It is not a point:
    its latency is kept out of the point percentiles.
    """

    is_point = False
    reference = True
    reps = 200_000
    workers = 1

    def __init__(self, repeats: int):
        self.label = "bounded_array_mc n=10000"
        self.repeats = repeats

    def prepare(self, workdir: Path, index: int) -> float:
        return 0.0

    def run(self) -> Outcome:
        g = mdtail.power_scale(1.0)
        array = simulate.unit_sign_array(g)
        start = time.perf_counter()
        est = simulate.bounded_array_mc(array, g, 10000, 1.0, reps=self.reps, seed=20260814)
        seconds = time.perf_counter() - start
        failures = []
        if not (est.p_hat > 0 and math.isfinite(est.stderr)):
            failures.append(f"{self.label}: no hits (p_hat {est.p_hat})")
        relerr = est.stderr / est.p_hat if est.p_hat > 0 else math.inf
        counts = {"simulate.estimates": 1, "simulate.draws": est.reps,
                  "simulate.chunks": chunk_count(est.reps, est.n)}
        return Outcome(seconds, 1, failures, (est.p_hat, est.stderr), counts, relerr)


def chunk_count(reps: int, n: int) -> int:
    """Chunks an estimator cuts reps into (CHUNK_TARGET elements per chunk)."""
    per = max(1, simulate.CHUNK_TARGET // max(n, 1))
    return -(-reps // per)


# --- oracles ------------------------------------------------------------------


def _scale_G(op: PointOp, n: int) -> float:
    return scale_from_spec(op.config.scale).eval(math.log(n))


def _check_gauss_crude(op: PointOp, rows: list[dict]) -> list[str]:
    """Crude estimate against the exact normal tail ndtr(-x sqrt(G))."""
    row = rows[0]
    n, x, reps = int(row["n"]), float(row["x"]), op.config.reps
    p = float(ndtr(-x * math.sqrt(_scale_G(op, n))))
    z = abs(float(row["p_hat"]) - p) / math.sqrt(p * (1.0 - p) / reps)
    if not z <= 5.0:
        return [f"crude p_hat {row['p_hat']} vs ndtr oracle {p:.6g} ({z:.1f} sd)"]
    return []


def _check_gauss_tilted(op: PointOp, rows: list[dict]) -> list[str]:
    """Tilted estimate at the eps-reduced threshold 0.9 x a_n against ndtr.

    The truncation at c_n is negligible for the normal law at these n; the
    1% allowance covers the 32768-cell discretization.
    """
    row = rows[0]
    n, x = int(row["n"]), float(row["x"])
    p = float(ndtr(-0.9 * x * math.sqrt(_scale_G(op, n))))
    p_hat, se = float(row["p_hat"]), float(row["stderr"])
    if not abs(p_hat - p) <= 5.0 * se + 0.01 * p:
        return [f"tilted p_hat {p_hat:.6g} +- {se:.3g} vs ndtr oracle {p:.6g}"]
    return []


def _binomial_tail(n: int, t: float) -> float:
    """P(2K - n > t) for K ~ Binomial(n, 1/2), exactly."""
    k_min = max(math.floor((n + t) / 2.0) + 1, 0)
    hits = sum(math.comb(n, k) for k in range(k_min, n + 1))
    return float(Fraction(hits, 2**n))


def _check_binomial_split(op: PointOp, rows: list[dict]) -> list[str]:
    """Both two_point split brackets against exact binomial sums.

    The upper bracket estimates the sign-sum tail at (x - eps) a_n plus the
    union term n P(X > sqrt(n)/G); the lower one the tail at (x + eps) a_n
    times the no-exceedance probability (1 - p_n)^n.
    """
    upper, lower = rows[0], rows[1]
    n, x = int(upper["n"]), float(upper["x"])
    G = _scale_G(op, n)
    a_n = math.sqrt(n * G)
    eps = x / 10.0
    model = tails.two_point()
    union = n * float(model.right_tail(math.sqrt(n) / G))
    scheme = simulate.plan_truncation(model, scale_from_spec(op.config.scale), n)
    want_upper = min(1.0, _binomial_tail(n, (x - eps) * a_n) + union)
    want_lower = _binomial_tail(n, (x + eps) * a_n) * (1.0 - scheme.p_n) ** n
    msgs = []
    for name, row, want in (("upper", upper, want_upper), ("lower", lower, want_lower)):
        p_hat, se = float(row["p_hat"]), float(row["stderr"])
        if not abs(p_hat - want) <= 5.0 * se + 1e-12 * want:
            msgs.append(f"{name} bracket {p_hat:.6g} +- {se:.3g} vs binomial sum {want:.6g}")
    return msgs


def _check_bracket_order(op: PointOp, rows: list[dict]) -> list[str]:
    """lower <= upper, up to five combined standard errors of Monte Carlo noise.

    On a lattice law both brackets can estimate the same probability, so an
    exact comparison would fail half the time by noise alone.
    """
    upper, lower = rows[0], rows[1]
    hi, lo = float(upper["p_hat"]), float(lower["p_hat"])
    slack = 5.0 * math.hypot(float(upper["stderr"]), float(lower["stderr"]))
    if not lo <= hi + slack:
        return [f"bracket out of order: lower {lo:.6g} > upper {hi:.6g} + {slack:.3g}"]
    return []


CHECKS = {
    "gauss_crude": _check_gauss_crude,
    "gauss_tilted": _check_gauss_tilted,
    "binomial_split": _check_binomial_split,
    "bracket": _check_bracket_order,
}


# --- workload plans -------------------------------------------------------------


def _seeds(name: str, seed: int):
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def crude_kernel(seed: int, size: str) -> list:
    seeds = _seeds("crude_kernel", seed)
    reps_g, reps_p = (100_000, 5_000) if size == "full" else (20_000, 1_000)
    ref_n = 1000 if size == "full" else 100
    root2 = math.sqrt(2.0)
    ops = []
    for n in (100, 1000):
        ref = n == ref_n
        cfg = point_config(GAUSSIAN, "crude", root2, n, reps_g, REF_SEED if ref else next(seeds))
        ops.append(PointOp(f"crude gaussian n={n} x=sqrt2", cfg, 1, ("gauss_crude",), ref))
    for n in (100, 1000, 10000):
        cfg = point_config(PARETO3, "crude", 5.0, n, reps_p, next(seeds))
        ops.append(PointOp(f"crude pareto3 n={n} x=5", cfg, 1, ()))
    return ops


def tilted_kernel(seed: int, size: str) -> list:
    seeds = _seeds("tilted_kernel", seed)
    full = size == "full"
    reps_t, reps_2, reps_p = (5000, 20_000, 2000) if full else (1000, 1000, 1000)
    ops = []
    for x in (1.0, 2.0, 3.0):
        ref = x == 2.0
        cfg = point_config(GAUSSIAN, "tilted", x, 1000, reps_t, REF_SEED if ref else next(seeds))
        # the reference is repeated so its median latency is steady
        ops.append(PointOp(f"tilted gaussian n=1000 x={x:g}", cfg, 2, ("gauss_tilted",), ref,
                           repeats=3 if ref and full else 1))
    cfg = point_config(TWO_POINT, "split", 1.0, 100, reps_2, next(seeds))
    ops.append(PointOp("split two_point n=100 x=1", cfg, 2, ("binomial_split", "bracket")))
    for n in (1000, 10000) if full else (1000,):
        cfg = point_config(PARETO3, "split", 5.0, n, reps_p if n == 1000 else 1000, next(seeds))
        ops.append(PointOp(f"split pareto3 n={n} x=5", cfg, 2, ("bracket",)))
    return ops


def tilted_setup(seed: int, size: str) -> list:
    """Seven n per (model, x) cell, one from each seventh of the accepted range."""
    seeds = _seeds("tilted_setup", seed)
    rng = random.Random(f"tilted_setup/n/{seed}")
    per_cell = 7 if size == "full" else 1
    ops = []
    cfg = point_config(TWO_POINT, "split", 1.0, 100, 1000, REF_SEED)
    # a 15 ms point: repeated so its median latency is steady
    ops.append(PointOp("split two_point n=100 x=1 (reference)", cfg, 1,
                       ("binomial_split", "bracket"), True, repeats=10))
    models = (("gaussian", GAUSSIAN), ("two_point", TWO_POINT),
              ("pareto", PARETO3), ("designed", DESIGNED))
    for key, model in models:
        for x in (0.5, 1.0, 1.5, 2.0):
            lo = SPLIT_N_MIN.get((key, x), 20)
            width = 200 - lo + 1
            for i in range(per_cell):
                n = lo + int(width * (i + rng.random()) / per_cell)
                checks = ("binomial_split", "bracket") if key == "two_point" else ("bracket",)
                cfg = point_config(model, "split", x, n, 1000, next(seeds))
                ops.append(PointOp(f"split {key} n={n} x={x:g}", cfg, 1, checks))
    return ops


def verify_exact(seed: int, size: str) -> list:
    suites = ("inequalities", "exponents", "rates", "envelopes") if size == "full" \
        else ("rates", "envelopes")
    return [SuiteOp(s) for s in suites] + [SignArrayOp(20 if size == "full" else 1)]


PLANS = {
    "crude_kernel": crude_kernel,
    "tilted_kernel": tilted_kernel,
    "tilted_setup": tilted_setup,
    "verify_exact": verify_exact,
}


def warm_up(name: str, workdir: Path) -> None:
    """One small call down the workload's path, so lazy set-up is not timed."""
    if name == "verify_exact":
        report.verify_suite("envelopes", io.StringIO())
        return
    method = {"crude_kernel": "crude", "tilted_kernel": "tilted"}.get(name, "split")
    cfg = report.ExperimentConfig.from_dict(point_config(GAUSSIAN, method, 1.0, 20, 1000, 1))
    report.run_experiment(cfg, workers=2 if name == "tilted_kernel" else 1,
                          out_dir=str(workdir / "warmup"))

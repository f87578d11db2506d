"""Direct timed calls to public mdtail functions, one per per-layer metric.

These cover what spans cannot: scalar scale-function calls and sampler
draws run far too often to wrap, and rates such as draws per second need a
fixed amount of work.  Each probe reports the median of a few repeats.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from fractions import Fraction
from pathlib import Path

import mdtail
from mdtail import exponents, report, simulate, tails

SIZES = {
    "full": {"repeats": 3, "draws": 1 << 21, "slow_draws": 1 << 18, "evals": 5000,
             "crude_reps": 10_000, "tilted_reps": (1000, 5000), "scaling": (2048, 4096)},
    "tiny": {"repeats": 1, "draws": 1 << 14, "slow_draws": 1 << 12, "evals": 200,
             "crude_reps": 1000, "tilted_reps": (1000, 2000), "scaling": (64, 66536)},
}


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probes(workdir: Path, size: str) -> dict[str, float]:
    cfg = SIZES[size]
    k = cfg["repeats"]
    g = mdtail.power_scale(1.0)
    out: dict[str, float] = {}

    models = {
        "gaussian": (tails.gaussian(), cfg["draws"]),
        "pareto3": (tails.pareto(3.0), cfg["draws"]),
        "two_point": (tails.two_point(), cfg["draws"]),
        "designed": (tails.make_designed_tail(0.5, 2.0, g), cfg["slow_draws"]),
        "oscillating": (tails.make_oscillating_tail(0.5, 2.0, g, 3.0), cfg["slow_draws"]),
    }
    for label, (model, draws) in models.items():
        out[f"tails.sample.draws_per_s.{label}"] = draws / _median_time(
            lambda: model.sample(7, draws), k)

    out["tails.build_s.designed"] = _median_time(
        lambda: tails.make_designed_tail(0.5, 2.0, g), k)
    out["tails.build_s.oscillating"] = _median_time(
        lambda: tails.make_oscillating_tail(0.5, 2.0, g, 3.0), k)
    out["tails.catalog_s"] = _median_time(tails.catalog, k)

    evals = [0.01 * i for i in range(cfg["evals"])]
    out["scale.eval_per_s"] = len(evals) / _median_time(lambda: [g.eval(t) for t in evals], k)

    entries = tails.catalog()
    out["exponents.from_tail_s"] = _median_time(
        lambda: [exponents.exponents_from_tail(e.model, e.scale) for e in entries], k
    ) / len(entries)
    out["exponents.sup_form_s"] = _median_time(
        lambda: [exponents.exponents_sup_form(e.model, e.scale) for e in entries], k
    ) / len(entries)

    par = models["pareto3"][0]
    reps = cfg["crude_reps"]
    out["simulate.crude.draws_per_s"] = reps * 1000 / _median_time(
        lambda: simulate.crude_mc(par, g, 1000, 5.0, reps, 11), k)

    # time against reps at one tilted point: slope is per-draw cost, intercept set-up
    gauss = models["gaussian"][0]
    lo, hi = cfg["tilted_reps"]
    t_lo = _median_time(lambda: simulate.tilted_mc_truncated(gauss, g, 200, 2.0, lo, 13), k)
    t_hi = _median_time(lambda: simulate.tilted_mc_truncated(gauss, g, 200, 2.0, hi, 13), k)
    slope = (t_hi - t_lo) / (hi - lo)
    out["simulate.tilted.draws_per_s"] = 200 / slope if slope > 0 else math.nan
    out["simulate.tilted.setup_s"] = t_lo - lo * slope

    plan_models = (gauss, par, models["designed"][0])
    out["simulate.plan_truncation_s"] = _median_time(
        lambda: [simulate.plan_truncation(m, g, 1000) for m in plan_models], k
    ) / len(plan_models)

    # two full chunks, so two workers can split the work evenly
    n, reps = cfg["scaling"]
    one = _median_time(lambda: simulate.tilted_mc_truncated(gauss, g, n, 2.0, reps, 17, workers=1), 1)
    two = _median_time(lambda: simulate.tilted_mc_truncated(gauss, g, n, 2.0, reps, 17, workers=2), 1)
    out["simulate.scaling_eff_2w"] = one / (2.0 * two)

    laws = report.inequality_law_grid()[::11]
    thresholds = [Fraction(k, 2) for k in range(-8, 9)]
    cases = len(laws) * len(thresholds)
    out["simulate.levy.cases_per_s"] = cases / _median_time(
        lambda: [simulate.levy_maximal_sweep(law, 4, thresholds) for law in laws], k)

    cells, _ = report.max_bound_full_sweep()
    out["simulate.max_bound.cells_per_s"] = cells / _median_time(report.max_bound_full_sweep, k)

    array = simulate.unit_sign_array(g)
    out["simulate.bounded_array.reps_per_s"] = 200_000 / _median_time(
        lambda: simulate.bounded_array_mc(array, g, 10000, 1.0, 200_000, 19), k)

    workdir.mkdir(parents=True, exist_ok=True)
    specs = [{"preset": "gaussian"}, {"preset": "two_point"}, {"preset": "pareto", "alpha": 3.0},
             {"preset": "designed", "lambda_plus": 0.5, "lambda_minus": 2.0,
              "scale": {"kind": "power", "rho": 1.0}},
             {"preset": "oscillating", "lambda_lo": 0.5, "lambda_hi": 2.0, "block_growth": 3.0,
              "scale": {"kind": "power", "rho": 1.0}}]
    paths = []
    for i, spec in enumerate(specs):
        path = workdir / f"config{i}.json"
        path.write_text(json.dumps({"model": spec, "scale": {"kind": "power", "rho": 1.0},
                                    "method": "split", "x_values": [1.0], "n_grid": [100],
                                    "reps": 1000, "seed": 1}), encoding="utf-8")
        paths.append(path)
    out["report.load_config_s"] = _median_time(
        lambda: [report.load_config(p) for p in paths], k) / len(paths)
    return out

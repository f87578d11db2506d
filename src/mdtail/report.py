"""Experiment runner: config files in, CSV/JSON artifacts out, plus verify suites.

Configs are single JSON documents with a versioned schema.  A run writes
three artifacts into the output directory: trajectory.csv (plot-ready
estimates with the theoretical band), exponents.json (the six computed
exponents with grid metadata), and manifest.json (config echo plus library
versions).  Nothing in the artifacts depends on wall-clock time or worker
count, so reruns of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import numpy as np
import scipy

from .exponents import TailExponents, default_grid, exponents_from_tail, exponents_sup_form
from .rate import RateSpec, Regime, _fmt, classify, rate_liminf, rate_limsup
from .scale import _SCALE_PRESETS, _g_log_n, _json_real, power_scale, scale_from_spec
from .simulate import (
    EstimatorError,
    _levy_numerators,
    _levy_tables,
    _point,
    _scaled_law,
    _sum_medians,
    bounded_array_mc,
    crude_mc,
    kolmogorov_lower,
    kolmogorov_upper,
    max_lower_bound_sweep,
    split_estimate,
    tilted_mc_truncated,
    unit_sign_array,
)
from .tails import (
    _MODEL_PRESETS,
    catalog,
    make_designed_tail,
    make_oscillating_tail,
    model_from_spec,
    pareto,
)

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "verify_suite",
    "inequality_law_grid",
    "levy_full_sweep",
    "max_bound_full_sweep",
    "main",
    "cli_main",
]

CSV_HEADER = "n,x,method,p_hat,stderr,log_p,normalized,rate_limsup,rate_liminf,flags"
OUT_DIR_ENV = "MDTAIL_OUT_DIR"


class ConfigError(ValueError):
    """The experiment config is malformed or references unknown presets."""


# Estimator methods: name -> runner(model, g, n, x, reps, seed, eps, workers) returning
# one point's estimates.  Runners look the estimators up in this module's globals when
# called, so a patched attribute (a tracing wrapper, say) takes effect.
_METHODS = {
    "crude": lambda m, g, n, x, reps, seed, eps, w: (crude_mc(m, g, n, x, reps, seed, w),),
    "tilted": lambda *args: (tilted_mc_truncated(*args),),
    "split": lambda *args: attrgetter("upper", "lower")(split_estimate(*args)),
}


def _int_field(value, message: str) -> int:
    """value as an int; anything but an integral JSON number raises ConfigError(message)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{message}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    scale: dict
    method: str
    x_values: tuple[float, ...]
    n_grid: tuple[int, ...]
    reps: int
    seed: int
    eps: float | None = None
    out_dir: str | None = None
    schema_version: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        version = raw.get("schema_version", 1)
        if version != 1:
            raise ConfigError(f"unsupported schema_version {version!r}; this build reads version 1")

        model = raw["model"]
        scale = raw["scale"]
        try:
            law = model_from_spec(model)
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"bad model spec: {exc}") from exc
        if not law.sigma2 > 0.0:  # a point mass, or a tail too far out to carry any mass
            raise ConfigError(f"the law's variance must be positive, got {law.sigma2!r} "
                              f"for {law.label}")
        try:
            g = scale_from_spec(scale)
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"bad scale spec: {exc}") from exc

        method = raw["method"]
        if not isinstance(method, str) or method not in _METHODS:
            raise ConfigError(f"method must be one of {tuple(_METHODS)}, got {method!r}")

        x_raw = raw["x_values"]
        if not isinstance(x_raw, (list, tuple)) or len(x_raw) == 0:
            raise ConfigError("x_values must be a nonempty list")
        x_values = tuple(
            _json_real(v, "x_values entries must be numbers", ConfigError) for v in x_raw
        )

        n_raw = raw["n_grid"]
        if not isinstance(n_raw, (list, tuple)) or len(n_raw) == 0:
            raise ConfigError("n_grid must be a nonempty list")
        n_grid = [_int_field(v, "n_grid entries must be integers") for v in n_raw]
        if any(b <= a for a, b in zip(n_grid[:-1], n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")

        reps = _int_field(raw["reps"], "reps must be an integer")

        seed = _int_field(raw["seed"], "seed must be an integer")
        if seed < 0:
            raise ConfigError("seed must be nonnegative")

        eps = raw.get("eps")
        if eps is not None:
            if method == "crude":
                raise ConfigError("eps applies only to the tilted and split methods, not 'crude'")
            eps = _json_real(eps, "eps must be a number", ConfigError)
        # every grid point passes the estimators' own point rules
        for n in n_grid:
            for x in x_values:
                _point(g, n, reps, x, eps, ConfigError)

        out_dir = raw.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("out_dir must be a string path")

        return cls(
            model=dict(model),
            scale=dict(scale),
            method=method,
            x_values=x_values,
            n_grid=tuple(n_grid),
            reps=reps,
            seed=seed,
            eps=eps,
            out_dir=out_dir,
            schema_version=1,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, and bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def _sanitize_flag_text(text: str) -> str:
    return text.replace(",", ";").replace("|", "/").replace("\n", " ")


def _json_value(value: float):
    """A finite float stays a JSON number; nan and +-inf become _fmt's strings."""
    return float(value) if math.isfinite(value) else _fmt(value)


def resolve_out_dir(config: ExperimentConfig | None, override: str | None) -> Path:
    if override:
        return Path(override)
    if config is not None and config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("mdtail-out")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_row(n: int, x: float, method: str, values, flags: tuple[str, ...], band) -> str:
    """One trajectory.csv row; values are (p_hat, stderr, log_p, normalized) and
    band is (rate_limsup, rate_liminf, the band's flags)."""
    band_up, band_low, band_flags = band
    return ",".join(
        (
            str(n),
            _fmt(x),
            method,
            *map(_fmt, values),
            _fmt(band_up),
            _fmt(band_low),
            "|".join(flags + band_flags),
        )
    )


def run_experiment(
    config: ExperimentConfig, workers: int = 1, out_dir: str | None = None
) -> dict[str, Path]:
    """Run the configured trajectories and write the three artifacts.

    Returns the artifact paths keyed by kind.  Output bytes depend only on
    the config and library versions, not on workers or the clock.
    """
    model = model_from_spec(config.model)
    g = scale_from_spec(config.scale)
    out = resolve_out_dir(config, out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at out or above it, or no permission
        raise ConfigError(f"cannot write artifacts to {out}: {exc}") from exc

    grid = default_grid(model)
    computed = exponents_from_tail(model, g, grid)
    # the band of the paper's limit takes the design exponents where they apply
    # to this scale, the computed ones otherwise; infinite variance pins it at 0
    spec = None
    if not math.isinf(model.sigma2):
        design = model.design_exponents is not None and model.design_scale_label in (None, g.label)
        spec = RateSpec(model.sigma2, g.rho, model.design_exponents if design else computed)

    run = _METHODS[config.method]
    rows = [CSV_HEADER]
    point_errors: list[str] = []
    for x in config.x_values:
        if spec is None:
            band = (0.0, 0.0, ("infinite_variance_band",))
        else:
            band = (rate_limsup(spec, x), rate_liminf(spec, x), ())
        for n in config.n_grid:
            try:
                ests = run(model, g, n, x, config.reps, config.seed, config.eps, workers)
            except EstimatorError as exc:
                point_errors.append(str(exc))
                flags = ("estimator_error:" + _sanitize_flag_text(str(exc)),)
                rows.append(_csv_row(n, x, config.method, (math.nan,) * 4, flags, band))
                continue
            for est in ests:
                values = (est.p_hat, est.stderr, est.log_p, est.normalized)
                rows.append(_csv_row(est.n, est.x, est.method, values, est.flags, band))
    # partial failures stay as per-row records, but a run where no point
    # produced an estimate is an estimator failure, not a result
    total_points = len(config.x_values) * len(config.n_grid)
    if len(point_errors) == total_points:
        raise EstimatorError(
            f"all {total_points} trajectory points failed; first: {point_errors[0]}"
        )
    trajectory_path = out / "trajectory.csv"
    _write_text(trajectory_path, "\n".join(rows) + "\n")

    exponents_payload = {
        "model": model.label,
        "scale": g.label,
        "grid": asdict(grid),
        "exponents": {k: _json_value(v) for k, v in asdict(computed).items()},
    }
    exponents_path = out / "exponents.json"
    _write_text(exponents_path, json.dumps(exponents_payload, sort_keys=True, indent=2) + "\n")

    manifest_payload = {
        "config": config.to_dict(),
        "seed": config.seed,
        "versions": {
            "mdtail": _package_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    manifest_path = out / "manifest.json"
    _write_text(manifest_path, json.dumps(manifest_payload, sort_keys=True, indent=2) + "\n")

    return {"trajectory": trajectory_path, "exponents": exponents_path, "manifest": manifest_path}


def _package_version() -> str:
    from . import __version__

    return __version__


# --- verification suites ---------------------------------------------------


def inequality_law_grid() -> list[list[tuple[Fraction, Fraction]]]:
    """Deterministic grid of 220 two- and three-point laws with exact weights."""
    laws: list[list[tuple[Fraction, Fraction]]] = []
    two_point_supports = [
        (Fraction(-1), Fraction(1)),
        (Fraction(-2), Fraction(1)),
        (Fraction(-1), Fraction(3)),
        (Fraction(-1, 2), Fraction(2)),
    ]
    for lo, hi in two_point_supports:
        for k in range(1, 20):
            p = Fraction(k, 20)
            laws.append([(lo, 1 - p), (hi, p)])
    three_point_supports = [
        (Fraction(-1), Fraction(0), Fraction(1)),
        (Fraction(-2), Fraction(0), Fraction(1)),
        (Fraction(-1), Fraction(1), Fraction(2)),
        (Fraction(-3), Fraction(-1), Fraction(2)),
    ]
    for a, b, c in three_point_supports:
        for i in range(1, 10):
            for j in range(1, 10 - i):
                pa = Fraction(i, 10)
                pb = Fraction(j, 10)
                laws.append([(a, pa), (b, pb), (c, 1 - pa - pb)])
    return laws


# Evenly spaced thresholds per (law, n) in the exact sweep, both ends included,
# and the sweep's largest n.
_THRESHOLD_COUNT = 21
_LEVY_N_MAX = 5


def _threshold_numerators(values: list[int], dv: int, n: int) -> list[int]:
    """Evenly spaced thresholds from n min - 1/2 to n max + 1/2, both included,
    as numerators over 2*Dv*(_THRESHOLD_COUNT - 1), for support values in
    units of 1/Dv."""
    steps = _THRESHOLD_COUNT - 1
    lo = 2 * n * min(values) - dv
    hi = 2 * n * max(values) + dv
    return [lo * steps + k * (hi - lo) for k in range(_THRESHOLD_COUNT)]


def _threshold_grid(law, n: int) -> list[Fraction]:
    """The thresholds of _threshold_numerators as Fractions, for a law given
    as (value, weight) pairs."""
    scaled, dv, _ = _scaled_law(law)
    den = 2 * dv * (_THRESHOLD_COUNT - 1)
    return [Fraction(k, den) for k in _threshold_numerators([v for v, _ in scaled], dv, n)]


def _levy_grid_cases():
    """Each (law, n) of the A3 sweep as (law, n, cuts, sides): for each of its
    thresholds t, the cut floor(2*Dv*t) and the four numerators over Dw**n.
    A threshold k/(2*Dv*steps) of _threshold_numerators has the cut k // steps.
    """
    steps = _THRESHOLD_COUNT - 1
    for law in inequality_law_grid():
        scaled, dv, dw = _scaled_law(law)
        med = _sum_medians(scaled, dw, _LEVY_N_MAX - 1)
        values = [v for v, _ in scaled]
        for n in range(1, _LEVY_N_MAX + 1):
            tables = _levy_tables(scaled, med, n)
            cuts = [k // steps for k in _threshold_numerators(values, dv, n)]
            yield law, n, cuts, [_levy_numerators(tables, cut) for cut in cuts]


def levy_full_sweep() -> tuple[int, int]:
    """Exact maximal-inequality sweep over the law grid at n = 1.._LEVY_N_MAX; returns
    (cases, failures).

    It runs the private sweep that simulate.levy_maximal_sweep wraps
    (_levy_tables), in integers end to end: each law is validated and scaled
    once, n = 1.._LEVY_N_MAX share the medians of its partial sums, each
    threshold is answered at its integer cut, and the verdicts are counted
    from the integer numerators, with no threshold Fraction and no
    LevyCheckResult built.
    """
    cases = 0
    failures = 0
    for _, _, _, sides in _levy_grid_cases():
        cases += len(sides)
        failures += sum(i > i_bound or p > p_bound for i, i_bound, p, p_bound in sides)
    return cases, failures


def max_bound_full_sweep() -> tuple[int, int]:
    """(1 and np)/2 <= 1-(1-p)^n over a 1000 x 1000 grid; returns (cases, failures)."""
    p_grid = np.linspace(1e-6, 0.5, 1000)
    n_grid = np.arange(1, 1001)
    return p_grid.size * n_grid.size, max_lower_bound_sweep(p_grid, n_grid)


def _relerr(value: float, target: float) -> float:
    if math.isinf(target):
        return 0.0 if math.isinf(value) and value > 0 else math.inf
    if target == 0:
        return abs(value)
    return abs(value - target) / abs(target)


def _check_exponent_recovery() -> list[tuple[str, bool, str]]:
    checks = []
    worst = 0.0
    worst_ident = 0.0
    for g in (power_scale(1.0), power_scale(2.0)):
        for lp in (0.5, 1.0, 2.0):
            for lm in (0.5, 1.0, 2.0):
                model = make_designed_tail(lp, lm, g)
                got = exponents_from_tail(model, g)
                for value, target in (
                    (got.lam1_bar, lp),
                    (got.lam1_under, lp),
                    (got.lam2_bar, lm),
                    (got.lam2_under, lm),
                    (got.lam_bar, min(lp, lm)),
                    (got.lam_under, min(lp, lm)),
                ):
                    worst = max(worst, _relerr(value, target))
                worst_ident = max(
                    worst_ident, _relerr(got.lam_bar, min(got.lam1_bar, got.lam2_bar))
                )
    checks.append(
        (
            "designed exponent recovery (18 models, both scales)",
            worst <= 0.05,
            f"worst relative error {worst:.4f} (allowed 0.05)",
        )
    )
    checks.append(
        (
            "two-sided = min(one-sided) identity",
            worst_ident <= 0.02,
            f"worst relative error {worst_ident:.4f} (allowed 0.02)",
        )
    )

    par = pareto(3.0)
    got = exponents_from_tail(par, power_scale(1.0))
    err = _relerr(got.lam1_bar, 1.0)
    limit = rate_limsup(RateSpec(par.sigma2, 1.0, got), 5.0, "upper")
    checks.append(
        (
            "pareto alpha=3: right exponent alpha-2, sigma2 3/4, plateau limit -1/2 at x=5",
            err <= 0.02 and math.isclose(par.sigma2, 0.75, rel_tol=1e-12)
            and abs(limit + 0.5) <= 0.01,
            f"lam1_bar {got.lam1_bar:.4f} vs 1.0, relative error {err:.4f}; sigma2 "
            f"{par.sigma2:.4f}, rate -min(x^2/2s^2, lam/2) = {limit:.4f} (want -0.5)",
        )
    )

    entries = catalog()
    windows = [exponents_from_tail(entry.model, entry.scale) for entry in entries]
    osc, got = next((e, w) for e, w in zip(entries, windows)
                    if e.model.label == "oscillating(0.5,2;t;x3)")
    err_bar = _relerr(got.lam1_bar, 0.5)
    err_under = _relerr(got.lam1_under, 2.0)
    spec = RateSpec(osc.model.sigma2, 1.0, got)  # the band of the computed exponents
    up, low = rate_limsup(spec, 10.0, "upper"), rate_liminf(spec, 10.0, "upper")
    checks.append(
        (
            "oscillating tail separates limsup/liminf exponents",
            err_bar <= 0.10 and err_under <= 0.10 and got.lam1_bar < got.lam1_under
            and abs(up + 0.25) <= 0.03 and abs(low + 1.0) <= 0.11 and up > low,
            f"bar {got.lam1_bar:.4f} vs 0.5, under {got.lam1_under:.4f} vs 2.0; "
            f"band at x=10 limsup {up:.4f} vs -0.25, liminf {low:.4f} vs -1",
        )
    )

    order_ok = True
    for got in windows:
        order_ok = order_ok and got.lam1_bar <= got.lam1_under + 1e-9
        order_ok = order_ok and got.lam2_bar <= got.lam2_under + 1e-9
        order_ok = order_ok and got.lam_bar <= got.lam_under + 1e-9
    checks.append(
        (
            "catalog exponent ordering (bar <= under on all sides)",
            order_ok,
            "limsup-flavored exponents never exceed liminf-flavored ones",
        )
    )

    worst_gap = 0.0
    sup_ok = True
    for entry, window in zip(entries, windows):
        sup = exponents_sup_form(entry.model, entry.scale)
        for name in (
            "lam1_bar", "lam1_under", "lam2_bar", "lam2_under", "lam_bar", "lam_under",
        ):
            a, b = getattr(window, name), getattr(sup, name)
            if math.isinf(a) or math.isinf(b):
                sup_ok = sup_ok and a == b
            else:
                worst_gap = max(worst_gap, abs(a - b))
    sup_ok = sup_ok and worst_gap <= 0.05 + 1e-9
    checks.append(
        (
            "sup-form route agrees with window route (full catalog)",
            sup_ok,
            f"worst finite gap {worst_gap:.4f} (allowed one r-step, 0.05)",
        )
    )
    return checks


def _check_inequalities() -> list[tuple[str, bool, str]]:
    cases, failures = levy_full_sweep()
    checks = [
        (
            "maximal inequalities, exact enumeration",
            failures == 0 and len(inequality_law_grid()) >= 200,
            f"{cases} (law, n, threshold) cases, {failures} failures",
        )
    ]
    grid_cases, grid_failures = max_bound_full_sweep()
    checks.append(
        (
            "i.i.d. maximum lower bound grid",
            grid_failures == 0,
            f"{grid_cases} (p, n) cells, {grid_failures} failures",
        )
    )
    p_grid = np.linspace(1e-6, 1.0, 1000)
    ext_failures = max_lower_bound_sweep(p_grid, np.arange(1, 1001))
    checks.append(
        (
            "i.i.d. maximum lower bound grid, p <= 1 extension",
            ext_failures == 0,
            f"{p_grid.size * 1000} (p, n) cells, {ext_failures} failures",
        )
    )
    return checks


def _envelope_verdict(g, estimates) -> tuple[bool, str]:
    """(verdict, detail) of unit sign-array estimates at r = 1 and ascending n against
    the Kolmogorov envelopes: p_hat - 4 stderr <= upper at every n, and normalized at
    least the lower envelope's exponent (eps = 0.001) minus 0.3 at the largest n only,
    since the lower envelope is asymptotic."""
    ok = True
    details = []
    for est in estimates:
        G = _g_log_n(g, est.n)
        x_n = math.sqrt(est.n * G)
        upper = kolmogorov_upper(float(est.n), 1.0, x_n)
        ok = ok and est.p_hat - 4.0 * est.stderr <= upper
        details.append(f"n={est.n}: p_hat {est.p_hat:.3e} <= upper {upper:.3e}")
    # est, G and x_n are now the largest n's
    floor = math.log(kolmogorov_lower(float(est.n), x_n, 0.001)) / G - 0.3
    ok = ok and est.normalized >= floor
    details.append(f"normalized {est.normalized:.4f} >= floor {floor:.4f}")
    return ok, "; ".join(details)


def _check_envelopes() -> list[tuple[str, bool, str]]:
    exact = kolmogorov_upper(1.0, 0.0, 2.0)
    g = power_scale(1.0)
    array = unit_sign_array(g)
    ests = [bounded_array_mc(array, g, n, 1.0, reps=200000, seed=20260814) for n in (1000, 10000)]
    return [
        (
            "upper bound reduces to exp(-x^2/2B) at M=0",
            math.isclose(exact, math.exp(-2.0), rel_tol=1e-12),
            f"value {exact:.6f} vs {math.exp(-2.0):.6f}",
        ),
        ("sign-array estimates inside both envelopes", *_envelope_verdict(g, ests)),
    ]


def _check_rates() -> list[tuple[str, bool, str]]:
    checks = []

    def exps(bar: float, under: float) -> TailExponents:
        return TailExponents(bar, under, bar, under, bar, under)

    lams = (0.0, 0.5, math.inf)
    pairs = [(b, u) for b in lams for u in lams if b <= u]
    probes = (0.1, 1.0, 10.0)
    cells = 0
    bad: list[str] = []
    for sigma2 in (0.0, 0.5, 1.0, 4.0):
        for mean_matches in (True, False):
            for b, u in pairs:
                cells += 1
                regime = classify(sigma2, mean_matches, exps(b, u))
                if not mean_matches or sigma2 == 0.0:
                    want = Regime.LIMIT_ZERO if mean_matches is False else Regime.MINUS_INFINITY
                    if regime is not want:
                        bad.append(f"sigma2={sigma2} match={mean_matches} lam=({b},{u})")
                    continue
                spec = RateSpec(sigma2, 1.0, exps(b, u))
                limsup_neg = all(
                    -math.inf < rate_limsup(spec, x, "two-sided") < 0.0 for x in probes
                )
                liminf_neg = all(
                    -math.inf < rate_liminf(spec, x, "two-sided") < 0.0 for x in probes
                )
                bounded = regime is Regime.BOUNDED_NONZERO_LIMINF_TOO
                ok = bounded == limsup_neg and bounded <= liminf_neg
                if regime is Regime.LIMIT_ZERO:
                    ok = ok and not limsup_neg
                if not ok:
                    bad.append(f"sigma2={sigma2} lam=({b},{u}) -> {regime.name}")
    checks.append(
        (
            "classifier agrees with rate signs on the deterministic grid",
            not bad,
            f"{cells} cells checked" + (f"; first mismatch {bad[0]}" if bad else ", 0 mismatches"),
        )
    )

    light = exps(math.inf, math.inf)
    presets = (
        ("mean shift", classify(1.0, False, light), Regime.LIMIT_ZERO),
        ("infinite variance", classify(pareto(1.5).sigma2, True, exps(0.0, 0.0)),
         Regime.LIMIT_ZERO),
        ("degenerate constant", classify(0.0, True, light), Regime.MINUS_INFINITY),
    )
    preset_ok = all(got is want for _, got, want in presets)
    checks.append(
        (
            "proof-case presets map to their regimes",
            preset_ok,
            "; ".join(f"{name} -> {got.name}" for name, got, _ in presets),
        )
    )

    osc = make_oscillating_tail(0.5, 2.0, power_scale(1.0), 3.0)
    spec = RateSpec(osc.sigma2, 1.0, osc.design_exponents)
    up = rate_limsup(spec, 10.0, "upper")
    low = rate_liminf(spec, 10.0, "upper")
    checks.append(
        (
            "oscillating tail splits the rate band at x=10",
            up == -0.25 and low == -1.0 and up > low,
            f"limsup {up:g} vs liminf {low:g}",
        )
    )

    # scipy.special is already loaded by tails, which imports it before
    # scipy.optimize on purpose (see its imports), so this import costs nothing;
    # it stays here because moving an import can move glibc heap placement and
    # with it the package's import time
    from scipy.special import ndtr

    # the exact gaussian tail at x = sqrt(2) on g(t) = t, where the limit is -x^2/2 = -1
    normalized = [math.log(float(ndtr(-math.sqrt(2.0) * math.sqrt(G)))) / G
                  for G in map(math.log, (100, 1000, 10_000, 100_000))]
    devs = [abs(v + 1.0) for v in normalized]
    checks.append(
        (
            "gaussian oracle approaches its limit -1 at x=sqrt(2) along n",
            devs[-1] <= 0.25 and all(b < a for a, b in zip(devs, devs[1:])),
            f"normalized at n=1e5: {normalized[-1]:.4f} (within 0.25 of -1: {devs[-1]:.4f}); "
            "deviation sequence " + " > ".join(f"{d:.3f}" for d in devs),
        )
    )
    return checks


_SUITES = {
    "inequalities": _check_inequalities,
    "exponents": _check_exponent_recovery,
    "rates": _check_rates,
    "envelopes": _check_envelopes,
}


def verify_suite(suite: str, stream=None) -> bool:
    """Run a named deterministic verification sweep, print one line per check."""
    if stream is None:
        stream = sys.stdout
    if suite == "all":
        names = tuple(_SUITES)
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise ConfigError(f"unknown suite {suite!r}; choose from "
                          f"{', '.join(_SUITES)}, all")
    total = 0
    passed = 0
    for name in names:
        for label, ok, detail in _SUITES[name]():
            total += 1
            passed += ok
            print(f"{'PASS' if ok else 'FAIL'} [{name}] {label}: {detail}", file=stream)
    print(f"suite '{suite}': {passed}/{total} checks passed", file=stream)
    return passed == total


# --- CLI ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the validation exit code
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdtail",
        description="Moderate-deviation tail experiments: run configs, verify bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config and write artifacts")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--workers", type=int, default=1, help="threads that draw each estimate")
    p_run.add_argument("--out", default=None, help="output directory (overrides config and env)")
    p_verify = sub.add_parser("verify", help="run a bundled verification suite")
    p_verify.add_argument("suite", choices=(*_SUITES, "all"))
    sub.add_parser("list-presets", help="list model and scale presets")
    return parser


def _emit_error(exc: Exception, out: Path) -> None:
    print(f"error: {exc}", file=sys.stderr)
    payload = json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True, indent=2
    )
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "error.json", payload + "\n")
    except OSError:
        pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.workers < 1:
            parser.error(f"--workers must be >= 1; got {args.workers}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "list-presets":
        for what, table in (("model", _MODEL_PRESETS), ("scale", _SCALE_PRESETS)):
            print(f"{what} presets:")
            for name, (required, optional, _) in table.items():
                params = ", ".join((*required, *(f"[{key}]" for key in optional)))
                print(f"  {name} ({params})" if params else f"  {name}")
        return 0

    if args.command == "verify":
        return 0 if verify_suite(args.suite) else 3

    config = None
    out_override = args.out
    try:
        config = load_config(args.config)
        paths = run_experiment(config, workers=args.workers, out_dir=out_override)
    except ConfigError as exc:
        _emit_error(exc, resolve_out_dir(config, out_override))
        return 1
    except EstimatorError as exc:
        _emit_error(exc, resolve_out_dir(config, out_override))
        return 2
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


def cli_main() -> None:
    sys.exit(main())

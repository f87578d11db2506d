"""Acceptance gate: one printed PASS/FAIL line per criterion clause.

Every clause prints its verdict before asserting, so a red criterion is
visible in the output with the measured numbers, not just a traceback.
The long Monte Carlo runs share session fixtures to stay inside the
per-criterion runtime budgets.
"""

import functools
import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import ndtr

import mdtail as md
from mdtail import report, simulate as S

WORKERS = 8


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


# ------------------------------------------------------------------ A1


@functools.cache
def _exponent_checks():
    """{label: (verdict, detail)} of `mdtail verify exponents`, run once for A1 and A2."""
    return {label: (ok, detail) for label, ok, detail in report._check_exponent_recovery()}


def test_a1_designed_exponent_recovery():
    rec_ok, rec = _exponent_checks()["designed exponent recovery (18 models, both scales)"]
    ident_ok, ident = _exponent_checks()["two-sided = min(one-sided) identity"]
    ok = _verdict(
        "A1 exponent recovery",
        rec_ok and ident_ok,
        f"18 designed models, {rec}; min-identity {ident}",
    )
    assert ok


# ------------------------------------------------------------------ A2


def test_a2_sup_form_equivalence():
    sup_ok, sup = _exponent_checks()["sup-form route agrees with window route (full catalog)"]
    ok = _verdict("A2 sup-form equivalence", sup_ok, f"full catalog, {sup}")
    assert ok


# ------------------------------------------------------------------ A3


def test_a3_exact_inequality_sweeps():
    laws = report.inequality_law_grid()
    cases, failures = report.levy_full_sweep(n_max=5)
    grid_cases, grid_failures = report.max_bound_full_sweep()
    extra_failures = S.max_lower_bound_sweep(
        np.linspace(1e-6, 1.0, 1000), np.arange(1, 1001)
    )
    ok = _verdict(
        "A3 exact inequalities",
        len(laws) >= 200 and failures == 0 and grid_failures == 0 and extra_failures == 0,
        f"{len(laws)} laws, {cases} maximal-inequality cases, {failures} failures; "
        f"max bound grid {grid_cases} cells, {grid_failures} failures "
        f"(+{extra_failures} on the p<=1 extension)",
    )
    assert ok


# ------------------------------------------------------------------ A4


def test_a4_gaussian_oracle_convergence():
    x = math.sqrt(2.0)
    n_grid = (100, 1000, 10_000, 100_000)
    normalized = []
    for n in n_grid:
        G = math.log(n)
        p = float(ndtr(-x * math.sqrt(G)))
        normalized.append(math.log(p) / G)
    deviations = [abs(v + 1.0) for v in normalized]
    decreasing = all(b < a for a, b in zip(deviations[:-1], deviations[1:]))
    ok = _verdict(
        "A4 gaussian oracle trend",
        deviations[-1] <= 0.25 and decreasing,
        f"normalized at n=1e5: {normalized[-1]:.4f} (within 0.25 of -1: "
        f"{deviations[-1]:.4f}); deviation sequence "
        + " > ".join(f"{d:.3f}" for d in deviations),
    )
    assert ok


def test_a4_gaussian_crude_mc_matches_oracle():
    x = math.sqrt(2.0)
    n = 1000
    est = S.crude_mc(md.gaussian(), md.power_scale(1.0), n=n, x=x,
                     reps=1_000_000, seed=42, workers=WORKERS)
    p = float(ndtr(-x * math.sqrt(math.log(n))))
    se = math.sqrt(p * (1.0 - p) / 1_000_000)
    z = (est.p_hat - p) / se
    ok = _verdict(
        "A4 gaussian crude MC",
        abs(z) <= 4.0,
        f"n=1e3 reps=1e6: p_hat {est.p_hat:.4e} vs oracle {p:.4e}, z {z:+.2f}",
    )
    assert ok


# ------------------------------------------------------------------ A5


@pytest.fixture(scope="session")
def a5_crude():
    return S.crude_mc(md.pareto(3.0), md.power_scale(1.0), n=10_000, x=5.0,
                      reps=1_000_000, seed=77, workers=WORKERS)


def test_a5_predicted_plateau_limit():
    m = md.pareto(3.0)
    g = md.power_scale(1.0)
    e = md.exponents_from_tail(m, g)
    spec = md.RateSpec(m.sigma2, 1.0, e)
    predicted = md.rate_limsup(spec, 5.0, side="upper")
    ok = _verdict(
        "A5 predicted limit",
        math.isclose(m.sigma2, 0.75, rel_tol=1e-12)
        and abs(e.lam1_bar - 1.0) <= 0.02
        and abs(predicted + 0.5) <= 0.01,
        f"sigma2 {m.sigma2:.4f}, lam1_bar {e.lam1_bar:.4f}, "
        f"rate -min(x^2/2s^2, lam/2) = {predicted:.4f} (want -0.5)",
    )
    assert ok


def test_a5_crude_normalized_near_limit(a5_crude):
    # The stated tolerance is not reachable at n = 1e4: the plateau sets in
    # at the max-term scale, and the true probability there is still about
    # an order of magnitude below exp(-0.5 g(log n)).  Reported honestly.
    est = a5_crude
    dev = abs(est.normalized + 0.5)
    ok = _verdict(
        "A5 crude normalized near -1/2",
        dev <= 0.25,
        f"n=1e4 reps=1e6: p_hat {est.p_hat:.3e}, normalized {est.normalized:.4f}, "
        f"|dev| {dev:.4f} (allowed 0.25)",
    )
    assert ok


def test_a5_sandwich_brackets_crude(a5_crude):
    crude = a5_crude
    sp = S.split_estimate(md.pareto(3.0), md.power_scale(1.0), n=10_000, x=5.0,
                          reps=20_000, seed=78, workers=WORKERS)
    tol_up = 4.0 * math.sqrt(sp.upper.stderr**2 + crude.stderr**2)
    tol_lo = 4.0 * math.sqrt(sp.lower.stderr**2 + crude.stderr**2)
    ok_up = crude.p_hat <= sp.upper.p_hat + tol_up
    ok_lo = sp.lower.p_hat <= crude.p_hat + tol_lo
    ok = _verdict(
        "A5 split sandwich",
        ok_up and ok_lo,
        f"lower {sp.lower.p_hat:.3e} <= crude {crude.p_hat:.3e} <= "
        f"upper {sp.upper.p_hat:.3e} at 4 combined stderr",
    )
    assert ok


# ------------------------------------------------------------------ A6


def test_a6_kolmogorov_envelopes():
    g = md.power_scale(1.0)
    arr = S.unit_sign_array(g)
    details = []
    ok = True
    last_norm = None
    last_floor = None
    for n in (1000, 10_000):
        G = math.log(n)
        x_n = math.sqrt(n * G)
        est = S.bounded_array_mc(arr, g, n=n, r=1.0, reps=400_000, seed=20260814,
                                 workers=WORKERS)
        upper = S.kolmogorov_upper(B_n=float(n), M_n=1.0, x_n=x_n)
        ok = ok and est.p_hat - 4.0 * est.stderr <= upper
        details.append(f"n={n}: p_hat {est.p_hat:.3e} <= upper {upper:.3e}")
        last_norm = est.normalized
        last_floor = math.log(S.kolmogorov_lower(B_n=float(n), x_n=x_n, eps=0.001)) / G
    ok = ok and last_norm >= last_floor - 0.3
    details.append(f"normalized {last_norm:.4f} >= floor {last_floor - 0.3:.4f}")
    assert _verdict("A6 exponential envelopes", ok, "; ".join(details))


# ------------------------------------------------------------------ A7


def test_a7_oscillation_witness():
    g = md.power_scale(1.0)
    m = md.make_oscillating_tail(0.5, 2.0, g, 3.0)
    e = md.exponents_from_tail(m, g)
    spec = md.RateSpec(m.sigma2, 1.0, e)
    up = md.rate_limsup(spec, 10.0, side="upper")
    low = md.rate_liminf(spec, 10.0, side="upper")
    ok = _verdict(
        "A7 oscillation witness",
        abs(e.lam1_bar - 0.5) <= 0.05
        and abs(e.lam1_under - 2.0) <= 0.2
        and up > low
        and math.isclose(up, -0.25, abs_tol=0.03)
        and math.isclose(low, -1.0, abs_tol=0.11),
        f"computed (bar, under) = ({e.lam1_bar:.4f}, {e.lam1_under:.4f}) vs (0.5, 2); "
        f"band limsup {up:.4f} > liminf {low:.4f} (want -0.25 vs -1)",
    )
    assert ok


# ------------------------------------------------------------------ A8


def test_a8_classifier_consistency():
    checks = report._check_rates()
    all_ok = all(ok for _, ok, _ in checks)
    detail = "; ".join(f"{label}: {d}" for label, ok, d in checks)
    assert _verdict("A8 classifier consistency", all_ok, detail)


# ------------------------------------------------------------------ A9


def test_a9_worker_determinism(tmp_path):
    configs = {
        "split": report.ExperimentConfig.from_dict(
            {
                "model": {"preset": "two_point"},
                "scale": {"kind": "power", "rho": 1.0},
                "method": "split",
                "x_values": [1.0, 2.0],
                "n_grid": [50, 200],
                "reps": 5000,
                "seed": 99,
            }
        ),
        "crude": report.ExperimentConfig.from_dict(
            {
                "model": {"preset": "gaussian"},
                "scale": {"kind": "power", "rho": 1.0},
                "method": "crude",
                "x_values": [1.4142135623730951],
                "n_grid": [100, 1000],
                "reps": 50_000,
                "seed": 42,
            }
        ),
    }
    all_ok = True
    details = []
    for label, cfg in configs.items():
        digests = set()
        for workers in (1, 4, 8):
            out = tmp_path / f"{label}-w{workers}"
            paths = report.run_experiment(cfg, workers=workers, out_dir=str(out))
            digests.add(hashlib.sha256(paths["trajectory"].read_bytes()).hexdigest())
        all_ok = all_ok and len(digests) == 1
        details.append(f"{label}: {len(digests)} distinct digest(s) across workers 1/4/8")
    assert _verdict("A9 determinism", all_ok, "; ".join(details))

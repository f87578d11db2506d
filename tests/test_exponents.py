"""Tail exponent extraction: window limits, sup form, sample version."""

import math

import numpy as np
import pytest

import mdtail as md

INF = math.inf


def _close(a, b, rel):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def test_tail_exponents_validation():
    with pytest.raises(ValueError):
        md.TailExponents(1.0, 0.5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        md.TailExponents(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        md.TailExponents(float("nan"), 1.0, 1.0, 1.0, 1.0, 1.0)
    e = md.TailExponents(1.0, 1.0, INF, INF, 1.0, 1.0)
    assert e.lam2_bar == INF


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        md.GridSpec(10.0, 1.0, 40, "geometric")
    with pytest.raises(ValueError):
        md.GridSpec(1.0, 10.0, 1, "geometric")
    with pytest.raises(ValueError):
        md.GridSpec(1.0, 10.0, 40, "diagonal")


def test_grid_must_cover_the_tail_region():
    g = md.power_scale(1.0)
    with pytest.raises(ValueError, match="4 decades"):
        md.exponents_from_tail(md.pareto(3.0), g, md.GridSpec(2.0, 6.0, 30, "geometric"))
    m = md.make_designed_tail(1.0, 1.0, g)
    with pytest.raises(ValueError, match="below the model's t0"):
        md.exponents_from_tail(m, g, md.GridSpec(0.5, 40.0, 120, "geometric"))


# Frozen recovery table for the whole catalog.  Designed and power-tail models
# come back exactly; the oscillating one picks up a log(2) correction in the
# two-sided exponents because both sides contribute equal mass, and the
# extremes sit at the last block endpoints inside the probe window (u = 729
# for the shallow envelope, u = 2187 for the steep one).
_LOG2 = math.log(2.0)
RECOVERY = {
    "gaussian": (INF, INF, INF, INF, INF, INF),
    "two_point": (INF, INF, INF, INF, INF, INF),
    "pareto(2.5)": (0.5, 0.5, INF, INF, 0.5, 0.5),
    "pareto(3)": (1.0, 1.0, INF, INF, 1.0, 1.0),
    "pareto(4)": (2.0, 2.0, INF, INF, 2.0, 2.0),
    "designed(1,1;t)": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    "designed(0.5,2;t)": (0.5, 0.5, 2.0, 2.0, 0.5, 0.5),
    "designed(1,0.5;t^2)": (1.0, 1.0, 0.5, 0.5, 0.5, 0.5),
    "oscillating(0.5,2;t;x3)": (
        0.5,
        2.0,
        0.5,
        2.0,
        0.5 - _LOG2 / 729.0,
        2.0 - _LOG2 / 2187.0,
    ),
}


def test_catalog_recovery_matches_frozen_table():
    seen = set()
    for entry in md.catalog():
        m = entry.model
        e = md.exponents_from_tail(m, entry.scale)
        want = RECOVERY[m.label]
        got = (e.lam1_bar, e.lam1_under, e.lam2_bar, e.lam2_under, e.lam_bar, e.lam_under)
        for gv, wv in zip(got, want):
            assert _close(gv, wv, 1e-6), (m.label, got, want)
        seen.add(m.label)
    assert seen == set(RECOVERY)


def test_power_tail_exponent_is_alpha_minus_two():
    g = md.power_scale(1.0)
    for alpha in (2.5, 3.0, 4.0):
        e = md.exponents_from_tail(md.pareto(alpha), g)
        assert _close(e.lam1_bar, alpha - 2.0, 0.02), alpha
        assert _close(e.lam1_under, alpha - 2.0, 0.02), alpha


def test_sup_form_agrees_with_window_form():
    # The one-window sup route and the lim-window route must agree to 0.05
    # on every catalog entry, treating two infinities as equal.
    for entry in md.catalog():
        a = md.exponents_from_tail(entry.model, entry.scale)
        b = md.exponents_sup_form(entry.model, entry.scale)
        for name in ("lam1_bar", "lam1_under", "lam2_bar", "lam2_under",
                     "lam_bar", "lam_under"):
            x, y = getattr(a, name), getattr(b, name)
            if math.isinf(x) or math.isinf(y):
                assert x == y, (entry.model.label, name)
            else:
                assert abs(x - y) <= 0.05 + 1e-9, (entry.model.label, name, x, y)


def test_two_sided_min_identity():
    for entry in md.catalog():
        e = md.exponents_from_tail(entry.model, entry.scale)
        best = min(e.lam1_bar, e.lam2_bar)
        if math.isinf(best):
            assert math.isinf(e.lam_bar)
        else:
            assert _close(e.lam_bar, best, 0.02), entry.model.label
        floor = min(e.lam1_under, e.lam2_under)
        if not math.isinf(floor):
            assert e.lam_under <= floor * 1.02 + 1e-12, entry.model.label


def test_designed_min_identity_is_exact():
    g = md.power_scale(1.0)
    m = md.make_designed_tail(0.5, 2.0, g)
    d = m.design_exponents
    assert d.lam_bar == min(d.lam1_bar, d.lam2_bar) == 0.5
    assert d.lam_under == min(d.lam1_under, d.lam2_under) == 0.5


def test_lambda_cap_keeps_values_finite_or_inf():
    assert md.LAMBDA_MAX == 50.0
    g = md.power_scale(1.0)
    e = md.exponents_from_tail(md.gaussian(), g)
    assert e.lam1_bar == INF and e.lam2_under == INF


def test_prediction_arithmetic():
    e = md.TailExponents(1.0, 1.0, INF, INF, 1.0, 1.0)
    p = md.scaled_tail_predictions(e, 1.0)
    assert p.sqrt_tg_limsup == -0.5
    assert p.sqrt_tg_liminf == -0.5

    p = md.scaled_tail_predictions(
        md.TailExponents(INF, INF, INF, INF, INF, INF), 1.0
    )
    assert p.sqrt_tg_limsup == -INF and p.sqrt_tg_liminf == -INF

    p = md.scaled_tail_predictions(md.TailExponents(2.0, 2.0, INF, INF, 2.0, 2.0), 0.0)
    assert p.sqrt_tg_limsup == -2.0

    # liminf side reads the under-flavor exponent
    p = md.scaled_tail_predictions(md.TailExponents(1.0, 3.0, INF, INF, 1.0, 3.0), 1.0)
    assert p.sqrt_tg_limsup == -0.5
    assert p.sqrt_tg_liminf == -1.5

    with pytest.raises(ValueError):
        md.scaled_tail_predictions(e, -0.5)


def test_empirical_exponents_on_large_samples():
    g = md.power_scale(1.0)

    xs = md.pareto(3.0).sample(seed=7, n=10**6)
    emp = md.empirical_exponents(xs, g)
    assert 0.6 <= emp.exps.lam1_bar <= 1.4
    assert 0.6 <= emp.exps.lam1_under <= 1.4
    assert emp.flags == ()
    assert emp.exceedances_at_max >= 100

    xs = md.make_designed_tail(0.5, 2.0, g).sample(seed=7, n=10**6)
    emp = md.empirical_exponents(xs, g)
    assert 0.3 <= emp.exps.lam1_bar <= 0.8
    assert 0.3 <= emp.exps.lam1_under <= 0.8

    # bounded support: every grid point past the support edge has zero
    # exceedances, so all six estimates blow up and the flag records it
    xs = md.two_point().sample(seed=7, n=10**6)
    emp = md.empirical_exponents(xs, g)
    assert emp.exps.lam1_bar == INF and emp.exps.lam_under == INF
    assert "low_tail_support" in emp.flags


def test_empirical_exponents_rejects_small_samples():
    g = md.power_scale(1.0)
    with pytest.raises(ValueError):
        md.empirical_exponents(np.ones(10**4), g)
    # a NaN or an infinity is named, not read as a vanishing scale or as an
    # exceedance at every grid point
    xs = md.pareto(3.0).sample(seed=7, n=10**5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sample must be finite"):
            md.empirical_exponents(np.append(xs, bad), g)

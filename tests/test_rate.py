"""Normalized-limit rate evaluation and regime classification."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdtail as md
from mdtail.rate import Regime

INF = math.inf


def _exps(bar, under):
    return md.TailExponents(bar, under, bar, under, bar, under)


def test_worked_examples_upper_side():
    light = md.RateSpec(1.0, 1.0, _exps(INF, INF))
    assert md.rate_limsup(light, 2.0, side="upper") == -2.0

    s = md.RateSpec(1.0, 1.0, _exps(1.0, 1.0))
    assert md.rate_limsup(s, 10.0, side="upper") == -0.5
    # kink: quadratic branch below x = sigma*sqrt(2*lam/2^rho) = 1, flat above
    assert md.rate_limsup(s, 1.0) == -0.5
    assert math.isclose(md.rate_limsup(s, 0.999), -(0.999**2) / 2.0, rel_tol=1e-12)
    assert md.rate_limsup(s, 1.001) == -0.5

    # rho = 0: the plateau is -lam itself
    flat = md.RateSpec(1.0, 0.0, _exps(2.0, 2.0))
    assert md.rate_limsup(flat, 10.0) == -2.0


def test_worked_examples_liminf_and_oscillation():
    sym = md.RateSpec(1.0, 1.0, _exps(1.0, 1.0))
    for x in (0.3, 1.0, 4.0):
        assert md.rate_liminf(sym, x) == md.rate_limsup(sym, x)

    osc = md.RateSpec(1.0, 1.0, _exps(0.5, 2.0))
    assert md.rate_limsup(osc, 10.0) == -0.25
    assert md.rate_liminf(osc, 10.0) == -1.0


def test_side_selection():
    e = md.TailExponents(1.0, 1.0, 2.0, 3.0, 1.0, 1.0)
    s = md.RateSpec(1.0, 1.0, e)
    assert md.rate_limsup(s, 10.0, side="upper") == -0.5
    assert md.rate_limsup(s, 10.0, side="lower") == -1.0
    assert md.rate_liminf(s, 10.0, side="lower") == -1.5
    assert md.rate_limsup(s, 10.0, side="two-sided") == -0.5
    # underscore alias accepted
    assert md.rate_limsup(s, 10.0, side="two_sided") == -0.5


def test_continuity_at_zero_threshold():
    s = md.RateSpec(2.0, 1.0, _exps(0.5, 2.0))
    prev = md.rate_limsup(s, 1.0)
    for x in (1e-2, 1e-4, 1e-8):
        val = md.rate_limsup(s, x)
        assert -1e-3 < val < 0.0 or x > 1e-3
        assert val >= prev
        prev = val
    assert md.rate_limsup(s, 1e-8) == pytest.approx(-1e-16 / 4.0)


def test_validation():
    e = _exps(1.0, 1.0)
    with pytest.raises(ValueError):
        md.RateSpec(0.0, 1.0, e)
    with pytest.raises(ValueError):
        md.RateSpec(INF, 1.0, e)
    with pytest.raises(ValueError):
        md.RateSpec(1.0, -1.0, e)
    s = md.RateSpec(1.0, 1.0, e)
    with pytest.raises(ValueError):
        md.rate_limsup(s, 0.0)
    with pytest.raises(ValueError):
        md.rate_limsup(s, -1.0)
    with pytest.raises(ValueError):
        md.rate_limsup(s, 1.0, side="sideways")


_lam = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 10.0, INF])


@settings(max_examples=80, deadline=None)
@given(
    bar=_lam,
    extra=_lam,
    sigma2=st.floats(0.1, 10.0),
    rho=st.floats(0.0, 2.0),
    x1=st.floats(0.01, 20.0),
    x2=st.floats(0.01, 20.0),
)
def test_rate_properties(bar, extra, sigma2, rho, x1, x2):
    under = bar if math.isinf(bar) else bar + extra
    s = md.RateSpec(sigma2, rho, _exps(bar, under))
    lo, hi = sorted((x1, x2))
    # nonincreasing in x
    assert md.rate_limsup(s, hi) <= md.rate_limsup(s, lo) + 1e-12
    assert md.rate_liminf(s, hi) <= md.rate_liminf(s, lo) + 1e-12
    # limsup dominates liminf pointwise
    for x in (lo, hi):
        assert md.rate_limsup(s, x) >= md.rate_liminf(s, x) - 1e-12
        assert md.rate_limsup(s, x) <= 0.0


@settings(max_examples=60, deadline=None)
@given(
    lam_small=st.floats(0.0, 5.0),
    bump=st.floats(0.0, 5.0),
    sigma2=st.floats(0.1, 10.0),
    x=st.floats(0.01, 20.0),
)
def test_larger_tail_exponent_never_raises_the_rate(lam_small, bump, sigma2, x):
    a = md.RateSpec(sigma2, 1.0, _exps(lam_small, lam_small))
    b = md.RateSpec(sigma2, 1.0, _exps(lam_small + bump, lam_small + bump))
    assert md.rate_limsup(b, x) <= md.rate_limsup(a, x) + 1e-12


def _expected_regime(sigma2, mean_matches, lam_bar, lam_under):
    if not mean_matches:
        return Regime.LIMIT_ZERO
    if sigma2 == 0.0:
        return Regime.MINUS_INFINITY
    if math.isinf(sigma2):
        return Regime.LIMIT_ZERO
    if lam_bar == 0.0 and lam_under == 0.0:
        return Regime.LIMIT_ZERO
    if lam_bar > 0.0:
        return Regime.BOUNDED_NONZERO_LIMINF_TOO
    return Regime.MIXED


def test_classifier_grid_against_inline_oracle():
    lams = [0.0, 0.5, INF]
    pairs = [(b, u) for b in lams for u in lams if b <= u]
    assert len(pairs) == 6
    cells = 0
    for sigma2, mean_matches, (b, u) in product(
        [0.0, 0.5, 1.0, 4.0], [True, False], pairs
    ):
        got = md.classify(sigma2, mean_matches, _exps(b, u))
        assert got == _expected_regime(sigma2, mean_matches, b, u), (
            sigma2, mean_matches, b, u,
        )
        cells += 1
    assert cells == 48


def test_classifier_consistent_with_rate_sign():
    # Over finite positive variances, "limsup bounded away from 0 and -inf"
    # as a regime must coincide with the rate being strictly negative at
    # every probe threshold.
    lams = [0.0, 0.5, 1.0, INF]
    probes = (0.1, 1.0, 10.0)
    for sigma2, b in product([0.5, 1.0, 4.0], lams):
        for u in lams:
            if u < b:
                continue
            exps = _exps(b, u)
            regime = md.classify(sigma2, True, exps)
            spec = md.RateSpec(sigma2, 1.0, exps)
            rate_negative = all(
                -INF < md.rate_limsup(spec, x, side="two-sided") < 0.0
                for x in probes
            )
            assert (regime is Regime.BOUNDED_NONZERO_LIMINF_TOO) == rate_negative, (sigma2, b, u)


def test_classifier_proof_presets():
    light = _exps(INF, INF)
    # mean shift: the centered sum outruns the window entirely
    assert md.classify(1.0, False, light) == Regime.LIMIT_ZERO
    # heavy tail with infinite variance
    heavy = md.pareto(1.5)
    assert math.isinf(heavy.sigma2)
    assert md.classify(heavy.sigma2, True, _exps(0.0, 0.0)) == Regime.LIMIT_ZERO
    # degenerate constant
    assert md.classify(0.0, True, light) == Regime.MINUS_INFINITY


def test_classifier_mixed_and_validation():
    assert md.classify(1.0, True, _exps(0.0, 2.0)) == Regime.MIXED
    with pytest.raises(ValueError):
        md.classify(-1.0, True, _exps(1.0, 1.0))
    with pytest.raises(ValueError):
        md.classify(float("nan"), True, _exps(1.0, 1.0))


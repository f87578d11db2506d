"""Scale-function behavior: presets, ratio probes, derived thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtail.scale import (
    ScaleFunction,
    check_regular_variation,
    half_index_limit,
    log_scale,
    power_log_scale,
    power_scale,
    scale_from_spec,
    scaled_threshold,
    truncation_level,
)


def test_power_scale_values_and_labels():
    g = power_scale(1.0)
    assert g.rho == 1.0
    assert g.label == "t"
    assert g.eval(3.0) == 3.0
    g2 = power_scale(2.0)
    assert g2.label == "t^2"
    assert g2.eval(3.0) == 9.0
    out = g2(np.array([1.0, 2.0, 4.0]))
    assert np.allclose(out, [1.0, 4.0, 16.0])


def test_power_scale_rejects_bad_index():
    with pytest.raises(ValueError):
        power_scale(-0.5)
    with pytest.raises(ValueError):
        power_scale(float("nan"))


def test_log_scale_floors_small_arguments():
    g = log_scale()
    assert g.rho == 0.0
    assert g.eval(0.5) == 0.0
    assert g.eval(1.0) == 0.0
    assert math.isclose(g.eval(math.e), 1.0, rel_tol=1e-15)


def test_power_log_scale_values():
    g = power_log_scale()
    assert g.rho == 1.0
    assert math.isclose(g.eval(1.0), 1.0, rel_tol=1e-15)
    assert math.isclose(g.eval(10.0), 10.0 * math.log(10.0), rel_tol=1e-15)


def test_preset_kinks_are_where_the_slope_jumps():
    # the second difference over h is the jump in slope at a kink (1 for
    # log at t = 1 and for t log t at t = e); elsewhere it is h g'' plus
    # rounding, under 1e-4 at these probes
    h = 1e-5
    probes = np.array([0.25, 0.5, 0.9, 1.1, 2.0, 2.5, 3.0, 10.0])
    assert power_scale(1.0).kinks == () and power_scale(2.0).kinks == ()
    assert log_scale().kinks == (1.0,) and power_log_scale().kinks == (math.e,)
    for g in (power_scale(1.0), power_scale(0.5), power_scale(2.0), log_scale(), power_log_scale()):
        def jump(t):
            t = np.asarray(t, dtype=float)
            return (g(t + h) - 2.0 * g(t) + g(t - h)) / h

        assert np.all(np.abs(jump(g.kinks) - 1.0) < 1e-3), g.label
        assert np.all(np.abs(jump(probes)) < 1e-4), g.label


def test_hand_built_kinks_must_be_finite_nonnegative_and_ascending():
    def fn(t):
        return t

    for kinks in ((math.inf,), (math.nan,), (-1.0,), (2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="kinks"):
            ScaleFunction(rho=1.0, fn=fn, label="t", kinks=kinks)
    assert ScaleFunction(rho=1.0, fn=fn, label="t", kinks=[0, 1]).kinks == (0.0, 1.0)


def test_scale_from_spec_round_trip_and_errors():
    g = scale_from_spec({"kind": "power", "rho": 2.0})
    assert g.label == "t^2"
    assert scale_from_spec({"kind": "log"}).rho == 0.0
    assert scale_from_spec({"kind": "tlog"}).rho == 1.0
    with pytest.raises(ValueError):
        scale_from_spec({"kind": "cubic"})
    with pytest.raises(ValueError):
        scale_from_spec({"kind": "log", "rho": 2})


def test_scaled_threshold_closed_form():
    g = power_scale(1.0)
    want = math.sqrt(1e8 * math.log(1e8))
    got = scaled_threshold(g, 1.0, 1e8)
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(got, 42919.32052578695, rel_tol=1e-12)


def test_scaled_threshold_rejects_degenerate_scale():
    # log scale vanishes at n = 2 because log(log 2) floors to zero
    with pytest.raises(ValueError):
        scaled_threshold(log_scale(), 1.0, 2.0)
    with pytest.raises(ValueError):
        scaled_threshold(power_scale(1.0), -1.0, 100.0)
    with pytest.raises(ValueError):
        scaled_threshold(power_scale(1.0), 1.0, 1.5)


def test_truncation_level_closed_form():
    g = power_scale(1.0)
    got = truncation_level(g, 100.0, 0.5)
    assert math.isclose(got, 0.5 * math.sqrt(100.0 / math.log(100.0)), rel_tol=1e-14)
    with pytest.raises(ValueError):
        truncation_level(g, 100.0, 0.0)


def test_regular_variation_power_is_exact():
    rep = check_regular_variation(power_scale(1.0), [0.5, 2.0, 7.0], 1e8, 1e-9)
    assert rep.passed
    assert rep.max_deviation <= 1e-12


def test_regular_variation_refuses_or_fails_a_scale_that_is_not_positive():
    # NaN or negative at t_max is refused; NaN only beyond t_max gives a NaN ratio, which
    # fails the report (max(0.0, nan) would keep 0.0 and pass it)
    for g in (ScaleFunction(1.0, lambda t: t * math.nan, "nan"),
              ScaleFunction(1.0, lambda t: t - 2e6, "t-2e6")):
        with pytest.raises(ValueError, match=r"g\(t_max\) must be positive"):
            check_regular_variation(g, [0.5, 2.0], 1e6, 0.1)
    nan_above = ScaleFunction(1.0, lambda t: np.where(t <= 1e6, t, math.nan), "nan above 1e6")
    rep = check_regular_variation(nan_above, [0.5, 2.0], 1e6, 0.1)
    assert math.isnan(rep.max_deviation)
    assert not rep.passed
    with pytest.raises(ValueError, match="tol must be positive"):
        check_regular_variation(power_scale(1.0), [2.0], 1e6, math.nan)


def test_regular_variation_tlog_deviation_closed_form():
    # g(2t)/g(t) - 2 = 2*log(2)/log(t) for the t*log t scale
    rep = check_regular_variation(power_log_scale(), [2.0], 1e8, 0.2)
    want = 2.0 * math.log(2.0) / math.log(1e8)
    assert math.isclose(rep.max_deviation, want, rel_tol=1e-12)
    assert math.isclose(rep.max_deviation, 0.07525749891599487, rel_tol=1e-12)
    assert rep.passed


def test_regular_variation_log_deviation_closed_form():
    rep = check_regular_variation(log_scale(), [2.0], 1e8, 0.05)
    want = math.log(2.0) / math.log(1e8)
    assert math.isclose(rep.max_deviation, want, rel_tol=1e-12)
    assert rep.passed
    tight = check_regular_variation(log_scale(), [2.0], 1e8, 0.01)
    assert not tight.passed


def test_half_index_limit_power_closed_form():
    # g(log phi)/g(log t) with g(t)=t equals (L/2 + log(L)/2)/L at L = log t
    h = half_index_limit(power_scale(1.0), 1.0, 1e8)
    L = math.log(1e8)
    want = (0.5 * L + 0.5 * math.log(L)) / L
    assert math.isclose(h.ratio, want, rel_tol=1e-12)
    assert math.isclose(h.ratio, 0.5790816047307129, rel_tol=1e-12)
    assert h.predicted == 0.5


def test_half_index_limit_log_closed_form():
    h = half_index_limit(log_scale(), 1.0, 1e8)
    L = math.log(1e8)
    phi = math.sqrt(1e8 * math.log(L))
    want = math.log(math.log(phi)) / math.log(L)
    assert math.isclose(h.ratio, want, rel_tol=1e-12)
    assert math.isclose(h.ratio, 0.7814573682660914, rel_tol=1e-12)
    assert h.predicted == 1.0


def test_half_index_limit_converges_toward_prediction():
    g = power_scale(1.0)
    devs = [abs(half_index_limit(g, 1.0, t).ratio - 0.5) for t in (1e4, 1e8, 1e16)]
    assert devs[0] > devs[1] > devs[2]


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=0.1, max_value=100.0),
    t=st.floats(min_value=10.0, max_value=1e12),
    rho=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
)
def test_power_scale_ratio_identity(x, t, rho):
    g = power_scale(rho)
    assert math.isclose(g.eval(x * t) / g.eval(t), x**rho, rel_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1e6),
    b=st.floats(min_value=0.0, max_value=1e6),
)
def test_presets_are_nondecreasing(a, b):
    lo, hi = sorted((a, b))
    for g in (power_scale(0.5), power_scale(1.0), log_scale(), power_log_scale()):
        assert g.eval(lo) <= g.eval(hi) + 1e-12

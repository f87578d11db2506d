"""Scale-function behavior: presets and the truncation level."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtail.scale import (
    ScaleFunction,
    log_scale,
    power_log_scale,
    power_scale,
    scale_from_spec,
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


def test_truncation_level_closed_form():
    g = power_scale(1.0)
    got = truncation_level(g, 100.0, 0.5)
    assert math.isclose(got, 0.5 * math.sqrt(100.0 / math.log(100.0)), rel_tol=1e-14)
    with pytest.raises(ValueError):
        truncation_level(g, 100.0, 0.0)


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

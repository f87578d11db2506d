"""Nondecreasing regularly varying scale functions and thresholds built from them.

A scale function g maps [0, inf) to [0, inf), is nondecreasing, diverges,
and satisfies g(x*t)/g(t) -> x**rho for every fixed x > 0.  The index rho
is carried alongside the callable so downstream code can report predicted
limits without re-estimating it.  Instances are immutable and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ScaleFunction",
    "RegularVariationReport",
    "HalfIndexLimit",
    "power_scale",
    "log_scale",
    "power_log_scale",
    "scale_from_spec",
    "check_regular_variation",
    "scaled_threshold",
    "truncation_level",
    "half_index_limit",
]


@dataclass(frozen=True)
class ScaleFunction:
    """A nondecreasing regularly varying function with known index.

    Parameters
    ----------
    rho:
        Regular variation index, nonnegative.  rho = 0 means slowly varying.
    fn:
        Vectorized callable accepting a float array of nonnegative t values.
    label:
        Short identifier used in reports and for matching models that were
        designed against a specific scale.
    kinks:
        The t, ascending, where fn's slope jumps; tail integrals of laws built
        on the scale end their panels there.
    """

    rho: float
    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    kinks: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.rho >= 0 and math.isfinite(self.rho)):
            raise ValueError("regular variation index must be finite and nonnegative")
        k = tuple(float(t) for t in self.kinks)
        if not all(math.isfinite(t) and t >= 0 for t in k) or any(a >= b for a, b in zip(k, k[1:])):
            raise ValueError("kinks must be finite, nonnegative and strictly ascending")
        object.__setattr__(self, "kinks", k)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise ValueError("scale functions are defined for t >= 0 only")
        out = np.asarray(self.fn(arr), dtype=float)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape)
        if arr.ndim == 0:
            return float(out)
        return out

    def eval(self, t: float) -> float:
        """Evaluate at a single point, returning a plain float."""
        return float(self(float(t)))


def power_scale(rho: float = 1.0) -> ScaleFunction:
    """g(t) = t**rho for rho > 0.  The identity scale is the rho = 1 case."""
    if rho <= 0:
        raise ValueError("power_scale needs rho > 0 so that g diverges")
    label = "t" if rho == 1 else f"t^{rho:g}"
    return ScaleFunction(rho=float(rho), fn=lambda t: np.power(t, rho), label=label)


def log_scale() -> ScaleFunction:
    """g(t) = log(max(t, 1)), the canonical slowly varying scale (rho = 0)."""
    return ScaleFunction(
        rho=0.0,
        fn=lambda t: np.log(np.maximum(t, 1.0)),
        label="log(max(t,1))",
        kinks=(1.0,),
    )


def power_log_scale() -> ScaleFunction:
    """g(t) = t * log(max(t, e)), regularly varying with index 1."""
    return ScaleFunction(
        rho=1.0,
        fn=lambda t: t * np.log(np.maximum(t, math.e)),
        label="t*log(max(t,e))",
        kinks=(math.e,),
    )


# kind -> (required keys, optional keys, builder from the spec's parameters);
# `mdtail list-presets` prints the keys in this order
_SCALE_PRESETS = {
    "power": ((), ("rho",), lambda p: power_scale(float(p.get("rho", 1.0)))),
    "log": ((), (), lambda p: log_scale()),
    "tlog": ((), (), lambda p: power_log_scale()),
}


def _build_preset(spec, key: str, table: dict, what: str):
    """Build the object a config mapping {key: name, ...parameters} names.

    table maps each name to (required keys, optional keys, builder); unknown
    names, unknown keys and missing required keys raise ValueError.
    """
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{what} spec must be a mapping with a {key!r} key")
    params = dict(spec)
    name = params.pop(key)
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"unknown {what} {key} {name!r}; expected one of {tuple(table)}")
    required, optional, build = table[name]
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown keys for {what} {key} {name!r}: {sorted(unknown)}")
    missing = set(required) - set(params)
    if missing:
        raise ValueError(f"{name} {key} needs {sorted(missing)}")
    return build(params)


def scale_from_spec(spec: dict) -> ScaleFunction:
    """Build a scale function from a config mapping like {"kind": "power", "rho": 1}."""
    return _build_preset(spec, "kind", _SCALE_PRESETS, "scale")


@dataclass(frozen=True)
class RegularVariationReport:
    """Deviations |g(x*t_max)/g(t_max) - x**rho| for each probe ratio x."""

    t_max: float
    tol: float
    entries: tuple[tuple[float, float, float], ...]  # (x, ratio, deviation)
    max_deviation: float
    passed: bool


def check_regular_variation(
    g: ScaleFunction,
    x_grid: Sequence[float],
    t_max: float,
    tol: float,
) -> RegularVariationReport:
    """Probe g(x*t)/g(t) against x**rho at the largest grid point.

    The limit statement is about t -> inf; this evaluates the ratio at the
    single point t_max and flags each probe by whether the deviation is
    within tol.  Callers compare reports at increasing t_max to see the
    convergence trend.
    """
    xs = [float(x) for x in x_grid]
    if not xs:
        raise ValueError("x_grid must be nonempty")
    if any(x <= 0 for x in xs):
        raise ValueError("probe ratios must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    base = g.eval(t_max)
    if base == 0.0:
        raise ValueError("g(t_max) = 0; pick t_max large enough that g is positive")
    entries = []
    worst = 0.0
    for x in xs:
        ratio = g.eval(x * t_max) / base
        dev = abs(ratio - x**g.rho)
        worst = max(worst, dev)
        entries.append((x, ratio, dev))
    return RegularVariationReport(
        t_max=float(t_max),
        tol=float(tol),
        entries=tuple(entries),
        max_deviation=worst,
        passed=worst <= tol,
    )


def scaled_threshold(g: ScaleFunction, s: float, n: float) -> float:
    """The deviation threshold s * sqrt(n * g(log n)).

    n may be any real >= 2 (integer sample sizes are the common case, but
    closed-form checks like n = e**2 are convenient with real n).  Raises
    when g(log n) = 0 because the threshold would degenerate to 0.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    gn = g.eval(math.log(n))
    if gn == 0.0:
        raise ValueError("g(log n) = 0 at this n; the threshold scale is degenerate")
    return s * math.sqrt(n * gn)


def truncation_level(g: ScaleFunction, n: float, delta_hat: float) -> float:
    """The cut level delta_hat * sqrt(n / g(log n)) used by truncation schemes."""
    if delta_hat <= 0:
        raise ValueError("delta_hat must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    gn = g.eval(math.log(n))
    if gn == 0.0:
        raise ValueError("g(log n) = 0 at this n; no finite cut level exists")
    return delta_hat * math.sqrt(n / gn)


@dataclass(frozen=True)
class HalfIndexLimit:
    """Value of g(log phi_s(t)) / g(log t) at t_max, with its predicted limit."""

    ratio: float
    predicted: float
    t_max: float
    s: float


def half_index_limit(g: ScaleFunction, s: float, t_max: float) -> HalfIndexLimit:
    """Evaluate g(log phi_s(t)) / g(log t) at t = t_max.

    Here phi_s(t) = s * sqrt(t * g(log(max(t, e)))).  As t grows the ratio
    tends to 2**(-rho): phi_s grows like sqrt(t) times a slowly varying
    factor, so log phi_s is about half of log t.  The caller compares the
    returned ratio against the predicted limit at whatever tolerance the
    context justifies.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if t_max <= math.e:
        raise ValueError("t_max must exceed e for the ratio to be informative")
    base = g.eval(math.log(t_max))
    if base == 0.0:
        raise ValueError("g(log t_max) = 0; pick a larger t_max")
    phi = s * math.sqrt(t_max * g.eval(math.log(max(t_max, math.e))))
    ratio = g.eval(math.log(phi)) / base
    return HalfIndexLimit(
        ratio=ratio,
        predicted=2.0 ** (-g.rho),
        t_max=float(t_max),
        s=float(s),
    )

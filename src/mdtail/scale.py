"""Nondecreasing regularly varying scale functions and the truncation level built from them.

A scale function g maps [0, inf) to [0, inf), is nondecreasing, diverges,
and satisfies g(x*t)/g(t) -> x**rho for every fixed x > 0.  The index rho
is carried alongside the callable so downstream code can report predicted
limits without re-estimating it.  Instances are immutable and safe to share
across threads.  The input rules have one owner each, called with the
error type to raise: _whole refuses a value that is not integral rather
than round it, _finite_positive refuses zero, negatives, infinities and NaN,
and _g_log_n, for the deviation scale sqrt(n * g(log n)), refuses an n that
is not finite and >= 2 and a g(log n) that is not positive (NaN included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ScaleFunction",
    "power_scale",
    "log_scale",
    "power_log_scale",
    "scale_from_spec",
    "truncation_level",
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


def _json_real(value, message: str, error: type[ValueError] = ValueError) -> float:
    """value as a float; anything but a JSON number (a bool included) raises error(message)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{message}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float range, as json reads 1e400
        return math.inf if value > 0 else -math.inf


def _number(params: dict, key: str, default: float | None = None) -> float:
    """The spec parameter params[key] (default when absent), which must be a JSON number."""
    return _json_real(params.get(key, default), f"{key} must be a number")


# kind -> (required keys, optional keys, builder from the spec's parameters);
# `mdtail list-presets` prints the keys in this order
_SCALE_PRESETS = {
    "power": ((), ("rho",), lambda p: power_scale(_number(p, "rho", 1.0))),
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


def _whole(value, name: str, error: type[ValueError] = ValueError) -> int:
    """value as an int; raises error unless it is integral, where int() would round 2.9 down to 2."""
    if not float(value).is_integer():
        raise error(f"{name} must be an integer; got {value!r}")
    return int(value)


def _finite_positive(value: float, name: str, error: type[ValueError] = ValueError) -> float:
    """value, unless it is not finite and positive (NaN is not): then raises error."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be finite and positive; got {value!r}")
    return value


def _g_log_n(g: ScaleFunction, n: float, error: type[ValueError] = ValueError) -> float:
    """g(log n) for a finite n >= 2; raises error otherwise, or unless g(log n) is positive
    (NaN is not): no deviation scale exists then."""
    if not 2 <= n < math.inf:
        raise error(f"n must be finite and >= 2; got {n}")
    G = g.eval(math.log(n))
    if not G > 0.0:
        raise error(f"g(log n) must be positive; got {G} at n={n}")
    return G


def truncation_level(g: ScaleFunction, n: float, delta_hat: float) -> float:
    """The cut level delta_hat * sqrt(n / g(log n)) used by truncation schemes."""
    return _finite_positive(delta_hat, "delta_hat") * math.sqrt(n / _g_log_n(g, n))

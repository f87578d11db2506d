"""Limit values of the normalized log-probabilities and regime classification.

On the deviation scale x*sqrt(n*g(log n)) the normalized log-probability
log P / g(log n) converges (along limsup/liminf) to

    -min(x^2 / (2 sigma^2), lam / 2^rho)

where lam is the tail exponent matching the probed side and the limsup or
liminf flavor.  The classifier sorts a law into the qualitative regimes the
limit can exhibit: identically zero, bounded away from 0 and -inf, mixed,
or degenerate -inf.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .exponents import TailExponents

__all__ = ["RateSpec", "Regime", "rate_limsup", "rate_liminf", "rate_curve_csv", "classify"]

# side -> the TailExponents field prefix of its exponent pair
_SIDE_FIELDS = {"upper": "lam1", "lower": "lam2", "two-sided": "lam"}


class Regime(enum.Enum):
    """Qualitative behavior of the normalized log-probability limit.

    A negative finite limsup forces the liminf-flavored exponent to be
    positive as well, so a bounded nonzero limsup always comes with a
    bounded nonzero liminf: BOUNDED_NONZERO_LIMINF_TOO.  MIXED covers
    limsup 0 with a strictly negative liminf.
    """

    LIMIT_ZERO = "LIMIT_ZERO"
    BOUNDED_NONZERO_LIMINF_TOO = "BOUNDED_NONZERO_LIMINF_TOO"
    MINUS_INFINITY = "MINUS_INFINITY"
    MIXED = "MIXED"


@dataclass(frozen=True)
class RateSpec:
    sigma2: float
    rho: float
    exps: TailExponents

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be a finite positive real")
        if math.isnan(self.rho) or self.rho < 0:
            raise ValueError("rho must be nonnegative")


def _lam_for(exps: TailExponents, side: str, flavor: str) -> float:
    side = side.replace("_", "-")
    if side not in _SIDE_FIELDS:
        raise ValueError(f"side must be one of {tuple(_SIDE_FIELDS)}")
    return getattr(exps, f"{_SIDE_FIELDS[side]}_{flavor}")


def _rate(spec: RateSpec, x: float, lam: float) -> float:
    if not x > 0:
        raise ValueError("x must be positive")
    quad = x * x / (2.0 * spec.sigma2)
    if math.isinf(lam):
        return -quad
    value = min(quad, lam / 2.0**spec.rho)
    return 0.0 if value == 0.0 else -value


def rate_limsup(spec: RateSpec, x: float, side: str = "upper") -> float:
    """Limsup-flavored limit: the quadratic branch capped by the bar exponent."""
    return _rate(spec, x, _lam_for(spec.exps, side, "bar"))


def rate_liminf(spec: RateSpec, x: float, side: str = "upper") -> float:
    return _rate(spec, x, _lam_for(spec.exps, side, "under"))


def classify(sigma2: float, mean_matches_eta: bool, exps: TailExponents) -> Regime:
    """Sort a law into the qualitative limit regimes.

    The centering constant eta only matters through whether it equals the
    mean: any mismatch makes the deviation event typical and the normalized
    limit zero.  Infinite variance also forces the zero limit.  A degenerate
    law concentrated exactly at eta puts zero probability on every deviation,
    so the limit is -inf.  Otherwise the exponent pair decides: both zero
    gives the zero limit, a positive bar exponent bounds both flavors inside
    (-inf, 0), and a zero bar with positive under exponent mixes the two.
    The regime does not depend on the scale index rho.
    """
    if math.isnan(sigma2) or sigma2 < 0:
        raise ValueError("sigma2 must be in [0, inf]")
    if not mean_matches_eta:
        return Regime.LIMIT_ZERO
    if sigma2 == 0.0:
        return Regime.MINUS_INFINITY
    if math.isinf(sigma2):
        return Regime.LIMIT_ZERO
    if exps.lam_bar == 0.0 and exps.lam_under == 0.0:
        return Regime.LIMIT_ZERO
    if exps.lam_bar > 0.0:
        return Regime.BOUNDED_NONZERO_LIMINF_TOO
    return Regime.MIXED


def _fmt(value: float) -> str:
    """Round-trip text of a float: `.17g`, with nan, inf and -inf spelled out.

    The one float formatter of the package: rate curves and trajectory.csv
    use it directly, exponents.json for its non-finite values.
    """
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(float(value), ".17g")


def rate_curve_csv(spec: RateSpec, x_values, side: str = "upper") -> str:
    """Plot-ready curve of both rate flavors, one row per x."""
    lines = ["x,rate_limsup,rate_liminf"]
    for x in x_values:
        x = float(x)
        lines.append(
            ",".join(
                (
                    _fmt(x),
                    _fmt(rate_limsup(spec, x, side)),
                    _fmt(rate_liminf(spec, x, side)),
                )
            )
        )
    return "\n".join(lines) + "\n"

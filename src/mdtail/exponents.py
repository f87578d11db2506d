"""Tail exponents on a scale g: windowed limits, sup-form cross-checks, predictions.

For a law with survival functions R(t) = P(X > t) and L(t) = P(X < -t) the
six exponents are the negated limsup/liminf of

    log(t**2 * R(t)) / g(log t)      (right tail)
    log(t**2 * L(t)) / g(log t)      (left tail)
    log(t**2 * (R + L)(t)) / g(log t)   (two-sided)

with the convention log 0 = -inf, so a vanishing tail has exponent +inf.
All computations run in u = log t coordinates so that tails far beyond
float range stay representable through their log-survival functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .scale import ScaleFunction

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .tails import TailModel

__all__ = [
    "LAMBDA_MAX",
    "TailExponents",
    "GridSpec",
    "ScaledTailPredictions",
    "EmpiricalExponents",
    "exponents_from_tail",
    "exponents_sup_form",
    "scaled_tail_predictions",
    "empirical_exponents",
    "default_grid",
]

# Finite exponents of interest are single digits; values at or above this
# threshold are reported as +inf (divergence on the normalized log scale).
LAMBDA_MAX = 50.0

_LN10 = math.log(10.0)

# candidate exponents 0, 0.05, ..., 50 for the sup-form search
_R_GRID = np.linspace(0.0, LAMBDA_MAX, 1001)

# grid points of the empirical probe over the top decile of |sample|
_EMPIRICAL_POINTS = 25


def _window_start(points: int) -> int:
    """First index of the trailing window, the last third of the points."""
    return (2 * points) // 3


@dataclass(frozen=True)
class TailExponents:
    """The exponent sextuple; "bar" is the negated limsup, "under" the negated liminf.

    Each value lies in [0, inf].  Negating swaps limsup and liminf, so
    bar <= under holds pairwise.
    """

    lam1_bar: float
    lam1_under: float
    lam2_bar: float
    lam2_under: float
    lam_bar: float
    lam_under: float

    def __post_init__(self) -> None:
        for name, bar, under in (
            ("lam1", self.lam1_bar, self.lam1_under),
            ("lam2", self.lam2_bar, self.lam2_under),
            ("lam", self.lam_bar, self.lam_under),
        ):
            if not (bar >= 0 and under >= 0):
                raise ValueError(f"{name} exponents must lie in [0, inf], not NaN")
            if bar > under + 1e-9:
                raise ValueError(
                    f"{name}_bar={bar} exceeds {name}_under={under}; "
                    "a negated limsup cannot exceed the negated liminf"
                )


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid in u = log t coordinates.

    spacing "linear" means equal steps in u (a geometric grid in t);
    "geometric" means geometric steps in u, which keeps block boundaries of
    geometrically growing constructions exactly on grid points.
    The trailing window (last third of the points) is where limits are read.
    """

    u_min: float
    u_max: float
    points: int = 90
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.points < 9:
            raise ValueError("a grid needs at least 9 points to form a window")
        if not (0 < self.u_min < self.u_max):
            raise ValueError("need 0 < u_min < u_max (u = log t coordinates)")
        if self.spacing not in ("linear", "geometric"):
            raise ValueError("spacing must be 'linear' or 'geometric'")

    @classmethod
    def decades(cls, t_min: float, t_max: float) -> "GridSpec":
        if not (1.0 < t_min < t_max):
            raise ValueError("need 1 < t_min < t_max")
        return cls(u_min=math.log(t_min), u_max=math.log(t_max))

    def u_values(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.u_min, self.u_max, self.points)
        return np.geomspace(self.u_min, self.u_max, self.points)

    def window_slice(self) -> slice:
        return slice(_window_start(self.points), None)


def default_grid(model: "TailModel") -> GridSpec:
    """The grid a model should be probed on: its own design grid if it has one,
    otherwise four-plus decades starting safely beyond t0 and ending at 1e10."""
    if model.design_grid is not None:
        return model.design_grid
    return GridSpec.decades(10.0 * model.t0, 1e10)


def _clamp(value: float) -> float:
    if value >= LAMBDA_MAX:
        return math.inf
    return float(max(value, 0.0))


def _raw_limits(y: np.ndarray) -> tuple[float, float]:
    """(negated limsup, negated liminf) as the min and max of the window values.

    Values at or above LAMBDA_MAX, and +inf, read as divergence: a window
    with no smaller value gives (inf, inf), one with some gives (min, inf).
    """
    finite = np.isfinite(y)
    if not finite.any() or np.all(y[finite] >= LAMBDA_MAX):
        return (math.inf, math.inf)
    if not finite.all() or np.any(y >= LAMBDA_MAX):
        return (_clamp(float(np.min(y[finite]))), math.inf)
    return (_clamp(float(np.min(y))), _clamp(float(np.max(y))))


def _window_limits(y: np.ndarray, gu: np.ndarray) -> tuple[float, float]:
    """Read (negated limsup, negated liminf) from the trailing-window values.

    When every window value is finite and well below the divergence
    threshold, a least-squares fit of y against 1/g(u) is tried first: for
    tails of the exact form t**-2 * exp(-lam*g(log t)) (possibly doubled on
    the two-sided probe) the transient is exactly an intercept-plus-c/g
    curve, and extrapolating removes the finite-window bias.  The fit is
    only trusted when it reproduces the window almost exactly; oscillating
    tails fail that gate and fall back to the raw window min/max.
    """
    y = np.asarray(y, dtype=float)
    if np.all(np.isfinite(y)) and np.all(y < LAMBDA_MAX):
        z = 1.0 / gu
        design = np.column_stack([np.ones_like(z), z])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        a, b = float(coef[0]), float(coef[1])
        resid = y - (a + b * z)
        if float(np.max(np.abs(resid))) <= max(0.01, 0.02 * abs(a)):
            v = _clamp(a)
            return (v, v)
    return _raw_limits(y)


def _probe(
    model: "TailModel", g: ScaleFunction, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, slice, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The grid's u and g(u), its trailing window, and the right, left and two-sided log-tails.

    The grid must start at or beyond the model's t0, span at least four
    decades and have g(log t) > 0.
    """
    if grid.u_min < math.log(model.t0) - 1e-12:
        raise ValueError(
            "grid starts below the model's t0; the tail form is only valid beyond it"
        )
    if grid.u_max - grid.u_min < 4.0 * _LN10:
        raise ValueError("grid must span at least 4 decades beyond t0")
    if g.eval(grid.u_min) <= 0.0:
        raise ValueError("g(log t) must be positive on the grid")
    u = grid.u_values()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_r = np.asarray(model.log_right_tail_u(u), dtype=float)
        log_l = np.asarray(model.log_left_tail_u(u), dtype=float)
        log_abs = np.logaddexp(log_r, log_l)
    return u, g(u), grid.window_slice(), (log_r, log_l, log_abs)


def exponents_from_tail(
    model: "TailModel",
    g: ScaleFunction,
    grid: GridSpec | None = None,
) -> TailExponents:
    """Windowed limsup/liminf of -log(t**2 * tail) / g(log t) on the grid."""
    if grid is None:
        grid = default_grid(model)
    u, gu, win, log_tails = _probe(model, g, grid)
    results = []
    for log_s in log_tails:
        with np.errstate(invalid="ignore"):
            y = -(2.0 * u + log_s) / gu
        # log 0 = -inf convention: a vanished tail reads as y = +inf.
        y = np.where(np.isneginf(log_s), math.inf, y)
        results.append(_window_limits(y[win], gu[win]))
    right, left, both = results
    return TailExponents(*right, *left, *both)


def _sup_form_side(
    log_s: np.ndarray,
    u: np.ndarray,
    gu: np.ndarray,
    margin: float,
) -> tuple[float, float]:
    # probed quantity in logs: L_r(u) = 2u + log tail + r * g(u)
    base = 2.0 * u + log_s
    probe = _R_GRID[:, None] * gu[None, :] + base[None, :]
    with np.errstate(invalid="ignore"):
        max_ok = np.nanmax(probe, axis=1) < -margin
        min_ok = np.nanmin(probe, axis=1) < -margin

    def largest_accepted(mask: np.ndarray) -> float:
        if mask.all():
            return math.inf
        first_reject = int(np.argmin(mask))  # masks are prefix-true by monotonicity
        if first_reject == 0:
            return 0.0
        return float(_R_GRID[first_reject - 1])

    return largest_accepted(max_ok), largest_accepted(min_ok)


def exponents_sup_form(model: "TailModel", g: ScaleFunction) -> TailExponents:
    """Independent exponent estimate via the sup characterization.

    Each exponent is the largest r such that t**2 * exp(r*g(log t)) * tail(t)
    still tends to 0.  "Tends to 0" is read on the trailing window: the
    negated-limsup variant requires the whole window to sit below the margin,
    the negated-liminf variant only some point of it (a subsequence
    surrogate at grid resolution).  Candidates are r = 0, 0.05, ..., 50 on
    the model's default grid.
    """
    u, gu, win, log_tails = _probe(model, g, default_grid(model))
    margin = 1e-9 * max(1.0, float(gu[-1]))
    right, left, both = (_sup_form_side(log_s[win], u[win], gu[win], margin) for log_s in log_tails)
    return TailExponents(*right, *left, *both)


@dataclass(frozen=True)
class ScaledTailPredictions:
    """Predicted limits of log(n * P(X > s*threshold(n))) / g(log n).

    Both threshold shapes sqrt(t * g(log t)) and sqrt(t / g(log t)) share the
    same pair of limits, so one pair serves both: the right-tail exponents
    divided by 2**rho, negated.  Values are extended reals; an infinite
    exponent predicts -inf.
    """

    sqrt_tg_limsup: float
    sqrt_tg_liminf: float


def scaled_tail_predictions(exps: TailExponents, rho: float) -> ScaledTailPredictions:
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    scale = 2.0**rho

    def limit(lam: float) -> float:
        return -math.inf if math.isinf(lam) else -lam / scale

    return ScaledTailPredictions(
        sqrt_tg_limsup=limit(exps.lam1_bar),
        sqrt_tg_liminf=limit(exps.lam1_under),
    )


@dataclass(frozen=True)
class EmpiricalExponents:
    """Plug-in exponents from a sample.  Order-of-magnitude quality only."""

    exps: TailExponents
    flags: tuple[str, ...]
    u_min: float
    u_max: float
    exceedances_at_max: int


def empirical_exponents(sample, g: ScaleFunction) -> EmpiricalExponents:
    """Plug the empirical survival function into the exponent formulas.

    The probe grid is confined to the top decile of |sample| and stops near
    the largest order statistics, where the estimate runs out of data; a
    flag is raised when fewer than 100 exceedances support the largest grid
    point.  No bias correction or extrapolation is attempted.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 100_000:
        raise ValueError("need at least 1e5 samples for even a coarse estimate")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample must be finite: it holds a NaN or an infinity")
    absx = np.abs(x)
    t_lo = float(np.quantile(absx, 0.90))
    if t_lo <= 0.0:
        raise ValueError("top decile of |sample| is zero; no tail to probe")
    # Stop where roughly 120 exceedances remain, so the top of the grid is
    # still supported by data; a bounded sample collapses the quantile onto
    # its support edge and the floor pushes the grid just past it, where the
    # empirical tail is exactly zero and the exponents report infinity.
    t_hi = max(float(np.quantile(absx, 1.0 - 120.0 / x.size)), t_lo * 1.02)
    u = np.linspace(math.log(t_lo), math.log(t_hi), _EMPIRICAL_POINTS)
    gu = g(np.maximum(u, 0.0))
    keep = gu > 0.0
    u, gu = u[keep], gu[keep]
    if u.size < 9:
        raise ValueError("scale vanishes on most of the probe grid")
    t = np.exp(u)
    xs = np.sort(x)
    n = x.size
    surv_r = (n - np.searchsorted(xs, t, side="right")) / n
    surv_l = np.searchsorted(xs, -t, side="left") / n

    def side_y(surv: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log_s = np.log(surv)
        return np.where(surv == 0.0, math.inf, -(2.0 * u + log_s) / gu)

    win = slice(_window_start(u.size), None)
    r_bar, r_under = _raw_limits(side_y(surv_r)[win])
    l_bar, l_under = _raw_limits(side_y(surv_l)[win])
    a_bar, a_under = _raw_limits(side_y(surv_r + surv_l)[win])
    exceed = int(round((surv_r[-1] + surv_l[-1]) * n))
    flags = []
    if exceed < 100:
        flags.append("low_tail_support")
    return EmpiricalExponents(
        exps=TailExponents(r_bar, r_under, l_bar, l_under, a_bar, a_under),
        flags=tuple(flags),
        u_min=float(u[0]),
        u_max=float(u[-1]),
        exceedances_at_max=exceed,
    )

"""Distribution models with exactly known tails, moments, and samplers.

A law is its two log-survivals in u = log t, which stay finite far beyond
float range (the exponent probes' grids reach u in the tens of thousands);
every probability in t-space is derived from them.

Every tail integral (truncation means, designed-side moments, `moments`
from near t = 0 up) is taken in u on fixed panels: a 48-point
Gauss-Legendre sum per panel, all nodes from one array call to the
log-survival, with the gap to the 24-point sum as the panel's error
estimate.  Panels end at the law's `TailModel.tail_breaks`, which list its
jumps and kinks (scales state their own in `ScaleFunction.kinks`), so they
pass at once; a panel whose estimate misses the tolerance is halved until
its pieces pass, and one that never does (a jump missing from the breaks)
raises ValueError.

The designed and oscillating factories build laws whose tail exponents are
prescribed in advance; they record those design values so tests can use
them as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence
# scipy.special before scipy.optimize: the other order, with this module the first
# to import scipy.optimize, faulted in twice the pages (26k against 13k minor
# faults, glibc heap placement) and added about 0.1 s to importing mdtail
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.optimize import brentq

from .exponents import GridSpec, TailExponents
from .scale import ScaleFunction, _build_preset, _json_real, _number, _whole, power_scale, scale_from_spec

__all__ = [
    "TailModel",
    "OscillationSchedule",
    "CatalogEntry",
    "moments",
    "gaussian",
    "two_point",
    "pareto",
    "make_designed_tail",
    "make_oscillating_tail",
    "catalog",
    "model_from_spec",
]

_MASK64 = (1 << 64) - 1
_U_QUAD_MAX = math.log(1e15)
_T_DIVERGENCE_PROBE = 1e12
_U_DIVERGENCE_PROBE = math.log(_T_DIVERGENCE_PROBE)
_MIN_P = 1e-300
# Gauss-Legendre nodes on [-1, 1]: the 48-point rule, then the 24-point rule
# whose sum estimates each panel's error
_GL48_NODES, _GL48_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_NODES = np.concatenate((_GL48_NODES, _GL24_NODES))
# a tail-integral piece that misses its tolerance is halved at most this often
_MAX_HALVINGS = 50


def _rng_stream(seed: int) -> Generator:
    """PCG64DXSM generator keyed by SeedSequence(seed, spawn_key=(0,)).

    seed fully determines the draws.  It must be an integer (scale._whole)
    and is taken mod 2^64, so a negative seed is masked, not rejected.
    Every estimate and TailModel.sample draw from this one stream: the
    tilted and split estimates and the sign-array estimator through the
    generator, crude through its raw words as 16-bit cells, with its fine
    bits from the key's first child, SeedSequence(seed, spawn_key=(0, 0)).
    """
    key = SeedSequence(_whole(seed, "seed") & _MASK64, spawn_key=(0,))
    return Generator(PCG64DXSM(key))


@dataclass(frozen=True, eq=False)
class OscillationSchedule:
    """Piecewise tail-decay schedule in u = log t coordinates.

    Segment i covers [u_start[i], u_start[i+1]) (the last one extends to
    infinity) and on it h(u) = h_start[i] + slope[i] * (g(u) - g(u_start[i])).
    Slopes cycle through: a steep rise that lifts h/g from the low target to
    the high target by the next block boundary, a flat stretch that lets g
    catch up, and a tracking stretch that holds h/g at the low target.
    """

    lows: tuple[float, ...]
    peaks: tuple[float, ...]
    u_start: tuple[float, ...]
    g_start: tuple[float, ...]
    h_start: tuple[float, ...]
    slope: tuple[float, ...]
    gscale: ScaleFunction

    def h_of(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.u_start, u, side="right") - 1, 0, len(self.u_start) - 1)
        g0 = np.asarray(self.g_start)[idx]
        h0 = np.asarray(self.h_start)[idx]
        sl = np.asarray(self.slope)[idx]
        return h0 + sl * (self.gscale(u) - g0)


@dataclass(frozen=True, eq=False)
class TailModel:
    """Immutable law description.

    A law is its two log-survivals: log_right_tail_u(u) = log P(X > e^u) and
    log_left_tail_u(u) = log P(X < -e^u).  Both are exact for every u, the
    core below t0 (where the analytic tail form starts) included; `moments`
    integrates them from far below t0.  The t-space methods right_tail(t) =
    P(X > t) and left_tail(t) = P(X < -t), which take t >= 0 and return a
    float for a scalar t, and `prob_greater` are derived from them.
    tail_breaks lists, ascending, the u where a log-survival jumps or kinks:
    log|a| per nonzero atom, log t0, and the side_kinks beyond it (a designed
    side's scale kinks and cap kink, an oscillation schedule's segment
    starts).

    A draw is one uniform mapped elementwise: from_uniform(u) takes an array
    of u in [0, 1) and returns X at each u, each value a function of its own
    u alone (the map of a subset or a reordering of u is the same subset or
    reordering of the values, bit for bit).  uniform_breaks lists the u where
    the map jumps or changes direction; between two breaks it is monotone.
    The estimators draw a span's uniforms in order, in blocks of whole rows,
    and map each block; sample(seed, n) maps the first n uniforms of the
    stream _rng_stream(seed).  The crude estimator relies on both halves of
    the contract: it bounds the map on each cell of a fixed grid of u by its
    larger edge value (+inf on a cell that meets a break), drops the rows
    whose bounded sum cannot pass the threshold, and maps only the other
    rows' uniforms exactly.
    """

    label: str
    mu: float
    sigma2: float
    t0: float
    log_right_tail_u: Callable[[np.ndarray], np.ndarray]
    log_left_tail_u: Callable[[np.ndarray], np.ndarray]
    from_uniform: Callable[[np.ndarray], np.ndarray]
    atoms: tuple[tuple[float, float], ...] = ()
    side_kinks: tuple[float, ...] = ()
    uniform_breaks: tuple[float, ...] = ()
    design_exponents: TailExponents | None = None
    design_scale_label: str | None = None
    design_grid: GridSpec | None = None
    oscillation: OscillationSchedule | None = None

    @property
    def tail_breaks(self) -> tuple[float, ...]:
        breaks = {math.log(abs(a)) for a, _ in self.atoms if a != 0.0} | {math.log(self.t0)}
        return tuple(sorted(breaks.union(self.side_kinks)))

    def right_tail(self, t):
        """P(X > t) for t >= 0: exp(log_right_tail_u(log t))."""
        return _tail_from_log_u(self.log_right_tail_u, t)

    def left_tail(self, t):
        """P(X < -t) for t >= 0: exp(log_left_tail_u(log t))."""
        return _tail_from_log_u(self.log_left_tail_u, t)

    def prob_greater(self, v) -> np.ndarray:
        """P(X > v) for any real v, including the core and left half-line.

        Each tail is evaluated only on its own half of v.
        """
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.empty_like(v_arr)
        right = v_arr >= 0
        out[right] = self.right_tail(v_arr[right])
        below = ~right
        out[below] = 1.0 - self.left_tail(-v_arr[below])
        # 1 - P(X < v) still holds an atom at v < 0; take its mass out
        for loc, mass in self.atoms:
            if loc < 0:
                out[v_arr == loc] -= mass
        return float(out[0]) if np.isscalar(v) or np.asarray(v).ndim == 0 else out

    def sample(self, seed: int, n: int) -> np.ndarray:
        n = _whole(n, "n")
        if n < 1:
            raise ValueError("need n >= 1 samples")
        return self.from_uniform(_rng_stream(seed).random(n))


def _tail_from_log_u(log_tail_u, t):
    """exp(log_tail_u(log t)) for t >= 0, a float for scalar t; t = 0 reads the u = -inf limit."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("a tail probability is defined for t >= 0")
    with np.errstate(divide="ignore"):
        out = np.exp(log_tail_u(np.log(t_arr)))
    return float(out) if t_arr.ndim == 0 else out


def _tail_integral(log_tail_u, u_lo: float, power: int, edges, epsabs: float, epsrel: float) -> list[float]:
    """Integrals of e^{power u} P(X > e^u) du per panel, u_lo to edges[0] to edges[1] ...

    Each panel takes a 48-point Gauss-Legendre sum, and the gap to the
    24-point sum estimates its error.  A piece whose gap exceeds epsrel
    |value| plus its width's share of epsabs is halved and the halves are
    checked the same way; every node of a round comes from one array call to
    log_tail_u.  Panels that end at the law's kinks pass in the first round;
    a stretch where the integrand falls steeply or nears a branch point of
    h (u^rho at u = 0 for rho not an integer) passes after a few halvings.  A jump never
    passes, since its gap shrinks with the width only as fast as the
    tolerance does, so a piece still missing after _MAX_HALVINGS halvings
    raises ValueError.
    """
    ends = np.asarray(edges, dtype=float)
    starts = np.concatenate(([u_lo], ends[:-1]))
    panel_starts, panel_ends, panel_widths = starts, ends, ends - starts
    owner = np.arange(ends.size)
    values = np.zeros(ends.size)
    for _ in range(_MAX_HALVINGS + 1):
        width = ends - starts
        half = 0.5 * width
        mid = 0.5 * (starts + ends)
        u = mid[:, None] + half[:, None] * _GL_NODES
        e = power * u + np.asarray(log_tail_u(u.ravel()), dtype=float).reshape(u.shape)
        f = np.exp(np.where(e > -745.0, e, -np.inf))
        fine = half * (f[:, :48] @ _GL48_WEIGHTS)
        coarse = half * (f[:, 48:] @ _GL24_WEIGHTS)
        missed = np.abs(fine - coarse) > epsabs * (width / panel_widths[owner]) + epsrel * np.abs(fine)
        np.add.at(values, owner[~missed], fine[~missed])
        if not missed.any():
            return values.tolist()
        owner = np.tile(owner[missed], 2)
        starts, ends = np.concatenate((starts[missed], mid[missed])), np.concatenate((mid[missed], ends[missed]))
    a, b, near = float(panel_starts[owner[0]]), float(panel_ends[owner[0]]), float(starts[0])
    raise ValueError(
        f"tail-integral panel [{a!r}, {b!r}] misses its tolerance after {_MAX_HALVINGS} "
        f"halvings near u = {near!r}: a jump there is missing from the panel breaks"
    )


def _tail_second_moment_u(log_tail_u, u_lo: float, u_breaks=()) -> tuple[float, bool]:
    """Integral of 2 t P(X > t) dt over [e^{u_lo}, inf) in u coordinates.

    Panels end at each decade of t up to the 10^12 probe and at each of
    u_breaks inside that range; each is a 48-point Gauss-Legendre sum checked
    against the 24-point sum, and a panel where the two disagree is halved
    (see _tail_integral).  Returns (value up to the probe horizon, diverging
    flag).  The flag is a heuristic: if the last panel before 10^12 still
    contributes more than 1% of the running total, the integral is treated
    as infinite.  u_lo must lie below the probe.
    """
    if not u_lo < _U_DIVERGENCE_PROBE:
        raise ValueError(
            f"the second-moment integral starts at u = {u_lo:g}, at or beyond "
            f"the 1e12 probe horizon (u = {_U_DIVERGENCE_PROBE:.4g})"
        )
    edges = {b for b in u_breaks if u_lo < b < _U_DIVERGENCE_PROBE}
    d = math.ceil(u_lo / math.log(10.0))
    u = d * math.log(10.0)
    while u < _U_DIVERGENCE_PROBE - 1e-9:
        if u > u_lo:
            edges.add(u)
        u += math.log(10.0)
    edges.add(_U_DIVERGENCE_PROBE)
    # the factor 2 is applied after integrating, so the absolute tolerance
    # on the unscaled integrand is halved
    contributions = [2.0 * v for v in _tail_integral(log_tail_u, u_lo, 2, sorted(edges), 0.5e-13, 1e-11)]
    total = sum(contributions)
    diverging = total > 0 and contributions[-1] > 0.01 * total
    return total, diverging


def _tail_mean_u(log_tail_u, u_lo: float, u_breaks=()) -> float:
    """Integral of P(X > t) dt over [e^{u_lo}, inf) in u coordinates.

    The 23 equal panels up to t = 10^15 are 48-point Gauss-Legendre sums
    checked against 24-point sums, and a panel where the two disagree is
    halved (see _tail_integral).  u_breaks marks the jumps and kinks of the
    log-survival (a law's tail_breaks) so no panel straddles one.
    """
    edges = sorted(set(np.linspace(u_lo, _U_QUAD_MAX, 24)) | {b for b in u_breaks if u_lo < b < _U_QUAD_MAX})
    return sum(_tail_integral(log_tail_u, u_lo, 1, edges[1:], 1e-14, 1e-11))


def moments(model: TailModel) -> tuple[float, float]:
    """(mean, variance) by quadrature of the tail-integral identities.

    E X = int_0^inf P(X > t) - P(X < -t) dt and E X^2 = int_0^inf 2 t
    P(|X| > t) dt, each taken in u = log t on the Gauss-Legendre panels of
    _tail_integral, which end at the law's tail_breaks.
    When the second-moment integral still grows by more than 1% in the last
    decade before 10^12 the variance is reported as inf rather than a number.
    """
    # below u_lo each integral adds at most e^-40 max(t0, 1), about 4e-18 max(t0, 1)
    u_lo = math.log(max(model.t0, 1.0)) - 40.0
    breaks = model.tail_breaks
    mean = _tail_mean_u(model.log_right_tail_u, u_lo, breaks) - _tail_mean_u(model.log_left_tail_u, u_lo, breaks)
    r2, r_div = _tail_second_moment_u(model.log_right_tail_u, u_lo, breaks)
    l2, l_div = _tail_second_moment_u(model.log_left_tail_u, u_lo, breaks)
    if r_div or l_div:
        return mean, math.inf
    return mean, max(r2 + l2 - mean * mean, 0.0)


class _LogSurvivalInverse:
    """Inverts a strictly increasing w(u) = -log survival(e^u) on [u_lo, 710].

    A precomputed monotone table of 8193 points supplies a bracketing cell
    per query, then vectorized bisection tightens it to ~1e-13 in u
    (relative tolerance in t = e^u is the same order, well inside the 1e-10
    contract).
    """

    def __init__(self, w_fn, u_lo: float):
        self.w_fn = w_fn
        self.u_tab = np.linspace(u_lo, 710.0, 8193)
        self.w_tab = np.asarray(w_fn(self.u_tab), dtype=float)
        if np.any(np.diff(self.w_tab) <= 0):
            raise ValueError("log-survival inverse needs a strictly increasing w(u)")

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.clip(np.asarray(y, dtype=float), self.w_tab[0], self.w_tab[-1])
        idx = np.clip(np.searchsorted(self.w_tab, y), 1, len(self.u_tab) - 1)
        lo = self.u_tab[idx - 1]
        hi = self.u_tab[idx]
        for _ in range(44):
            mid = 0.5 * (lo + hi)
            too_low = np.asarray(self.w_fn(mid)) < y
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        return 0.5 * (lo + hi)


def _gaussian_log_tail_u(u):
    """log P(Z > e^u) for a standard normal Z."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        return log_ndtr(-np.exp(np.minimum(u, 705.0)))


def gaussian() -> TailModel:
    """Standard normal; both tail exponents diverge on any admissible scale."""

    def from_uniform(u: np.ndarray) -> np.ndarray:
        return ndtri(np.clip(u, _MIN_P, None))

    inf6 = TailExponents(*([math.inf] * 6))
    return TailModel(
        label="gaussian",
        mu=0.0,
        sigma2=1.0,
        t0=1.0,
        log_right_tail_u=_gaussian_log_tail_u,
        log_left_tail_u=_gaussian_log_tail_u,
        from_uniform=from_uniform,
        atoms=(),
        design_exponents=inf6,
        design_scale_label=None,
    )


def two_point() -> TailModel:
    """Symmetric signs: mass 1/2 on each of -1 and +1."""

    def log_tail_u(u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 0.0, math.log(0.5), -math.inf)

    def from_uniform(u: np.ndarray) -> np.ndarray:
        return np.where(u < 0.5, -1.0, 1.0)

    inf6 = TailExponents(*([math.inf] * 6))
    return TailModel(
        label="two_point",
        mu=0.0,
        sigma2=1.0,
        t0=1.0,
        log_right_tail_u=log_tail_u,
        log_left_tail_u=log_tail_u,
        from_uniform=from_uniform,
        atoms=((-1.0, 0.5), (1.0, 0.5)),
        uniform_breaks=(0.5,),
        design_exponents=inf6,
        design_scale_label=None,
    )


def pareto(alpha: float) -> TailModel:
    """Pareto on [1, inf) with survival t^-alpha; alpha > 1 keeps the mean finite."""
    if not 1.0 < alpha < math.inf:
        raise ValueError("alpha must be finite and exceed 1 so the mean is finite")
    alpha = float(alpha)
    mu = alpha / (alpha - 1.0)
    sigma2 = alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0)) if alpha > 2.0 else math.inf

    def log_right_u(u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 0.0, 0.0, -alpha * u)

    def log_left_u(u):
        return np.full_like(np.asarray(u, dtype=float), -math.inf)

    def from_uniform(u: np.ndarray) -> np.ndarray:
        return (1.0 - u) ** (-1.0 / alpha)

    if alpha > 2.0:
        lam = alpha - 2.0
        design = TailExponents(lam, lam, math.inf, math.inf, lam, lam)
        design_label = power_scale().label
    else:
        design = None
        design_label = None
    return TailModel(
        label=f"pareto({alpha:g})",
        mu=mu,
        sigma2=sigma2,
        t0=1.0,
        log_right_tail_u=log_right_u,
        log_left_tail_u=log_left_u,
        from_uniform=from_uniform,
        atoms=(),
        design_exponents=design,
        design_scale_label=design_label,
    )


def _admissibility_or_raise(log_tail_u, u0: float, u_breaks, what: str) -> float:
    value, diverging = _tail_second_moment_u(log_tail_u, u0, u_breaks)
    if diverging:
        raise ValueError(
            f"{what}: the second moment diverges (tail integral still growing "
            "by more than 1% per decade at the 1e12 probe horizon)"
        )
    return value


@dataclass(frozen=True, eq=False)
class _DesignedSide:
    q: float
    log_form_u: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    mean_part: float
    second_moment_part: float
    kinks: tuple[float, ...] = ()  # the u > u0 where log_form_u kinks


def _side(q: float, log_form_u, quantile, t0: float, u0: float, kinks, what: str) -> _DesignedSide:
    """Side with mass q at t0 = e^u0 and tail log_form_u beyond it, its integrals' panels ending
    at kinks; what labels the error raised when the second moment diverges."""
    second = _admissibility_or_raise(log_form_u, u0, kinks, what)
    mean_part = t0 * q + _tail_mean_u(log_form_u, u0, kinks)
    return _DesignedSide(q, log_form_u, quantile, mean_part, t0 * t0 * q + second, kinks)


def _decay_side(h, u0: float, u_breaks, what: str) -> _DesignedSide:
    """Side whose log survival beyond u0 is min(log q, -2u - h(u)), q <= 1/4.

    h must make w(u) = 2u + h(u) strictly increasing; quantiles invert w.
    The side's kinks are those of h in u_breaks beyond u0 and, when q is
    capped, the u where w(u) = log 4.
    """
    log_form_u0 = float(-2.0 * u0 - h(u0))
    log_q = min(math.log(0.25), log_form_u0)
    q = math.exp(log_q)

    def log_form_u(u):
        u = np.asarray(u, dtype=float)
        return np.minimum(log_q, -2.0 * u - h(u))

    def w(u):
        u = np.asarray(u, dtype=float)
        return 2.0 * u + h(u)

    inverse = _LogSurvivalInverse(w, u0)
    cap_kink = (float(inverse(math.log(4.0))),) if log_form_u0 > log_q else ()
    kinks = tuple(sorted({b for b in u_breaks if b > u0}.union(cap_kink)))

    def quantile(p):
        return np.exp(inverse(-np.log(np.asarray(p, dtype=float))))

    return _side(q, log_form_u, quantile, math.exp(u0), u0, kinks, what)


def _build_designed_side(lam: float, g: ScaleFunction, t0: float, what: str) -> _DesignedSide:
    u0 = math.log(t0)
    if not math.isinf(lam):
        return _decay_side(lambda u: lam * g(u), u0, g.kinks, what)

    def quantile(p):
        return -ndtri(np.asarray(p, dtype=float))

    return _side(float(ndtr(-t0)), _gaussian_log_tail_u, quantile, t0, u0, (), what)


def _assemble_two_sided(
    label: str,
    t0: float,
    right: _DesignedSide,
    left: _DesignedSide,
    core_mass: float,
    design_exponents: TailExponents,
    design_scale_label: str,
    design_grid: GridSpec | None = None,
    oscillation: OscillationSchedule | None = None,
) -> TailModel:
    """Two-sided law from its sides beyond t0 and one core atom of mass core_mass.

    The atom sits where it makes the mean exactly zero; it must fall inside
    (-t0, t0).
    """
    atom = (left.mean_part - right.mean_part) / core_mass
    if not abs(atom) < t0:
        raise ValueError(
            "cannot balance the mean with a single core atom inside (-t0, t0); "
            "increase t0 or reduce the tail asymmetry"
        )
    u0 = math.log(t0)

    def make_log_u(side: _DesignedSide, signed_atom: float):
        def log_u(u):
            u = np.asarray(u, dtype=float)
            out = np.empty_like(u)
            in_tail = u >= u0
            out[in_tail] = side.log_form_u(u[in_tail])
            core = ~in_tail
            with np.errstate(divide="ignore"):
                out[core] = np.log(side.q + core_mass * (signed_atom > np.exp(u[core])))
            return out

        return log_u

    # u < q_r draws the right side, q_r <= u < q_r + q_l the left, the rest the atom
    breaks = (right.q, right.q + left.q)

    def from_uniform(u: np.ndarray) -> np.ndarray:
        x = np.full(u.shape, atom)
        take_right = u < breaks[0]
        take_left = (~take_right) & (u < breaks[1])
        if take_right.any():
            x[take_right] = right.quantile(np.clip(u[take_right], _MIN_P, None))
        if take_left.any():
            x[take_left] = -left.quantile(np.clip(u[take_left] - right.q, _MIN_P, None))
        return x

    return TailModel(
        label=label,
        mu=0.0,
        # with atom 0 and one side for both, this is exactly 2 * second_moment_part
        sigma2=atom * atom * core_mass + right.second_moment_part + left.second_moment_part,
        t0=t0,
        log_right_tail_u=make_log_u(right, atom),
        log_left_tail_u=make_log_u(left, -atom),
        from_uniform=from_uniform,
        atoms=((atom, core_mass),),
        side_kinks=tuple(sorted({*right.kinks, *left.kinks})),
        uniform_breaks=breaks,
        design_exponents=design_exponents,
        design_scale_label=design_scale_label,
        design_grid=design_grid,
        oscillation=oscillation,
    )


def make_designed_tail(
    lambda_plus: float,
    lambda_minus: float,
    g: ScaleFunction,
    t0: float = math.e,
) -> TailModel:
    """Law with P(X > t) = min(q, t^-2 exp(-lambda_plus g(log t))) beyond t0.

    The left tail is built the same way with lambda_minus; an infinite
    lambda encodes a standard normal tail on that side.  Remaining mass sits
    on a single core atom placed so the mean is exactly zero.  Construction
    fails when the requested tail is too heavy for a finite second moment.
    """
    for lam, name in ((lambda_plus, "lambda_plus"), (lambda_minus, "lambda_minus")):
        if math.isnan(lam) or lam < 0:
            raise ValueError(f"{name} must be a nonnegative real or inf")
    if not 1.0 < t0 < _T_DIVERGENCE_PROBE:
        raise ValueError(
            "t0 must be finite, exceed 1 (so that u0 = log t0 is positive) and lie "
            "below 1e12, the horizon of the second-moment probe"
        )
    label = f"designed({lambda_plus:g},{lambda_minus:g};{g.label})"
    right = _build_designed_side(lambda_plus, g, t0, label)
    left = _build_designed_side(lambda_minus, g, t0, label)
    lam_min = min(lambda_plus, lambda_minus)
    design = TailExponents(lambda_plus, lambda_plus, lambda_minus, lambda_minus, lam_min, lam_min)
    return _assemble_two_sided(
        label=label,
        t0=t0,
        right=right,
        left=left,
        core_mass=1.0 - right.q - left.q,
        design_exponents=design,
        design_scale_label=g.label,
    )


def _solve_g_level(g: ScaleFunction, target: float, lo: float) -> float:
    """Smallest u >= lo with g(u) = target, assuming g nondecreasing."""
    hi = 2.0 * lo
    for _ in range(200):
        if g.eval(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError("scale grows too slowly to reach the requested level")
    return brentq(lambda u: g.eval(u) - target, lo, hi, xtol=1e-30, rtol=8.9e-16)


def _oscillation_schedule(
    lo: float, hi: float, g: ScaleFunction, growth: float, u0: float
) -> OscillationSchedule:
    lows = [u0]
    peaks: list[float] = []
    seg_u: list[float] = []
    seg_g: list[float] = []
    seg_h: list[float] = []
    seg_s: list[float] = []
    low = u0
    h_cur = lo * g.eval(u0)
    stop_level = math.log(2.0) / (0.01 * lo)
    for _ in range(60):
        # h_cur is carried from the previous track segment so h stays exactly
        # continuous (and hence the survival exactly monotone); the carried
        # value differs from lo*g(low) only by root-solver rounding.
        peak = growth * low
        g_low, g_peak = g.eval(low), g.eval(peak)
        if g_peak <= g_low:
            raise ValueError("scale must strictly increase across blocks")
        spike_slope = (hi * g_peak - h_cur) / (g_peak - g_low)
        seg_u.append(low)
        seg_g.append(g_low)
        seg_h.append(h_cur)
        seg_s.append(spike_slope)
        peaks.append(peak)
        plateau_end = _solve_g_level(g, hi * g_peak / lo, peak)
        g_plateau_end = g.eval(plateau_end)
        seg_u.append(peak)
        seg_g.append(g_peak)
        seg_h.append(hi * g_peak)
        seg_s.append(0.0)
        steps = math.floor(math.log(plateau_end / low) / math.log(growth)) + 1
        next_low = low * growth**steps
        if next_low <= plateau_end:
            next_low *= growth
        seg_u.append(plateau_end)
        seg_g.append(g_plateau_end)
        seg_h.append(hi * g_peak)
        seg_s.append(lo)
        lows.append(next_low)
        h_cur = hi * g_peak + lo * (g.eval(next_low) - g_plateau_end)
        low = next_low
        if len(lows) >= 4 and g.eval(lows[-2]) >= stop_level:
            break
    else:
        raise ValueError("oscillation schedule did not reach its stopping level in 60 cycles")
    return OscillationSchedule(
        lows=tuple(lows),
        peaks=tuple(peaks),
        u_start=tuple(seg_u),
        g_start=tuple(seg_g),
        h_start=tuple(seg_h),
        slope=tuple(seg_s),
        gscale=g,
    )


def make_oscillating_tail(
    lambda_lo: float,
    lambda_hi: float,
    g: ScaleFunction,
    block_growth: float,
    u0: float = 1.0,
) -> TailModel:
    """Symmetric law whose tail decay ratio h(log t)/g(log t) oscillates.

    The ratio touches lambda_lo at every block low and lambda_hi at every
    peak, so the one-sided exponent pair is (lambda_lo, lambda_hi): the
    limsup-flavored exponent sees the slow stretches, the liminf-flavored
    one the steep ones.
    """
    if not (0.0 < lambda_lo < lambda_hi):
        raise ValueError("need 0 < lambda_lo < lambda_hi")
    if not block_growth > 1.0:
        raise ValueError("block_growth must exceed 1")
    if not 0.0 < u0 < _U_DIVERGENCE_PROBE:
        raise ValueError(
            "u0 must be finite, positive and below log(1e12) = 27.63, "
            "the horizon of the second-moment probe"
        )
    label = f"oscillating({lambda_lo:g},{lambda_hi:g};{g.label};x{block_growth:g})"

    def log_floor_u(u):
        u = np.asarray(u, dtype=float)
        return -2.0 * u - lambda_lo * g(u)

    _admissibility_or_raise(log_floor_u, u0, g.kinks, label)
    schedule = _oscillation_schedule(lambda_lo, lambda_hi, g, block_growth, u0)
    side = _decay_side(schedule.h_of, u0, schedule.u_start + g.kinks, label)
    u_end = schedule.lows[-1]
    n_steps = round(math.log(u_end / u0) / math.log(block_growth))
    grid = GridSpec(u0, u_end, points=12 * n_steps + 1, spacing="geometric")
    design = TailExponents(lambda_lo, lambda_hi, lambda_lo, lambda_hi, lambda_lo, lambda_hi)
    return _assemble_two_sided(
        label=label,
        t0=math.exp(u0),
        right=side,
        left=side,
        core_mass=1.0 - 2.0 * side.q,
        design_exponents=design,
        design_scale_label=g.label,
        design_grid=grid,
        oscillation=schedule,
    )


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    model: TailModel
    scale: ScaleFunction


def catalog() -> tuple[CatalogEntry, ...]:
    """Reference models, each paired with the scale its oracles are stated on."""
    t = power_scale()
    t2 = power_scale(2.0)
    return (
        CatalogEntry(gaussian(), t),
        CatalogEntry(two_point(), t),
        CatalogEntry(pareto(2.5), t),
        CatalogEntry(pareto(3.0), t),
        CatalogEntry(pareto(4.0), t),
        CatalogEntry(make_designed_tail(1.0, 1.0, t), t),
        CatalogEntry(make_designed_tail(0.5, 2.0, t), t),
        CatalogEntry(make_designed_tail(1.0, 0.5, t2), t2),
        CatalogEntry(make_oscillating_tail(0.5, 2.0, t, 3.0), t),
    )


def _lambda(params: dict, key: str) -> float:
    """A designed law's exponent: a JSON number, or "inf"/"infinity" in any case."""
    value = params[key]
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    return _json_real(value, f"{key} must be a number or 'inf'")


# preset -> (required keys, optional keys, builder from the spec's parameters);
# `mdtail list-presets` prints the keys in this order
_MODEL_PRESETS = {
    "gaussian": ((), (), lambda p: gaussian()),
    "two_point": ((), (), lambda p: two_point()),
    "pareto": (("alpha",), (), lambda p: pareto(_number(p, "alpha"))),
    "designed": (
        ("lambda_plus", "lambda_minus", "scale"),
        ("t0",),
        lambda p: make_designed_tail(
            _lambda(p, "lambda_plus"),
            _lambda(p, "lambda_minus"),
            scale_from_spec(p["scale"]),
            t0=_number(p, "t0", math.e),
        ),
    ),
    "oscillating": (
        ("lambda_lo", "lambda_hi", "block_growth", "scale"),
        ("u0",),
        lambda p: make_oscillating_tail(
            _number(p, "lambda_lo"),
            _number(p, "lambda_hi"),
            scale_from_spec(p["scale"]),
            _number(p, "block_growth"),
            u0=_number(p, "u0", 1.0),
        ),
    ),
}


def model_from_spec(spec: dict) -> TailModel:
    """Build a model from a config mapping: {"preset": name, ...parameters}."""
    return _build_preset(spec, "preset", _MODEL_PRESETS, "model")

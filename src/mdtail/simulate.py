"""Monte Carlo estimators, exponential bounds, and exact inequality verifiers.

Estimators are deterministic for a given seed: replications are cut into
fixed-size chunks, chunk k draws from the counter-based stream (seed, k),
and partial results are reduced in chunk order.  Worker count therefore
changes wall time only, never output bytes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .exponents import exponents_from_tail
from .rate import RateSpec, rate_limsup, rate_liminf
from .scale import ScaleFunction, truncation_level
from .tails import TailModel, _rng_stream, _tail_mean_u

__all__ = [
    "CHUNK_TARGET",
    "EstimatorError",
    "TiltingError",
    "Estimate",
    "SplitEstimate",
    "TruncationScheme",
    "TriangularSignArray",
    "TrajectoryPoint",
    "Trajectory",
    "LevyCheckResult",
    "MaxBoundResult",
    "plan_truncation",
    "crude_mc",
    "tilted_mc_truncated",
    "split_estimate",
    "bounded_array_mc",
    "unit_sign_array",
    "kolmogorov_upper",
    "kolmogorov_lower",
    "levy_maximal_check",
    "levy_maximal_sweep",
    "max_lower_bound_check",
    "max_lower_bound_sweep",
    "convergence_trajectory",
]

# A chunk (about CHUNK_TARGET = reps * n elements, one Philox stream (seed, k))
# fixes the results.  A block (whole rows, _BLOCK_ELEMS elements or one row) is
# a cache unit: it takes the chunk's next uniforms in order and a law maps
# each uniform alone, so it changes nothing.
# The crude kernel's ceiling table bounds a law's uniform map on _CEILING_CELLS
# equal cells of u in [0, 1).
CHUNK_TARGET = 1 << 22
_BLOCK_ELEMS = 1 << 16
_CEILING_CELLS = 1 << 16


class EstimatorError(RuntimeError):
    """An estimator could not produce a value for the requested point."""


class TiltingError(EstimatorError):
    """The tilting equation has no root below the support boundary."""


@dataclass(frozen=True)
class Estimate:
    p_hat: float
    stderr: float
    n: int
    x: float
    log_p: float
    normalized: float
    method: str
    reps: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class TruncationScheme:
    c_n: float
    mu_n: float
    p_n: float
    delta_hat_n: float


@dataclass(frozen=True)
class SplitEstimate:
    """Upper/lower bracket around the deviation probability.

    upper adds the analytic single-jump term to a tilted estimate at the
    eps-reduced threshold; lower multiplies a tilted estimate under the
    conditional no-jump law at the eps-enlarged threshold by the no-jump
    probability.  The thresholds are x - eps and x + eps.
    """

    upper: Estimate
    lower: Estimate
    scheme: TruncationScheme
    eps: float


@dataclass(frozen=True, eq=False)
class TriangularSignArray:
    """Row n holds n i.i.d. symmetric signs scaled to magnitude(n).

    Admissible when magnitude(n) <= tau(n) * sqrt(n / g(log n)) with tau
    decreasing to zero, which keeps the summands negligible relative to the
    deviation threshold.
    """

    label: str
    magnitude: Callable[[int], float]
    tau: Callable[[int], float]


def unit_sign_array(g: ScaleFunction) -> TriangularSignArray:
    """Plain +-1 signs; the admissibility envelope is met with equality."""
    return TriangularSignArray(
        label="unit_signs",
        magnitude=lambda n: 1.0,
        tau=lambda n: math.sqrt(g.eval(math.log(n)) / n),
    )


@dataclass(frozen=True)
class TrajectoryPoint:
    n: int
    estimates: tuple[Estimate, ...]
    error: str | None = None


@dataclass(frozen=True)
class Trajectory:
    rate_limsup: float
    rate_liminf: float
    flags: tuple[str, ...]
    points: tuple[TrajectoryPoint, ...]


def _scale_at_n(g: ScaleFunction, n: int) -> float:
    G = g.eval(math.log(n))
    if G <= 0.0:
        raise ValueError(f"g(log n) must be positive; got {G} at n={n}")
    return G


def _validate_mc_args(n: int, reps: int, x: float) -> tuple[int, int]:
    n = int(n)
    reps = int(reps)
    if n < 2:
        raise ValueError("need n >= 2 so the deviation scale is positive")
    if reps < 1000:
        raise ValueError("need reps >= 1000")
    if not x > 0:
        raise ValueError("x must be positive")
    return n, reps


def _chunk_sizes(reps: int, n: int) -> list[int]:
    per = max(1, CHUNK_TARGET // max(n, 1))
    sizes = [per] * (reps // per)
    if reps % per:
        sizes.append(reps % per)
    return sizes


def _chunked_sums(chunk_fn, reps: int, n: int, seed: int, workers: int) -> list:
    """Run chunk_fn(rng, rows) on every chunk and add its partial sums in chunk order.

    Chunk k draws sizes[k] of the reps rows of n values from its own stream
    (seed, k), in blocks of any size; adding the tuples of partial sums in
    chunk order keeps the totals independent of the worker count.
    """
    sizes = _chunk_sizes(reps, n)

    def one_chunk(k: int):
        return chunk_fn(_rng_stream(seed, k), sizes[k])

    if workers <= 1:
        parts = [one_chunk(k) for k in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_chunk, range(len(sizes))))
    totals = [0] * len(parts[0])
    for part in parts:
        totals = [t + v for t, v in zip(totals, part)]
    return totals


def _ceiling_table(model: TailModel) -> np.ndarray:
    """Per cell [j/C, (j+1)/C) of u, a bound above model.from_uniform on that cell.

    Between two uniform breaks the map is monotone, so on a cell the larger of
    its two edge values bounds it; a 1e-9 relative margin covers the map's
    rounding (ulps of ndtri, the 1e-13 bisection of the designed laws).  A cell
    that holds a break or ends at one, and a cell with a non-finite edge
    value, is bounded by +inf.
    """
    cells = _CEILING_CELLS
    with np.errstate(all="ignore"):
        edges = model.from_uniform(np.arange(cells + 1) / cells)
        ceiling = np.maximum(edges[:-1], edges[1:])
        ceiling += 1e-9 * np.abs(ceiling)
    ceiling[~np.isfinite(ceiling)] = np.inf
    for b in model.uniform_breaks:
        ceiling[max(math.ceil(b * cells) - 1, 0) : math.floor(b * cells) + 1] = np.inf
    return ceiling


def _sums_above(rng, rows: int, n: int, from_uniform, threshold: float, ceiling=None) -> np.ndarray:
    """The row sums above threshold, in row order, of rows x n values from_uniform(rng.random(size)).

    The uniforms are drawn in blocks of whole rows.  With a ceiling table (see
    _ceiling_table), each row is first summed over its cells' ceilings, and
    only rows whose ceiling sum exceeds threshold are mapped exactly.  The
    others cannot hit: rounding is monotone and numpy adds a row's n terms in
    the same order whatever they are, so ceiling >= value term by term gives
    ceiling sum >= exact sum.  Rows to map are gathered across blocks until
    they fill one; without a table every block is mapped as soon as it is
    drawn, before its buffer is drawn into again.
    """
    block_rows = max(1, _BLOCK_ELEMS // n)
    block = min(block_rows, rows) * n
    # one set of buffers for every block: fresh arrays of this size are mapped
    # and faulted in anew each time
    u_buf = np.empty(block)
    if ceiling is not None:
        cells = np.empty(block, dtype=np.intp)
        bounds = np.empty(block)
    found, batch, held = [], [], 0
    for r0 in range(0, rows, block_rows):
        size = min(block_rows, rows - r0) * n
        u = rng.random(size, out=u_buf[:size])
        if ceiling is not None:
            np.multiply(u, _CEILING_CELLS, out=cells[:size], casting="unsafe")
            # every cell is in range; "wrap" only spares take its bounds check
            np.take(ceiling, cells[:size], out=bounds[:size], mode="wrap")
            u = u.reshape(-1, n)[bounds[:size].reshape(-1, n).sum(axis=1) > threshold].ravel()
        batch.append(u)
        held += u.size
        if held >= block or r0 + block_rows >= rows:
            # held until the next batch is mapped, so glibc does not trim and re-fault its heap
            values = from_uniform(batch[0] if len(batch) == 1 else np.concatenate(batch))
            sums = values.reshape(-1, n).sum(axis=1)
            found.append(sums[sums > threshold])
            batch, held = [], 0
    return np.concatenate(found)


def _finish_estimate(
    p_hat: float,
    stderr: float,
    n: int,
    x: float,
    G: float,
    method: str,
    reps: int,
    flags: tuple[str, ...] = (),
) -> Estimate:
    if p_hat > 0:
        log_p = math.log(p_hat)
    else:
        log_p = -math.inf
        flags = flags + ("zero_hits",)
    return Estimate(
        p_hat=p_hat,
        stderr=stderr,
        n=n,
        x=x,
        log_p=log_p,
        normalized=log_p / G,
        method=method,
        reps=reps,
        flags=flags,
    )


def _hit_frequency(
    count_hits, reps: int, seed: int, workers: int, n: int, x: float, G: float
) -> Estimate:
    """Binomial estimate from per-chunk hit counts: p_hat = hits/reps and its stderr."""
    (hits,) = _chunked_sums(count_hits, reps, n, seed, workers)
    p_hat = hits / reps
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / reps)
    return _finish_estimate(p_hat, stderr, n, x, G, "crude", reps)


def crude_mc(
    model: TailModel,
    g: ScaleFunction,
    n: int,
    x: float,
    reps: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Direct frequency estimate of P(S_n - n*mu > x*sqrt(n*g(log n)))."""
    n, reps = _validate_mc_args(n, reps, x)
    G = _scale_at_n(g, n)
    threshold = n * model.mu + x * math.sqrt(n * G)
    ceiling = _ceiling_table(model)

    def count_hits(rng, rows: int) -> tuple[int]:
        return (len(_sums_above(rng, rows, n, model.from_uniform, threshold, ceiling)),)

    return _hit_frequency(count_hits, reps, seed, workers, n, x, G)


def plan_truncation(model: TailModel, g: ScaleFunction, n: int) -> TruncationScheme:
    """Cutoff, recentering constant, and exceedance probability at sample size n.

    The cutoff shrinks slowly (fourth and eighth roots) so the truncated
    variance stabilizes at practical n, and is clamped from below so that
    sqrt(n)/g(log n) never exceeds it.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    G = _scale_at_n(g, n)
    delta = max(G**-0.25, n**-0.125)
    delta_hat = max(delta, G**-0.5)
    c = truncation_level(g, n, delta_hat)
    right = model.right_tail(c)
    left = model.left_tail(c)
    p_n = right + left
    mean_above = c * right + _tail_mean_u(model.log_right_tail_u, math.log(c), model.tail_breaks)
    mean_below = c * left + _tail_mean_u(model.log_left_tail_u, math.log(c), model.tail_breaks)
    mu_n = model.mu - mean_above + mean_below
    return TruncationScheme(c_n=c, mu_n=mu_n, p_n=p_n, delta_hat_n=delta_hat)


# Cells of the regular grid that discretizes the truncated law.
_CELLS = 1 << 15


def _restricted_law(model: TailModel, c: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Discrete approximation of X restricted to [-c, c] on _CELLS cells.

    Continuous mass goes to cell midpoints; known atoms keep their exact
    locations and masses.  Returns (values, masses, restricted_mass).
    """
    edges = np.linspace(-c, c, _CELLS + 1)
    sf = model.prob_greater(edges)
    cell_mass = sf[:-1] - sf[1:]
    atom_locs, atom_masses = [], []
    for a, m in model.atoms:
        if not (-c <= a <= c):
            continue
        idx = int(np.searchsorted(edges, a, side="left")) - 1
        if idx >= 0:
            cell_mass[idx] -= m
        atom_locs.append(a)
        atom_masses.append(m)
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = cell_mass > 0.0
    values = np.concatenate((mids[keep], atom_locs))
    masses = np.concatenate((cell_mass[keep], atom_masses))
    return values, masses, float(masses.sum())


def _cumulant(values: np.ndarray, log_masses: np.ndarray, theta: float) -> tuple[float, float, np.ndarray]:
    """(K(theta), K'(theta), w) of the discrete law; w = the tilted masses over their largest."""
    z = theta * values + log_masses
    m = float(z.max())
    w = np.exp(z - m)
    s = float(w.sum())
    K = m + math.log(s)
    Kp = float((values * w).sum()) / s
    return K, Kp, w


def _solve_tilt(values: np.ndarray, log_masses: np.ndarray, target: float) -> float:
    mean0 = _cumulant(values, log_masses, 0.0)[1]
    if target <= mean0:
        return 0.0
    v_max = float(values.max())
    if target >= v_max:
        raise TiltingError(
            f"per-summand target {target:g} is at or beyond the support maximum {v_max:g}"
        )
    hi = 1.0
    while _cumulant(values, log_masses, hi)[1] < target:
        hi *= 2.0
        if hi > 1e8:
            raise TiltingError("tilting parameter exceeds 1e8; target too close to boundary")
    return brentq(
        lambda th: _cumulant(values, log_masses, th)[1] - target,
        0.0,
        hi,
        xtol=1e-14,
        rtol=8.9e-16,
    )


def _alias_table(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias table (prob, alias) for the law proportional to masses.

    A draw picks column c uniformly, keeps cell c with probability prob[c]
    and takes cell alias[c] otherwise.  Built by the prefix-sum form of the
    sweeping construction, without a loop over cells: with q = K*p, light
    cells (q < 1) take their deficits 1 - q, in order, from the excesses
    q - 1 of heavy cells, in order.  A light cell aliases to the heavy cell
    whose excess prefix is the first to pass the light cell's deficit
    prefix.  A heavy cell keeps the residual 1 + E_j - D, where E_j is its
    excess prefix and D the prefix of the deficits paid so far, and aliases
    to the next heavy cell, which pays the rest.
    """
    cells = len(masses)
    q = masses * (cells / masses.sum())
    heavy = q >= 1.0
    heavy[np.argmax(q)] = True  # rounding can leave every q just below 1
    light = np.flatnonzero(~heavy)
    heavy = np.flatnonzero(heavy)
    # paid[i]: total deficit of the light cells before light cell i
    paid = np.concatenate(([0.0], np.cumsum(1.0 - q[light])))
    excess = np.cumsum(q[heavy] - 1.0)
    prob = np.empty(cells)
    alias = np.empty(cells, dtype=np.intp)
    prob[light] = q[light]
    donor = np.searchsorted(excess, paid[:-1], side="right")
    alias[light] = heavy[np.minimum(donor, len(heavy) - 1)]
    settled = np.searchsorted(paid[:-1], excess, side="left")
    prob[heavy] = np.clip(1.0 + excess - paid[settled], 0.0, 1.0)
    prob[heavy[-1]] = 1.0  # the last heavy cell absorbs the rounding
    alias[heavy] = np.append(heavy[1:], heavy[-1])
    return prob, alias


def _alias_map(s: np.ndarray, prob: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Draws from an alias table, one per uniform of s (s is overwritten).

    outcomes holds each column's own value followed by its alias's value.
    The uniform u picks column c = floor(u*K) and its fraction u*K - c is
    the coin.  u <= 1 - 2**-53 and K < 2**53, so u*K rounds below K and c
    stays in range.
    """
    cells = len(prob)
    s *= cells
    c = s.astype(np.intp)
    s -= c
    c += cells * (s >= prob[c])
    return outcomes[c]


def _tilted_sum_estimate(
    values: np.ndarray,
    masses: np.ndarray,
    n: int,
    target_sum: float,
    reps: int,
    seed: int,
    workers: int,
) -> tuple[float, float]:
    """Importance-sampled P(sum of n i.i.d. draws > target_sum) and its stderr."""
    keep = masses > 0.0
    values = values[keep]
    masses = masses[keep] / masses[keep].sum()
    log_masses = np.log(masses)
    theta = _solve_tilt(values, log_masses, target_sum / n)
    K, _, tilted = _cumulant(values, log_masses, theta)
    prob, alias = _alias_table(tilted)
    outcomes = np.concatenate((values, values[alias]))

    def weight_sums(rng, rows: int) -> tuple[float, float]:
        T = _sums_above(rng, rows, n, lambda u: _alias_map(u, prob, outcomes), target_sum)
        # on hits log_w = nK(theta) - theta*T <= n(K - theta*K') <= 0 (convexity, K(0) = 0)
        w = np.exp(n * K - theta * T)
        return float(w.sum()), float((w * w).sum())

    s1, s2 = _chunked_sums(weight_sums, reps, n, seed, workers)
    p_hat = s1 / reps
    var = max(s2 - reps * p_hat * p_hat, 0.0) / max(reps - 1, 1)
    return p_hat, math.sqrt(var / reps)


def _truncated_sum(
    model: TailModel,
    g: ScaleFunction,
    n: int,
    x: float,
    reps: int,
    seed: int,
    eps: float | None,
    workers: int,
):
    """Set-up and truncated-sum estimate shared by tilted_mc_truncated and split_estimate.

    Validates the arguments (eps defaults to x/10), plans the truncation,
    discretizes the law restricted to [-c_n, c_n], adds the exceedance mass
    at 0, recenters by mu_n, and estimates by tilting the probability that
    n such summands exceed (x - eps)*sqrt(n*g(log n)).  Returns (n, reps,
    eps, G, scheme, (values, masses, restricted_mass), p_hat, stderr).
    """
    n, reps = _validate_mc_args(n, reps, x)
    if eps is None:
        eps = x / 10.0
    if not 0.0 < eps < x:
        raise ValueError("eps must lie in (0, x)")
    G = _scale_at_n(g, n)
    scheme = plan_truncation(model, g, n)
    law = _restricted_law(model, scheme.c_n)
    values, masses, restricted = law
    p_hat, stderr = _tilted_sum_estimate(
        np.append(values, 0.0) - scheme.mu_n,
        np.append(masses, max(1.0 - restricted, 0.0)),
        n,
        (x - eps) * math.sqrt(n * G),
        reps,
        seed,
        workers,
    )
    return n, reps, eps, G, scheme, law, p_hat, stderr


def tilted_mc_truncated(
    model: TailModel,
    g: ScaleFunction,
    n: int,
    x: float,
    reps: int,
    seed: int,
    eps: float | None = None,
    workers: int = 1,
) -> Estimate:
    """Estimate P(sum of truncated, recentered summands > (x - eps)*sqrt(n*g(log n))).

    The truncated law is discretized on a regular grid (atoms kept exact),
    exponentially tilted so the target becomes typical, sampled from an
    alias table in O(1) per draw, and reweighted by the likelihood ratio,
    which keeps the estimator unbiased.
    """
    n, reps, _, G, _, _, p_hat, stderr = _truncated_sum(model, g, n, x, reps, seed, eps, workers)
    return _finish_estimate(p_hat, stderr, n, x, G, "tilted", reps)


def split_estimate(
    model: TailModel,
    g: ScaleFunction,
    n: int,
    x: float,
    reps: int,
    seed: int,
    eps: float | None = None,
    workers: int = 1,
) -> SplitEstimate:
    """Bracket P(S_n - n*mu > x*sqrt(n*g(log n))) from both sides.

    Upper: truncated-sum estimate at threshold (x - eps) plus the analytic
    union term n * P(X > sqrt(n)/g(log n)), clipped to 1.  Lower: estimate
    under the law conditioned on no exceedance, at threshold (x + eps),
    times the exact no-exceedance probability (1 - p_n)^n.
    """
    n, reps, eps, G, scheme, law, p_trunc, se_trunc = _truncated_sum(
        model, g, n, x, reps, seed, eps, workers
    )
    values, masses, restricted = law
    a_n = math.sqrt(n * G)
    max_term = n * model.right_tail(math.sqrt(n) / G)
    upper_flags: tuple[str, ...] = ()
    if max_term >= 1.0:
        upper_flags += ("max_term_vacuous",)
    if n * (scheme.mu_n - model.mu) > eps * a_n:
        upper_flags += ("mu_shift_exceeds_eps",)
    p_upper = min(1.0, p_trunc + max_term)
    upper = _finish_estimate(p_upper, se_trunc, n, x, G, "split", reps, upper_flags)

    cond_masses = masses / restricted
    mu_tilde = scheme.mu_n / (1.0 - scheme.p_n) if scheme.p_n < 1.0 else math.nan
    lower_flags: tuple[str, ...] = ()
    if not math.isfinite(mu_tilde) or n * abs(mu_tilde - model.mu) > eps * a_n:
        lower_flags += ("mu_shift_exceeds_eps",)
    target_cond = n * model.mu + (x + eps) * a_n
    p_cond, se_cond = _tilted_sum_estimate(
        values, cond_masses, n, target_cond, reps, seed + 1, workers
    )
    no_jump = math.exp(n * math.log1p(-scheme.p_n)) if scheme.p_n < 1.0 else 0.0
    lower = _finish_estimate(
        p_cond * no_jump, se_cond * no_jump, n, x, G, "conditional-lower", reps, lower_flags
    )
    return SplitEstimate(upper=upper, lower=lower, scheme=scheme, eps=eps)


def bounded_array_mc(
    array: TriangularSignArray,
    g: ScaleFunction,
    n: int,
    r: float,
    reps: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Estimate P(sum of row-n signs > r*sqrt(n*g(log n))) for a sign array.

    The row magnitude must respect the admissibility envelope
    magnitude(n) <= tau(n)*sqrt(n/g(log n)) with tau decreasing; arrays
    violating it are rejected because the comparison against the quadratic
    rate is only meaningful for negligible summands.
    """
    n, reps = _validate_mc_args(n, reps, r)
    G = _scale_at_n(g, n)
    b = float(array.magnitude(n))
    if b <= 0:
        raise ValueError("magnitude(n) must be positive")
    envelope = array.tau(n) * math.sqrt(n / G)
    if b > envelope * (1.0 + 1e-9):
        raise ValueError(
            f"magnitude {b:g} violates the envelope tau(n)*sqrt(n/g(log n)) = {envelope:g}"
        )
    taus = [array.tau(m) for m in (n, 2 * n, 4 * n, 8 * n)]
    if any(t2 > t1 + 1e-15 for t1, t2 in zip(taus[:-1], taus[1:])) or not taus[-1] < taus[0]:
        raise ValueError("tau must decrease toward zero along growing n")
    threshold = r * math.sqrt(n * G)

    def count_hits(rng, rows: int) -> tuple[int]:
        heads = rng.binomial(n, 0.5, size=rows)
        return (int(np.count_nonzero(b * (2.0 * heads - n) > threshold)),)

    return _hit_frequency(count_hits, reps, seed, workers, n, r, G)


def kolmogorov_upper(B_n: float, M_n: float, x_n: float) -> float:
    """Exponential upper bound exp(-(x^2/2B)(1 - xM/2B)) for bounded centered sums.

    Valid only while x*M <= B; callers outside that window get an error
    rather than a silently meaningless number.
    """
    if not 0 < B_n < math.inf:
        raise ValueError("B_n must be positive and finite")
    if not 0 <= M_n < math.inf:
        raise ValueError("M_n must be nonnegative and finite")
    if not 0 < x_n < math.inf:
        raise ValueError("x_n must be positive and finite")
    if x_n * M_n > B_n:
        raise ValueError("outside the validity window: need x_n * M_n <= B_n")
    q = x_n * x_n / (2.0 * B_n)
    return math.exp(-q * (1.0 - x_n * M_n / (2.0 * B_n)))


def kolmogorov_lower(B_n: float, x_n: float, eps: float) -> float:
    """Asymptotic floor exp(-(x^2/2B)(1 - eps)); meaningful in trend only."""
    if not 0 < B_n < math.inf:
        raise ValueError("B_n must be positive and finite")
    if not 0 < x_n < math.inf:
        raise ValueError("x_n must be positive and finite")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    return math.exp(-(x_n * x_n / (2.0 * B_n)) * (1.0 - eps))


@dataclass(frozen=True)
class LevyCheckResult:
    n: int
    t: Fraction
    increment_side: Fraction
    increment_bound: Fraction
    prefix_side: Fraction
    prefix_bound: Fraction
    passed_increment: bool
    passed_prefix: bool

    @property
    def passed(self) -> bool:
        return self.passed_increment and self.passed_prefix


def _as_law(weights) -> list[tuple[Fraction, Fraction]]:
    law = [(Fraction(v), Fraction(p)) for v, p in weights]
    if len(law) > 4:
        raise ValueError("discrete support must have at most 4 points")
    if any(p <= 0 for _, p in law):
        raise ValueError("probabilities must be positive")
    if sum(p for _, p in law) != 1:
        raise ValueError("probabilities must sum to exactly 1")
    if len({v for v, _ in law}) != len(law):
        raise ValueError("support points must be distinct")
    return law


def _median(dist: dict[int, int], total: int) -> int:
    """lo + hi, twice the midpoint of the median interval of masses over total.

    The midpoint convention makes the median antisymmetric under negation.
    """
    items = sorted(dist.items())
    cum = 0
    for lo, p in items:
        cum += p
        if 2 * cum >= total:
            break
    cum = 0
    for hi, p in reversed(items):
        cum += p
        if 2 * cum >= total:
            break
    return lo + hi


def _partial_sum_dists(law: list[tuple[int, int]], n: int) -> list[dict[int, int]]:
    """Laws of S_0..S_n for integer values and integer weights over Dw; S_k's
    masses are numerators over Dw**k."""
    dists = [{0: 1}]
    for _ in range(n):
        nxt: dict[int, int] = {}
        for s, ps in dists[-1].items():
            for v, pv in law:
                nxt[s + v] = nxt.get(s + v, 0) + ps * pv
        dists.append(nxt)
    return dists


def _mass_above(stats, probs) -> tuple[list[int], list[int]]:
    """Sorted distinct values of a statistic and, at index i, the mass of the
    values from the i-th on (0 past the end)."""
    mass: dict[int, int] = {}
    for s, p in zip(stats, probs):
        mass[s] = mass.get(s, 0) + p
    values = sorted(mass)
    above = list(accumulate((mass[s] for s in reversed(values)), initial=0))
    return values, above[::-1]


def levy_maximal_sweep(weights, n: int, thresholds) -> list[LevyCheckResult]:
    """Exact check of both maximal inequalities at several thresholds.

    All outcome tuples of n i.i.d. draws are enumerated in integers: with Dv
    and Dw the lcm of the support and of the weight denominators, values,
    partial sums and medians count units of 1/(2*Dv) and probabilities are
    numerators over Dw**n.  Medians follow the midpoint convention (so
    negating the law negates them).  Each outcome extends an enumerated
    prefix by one draw, and each threshold is answered from suffix sums of
    the sorted statistics; only the results are built as Fractions.
    """
    law = _as_law(weights)
    n = int(n)
    if not 1 <= n <= 6:
        raise ValueError("enumeration supports 1 <= n <= 6")
    dv = math.lcm(*(v.denominator for v, _ in law))
    dw = math.lcm(*(p.denominator for _, p in law))
    scaled = [
        (v.numerator * dv // v.denominator, p.numerator * dw // p.denominator) for v, p in law
    ]
    med = [_median(d, dw**k) for k, d in enumerate(_partial_sum_dists(scaled, n))]
    steps = [(2 * v, pv) for v, pv in scaled]
    # per prefix of k draws: (prob, T_k, max increment stat, max prefix stat, max T_j)
    states = [(pv, v, v + med[0], v + med[n - 1], v) for v, pv in steps]
    for k in range(2, n + 1):
        m_incr, m_pref = med[k - 1], med[n - k]
        nxt = []
        for prob, T, b_incr, b_pref, b_T in states:
            for v, pv in steps:
                S = T + v
                nxt.append(
                    (prob * pv, S, max(b_incr, v + m_incr), max(b_pref, S + m_pref), max(b_T, S))
                )
        states = nxt
    probs, T_n, incr, pref, max_T = zip(*states)
    tables = [_mass_above(stat, probs) for stat in (incr, pref, max_T, T_n)]
    total = dw**n
    results = []
    for t in thresholds:
        tf = Fraction(t)
        # the statistics are integers, so stat > t exactly when stat > floor(t)
        cut = tf.numerator * 2 * dv // tf.denominator
        lhs1, lhs2, half1, half2 = (above[bisect_right(vals, cut)] for vals, above in tables)
        results.append(
            LevyCheckResult(
                n=n,
                t=tf,
                increment_side=Fraction(lhs1, total),
                increment_bound=Fraction(2 * half1, total),
                prefix_side=Fraction(lhs2, total),
                prefix_bound=Fraction(2 * half2, total),
                passed_increment=lhs1 <= 2 * half1,
                passed_prefix=lhs2 <= 2 * half2,
            )
        )
    return results


def levy_maximal_check(weights, n: int, t) -> LevyCheckResult:
    return levy_maximal_sweep(weights, n, [t])[0]


@dataclass(frozen=True)
class MaxBoundResult:
    p: float
    n: int
    lhs: float
    rhs: float
    passed: bool


def max_lower_bound_check(p: float, n: int) -> MaxBoundResult:
    """Check (1 and n*p)/2 <= 1 - (1-p)^n, the i.i.d. maximum lower bound."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if not 1 <= n < math.inf:
        raise ValueError("n must be a positive integer")
    n = int(n)
    lhs = min(1.0, n * p) / 2.0
    rhs = 1.0 if p >= 1.0 else -math.expm1(n * math.log1p(-p))
    return MaxBoundResult(p=p, n=n, lhs=lhs, rhs=rhs, passed=lhs <= rhs)


def max_lower_bound_sweep(p_values, n_values) -> int:
    """Vectorized grid sweep of max_lower_bound_check; returns the failure count."""
    p = np.asarray(p_values, dtype=float)[:, None]
    n = np.asarray(n_values, dtype=float)[None, :]
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p must be probabilities in [0, 1]")
    if not np.all((n >= 1) & (n < math.inf)):
        raise ValueError("n must be finite and at least 1")
    lhs = np.minimum(1.0, n * p) / 2.0
    with np.errstate(divide="ignore"):
        rhs = np.where(p >= 1.0, 1.0, -np.expm1(n * np.log1p(-p)))
    return int(np.count_nonzero(lhs > rhs))


# Estimator methods: name -> runner(model, g, n, x, reps, seed, eps, workers) returning
# one trajectory point's estimates.  Runners look the estimators up by name when
# called, so a patched module attribute (a tracing wrapper, say) takes effect.
_METHODS = {
    "crude": lambda m, g, n, x, reps, seed, eps, w: (crude_mc(m, g, n, x, reps, seed, w),),
    "tilted": lambda *args: (tilted_mc_truncated(*args),),
    "split": lambda *args: attrgetter("upper", "lower")(split_estimate(*args)),
}


def convergence_trajectory(
    model: TailModel,
    g: ScaleFunction,
    x: float,
    n_grid,
    method: str,
    reps: int,
    seed: int,
    eps: float | None = None,
    workers: int = 1,
) -> Trajectory:
    """Run one estimator along n_grid and attach the theoretical rate band.

    Per-point estimator failures are recorded on the point instead of
    aborting the sweep.  The band uses the model's recorded design exponents
    when they apply to this scale, otherwise exponents computed from the
    analytic tail; infinite variance forces a degenerate zero band.
    """
    n_grid = [int(v) for v in n_grid]
    if len(n_grid) == 0 or any(b <= a for a, b in zip(n_grid[:-1], n_grid[1:])):
        raise ValueError("n_grid must be nonempty and strictly increasing")
    run = _METHODS.get(method) if isinstance(method, str) else None
    if run is None:
        raise ValueError("method must be one of " + ", ".join(map(repr, _METHODS)))
    flags: tuple[str, ...] = ()
    if math.isinf(model.sigma2):
        band_up, band_low = 0.0, 0.0
        flags += ("infinite_variance_band",)
    else:
        if model.design_exponents is not None and model.design_scale_label in (None, g.label):
            exps = model.design_exponents
        else:
            exps = exponents_from_tail(model, g)
        spec = RateSpec(sigma2=model.sigma2, rho=g.rho, exps=exps)
        band_up = rate_limsup(spec, x, "upper")
        band_low = rate_liminf(spec, x, "upper")
    points = []
    for n in n_grid:
        try:
            ests = run(model, g, n, x, reps, seed, eps, workers)
            points.append(TrajectoryPoint(n=n, estimates=ests))
        except EstimatorError as exc:
            points.append(TrajectoryPoint(n=n, estimates=(), error=str(exc)))
    return Trajectory(
        rate_limsup=band_up,
        rate_liminf=band_low,
        flags=flags,
        points=tuple(points),
    )

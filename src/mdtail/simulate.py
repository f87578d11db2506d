"""Monte Carlo estimators, exponential bounds, and exact inequality verifiers.

Estimators are deterministic for a given seed: row r of an estimate reads
its own run of words of the one PCG64DXSM stream keyed by
SeedSequence(seed, spawn_key=(0,)).  Threads run one per core and per span:
a span is a run of rows that reaches its first row's words by jumping the
stream ahead, and every span's piece is reduced at once, in row order (see
_span_sums).  Worker count therefore changes wall time only, never output
bytes.  The crude estimator reads a value's 16-bit cell from a lane of the
stream's raw words and its fine bits from the stream's first child,
SeedSequence(seed, spawn_key=(0, 0)), at a position fixed by the row and
value.  It screens rows on per-cell bounds whose top edge is the largest
uniform it builds, 1 - 2^-53, then re-screens the kept rows with their loose
values (+inf cells and the end cell of u with the larger bound) mapped
exactly; only the rows left are mapped whole (see _crude_hits).  The tilted
and split estimators tilt the law by a safeguarded Newton solve of
K'(theta) = target on K''(theta), with K, K' and K'' from one pass over a
scratch buffer that each thread keeps (see _solve_tilt).  They draw from an
alias table with one gather per draw on interleaved (value, alias value)
pairs, in a block-sized workspace that each thread keeps and reuses across
the blocks of its spans, for as long as the thread lives (see
_alias_row_sums).  A row draws n - k values and integrates the last k out
exactly (see _tilted_sum_estimate): conditional Monte Carlo on the last
summands, the light-tailed counterpart of conditioning on the largest summand
in the single-jump regime.  At k = 1 the last summand's tail is the
discretized law's own survival and needs no table; at k > 1 it is read from
a tilted-frame k-fold tail table on the lattice the discretized law lies on
(see _restricted_law, _tilted_tail_table).  k is the largest power of two
below n whose table work, lattice points * k, is at most 1/200 of the row
draws reps * (n - k), within a 2^20-point table (see _summands_integrated);
it is 1 without a lattice (designed(0.5,2;t), and designed(1,0.5;t^2) once
cells carry mass: an atom of each lies off the grid) and never depends on
the worker count.  The other catalog laws have one: two_point's two atoms
(step 2), and the half-cell grid of the 2^15-cell laws, which at a thousand
reps and n of a few hundred stays at k = 1.  _point is the one
statement of a point: every estimator and a config's grid check (n, reps,
x, eps) there, through scale's rules, and get the deviation scale
sqrt(n * g(log n)); the exact checks, max_lower_bound_sweep's n included,
take n through scale's _whole, so none rounds or takes a fractional n.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable

import numpy as np
from numpy.random import PCG64DXSM

from .scale import ScaleFunction, _finite_positive, _g_log_n, _whole, truncation_level
from .tails import TailModel, _rng_stream, _tail_mean_u

__all__ = [
    "CHUNK_TARGET",
    "EstimatorError",
    "TiltingError",
    "Estimate",
    "SplitEstimate",
    "TruncationScheme",
    "TriangularSignArray",
    "LevyCheckResult",
    "plan_truncation",
    "crude_mc",
    "tilted_mc_truncated",
    "split_estimate",
    "bounded_array_mc",
    "unit_sign_array",
    "kolmogorov_upper",
    "kolmogorov_lower",
    "levy_maximal_sweep",
    "inequality_law_grid",
    "levy_full_sweep",
    "max_lower_bound_sweep",
]

# A span (at most CHUNK_TARGET = rows * n values) is a thread's unit of work.
# A block (whole rows, _BLOCK_ELEMS elements or one row) is a cache unit: it
# takes the span's next draws in order (the crude fine bits by position) and a
# law maps each uniform alone, so neither changes a bit; the sign-array
# estimator draws its stream in blocks of _BLOCK_ELEMS rows.  A block also
# sizes the tilted kernel's workspace, which each thread keeps (see
# _workspace), so a thread allocates no block-sized array once it has one.
# The crude kernel's ceiling table bounds a law's uniform map on _CEILING_CELLS
# equal cells of u in [0, 1), one per value of a 16-bit lane.
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


def _point(g: ScaleFunction, n: int, reps: int, x: float, eps: float | None = None,
           error: type[ValueError] = ValueError) -> tuple[int, int, float, float]:
    """An estimator point's checked set-up (n, reps, G = g(log n), a_n = sqrt(n*G)); raises
    error unless n >= 2 and reps >= 1000 are integers, g(log n) > 0, x > 0 and eps in (0, x)."""
    G = _g_log_n(g, n, error)
    n = _whole(n, "n", error)
    reps = _whole(reps, "reps", error)
    if reps < 1000:
        raise error(f"need reps >= 1000; got {reps}")
    _finite_positive(x, "x", error)
    if eps is not None and not 0.0 < eps < x:
        raise error(f"eps must lie in (0, x); got eps={eps!r} at x={x!r}")
    return n, reps, G, math.sqrt(n * G)


def _cores() -> int:
    """CPUs this process may run on (all of the machine's where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _span_sums(draw, reduce, reps: int, n: int, seed: int, workers: int, row_words: int):
    """Draw the reps rows of n values in spans and reduce every piece at once.

    Row r reads words [r * row_words, (r + 1) * row_words) of the one stream
    (seed, 0).  The rows are cut into balanced spans of at most CHUNK_TARGET
    values, as many as a multiple of the threads that run; the span of rows
    [first, first + rows) builds the stream and jumps it ahead by
    first * row_words words (PCG jump-ahead), so each row reads its own words
    whatever the spans.  draw(rng, first, rows) returns a span's piece, and
    reduce(pieces) is called once, on every piece in row order, so the result
    is independent of the worker count.  At most one thread runs per core and
    per span, since more only contend.
    """
    workers = _whole(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1; got {workers!r}")
    threads = min(workers, _cores())
    per = max(1, CHUNK_TARGET // max(n, 1))
    count = min(reps, threads * -(-reps // (per * threads)))
    spans = [(reps * j // count, reps * (j + 1) // count) for j in range(count)]

    def one_span(span):
        first, end = span
        rng = _rng_stream(seed)
        if first:
            rng.bit_generator.advance(first * row_words)
        return draw(rng, first, end - first)

    pool_size = min(threads, count)
    if pool_size <= 1:
        return reduce(list(map(one_span, spans)))
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        return reduce(list(pool.map(one_span, spans)))


def _ceiling_table(model: TailModel) -> np.ndarray:
    """Per cell [j/C, (j+1)/C) of u, a bound above model.from_uniform on that cell.

    Between two uniform breaks the map is monotone, so on a cell the larger of
    its two edge values bounds it; a 1e-9 relative margin covers the map's
    rounding (ulps of ndtri, the 1e-13 bisection of the designed laws).  The
    top cell's upper edge is taken at 1 - 2^-53, the largest uniform the
    crude kernel builds (see _crude_hits), so a law whose map is finite there
    (gaussian, pareto) has a finite top bound.  A cell that holds a break or
    ends at one, and a cell with a non-finite edge value, is bounded by +inf.

    _crude_hits takes as loose (maps exactly once a row is kept) the cells
    bounded by +inf and the one end cell, 0 or the top, with the larger
    bound: the right tail's end, which is the top cell for gaussian,
    two_point and pareto and cell 0 for the designed and oscillating laws,
    whose from_uniform puts large values at u -> 0.  Any set of loose cells
    gives the same hits; the cost of a loose end cell is only its values'
    exact maps in the rows kept, where a tight bound there would keep every
    row that holds such a value.
    """
    cells = _CEILING_CELLS
    u = np.arange(cells + 1) / cells
    u[-1] = 1.0 - 2.0**-53
    with np.errstate(all="ignore"):
        edges = model.from_uniform(u)
        ceiling = np.maximum(edges[:-1], edges[1:])
        ceiling += 1e-9 * np.abs(ceiling)
    ceiling[~np.isfinite(ceiling)] = np.inf
    for b in model.uniform_breaks:
        ceiling[max(math.ceil(b * cells) - 1, 0) : math.floor(b * cells) + 1] = np.inf
    return ceiling


def _draw_runs(bits: PCG64DXSM, at: int, items: np.ndarray, width: int) -> tuple[np.ndarray, int]:
    """Draw items (sorted, distinct) from bits, which stands at word at; return them and the new at.

    Item j is the width words from word items[j]*width of the stream.  Each
    run of consecutive items is reached by one jump, ahead or back (advance
    takes a negative count), and drawn by one call, so dense items cost no
    Python loop per item.
    """
    cuts = [0, *(np.flatnonzero(np.diff(items) != 1) + 1).tolist(), items.size]
    words = []
    for a, b in zip(cuts, cuts[1:]):
        first = int(items[a]) * width
        bits.advance(first - at)
        words.append(bits.random_raw((b - a) * width))
        at = first + (b - a) * width
    return np.concatenate(words), at


def _grid_uniform(cells: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """u = (cell*2^37 + (fine >> 27)) * 2^-53 for 16-bit cells and 64-bit fine words."""
    return (cells.astype(np.uint64) << 37 | fine >> 27) * 2.0**-53


def _crude_hits(
    rng, first: int, rows: int, n: int, from_uniform, threshold: float, ceiling: np.ndarray
) -> int:
    """How many of the rows [first, first + rows) have a sum above threshold.

    rng is the stream (seed, 0) jumped ahead to row first.  Row r reads
    W = ceil(n/4) raw words of the stream, and value i of the row takes
    as its cell the 16-bit lane i % 4 of word r*W + i//4 (lane j is bits
    16j..16j+15 on every platform); the unused lanes of a row's last word
    are dropped.  A value's fine word is word r*n + i of the stream's
    first child, SeedSequence(seed, spawn_key=(0, 0)), and its uniform
    u = (cell*2^37 + (fine >> 27)) * 2^-53 lies on Generator.random's 53-bit
    grid, at most 1 - 2^-53, and in its own cell, so every u is fixed by
    (seed, r, i) whatever the spans, the block size or the screens.

    Each row is summed over its cells' ceilings (see _ceiling_table), and
    only rows whose ceiling sum exceeds threshold are kept.  The others
    cannot hit: rounding is monotone and numpy adds a row's n terms in the
    same order whatever they are, so ceiling >= value term by term gives
    ceiling sum >= exact sum.  A kept row's loose values, those in a loose
    cell (see _ceiling_table), then take their exact values as
    bounds (an exact value bounds itself, and a value does not depend on its
    call-mates); the row is summed again in the same order and dropped unless
    that sum exceeds threshold.  Only the rows left draw their fine words and
    are mapped exactly.  One generator on the child seed reads every fine
    word, jumping to it (back to a kept row's start after its loose values),
    one draw per run of consecutive positions.
    """
    words_per_row = -(-n // 4)
    block_rows = max(1, _BLOCK_ELEMS // n)
    coarse = rng.bit_generator
    child = coarse.seed_seq.spawn(1)[0]
    fine = PCG64DXSM(child)
    fine_at = 0  # its position, in words
    loose_cell = np.isinf(ceiling)
    loose_cell[-1 if ceiling[-1] >= ceiling[0] else 0] = True
    # one buffer for every block's ceilings
    bounds_buf = np.empty(min(block_rows, rows) * n)
    hits = 0
    for r0 in range(first, first + rows, block_rows):
        size = min(block_rows, first + rows - r0)
        words = coarse.random_raw(size * words_per_row).astype("<u8", copy=False)
        cells = words.view("<u2").reshape(size, 4 * words_per_row)[:, :n]
        bounds = bounds_buf[: size * n].reshape(size, n)
        # every cell is in range; "wrap" only spares take its bounds check
        np.take(ceiling, cells, out=bounds, mode="wrap")
        kept = np.flatnonzero(bounds.sum(axis=1) > threshold)
        if not kept.size:
            continue
        kept_cells = cells[kept]
        # flat indices f of the loose values in the kept rows, in stream order:
        # f is value f % n of row r0 + kept[f // n], so its fine word is word
        # f + (r0 + kept[f // n] - f // n) * n
        # a gather, not a boolean fancy index: the same booleans at a third of the cost
        loose = np.flatnonzero(np.take(loose_cell, kept_cells, mode="wrap"))
        if loose.size:
            row = loose // n
            positions = loose + (r0 + kept[row] - row) * n
            loose_words, fine_at = _draw_runs(fine, fine_at, positions, 1)
            exact = from_uniform(_grid_uniform(kept_cells.ravel()[loose], loose_words))
            tight = bounds[kept]  # a fresh contiguous copy, so ravel() is a view
            tight.ravel()[loose] = exact
            survive = tight.sum(axis=1) > threshold
            kept, kept_cells = kept[survive], kept_cells[survive]
            if not kept.size:
                continue
        fine_words, fine_at = _draw_runs(fine, fine_at, r0 + kept, n)
        u = _grid_uniform(kept_cells, fine_words.reshape(-1, n))
        sums = from_uniform(u.ravel()).reshape(-1, n).sum(axis=1)
        hits += int(np.count_nonzero(sums > threshold))
    return hits


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


def _hit_frequency(hits: int, reps: int, n: int, x: float, G: float) -> Estimate:
    """Binomial estimate from a hit count: p_hat = hits/reps and its stderr."""
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
    n, reps, G, a_n = _point(g, n, reps, x)
    threshold = n * model.mu + x * a_n
    ceiling = _ceiling_table(model)

    def count_hits(rng, first: int, rows: int) -> int:
        return _crude_hits(rng, first, rows, n, model.from_uniform, threshold, ceiling)

    # a row's cells take ceil(n/4) words of the stream
    hits = _span_sums(count_hits, sum, reps, n, seed, workers, -(-n // 4))
    return _hit_frequency(hits, reps, n, x, G)


def plan_truncation(model: TailModel, g: ScaleFunction, n: int) -> TruncationScheme:
    """Cutoff, recentering constant, and exceedance probability at sample size n.

    The cutoff shrinks slowly (fourth and eighth roots) so the truncated
    variance stabilizes at practical n, and is clamped from below so that
    sqrt(n)/g(log n) never exceeds it.
    """
    G = _g_log_n(g, n)
    n = _whole(n, "n")
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


def _restricted_law(
    model: TailModel, c: float
) -> tuple[np.ndarray, np.ndarray, float, Callable[[np.ndarray], np.ndarray], tuple[float, float] | None]:
    """Discrete approximation of X restricted to [-c, c] on _CELLS cells.

    Continuous mass goes to cell midpoints; known atoms keep their exact
    locations and masses.  Returns (values, masses, restricted_mass,
    survival, lattice): survival(y), for an array y, is the masses' sum over
    the values above y, the law's strict survival.  It is read from the edge
    survivals sf the cells are cut from: the cells from j, the first whose
    midpoint lies above y, hold sf[j] - sf[C] less the atoms folded into
    them, and each atom above y adds its mass.  The regular grid gives j to
    within one and one comparison with the midpoints fixes it, so a y costs
    two gathers and two comparisons per atom, and no table is built.

    lattice is (origin, step) with every value, and the exceedance atom at 0
    if any mass lies beyond [-c, c], on origin + i*step; no value or mass is
    moved to make it so.  When a cell carries mass it is the half-cell grid
    -c + i*c/_CELLS (every midpoint and 0 lie on it); for a law of atoms
    alone it is the lattice of their smallest gap (two_point: step 2).  It
    is None when an atom lies off that lattice (designed(0.5,2;t) and
    designed(1,0.5;t^2) once cells carry mass) or a law of atoms alone has
    fewer than two points.
    """
    edges = np.linspace(-c, c, _CELLS + 1)
    sf = model.prob_greater(edges)
    cell_mass = sf[:-1] - sf[1:]
    atoms = []  # (location, mass, cell that holds it or -1 at -c)
    for a, m in model.atoms:
        if not (-c <= a <= c):
            continue
        idx = int(np.searchsorted(edges, a, side="left")) - 1
        if idx >= 0:
            cell_mass[idx] -= m
        atoms.append((a, m, idx))
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = cell_mass > 0.0
    values = np.concatenate((mids[keep], [a for a, _, _ in atoms]))
    masses = np.concatenate((cell_mass[keep], [m for _, m, _ in atoms]))
    cells_per_unit = _CELLS / (2.0 * c)

    def survival(y: np.ndarray) -> np.ndarray:
        # mids[k] = -c + (k + 1/2) * 2c/C, so the grid's count of midpoints at
        # or below y, taken a quarter cell low, is that count or one less
        j = np.clip((y + c) * cells_per_unit + 0.25, 0.0, _CELLS - 1.0).astype(np.intp)
        j += mids[j] <= y
        out = sf[j] - sf[-1]
        for a, m, idx in atoms:
            out += m * ((a > y).astype(np.int8) - (idx >= j))
        return out

    restricted = float(masses.sum())
    points = np.unique([a for a, _, _ in atoms] + ([0.0] if restricted < 1.0 else []))
    lattice = None
    if keep.any() or len(points) > 1:
        origin, step = (-c, c / _CELLS) if keep.any() else (points[0], np.diff(points).min())
        # on the lattice to 1e-9 of a step, far above the grid's rounding
        offsets = (points - origin) / step
        if np.all(np.abs(offsets - np.rint(offsets)) <= 1e-9):
            lattice = (float(origin), float(step))
    return values, masses, restricted, survival, lattice


def _cumulant(
    values: np.ndarray, log_masses: np.ndarray, theta: float, scratch: np.ndarray
) -> tuple[float, float, float, np.ndarray]:
    """(K(theta), K'(theta), K''(theta), w) of the discrete law, from one pass.

    scratch is a (2, cells) array that the pass writes into; w, the tilted
    masses over their largest, is its first row and holds until the next call.
    """
    w, spread = scratch
    np.multiply(values, theta, out=w)
    w += log_masses
    m = float(w.max())
    w -= m
    np.exp(w, out=w)
    s = float(w.sum())
    np.multiply(values, w, out=spread)
    Kp = float(spread.sum()) / s
    # K'' as the mean square about K', which cancels nothing
    np.subtract(values, Kp, out=spread)
    np.square(spread, out=spread)
    spread *= w
    return m + math.log(s), Kp, float(spread.sum()) / s, w


# each thread's kept tilt scratch and tilted-kernel buffers (see _tilt_scratch, _workspace)
_local = threading.local()


def _tilt_scratch(size: int) -> np.ndarray:
    """A (3, size) view of the calling thread's kept scratch: centred values, w and a spread row.

    The thread keeps the largest it has been asked for; an estimate's solve
    asks for its discretized law's cells and atoms.
    """
    kept = getattr(_local, "tilt", None)
    if kept is None or kept.shape[1] < size:
        kept = _local.tilt = np.empty((3, size))
    return kept[:, :size]


# A tilt root above this is refused: the target sits too close to the support maximum.
_THETA_MAX = 2.0**26


def _solve_tilt(
    values: np.ndarray, log_masses: np.ndarray, target: float
) -> tuple[float, float, np.ndarray]:
    """(theta, K(theta), w) with K'(theta) = target; K and w are those of the solve's last pass.

    The centred values and every pass write into the scratch the calling
    thread keeps (see _tilt_scratch), so a thread's solves allocate no
    cells-sized array once one as large has run; the w returned aliases
    that scratch until the thread's next solve.  The passes take the law of
    X - target, so K' - target is summed
    directly, not found by cancelling target against K'.  Newton steps on
    K'', the tilted variance, stay inside the bracket [lo, hi] that the sign
    of K' - target updates (rtsafe, Numerical Recipes 9.4).  A step that
    leaves the bracket bisects it, in log scale while hi > 4*max(lo, 1), or
    doubles theta while there is no upper end; once there is one, a step
    that fails to halve the step before bisects too, or ends the solve if
    K' - target is within its rounding of 0.  The solve stops when a step
    is within brentq's tolerance, 1e-14 + 8.9e-16*theta, or the bracket is.
    No pass runs beyond _THETA_MAX, so a root there is refused exactly when
    K'(_THETA_MAX) < target.
    """
    buffers = _tilt_scratch(len(values))
    centred, scratch = buffers[0], buffers[1:]
    np.subtract(values, target, out=centred)
    K, Kp, Kpp, w = _cumulant(centred, log_masses, 0.0, scratch)
    if Kp >= 0.0:
        return 0.0, K, w
    if centred.max() <= 0.0:
        raise TiltingError(
            f"per-summand target {target:g} is at or beyond the support maximum {values.max():g}"
        )
    rounding = 64.0 * np.finfo(float).eps * max(float(centred.max()), -float(centred.min()))
    theta, lo, hi, last = 0.0, 0.0, math.inf, math.inf
    while True:
        step = Kp / Kpp if Kpp > 0.0 else math.inf
        tol = 1e-14 + 8.9e-16 * theta
        # the stop rule comes first: a step that rounds to nothing must not bisect
        if abs(step) <= tol or hi - lo <= tol:
            break
        new = theta - step
        if not lo < new < hi or (hi < math.inf and abs(step) > 0.5 * last):
            if lo < new < hi and abs(Kp) <= rounding:
                break
            base = max(lo, 1.0)
            if hi == math.inf:
                new = max(2.0 * lo, 1.0)
            elif hi > 4.0 * base:
                new = math.sqrt(base * hi)
            else:
                new = 0.5 * (lo + hi)
        new = min(new, _THETA_MAX)
        last = abs(new - theta)
        theta = new
        K, Kp, Kpp, w = _cumulant(centred, log_masses, theta, scratch)
        if Kp >= 0.0:
            hi = theta
        elif theta < _THETA_MAX:
            lo = theta
        else:
            raise TiltingError(
                "tilting parameter exceeds 2^26 = 67108864; target too close to boundary"
            )
    return theta, K + theta * target, w


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


def _workspace(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Buffers (uniforms, columns, probabilities, coins) of at least size elements each.

    Up to _BLOCK_ELEMS elements the calling thread gets the one set it keeps
    (about 1.6 MiB), so the blocks of every span it draws fault no fresh
    pages in; a row longer than a block gets a set that is not kept.  A
    thread of _span_sums's pool lives for one estimate, so only a serial
    estimate's main thread keeps its set across estimates.
    """
    kept = getattr(_local, "workspace", None)
    # a kept set sized for another _BLOCK_ELEMS (tests patch it) is replaced
    if size <= _BLOCK_ELEMS and kept is not None and len(kept[0]) == _BLOCK_ELEMS:
        return kept
    size = max(size, _BLOCK_ELEMS)
    buffers = np.empty(size), np.empty(size, np.intp), np.empty(size), np.empty(size, np.bool_)
    if size == _BLOCK_ELEMS:
        _local.workspace = buffers
    return buffers


def _alias_row_sums(rng, rows: int, n: int, prob: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The sums, in row order, of rows x n draws from an alias table.

    pairs interleaves each column's own value with its alias's value.  The
    uniform u picks column c = floor(u*K), and its fraction u*K - c is the
    coin: the draw is pairs[2c] if the fraction is below prob[c] and
    pairs[2c + 1] otherwise, one gather.  u <= 1 - 2**-53 and K < 2**53, so
    u*K rounds below K and c stays in range.  The uniforms are drawn in
    blocks of whole rows, and every step of a block writes into the
    thread's workspace.  A row of n = 0 draws reads no uniform and sums to 0.
    Every row counts, since the tilted estimator integrates the last summand
    out of each (see _tilted_sum_estimate).
    """
    if not n:
        return np.zeros(rows)
    cells = len(prob)
    block_rows = max(1, _BLOCK_ELEMS // n)
    workspace = _workspace(min(block_rows, rows) * n)
    sums = np.empty(rows)
    for r0 in range(0, rows, block_rows):
        size = min(block_rows, rows - r0) * n
        u, c, p, coins = (buf[:size] for buf in workspace)
        rng.random(size, out=u)
        u *= cells
        np.copyto(c, u, casting="unsafe")  # truncates, as astype(np.intp) does
        u -= c
        # every index is in range; "wrap" spares take its bounds check and a copy of out
        np.take(prob, c, out=p, mode="wrap")
        np.greater_equal(u, p, out=coins)
        c <<= 1
        c += coins
        np.take(pairs, c, out=u, mode="wrap")
        u.reshape(-1, n).sum(axis=1, out=sums[r0 : r0 + size // n])
    return sums


# k, the summands a tilted row integrates out, is the largest power of two
# below n whose tail table's work, lattice points * k, is at most
# _TABLE_SHARE of the row draws reps * (n - k), and whose table holds at most
# _TABLE_POINTS points; without a lattice k is 1.  A table cost 37-61 ns per
# point * k on a 2^16-point lattice and an alias draw 7-11 ns (2-core x86
# host), so at 1/200 a table takes at most about a twentieth of its
# estimate's draw time, below a point's run-to-run spread: the 2^15-cell
# laws gain only where reps * n is large, and two_point, whose lattice has
# two points, gains everywhere.  8 MiB a float array keeps a table, with the
# FFT's own buffers, within about 50 MB of a process's peak however many reps
# are asked for.
_TABLE_SHARE = 1.0 / 200.0
_TABLE_POINTS = 1 << 20


def _summands_integrated(points: int, n: int, reps: int) -> int:
    """k for a law on a lattice of points points (0 without one), n summands and reps rows."""
    k = 1
    while points and 2 * k < n and (
        points * 2 * k <= _TABLE_SHARE * reps * (n - 2 * k)
        and 2 * k * (points - 1) + 1 <= _TABLE_POINTS
    ):
        k *= 2
    return k


def _decayed_tail_sums(p: np.ndarray, decay: float) -> np.ndarray:
    """D_0..D_size with D_j = p_j + e^{-decay} D_{j+1} and D_size = 0, for p >= 0 and decay >= 0.

    Summed in place in blocks of at most 32/decay points, over which
    up_i = e^{-decay*i} falls by at most e^{-32}: a block's own tail sums
    times up are one reversed cumsum of p * up, and the tail beyond each
    block is carried down from the top block, so every term is positive and
    nothing over- or underflows.
    """
    size = len(p)
    block = size if decay * size <= 32.0 else max(1, int(32.0 / decay))
    rows = -(-size // block)
    up = np.exp(-decay * np.arange(block))
    fall = math.exp(-decay * block)
    tails = np.zeros(rows * block + 1)
    tails[:size] = p
    grid = tails[:-1].reshape(rows, block)
    grid *= up
    np.cumsum(grid[:, ::-1], axis=1, out=grid[:, ::-1])
    # D at each block's start, top block first; block b then adds the tail
    # beyond it, D at block b + 1's start, decayed across the block
    starts = list(accumulate(reversed(grid[:, 0].tolist()), lambda d, x: x + fall * d))
    grid += fall * np.array([*starts[-2::-1], 0.0])[:, None]
    grid /= up
    return tails[: size + 1]


def _tilted_tail_table(tilted: np.ndarray, k: int, decay: float) -> np.ndarray:
    """log D over the k-fold sum of a lattice pmf, tilted, with -inf appended.

    tilted is the tilted law's pmf on consecutive lattice points.  Its k-fold
    convolution p_k comes from one rfft/irfft, with the small negative values
    FFT rounding leaves clipped to 0, and D_j = p_k(j) + e^{-decay} D_{j+1},
    decay = theta * step, is summed in that tilted frame: nothing is
    untilted before the tail sum, so tails far below the float FFT's floor
    keep their precision wherever the tilt puts the table's mass (Keich
    2005).  Each step works in place, so a table of M points peaks at about
    three float arrays of M.
    """
    # imported where a table is built: a run of k = 1 alone needs no scipy.fft
    from scipy import fft

    size = k * (len(tilted) - 1) + 1
    fft_size = fft.next_fast_len(size, real=True)
    spectrum = fft.rfft(tilted, fft_size)
    spectrum **= k
    p_k = fft.irfft(spectrum, fft_size, overwrite_x=True)[:size]
    del spectrum
    tails = _decayed_tail_sums(np.maximum(p_k, 0.0, out=p_k), decay)
    del p_k
    positive = tails > 0.0
    np.log(tails, out=tails, where=positive)
    tails[~positive] = -np.inf
    return tails


def _tilted_sum_estimate(
    values: np.ndarray,
    masses: np.ndarray,
    survival: Callable[[np.ndarray], np.ndarray],
    n: int,
    target_sum: float,
    reps: int,
    seed: int,
    workers: int,
    lattice: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Importance-sampled P(sum of n i.i.d. draws > target_sum) and its stderr.

    survival(y) is, for an array y, the masses' sum over the values above y,
    and lattice, if given, is (origin, step) with every value on origin +
    i*step.  A row draws only n - k values, from the law tilted by theta;
    with S their sum and t = target_sum it returns the conditional mean,
    given those draws, of the full row's weight e^{nK - theta*T} 1{T > t}.
    At k = 1 that is Z = e^{(n-1)K - theta*S} * F(t - S), F the law's
    survival, and needs no table.  At k > 1 it is Z = e^{nK - theta*t} *
    R_k(t - S), with R_k(y) = E_theta[e^{-theta(S_k - y)}; S_k > y] read from
    the tilted k-fold tail table (see _tilted_tail_table): for s_j the
    least lattice sum of k values above y, R_k(y) = e^{-theta(s_j - y)} D_j.
    k follows one rule on the lattice's points, n and reps (see
    _summands_integrated), never on workers.  Z is unbiased for the same
    probability and its variance is never larger (conditional Monte Carlo);
    it integrates out the last summands, where the single-jump conditioning
    of a heavy tail integrates out the largest.
    """
    keep = masses > 0.0
    values = values[keep]
    total = masses[keep].sum()
    masses = masses[keep] / total
    log_masses = np.log(masses)
    theta, K, tilted = _solve_tilt(values, log_masses, target_sum / n)
    points = 0
    if lattice is not None:
        origin, step = lattice
        low = round((float(values.min()) - origin) / step)
        points = round((float(values.max()) - origin) / step) - low + 1
    k = _summands_integrated(points, n, reps)
    if k > 1:
        index = np.rint((values - origin) / step).astype(np.intp) - low
        pmf = np.bincount(index, weights=tilted, minlength=points)
        log_tails = _tilted_tail_table(pmf / pmf.sum(), k, theta * step)
        least = k * (origin + low * step)  # the least lattice sum of k values
    prob, alias = _alias_table(tilted)
    pairs = np.stack((values, values[alias]), axis=1).ravel()
    draws = n - k

    def row_sums(rng, first: int, rows: int) -> np.ndarray:
        return _alias_row_sums(rng, rows, draws, prob, pairs)

    def weights(S: np.ndarray) -> np.ndarray:
        if k > 1:
            # j indexes s_j = least + j*step, the least lattice sum above t - S
            j = np.floor((target_sum - S - least) / step) + 1.0
            j = np.clip(j, 0.0, len(log_tails) - 1.0).astype(np.intp)
            # log Z <= nK - theta*t <= 0 wherever D_j > 0, and Z = 0 elsewhere
            return np.exp(n * K - theta * (S + least + j * step) + log_tails[j])
        tail = survival(target_sum - S) / total
        # Z = 0 where the tail is 0; elsewhere log Z <= nK - theta*t <= 0, by
        # the Chernoff bound F(y) <= e^{K - theta*y}, so nothing overflows
        log_z = np.log(tail, out=np.full_like(tail, -np.inf), where=tail > 0.0)
        return np.exp(draws * K - theta * S + log_z)

    def mean_and_stderr(pieces: list[np.ndarray]) -> tuple[float, float]:
        # every row's sum, in row order, so the float sums below add the
        # same array whatever the spans
        Z = weights(pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
        # sums of the deviations from the first row's Z: a constant Z (n = 1
        # draws nothing) is returned exactly, with stderr 0
        d = Z - Z[0]
        s1 = float(d.sum())
        # squared in place, not by a BLAS dot: OpenBLAS's threads spin on
        # after a call and slowed the next estimate's span threads
        s2 = float(np.square(d, out=d).sum())
        var = max(s2 - s1 * s1 / reps, 0.0) / (reps - 1)
        return float(Z[0]) + s1 / reps, math.sqrt(var / reps)

    # Generator.random takes one word per double, so a row takes n - k words
    return _span_sums(row_sums, mean_and_stderr, reps, draws, seed, workers, draws)


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

    Checks the point (eps defaults to x/10), plans the truncation,
    discretizes the law restricted to [-c_n, c_n], adds the exceedance mass
    at 0, recenters by mu_n, and estimates by tilting the probability that
    n such summands exceed (x - eps)*sqrt(n*g(log n)).  Returns ((n, reps,
    G, a_n), eps, scheme, (values, masses, restricted_mass, survival,
    lattice), p_hat, stderr); the lattice passed on is shifted by -mu_n.
    """
    if eps is None:
        eps = x / 10.0
    point = n, reps, _, a_n = _point(g, n, reps, x, eps)
    scheme = plan_truncation(model, g, n)
    law = _restricted_law(model, scheme.c_n)
    values, masses, restricted, survival, lattice = law
    exceed = max(1.0 - restricted, 0.0)

    def shifted_survival(y: np.ndarray) -> np.ndarray:
        z = y + scheme.mu_n
        return survival(z) + np.where(z < 0.0, exceed, 0.0)

    p_hat, stderr = _tilted_sum_estimate(
        np.append(values, 0.0) - scheme.mu_n,
        np.append(masses, exceed),
        shifted_survival,
        n,
        (x - eps) * a_n,
        reps,
        seed,
        workers,
        None if lattice is None else (lattice[0] - scheme.mu_n, lattice[1]),
    )
    return point, eps, scheme, law, p_hat, stderr


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
    which keeps the estimator unbiased.  Each row draws n - k summands and
    takes, in place of a hit indicator, the exact conditional mean of the
    weighted hit given them: the last k summands are integrated out
    (conditional Monte Carlo), the light-tailed counterpart of conditioning
    on the largest summand in the single-jump regime.  k = 1 reads the
    discretized law's survival and needs no table; k > 1, for a law on a
    lattice (two_point, gaussian, the Pareto laws, designed(1,1;t),
    oscillating(0.5,2;t;x3); not designed(0.5,2;t), nor designed(1,0.5;t^2)
    once cells carry mass), reads a tilted-frame k-fold tail table.  k is
    the largest power of two below n whose table work, lattice points * k,
    is at most 1/200 of the draws reps * (n - k), within a 2^20-point table;
    it never depends on workers.
    """
    (n, reps, G, _), _, _, _, p_hat, stderr = _truncated_sum(model, g, n, x, reps, seed, eps, workers)
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
    times the exact no-exceedance probability (1 - p_n)^n.  Both brackets'
    estimates integrate each row's last k summands out exactly, as
    tilted_mc_truncated does and by its rule for k (1 needs no table; the
    lower bracket's law keeps the upper's lattice): the truncated laws have
    no big jump to condition on, so the last summands take that place.
    """
    (n, reps, G, a_n), eps, scheme, law, p_trunc, se_trunc = _truncated_sum(
        model, g, n, x, reps, seed, eps, workers
    )
    values, masses, restricted, survival, lattice = law
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
        values,
        cond_masses,
        lambda y: survival(y) / restricted,
        n,
        target_cond,
        reps,
        seed + 1,
        workers,
        lattice,
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
) -> Estimate:
    """Estimate P(sum of row-n signs > r*sqrt(n*g(log n))) for a sign array.

    The row magnitude must respect the admissibility envelope
    magnitude(n) <= tau(n)*sqrt(n/g(log n)) with tau decreasing; arrays
    violating it are rejected because the comparison against the quadratic
    rate is only meaningful for negligible summands.

    Row j's sum is b*(2H_j - n), H_j ~ Bin(n, 1/2) the j-th binomial draw of
    the one stream (seed, 0).  The draws are taken in order in blocks of
    _BLOCK_ELEMS, so the block size changes no bit.
    """
    n, reps, G, a_n = _point(g, n, reps, r)
    b = _finite_positive(float(array.magnitude(n)), "magnitude(n)")
    envelope = array.tau(n) * math.sqrt(n / G)
    if b > envelope * (1.0 + 1e-9):
        raise ValueError(
            f"magnitude {b:g} violates the envelope tau(n)*sqrt(n/g(log n)) = {envelope:g}"
        )
    taus = [array.tau(m) for m in (n, 2 * n, 4 * n, 8 * n)]
    if any(t2 > t1 + 1e-15 for t1, t2 in zip(taus[:-1], taus[1:])) or not taus[-1] < taus[0]:
        raise ValueError("tau must decrease toward zero along growing n")
    threshold = r * a_n
    rng = _rng_stream(seed)
    hits = 0
    for first in range(0, reps, _BLOCK_ELEMS):
        heads = rng.binomial(n, 0.5, size=min(_BLOCK_ELEMS, reps - first))
        hits += int(np.count_nonzero(b * (2.0 * heads - n) > threshold))
    return _hit_frequency(hits, reps, n, r, G)


def kolmogorov_upper(B_n: float, M_n: float, x_n: float) -> float:
    """Exponential upper bound exp(-(x^2/2B)(1 - xM/2B)) for bounded centered sums.

    Valid only while x*M <= B; callers outside that window get an error
    rather than a silently meaningless number.
    """
    _finite_positive(B_n, "B_n")
    if not 0 <= M_n < math.inf:
        raise ValueError("M_n must be nonnegative and finite")
    _finite_positive(x_n, "x_n")
    if x_n * M_n > B_n:
        raise ValueError("outside the validity window: need x_n * M_n <= B_n")
    q = x_n * x_n / (2.0 * B_n)
    return math.exp(-q * (1.0 - x_n * M_n / (2.0 * B_n)))


def kolmogorov_lower(B_n: float, x_n: float, eps: float) -> float:
    """Asymptotic floor exp(-(x^2/2B)(1 - eps)); meaningful in trend only."""
    _finite_positive(B_n, "B_n")
    _finite_positive(x_n, "x_n")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    return math.exp(-(x_n * x_n / (2.0 * B_n)) * (1.0 - eps))


@dataclass(frozen=True)
class LevyCheckResult:
    """Both maximal inequalities of n draws at the threshold t, with exact sides and bounds."""

    n: int
    t: Fraction
    increment_side: Fraction
    increment_bound: Fraction
    prefix_side: Fraction
    prefix_bound: Fraction

    @property
    def passed_increment(self) -> bool:
        return self.increment_side <= self.increment_bound

    @property
    def passed_prefix(self) -> bool:
        return self.prefix_side <= self.prefix_bound

    @property
    def passed(self) -> bool:
        return self.passed_increment and self.passed_prefix


def _exact(value, name: str) -> Fraction:
    """value as a Fraction; raises ValueError unless it is a numbers.Rational or a finite float."""
    if isinstance(value, numbers.Rational) or (isinstance(value, float) and math.isfinite(value)):
        return Fraction(value)
    raise ValueError(f"{name} must be a rational number or a finite float; got {value!r}")


def _scaled_law(weights) -> tuple[list[tuple[int, int]], int, int]:
    """A validated law in integers: (value in units of 1/Dv, weight over Dw)
    pairs, Dv and Dw, the lcm of the support and of the weight denominators."""
    law = [(_exact(v, "support point"), _exact(p, "probability")) for v, p in weights]
    if len(law) > 4:
        raise ValueError("discrete support must have at most 4 points")
    if any(p <= 0 for _, p in law):
        raise ValueError("probabilities must be positive")
    if sum(p for _, p in law) != 1:
        raise ValueError("probabilities must sum to exactly 1")
    if len({v for v, _ in law}) != len(law):
        raise ValueError("support points must be distinct")
    dv = math.lcm(*(v.denominator for v, _ in law))
    dw = math.lcm(*(p.denominator for _, p in law))
    scaled = [
        (v.numerator * dv // v.denominator, p.numerator * dw // p.denominator) for v, p in law
    ]
    return scaled, dv, dw


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


def _sum_medians(law: list[tuple[int, int]], dw: int, n: int) -> list[int]:
    """Midpoint medians of S_0..S_n in units of 1/(2*Dv), for integer values
    in units of 1/Dv and integer weights over Dw."""
    dist = {0: 1}
    medians = [0]
    for k in range(1, n + 1):
        nxt: dict[int, int] = {}
        for s, ps in dist.items():
            for v, pv in law:
                nxt[s + v] = nxt.get(s + v, 0) + ps * pv
        dist = nxt
        medians.append(_median(dist, dw**k))
    return medians


def _mass_above(stats, probs) -> tuple[list[int], list[int]]:
    """Sorted distinct values of a statistic and, at index i, the mass of the
    values from the i-th on (0 past the end)."""
    mass: dict[int, int] = {}
    for s, p in zip(stats, probs):
        mass[s] = mass.get(s, 0) + p
    values = sorted(mass)
    above = list(accumulate((mass[s] for s in reversed(values)), initial=0))
    return values, above[::-1]


def _levy_tables(law: list[tuple[int, int]], med: list[int], n: int) -> tuple:
    """The sweep of n draws of a scaled law (values in units of 1/Dv, weights
    over Dw), given med[k], the midpoint median of S_k, for k < n: the suffix
    tables of _mass_above for the increment statistic, max T_j, the prefix
    statistic and T_n, all in units of 1/(2*Dv) with masses over Dw**n.

    A prefix of k draws is carried as its state (T_k, max increment stat,
    max prefix stat, max T_j) with the summed mass of every prefix that
    reaches it: each continuation moves them alike, so merging them is exact.
    """
    steps = [(2 * v, pv) for v, pv in law]
    # state of a prefix of k draws -> its mass over Dw**k
    states = {(v, v + med[0], v + med[n - 1], v): pv for v, pv in steps}
    for k in range(2, n + 1):
        m_pref = med[n - k]
        incr_steps = [(v, pv, v + med[k - 1]) for v, pv in steps]
        nxt: dict[tuple[int, int, int, int], int] = {}
        # conditional expressions, not max(): this loop is the sweep's cost
        for (T, b_incr, b_pref, b_T), prob in states.items():
            for v, pv, inc in incr_steps:
                S = T + v
                pre = S + m_pref
                key = (
                    S,
                    inc if inc > b_incr else b_incr,
                    pre if pre > b_pref else b_pref,
                    S if S > b_T else b_T,
                )
                nxt[key] = nxt.get(key, 0) + prob * pv
        states = nxt
    T_n, incr, pref, max_T = zip(*states.keys())
    probs = states.values()
    return tuple(_mass_above(stat, probs) for stat in (incr, max_T, pref, T_n))


def _levy_numerators(tables, cut: int) -> tuple[int, int, int, int]:
    """(increment side, increment bound, prefix side, prefix bound) over
    Dw**n at any threshold t with floor(2*Dv*t) = cut: the statistics are
    integers, so stat > 2*Dv*t exactly when stat > cut."""
    (i_vals, i_above), (m_vals, m_above), (p_vals, p_above), (t_vals, t_above) = tables
    return (
        i_above[bisect_right(i_vals, cut)],
        2 * m_above[bisect_right(m_vals, cut)],
        p_above[bisect_right(p_vals, cut)],
        2 * t_above[bisect_right(t_vals, cut)],
    )


def levy_maximal_sweep(weights, n: int, thresholds) -> list[LevyCheckResult]:
    """Exact check of both maximal inequalities at several thresholds.

    The law of n draws is swept in integers: with Dv and Dw the lcm of the
    support and of the weight denominators, values, partial sums and medians
    count units of 1/(2*Dv) and probabilities are numerators over Dw**n.
    Medians follow the midpoint convention (so negating the law negates
    them).  Support points, weights and thresholds are rational numbers or
    finite floats, taken exactly.
    """
    law, dv, dw = _scaled_law(weights)
    n = _whole(n, "n")
    if not 1 <= n <= 6:
        raise ValueError("enumeration supports 1 <= n <= 6")
    tables = _levy_tables(law, _sum_medians(law, dw, n - 1), n)
    total = dw**n
    results = []
    for t in thresholds:
        tf = _exact(t, "threshold")
        sides = _levy_numerators(tables, tf.numerator * 2 * dv // tf.denominator)
        results.append(LevyCheckResult(n, tf, *(Fraction(k, total) for k in sides)))
    return results


def inequality_law_grid() -> list[list[tuple[Fraction, Fraction]]]:
    """Deterministic grid of 220 two- and three-point laws with exact weights."""
    laws: list[list[tuple[Fraction, Fraction]]] = []
    two_point_supports = [
        (Fraction(-1), Fraction(1)),
        (Fraction(-2), Fraction(1)),
        (Fraction(-1), Fraction(3)),
        (Fraction(-1, 2), Fraction(2)),
    ]
    for lo, hi in two_point_supports:
        for k in range(1, 20):
            p = Fraction(k, 20)
            laws.append([(lo, 1 - p), (hi, p)])
    three_point_supports = [
        (Fraction(-1), Fraction(0), Fraction(1)),
        (Fraction(-2), Fraction(0), Fraction(1)),
        (Fraction(-1), Fraction(1), Fraction(2)),
        (Fraction(-3), Fraction(-1), Fraction(2)),
    ]
    for a, b, c in three_point_supports:
        for i in range(1, 10):
            for j in range(1, 10 - i):
                pa = Fraction(i, 10)
                pb = Fraction(j, 10)
                laws.append([(a, pa), (b, pb), (c, 1 - pa - pb)])
    return laws


# The A3 sweep's largest n, and its evenly spaced thresholds per (law, n).
_LEVY_N_MAX = 5
_THRESHOLD_COUNT = 21


def levy_full_sweep() -> tuple[int, int]:
    """Both maximal inequalities over inequality_law_grid() at n = 1.._LEVY_N_MAX,
    each at _THRESHOLD_COUNT thresholds from n*min - 1/2 to n*max + 1/2, both
    included; returns (cases, failures).

    Each law is scaled once and n = 1.._LEVY_N_MAX share its medians.  With
    lo and hi the ends in units of 1/(2*Dv) and steps = _THRESHOLD_COUNT - 1,
    the k-th threshold (lo*steps + k*(hi - lo)) / (2*Dv*steps) is answered at
    its integer cut (lo*steps + k*(hi - lo)) // steps, and the verdicts are
    counted from the integer numerators.
    """
    steps = _THRESHOLD_COUNT - 1
    cases = failures = 0
    for weights in inequality_law_grid():
        law, dv, dw = _scaled_law(weights)
        med = _sum_medians(law, dw, _LEVY_N_MAX - 1)
        least = min(v for v, _ in law)
        most = max(v for v, _ in law)
        for n in range(1, _LEVY_N_MAX + 1):
            tables = _levy_tables(law, med, n)
            lo = 2 * n * least - dv
            hi = 2 * n * most + dv
            for k in range(_THRESHOLD_COUNT):
                cut = (lo * steps + k * (hi - lo)) // steps
                i, i_bound, p, p_bound = _levy_numerators(tables, cut)
                failures += i > i_bound or p > p_bound
            cases += _THRESHOLD_COUNT
    return cases, failures


# Cells per block of max_lower_bound_sweep: 512 KiB a float temporary.
_SWEEP_CELLS = 1 << 16


def max_lower_bound_sweep(p_values, n_values) -> int:
    """How many cells (p, n) of the grid p_values x n_values fail
    min(1, n*p)/2 <= 1 - (1-p)^n, the i.i.d. maximum lower bound.

    The grid is evaluated in blocks of whole n columns of about _SWEEP_CELLS
    cells, so its temporaries stay near 512 KiB each whatever the grid's size."""
    p = np.asarray(p_values, dtype=float)[:, None]
    n = np.asarray(n_values, dtype=float)[None, :]
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p must be probabilities in [0, 1]")
    if not np.all((n >= 1) & (n < math.inf)):
        raise ValueError("n must be finite and at least 1")
    for v in n.ravel().tolist():
        _whole(v, "n")
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-p)
    cols = max(1, _SWEEP_CELLS // max(p.size, 1))
    failures = 0
    for j in range(0, n.shape[1], cols):
        block = n[:, j : j + cols]
        lhs = np.minimum(1.0, block * p) / 2.0
        rhs = np.where(p >= 1.0, 1.0, -np.expm1(block * log_q))
        failures += int(np.count_nonzero(lhs > rhs))
    return failures

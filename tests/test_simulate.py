"""Monte Carlo estimators, truncation plan, exact inequality checks."""

import dataclasses
import hashlib
import math
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import binom

import mdtail as md
from mdtail import report, simulate as S

G1 = md.power_scale(1.0)
TWO_POINT = md.two_point()


def _combined_z(a, b):
    se = math.sqrt(a.stderr**2 + b.stderr**2)
    return (a.p_hat - b.p_hat) / se


# ---------------------------------------------------------------- crude MC


def test_crude_zero_hits_is_flagged_not_crashed():
    # threshold 2.2 exceeds the largest possible sum of two signs
    x = 2.2 / math.sqrt(2.0 * math.log(2.0))
    est = S.crude_mc(TWO_POINT, G1, n=2, x=x, reps=2000, seed=3)
    assert est.p_hat == 0.0
    assert est.log_p == -math.inf
    assert math.isinf(est.normalized)
    assert "zero_hits" in est.flags
    assert est.method == "crude"


def test_crude_matches_exact_gaussian_probability():
    est = S.crude_mc(md.gaussian(), G1, n=100, x=1.0, reps=200_000, seed=4)
    p = float(ndtr(-math.sqrt(math.log(100.0))))
    se = math.sqrt(p * (1.0 - p) / 200_000)
    assert abs(est.p_hat - p) <= 4.0 * se
    assert est.reps == 200_000
    assert math.isclose(est.normalized, est.log_p / math.log(100.0), rel_tol=1e-12)


def test_mc_argument_validation():
    with pytest.raises(ValueError):
        S.crude_mc(TWO_POINT, G1, n=1, x=1.0, reps=2000, seed=0)
    with pytest.raises(ValueError):
        S.crude_mc(TWO_POINT, G1, n=10, x=1.0, reps=999, seed=0)
    with pytest.raises(ValueError):
        S.crude_mc(TWO_POINT, G1, n=10, x=0.0, reps=2000, seed=0)
    with pytest.raises(ValueError):
        S.crude_mc(TWO_POINT, md.log_scale(), n=2, x=1.0, reps=2000, seed=0)


# (name, scale, n) with g(log n) NaN, negative or zero; a custom scale has no checks of its own
_BAD_SCALES = [
    ("nan", md.ScaleFunction(1.0, lambda t: t * math.nan, "nan"), 100),
    ("negative", md.ScaleFunction(1.0, lambda t: t - 5.0, "t-5"), 100),
    ("zero", md.log_scale(), 2),
]
_SCALE_ENTRY_POINTS = {
    "crude_mc": lambda g, n: S.crude_mc(md.gaussian(), g, n, 1.0, 2000, 0),
    "tilted_mc_truncated": lambda g, n: S.tilted_mc_truncated(md.gaussian(), g, n, 1.0, 2000, 0),
    "split_estimate": lambda g, n: S.split_estimate(md.gaussian(), g, n, 1.0, 2000, 0),
    "bounded_array_mc": lambda g, n: S.bounded_array_mc(S.unit_sign_array(g), g, n, 1.0, 2000, 0),
    "plan_truncation": lambda g, n: S.plan_truncation(md.gaussian(), g, n),
    "truncation_level": lambda g, n: md.truncation_level(g, n, 0.5),
}


@pytest.mark.parametrize(
    "scale, n, entry",
    [
        pytest.param(g, n, entry, id=f"{name}-{entry}")
        for name, g, n in _BAD_SCALES
        for entry in _SCALE_ENTRY_POINTS
    ],
)
def test_a_scale_without_positive_g_log_n_is_refused(scale, n, entry):
    with pytest.raises(ValueError, match=r"g\(log n\) must be positive"):
        _SCALE_ENTRY_POINTS[entry](scale, n)


# id -> (a call with one input out of range, the refusal it must raise); unrefused, these
# returned a zero-hit estimate or a NaN or infinite value, blamed eps, or rounded n or reps down
_BAD_POINTS = {
    "crude_mc-x=inf": (lambda: S.crude_mc(TWO_POINT, G1, 100, math.inf, 2000, 0), "x must be finite"),
    "bounded_array_mc-r=inf": (
        lambda: S.bounded_array_mc(S.unit_sign_array(G1), G1, 100, math.inf, 2000, 0),
        "x must be finite",
    ),
    "tilted_mc_truncated-x=inf": (
        lambda: S.tilted_mc_truncated(TWO_POINT, G1, 100, math.inf, 2000, 0), "x must be finite"
    ),
    "split_estimate-x=inf": (
        lambda: S.split_estimate(TWO_POINT, G1, 100, math.inf, 2000, 0), "x must be finite"
    ),
    "crude_mc-n=2.9": (lambda: S.crude_mc(TWO_POINT, G1, 2.9, 1.0, 2000, 0), "n must be an integer"),
    "crude_mc-n=nan": (lambda: S.crude_mc(TWO_POINT, G1, math.nan, 1.0, 2000, 0), "n must be finite"),
    "crude_mc-reps=1000.7": (
        lambda: S.crude_mc(TWO_POINT, G1, 100, 1.0, 1000.7, 0), "reps must be an integer"
    ),
    "plan_truncation-n=2.9": (lambda: S.plan_truncation(TWO_POINT, G1, 2.9), "n must be an integer"),
    "truncation_level-delta_hat=nan": (
        lambda: md.truncation_level(G1, 100, math.nan), "delta_hat must be finite"
    ),
    "levy_maximal_sweep-n=2.5": (
        lambda: S.levy_maximal_sweep([(-1, F(1, 2)), (1, F(1, 2))], 2.5, [1]), "n must be an integer"
    ),
    "max_lower_bound_sweep-n=2.5": (lambda: S.max_lower_bound_sweep([0.3], [2.5]), "n must be an integer"),
    "sample-n=2.5": (lambda: md.gaussian().sample(1, 2.5), "n must be an integer"),
    "bounded_array_mc-magnitude=nan": (
        lambda: S.bounded_array_mc(
            S.TriangularSignArray("nan", magnitude=lambda n: math.nan, tau=lambda n: 1.0 / n),
            G1, 100, 1.0, 2000, 0,
        ),
        r"magnitude\(n\) must be finite and positive",
    ),
    "crude_mc-workers=0": (
        lambda: S.crude_mc(TWO_POINT, G1, 100, 1.0, 2000, 0, workers=0), "workers must be >= 1"
    ),
    "tilted_mc_truncated-workers=1.5": (
        lambda: S.tilted_mc_truncated(TWO_POINT, G1, 100, 1.0, 2000, 0, workers=1.5),
        "workers must be an integer",
    ),
}


@pytest.mark.parametrize("call, message", _BAD_POINTS.values(), ids=_BAD_POINTS)
def test_a_point_input_out_of_range_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------- truncation plan


def test_truncation_plan_two_point():
    sch = S.plan_truncation(TWO_POINT, G1, 100)
    G = math.log(100.0)
    delta = max(G**-0.25, 100**-0.125)
    delta_hat = max(delta, G**-0.5)
    assert math.isclose(sch.c_n, delta_hat * math.sqrt(100.0 / G), rel_tol=1e-12)
    assert sch.delta_hat_n == delta_hat
    # support is {-1, 1}, entirely inside the cut
    assert sch.p_n == 0.0
    assert sch.mu_n == 0.0


def test_truncation_plan_pareto_closed_form():
    sch = S.plan_truncation(md.pareto(3.0), G1, 1000)
    c = sch.c_n
    # survival t^-3 on t >= 1: cut mass and clipped mean have closed forms
    assert math.isclose(sch.p_n, c**-3, rel_tol=1e-9)
    assert math.isclose(sch.mu_n, 1.5 - (c * c**-3 + 0.5 * c**-2), rel_tol=1e-9)


# ------------------------------------------------------------- tilted MC


def test_tilted_matches_exact_binomial_tail():
    n = 30
    a = math.sqrt(n * math.log(n))
    # default eps = x/10, so the per-sum target is 0.9*x*a = 11; on the
    # lattice of 30 signs that selects exactly {K >= 21} heads
    x = 11.0 / (0.9 * a)
    p = sum(math.comb(30, k) for k in range(21, 31)) / 2**30
    assert sum(math.comb(30, k) for k in range(21, 31)) == 22964087
    est = S.tilted_mc_truncated(TWO_POINT, G1, n=n, x=x, reps=200_000, seed=5)
    assert est.method == "tilted"
    assert abs(est.p_hat - p) <= 4.0 * est.stderr
    # importance sampling must beat crude variance at this depth
    assert est.stderr < math.sqrt(p * (1.0 - p) / 200_000)


def test_tilted_with_target_below_mean_degenerates_to_plain_mc():
    n = 30
    a = math.sqrt(n * math.log(n))
    x = 1.0 / (0.9 * a)
    p = sum(math.comb(30, k) for k in range(16, 31)) / 2**30
    est = S.tilted_mc_truncated(TWO_POINT, G1, n=n, x=x, reps=200_000, seed=5)
    assert abs(est.p_hat - p) <= 4.0 * est.stderr


def test_tilted_matches_exact_gaussian_far_from_truncation():
    n = 1000
    a = math.sqrt(n * math.log(n))
    est = S.tilted_mc_truncated(md.gaussian(), G1, n=n, x=1.0, reps=100_000, seed=12)
    p = float(ndtr(-0.9 * a / math.sqrt(n)))
    assert abs(est.p_hat - p) <= 4.0 * est.stderr


def test_tilted_target_beyond_support_raises():
    with pytest.raises(S.TiltingError):
        S.tilted_mc_truncated(TWO_POINT, G1, n=10, x=2.5, reps=2000, seed=1, eps=0.1)
    assert issubclass(S.TiltingError, S.EstimatorError)


def _two_point_tail(n, t):
    """P(sum of n fair signs > t), exactly."""
    return float(binom.sf(math.floor((n + t) / 2), n, 0.5))


@pytest.mark.parametrize("n, x", [(100, 1.0), (400, 2.5), (1000, 2.0)])
def test_tilted_matches_exact_binomial_tails(n, x):
    # two_point's restricted law is its two atoms, so the target at x - eps
    # is an exact binomial tail
    est = S.tilted_mc_truncated(TWO_POINT, G1, n=n, x=x, reps=4000, seed=11)
    p = _two_point_tail(n, 0.9 * x * math.sqrt(n * math.log(n)))
    assert abs(est.p_hat - p) <= 4.0 * est.stderr, (est.p_hat, p, est.stderr)


def test_split_brackets_match_exact_binomial_tails():
    # at n = 100 two_point has no exceedance (p_n = 0) and no single-jump
    # term, so each bracket is the exact tail at x -+ eps
    n, x = 100, 1.0
    a = math.sqrt(n * math.log(n))
    s = S.split_estimate(TWO_POINT, G1, n=n, x=x, reps=4000, seed=11)
    for est, p in ((s.upper, _two_point_tail(n, 0.9 * a)), (s.lower, _two_point_tail(n, 1.1 * a))):
        assert abs(est.p_hat - p) <= 4.0 * est.stderr, (est.method, est.p_hat, p, est.stderr)


def test_split_stderr_is_calibrated_over_seeds():
    # z = (p_hat - exact)/stderr over 200 seeds of both brackets at the point
    # above, against bands stated before measuring: sd(z) in [0.85, 1.15] and
    # a share of |z| <= 2 in [0.91, 0.99]
    n, x, seeds = 100, 1.0, range(1, 201)
    a = math.sqrt(n * math.log(n))
    exact = {"upper": _two_point_tail(n, 0.9 * a), "lower": _two_point_tail(n, 1.1 * a)}
    splits = [S.split_estimate(TWO_POINT, G1, n=n, x=x, reps=2000, seed=s) for s in seeds]
    for side, p in exact.items():
        ests = [getattr(s, side) for s in splits]
        z = np.array([(e.p_hat - p) / e.stderr for e in ests])
        assert 0.85 <= z.std(ddof=1) <= 1.15, (side, z.std(ddof=1))
        assert 0.91 <= np.mean(np.abs(z) <= 2.0) <= 0.99, (side, np.mean(np.abs(z) <= 2.0))
    # hit indicators in place of the last summand's tail read a mean relative
    # variance of 1.0772e-3 for the upper bracket at these seeds
    relvar = np.mean([(s.upper.stderr / s.upper.p_hat) ** 2 for s in splits])
    assert relvar <= 1.0772e-3 / 1.2, relvar


def test_crude_stderr_is_calibrated_over_seeds():
    # the split test's bands on crude at two_point n = 100, x = 1 (about 35
    # hits a seed): sd(z) in [0.85, 1.15] and a share of |z| <= 2 in
    # [0.91, 0.99].  Measured: sd 1.06, share 0.945, and every miss falls
    # below (z < -2 in 5.5% of seeds, z > 2 in none).  That is the skew of
    # a binomial count of a few dozen hits, which a Wald stderr does not
    # carry and a Clopper-Pearson interval would.
    n, x, seeds = 100, 1.0, range(1, 201)
    p = _two_point_tail(n, x * math.sqrt(n * math.log(n)))
    ests = [S.crude_mc(TWO_POINT, G1, n=n, x=x, reps=2000, seed=s) for s in seeds]
    z = np.array([(e.p_hat - p) / e.stderr for e in ests])
    assert 0.85 <= z.std(ddof=1) <= 1.15, z.std(ddof=1)
    assert 0.91 <= np.mean(np.abs(z) <= 2.0) <= 0.99, np.mean(np.abs(z) <= 2.0)


def test_rows_of_no_draws_give_the_exact_tail():
    # at n = 1 a row draws nothing: every row's Z is the law's tail at the
    # target, so the estimate is that tail and its stderr 0, at any worker count
    values, masses = np.array([-1.0, 0.5, 2.0]), np.array([0.5, 0.3, 0.2])

    def survival(y):
        return sum(np.where(y < v, m, 0.0) for v, m in zip(values, masses))

    for target, tail in ((-0.5, 0.5), (0.5, 0.2), (1.0, 0.2)):
        for workers in (1, 2):
            got = S._tilted_sum_estimate(values, masses, survival, 1, target, 1000, 3, workers)
            assert got == (tail, 0.0), (target, workers, got)
    sums = S._alias_row_sums(S._rng_stream(1), 5, 0, np.ones(1), np.zeros(2))
    assert np.array_equal(sums, np.zeros(5))


def test_tilted_weights_do_not_overflow_under_a_long_left_tail():
    # lambda_minus = 0.2: a slowly decaying left tail, so rows far below the
    # target carry huge likelihood ratios e^{(n-1)K - theta*S}; every row is
    # weighted, and each ratio meets its row's tiny tail in log space
    m = md.make_designed_tail(2.0, 0.2, G1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = S.tilted_mc_truncated(m, G1, n=100, x=4.0, reps=5000, seed=3)
    assert 0.0 < est.p_hat < 1.0 and math.isfinite(est.stderr)


@pytest.mark.parametrize(
    "eps, theta",
    [(1e-12, 4.835e7), (1e-18, 6.217e7), (1e-20, 6.677e7), (1e-21, None), (1e-26, None)],
)
def test_a_tilt_root_above_two_to_the_26_is_refused(monkeypatch, eps, theta):
    # values {0, a}, masses (1 - eps, eps): the tilted mean a(1 - d) has its
    # root at log((1 - eps)(1 - d)/(eps d))/a, refused exactly above 2^26 = 6.71e7
    a, d = 1e-6, 1e-9
    seen = []
    cumulant = S._cumulant

    def recording(*args):
        seen.append(args[2])
        return cumulant(*args)

    monkeypatch.setattr(S, "_cumulant", recording)
    values, masses = np.array([0.0, a]), np.array([1.0 - eps, eps])

    def survival(y):  # the masses above y
        return np.where(y < 0.0, 1.0 - eps, 0.0) + np.where(y < a, eps, 0.0)

    if theta is None:
        with pytest.raises(S.TiltingError, match="tilting parameter exceeds"):
            S._tilted_sum_estimate(values, masses, survival, 1, a * (1.0 - d), 1000, 1, 1)
        return
    S._tilted_sum_estimate(values, masses, survival, 1, a * (1.0 - d), 1000, 1, 1)
    root = math.log((1.0 - eps) * (1.0 - d) / (eps * d)) / a
    # the estimate's last pass is at the solved theta
    assert math.isclose(seen[-1], root, rel_tol=1e-7)
    assert math.isclose(seen[-1], theta, rel_tol=1e-3)


def test_the_tilt_refusal_names_its_bound():
    values, log_masses = np.array([0.0, 1e-6]), np.log([1.0 - 1e-21, 1e-21])
    with pytest.raises(S.TiltingError, match=r"exceeds 2\^26 = 67108864"):
        S._solve_tilt(values, log_masses, 1e-6 * (1.0 - 1e-9))


def test_a_second_tilt_solve_allocates_no_cells_sized_array():
    # the centred values and the passes' scratch are kept by the thread
    values = np.linspace(-5.0, 5.0, 1 << 15)
    log_masses = -0.5 * values**2
    log_masses -= np.log(np.exp(log_masses).sum())
    S._solve_tilt(values, log_masses, 2.0)
    tracemalloc.start()
    try:
        theta, _, w = S._solve_tilt(values, log_masses, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta > 0.0 and w.size == values.size
    assert peak < values.nbytes // 4, peak


def _brentq_tilt(values, log_masses, target):
    """The tilt root by a doubling search to 2^26 and brentq, or None where it is refused."""

    def excess(theta):  # K'(theta) - target, summed about the target
        z = theta * values + log_masses
        w = np.exp(z - z.max())
        return float(((values - target) * w).sum()) / float(w.sum())

    if excess(0.0) >= 0.0:
        return 0.0
    if target >= values.max():
        return None
    hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > 2.0**26:
            return None
    return brentq(excess, 0.0, hi, xtol=1e-14, rtol=8.9e-16)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-1000, 1000), st.floats(-300.0, 0.0)),
        min_size=2,
        max_size=200,
        unique_by=lambda atom: atom[0],
    ),
    st.floats(0.0, 1.0),
)
def test_the_newton_tilt_matches_brentq(atoms, u):
    values = np.array([a for a, _ in atoms]) / 100.0
    masses = np.exp([lm for _, lm in atoms])
    log_masses = np.log(masses / masses.sum())
    mean = float(np.dot(values, np.exp(log_masses)))
    target = mean + u * (values.max() - mean)
    ref = _brentq_tilt(values, log_masses, target)
    try:
        theta = S._solve_tilt(values, log_masses, target)[0]
    except S.TiltingError:
        assert ref is None
        return
    assert ref is not None
    # both roots are good to their tolerance, and beyond it to the rounding of
    # K' - target, a thousand ulps of the largest |value - target|, over K''
    z = ref * values + log_masses
    w = np.exp(z - z.max())
    w /= w.sum()
    var = float((w * (values - float((w * values).sum())) ** 2).sum())
    noise = 1e3 * np.finfo(float).eps * float(np.abs(values - target).max())
    bound = 1e-10 * ref + 1e-13 + (noise / var if var > 0.0 else math.inf)
    assert abs(theta - ref) <= bound, (theta, ref, bound)


def test_the_tilt_solve_takes_few_passes_and_the_estimate_none_after(monkeypatch):
    # the catalog grid: every law, x in {0.5, 1, 1.5, 2}, n in {40, 100, 300,
    # 1000}, tilted and split; brentq took median 10 and at most 20 passes here
    cumulant, solve = S._cumulant, S._solve_tilt
    passes, per_solve, outside = [0], [], [0]
    solving = [False]

    def counted(*args):
        passes[0] += 1
        outside[0] += not solving[0]
        return cumulant(*args)

    def counted_solve(*args):
        solving[0], start = True, passes[0]
        try:
            return solve(*args)
        finally:
            solving[0] = False
            per_solve.append(passes[0] - start)

    monkeypatch.setattr(S, "_cumulant", counted)
    monkeypatch.setattr(S, "_solve_tilt", counted_solve)
    for entry, x, n in product(md.catalog(), (0.5, 1.0, 1.5, 2.0), (40, 100, 300, 1000)):
        for estimate in (S.tilted_mc_truncated, S.split_estimate):
            try:
                estimate(entry.model, entry.scale, n=n, x=x, reps=1000, seed=1)
            except S.TiltingError:
                pass
    assert len(per_solve) > 300
    assert np.median(per_solve) <= 6 and max(per_solve) <= 12, sorted(per_solve)
    assert outside[0] == 0


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    # n = 300 divides none of the block sizes, and at block 1 a row outgrows the block
    designed = md.make_designed_tail(0.5, 2.0, G1)
    runs = [
        lambda: S.tilted_mc_truncated(md.gaussian(), G1, n=300, x=2.0, reps=3000, seed=4),
        lambda: S.crude_mc(md.gaussian(), G1, n=300, x=0.5, reps=1000, seed=4),
        lambda: S.crude_mc(designed, G1, n=300, x=0.5, reps=1000, seed=4),
    ]
    base = [run() for run in runs]
    assert all(est.p_hat > 0 for est in base)
    for block in (1, 1000, 1 << 20):
        monkeypatch.setattr(S, "_BLOCK_ELEMS", block)
        for run, ref in zip(runs, base):
            est = run()
            assert (est.p_hat, est.stderr) == (ref.p_hat, ref.stderr), (est.method, block)
    monkeypatch.undo()
    # the second screen at work: a finite top bound (gaussian, and pareto(3)
    # at n = 1e4, whose top-cell rows all pass the table), loose break cells
    # (two_point, designed) and a bisection map (designed)
    crude = runs[1:] + [
        lambda: S.crude_mc(md.pareto(3.0), G1, n=10_000, x=0.5, reps=1000, seed=4),
        lambda: S.crude_mc(TWO_POINT, G1, n=300, x=0.5, reps=1000, seed=4),
    ]
    screened = base[1:] + [run() for run in crude[2:]]
    assert all(est.p_hat > 0 for est in screened)
    # every ceiling +inf: the table keeps every row, every value is loose and
    # takes its exact value in the second screen, and only the rows left
    # draw their fine words again and take the exact map
    monkeypatch.setattr(S, "_ceiling_table", lambda model: np.full(S._CEILING_CELLS, np.inf))
    for run, ref in zip(crude, screened):
        est = run()
        assert (est.p_hat, est.stderr) == (ref.p_hat, ref.stderr), "no screen"


def _crude_from_the_layout(model, n, x, reps, seed):
    # every value of every row, from the stated layout: row r has as cell of
    # value i the 16-bit lane i % 4 of raw word r*ceil(n/4) + i//4 of the
    # stream (seed, (0,)), and as fine word the word r*n + i of its child
    # stream (seed, (0, 0)); both streams are read in order, 1000 rows at a time
    threshold = n * model.mu + x * math.sqrt(n * math.log(n))
    words = -(-n // 4)
    coarse = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(0,)))
    fine_bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(0, 0)))
    hits = 0
    for r0 in range(0, reps, 1000):
        rows = min(1000, reps - r0)
        raw = coarse.random_raw(rows * words).astype("<u8")
        cells = raw.view("<u2").reshape(rows, 4 * words)[:, :n].astype(np.uint64)
        fine = fine_bits.random_raw(rows * n).reshape(rows, n)
        u = ((cells << 37) + (fine >> 27)).astype(np.float64) * 2.0**-53
        sums = model.from_uniform(u.ravel()).reshape(rows, n).sum(axis=1)
        hits += int(np.count_nonzero(sums > threshold))
    p = hits / reps
    return hits, p, math.sqrt(p * (1.0 - p) / reps)


@pytest.mark.parametrize("model", [md.gaussian(), md.pareto(3.0)], ids=lambda m: m.label)
def test_crude_estimate_is_rebuilt_from_the_stated_layout(model, monkeypatch):
    # n = 37 leaves three unused lanes in each row's last word; small spans
    # cut it into ten, and n = 300 takes two spans at the shipped target.
    # Each span builds the stream once, so the calls count the spans
    stream, spans = S._rng_stream, []

    def counted(seed):
        spans.append(seed)
        return stream(seed)

    monkeypatch.setattr(S, "_rng_stream", counted)
    with monkeypatch.context() as patch:
        patch.setattr(S, "CHUNK_TARGET", 1 << 14)
        hits, *want = _crude_from_the_layout(model, 37, 1.0, 4000, 5)
        est = S.crude_mc(model, G1, n=37, x=1.0, reps=4000, seed=5)
        assert hits > 0 and [est.p_hat, est.stderr] == want and spans == [5] * 10
    hits, *want = _crude_from_the_layout(model, 300, 0.7, 15_000, 6)
    est = S.crude_mc(model, G1, n=300, x=0.7, reps=15_000, seed=6)
    assert hits > 0 and [est.p_hat, est.stderr] == want and spans[10:] == [6, 6]


# designed laws with an infinite lambda have a Gaussian side, whose quantile
# no catalog law samples
GAUSSIAN_SIDED = tuple(
    md.CatalogEntry(md.make_designed_tail(lam_p, lam_m, G1), G1)
    for lam_p, lam_m in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf))
)


def test_uniform_maps_stay_below_their_ceiling_table():
    # the screen is sound when no value exceeds its cell's ceiling; probe
    # seeded uniforms and the floats at and next to both edges of every cell
    cells = S._CEILING_CELLS
    left = np.arange(cells) / cells
    right = np.nextafter(left + 1.0 / cells, 0.0)
    u = np.concatenate(
        (np.random.default_rng(13).random(10**6), left, np.nextafter(left, 1.0), right)
    )
    j = (u * cells).astype(np.intp)
    assert np.array_equal(j[10**6 :], np.tile(np.arange(cells), 3))
    for entry in (*md.catalog(), *GAUSSIAN_SIDED):
        ceiling = S._ceiling_table(entry.model)
        assert ceiling.shape == (cells,)
        # the top edge is taken at 1 - 2^-53, where every law's map is finite
        # (gaussian about 8.2, pareto(3) about 2.08e5)
        assert np.isfinite(ceiling[-1]), entry.model.label
        over = entry.model.from_uniform(u) > ceiling[j]
        assert not over.any(), (entry.model.label, u[over][:5])


def test_the_ceiling_screen_maps_few_values_exactly(monkeypatch):
    # at the crude_kernel reference point (p about 1e-4) and at the A5 point
    # (p about 3e-6) nearly every row is dropped on its ceiling sum, or on its
    # loose values' exact values, so beyond the table build (2^16 + 1 values)
    # and the rows that hit, which any exact estimate maps whole, almost
    # nothing is mapped.  The designed and oscillating laws put their right
    # tail's end in cell 0, which is loose: the rows that hit (a few percent)
    # are mapped whole, and at most one more percent of the values.
    # Each estimate is the one that maps every value (all ceilings +inf)
    laws = {e.model.label: e.model for e in md.catalog()}
    points = [
        (md.gaussian(), 1000, math.sqrt(2.0), 20_000, lambda p: p + 1e-4),
        (md.pareto(3.0), 10_000, 5.0, 2000, lambda p: p + 1e-4),
        (laws["designed(0.5,2;t)"], 1000, 1.0, 4000, lambda p: p + 0.01),
        (laws["oscillating(0.5,2;t;x3)"], 1000, 1.0, 4000, lambda p: p + 0.01),
    ]
    screened = []
    for model, n, x, reps, bound in points:
        mapped = []

        def counting(u):
            mapped.append(u.size)
            return model.from_uniform(u)

        counted = dataclasses.replace(model, from_uniform=counting)
        est = S.crude_mc(counted, G1, n=n, x=x, reps=reps, seed=8)
        screened.append(est)
        share = (sum(mapped) - (S._CEILING_CELLS + 1)) / (reps * n)
        assert share < bound(est.p_hat), (model.label, share, est.p_hat)
    monkeypatch.setattr(S, "_ceiling_table", lambda model: np.full(S._CEILING_CELLS, np.inf))
    for (model, n, x, reps, _), est in zip(points, screened):
        full = S.crude_mc(model, G1, n=n, x=x, reps=reps, seed=8)
        assert (est.p_hat, est.stderr) == (full.p_hat, full.stderr), model.label


# crude (p_hat, stderr) as float.hex at (n=37, x=1, reps=4000, seed=5) and at
# (n=300, x=0.7, reps=2000, seed=6); the second point runs with 256-value
# blocks, so every row outgrows its block
CRUDE_PINS = {
    "gaussian": (
        ("0x1.eb851eb851eb8p-6", "0x1.6187b62ea435dp-9"),
        ("0x1.6872b020c49bap-5", "0x1.2c8d6ada27972p-8"),
    ),
    "two_point": (
        ("0x1.47ae147ae147bp-6", "0x1.2223e6c8a7ee6p-9"),
        ("0x1.89374bc6a7efap-5", "0x1.394263f7e5b64p-8"),
    ),
    "pareto(2.5)": (
        ("0x1.16872b020c49cp-4", "0x1.04dce82cdd2bap-8"),
        ("0x1.7ef9db22d0e56p-4", "0x1.aaa218ff66489p-8"),
    ),
    "pareto(3)": (
        ("0x1.851eb851eb852p-6", "0x1.3b914749f3de2p-9"),
        ("0x1.f3b645a1cac08p-6", "0x1.f7fc7ff717d23p-9"),
    ),
    "pareto(4)": (
        ("0x1.0624dd2f1a9fcp-9", "0x1.725b4fd5ecb98p-11"),
        ("0x1.0624dd2f1a9fcp-10", "0x1.728accf593ef2p-11"),
    ),
    "designed(1,1;t)": (
        ("0x1.5e353f7ced917p-4", "0x1.21c03d53b795fp-8"),
        ("0x1.e353f7ced9168p-4", "0x1.d8c26c0c8279ep-8"),
    ),
    "designed(0.5,2;t)": (
        ("0x1.fbe76c8b43958p-4", "0x1.5584741362da2p-8"),
        ("0x1.3851eb851eb85p-3", "0x1.076a1e0e3ca5dp-7"),
    ),
    "designed(1,0.5;t^2)": (
        ("0x1.89374bc6a7efap-9", "0x1.c55d7a288ad4cp-11"),
        ("0x1.cac083126e979p-9", "0x1.5a2d2fe4bcffep-10"),
    ),
    "oscillating(0.5,2;t;x3)": (
        ("0x1.83126e978d4fep-4", "0x1.2f1de94ebf0fcp-8"),
        ("0x1.eb851eb851eb8p-4", "0x1.dc354e36023e0p-8"),
    ),
    "designed(inf,1;t)": (
        ("0x1.47ae147ae147bp-9", "0x1.9df7b651068c8p-11"),
        ("0x1.604189374bc6ap-5", "0x1.2945d43bff9bdp-8"),
    ),
    "designed(1,inf;t)": (
        ("0x1.d70a3d70a3d71p-5", "0x1.e273d4f1affbbp-9"),
        ("0x1.16872b020c49cp-4", "0x1.70ea76dc002b4p-8"),
    ),
    # sigma2 = 0.06 puts both thresholds out of reach: zero hits at both points
    "designed(inf,inf;t)": (
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
    ),
}


def test_crude_bits_are_pinned_across_the_catalog(monkeypatch):
    # each point's reps * n fits one span, so one worker draws it in one span;
    # two workers cut it into two spans, and eight (eight claimed cores) into eight.  The block size moves no bit, so the
    # span legs run the second point at the shipped block size (spans in
    # 256-value blocks: test_spans_give_the_bits_of_one_thread)
    entries = (*md.catalog(), *GAUSSIAN_SIDED)
    assert [e.model.label for e in entries] == list(CRUDE_PINS)
    assert 4000 * 37 <= S.CHUNK_TARGET and 2000 * 300 <= S.CHUNK_TARGET

    def pinned(m, g, workers, block):
        first = S.crude_mc(m, g, n=37, x=1.0, reps=4000, seed=5, workers=workers)
        with monkeypatch.context() as patch:
            patch.setattr(S, "_BLOCK_ELEMS", block)
            second = S.crude_mc(m, g, n=300, x=0.7, reps=2000, seed=6, workers=workers)
        return tuple((e.p_hat.hex(), e.stderr.hex()) for e in (first, second))

    for entry in entries:
        m, g = entry.model, entry.scale
        assert pinned(m, g, 1, 256) == CRUDE_PINS[m.label], m.label
        assert pinned(m, g, 2, S._BLOCK_ELEMS) == CRUDE_PINS[m.label], m.label
        with monkeypatch.context() as patch:
            patch.setattr(S, "_cores", lambda: 8)
            assert pinned(m, g, 8, S._BLOCK_ELEMS) == CRUDE_PINS[m.label], m.label


# tilted_mc_truncated's (p_hat, stderr), then split_estimate's upper and lower
# brackets, as float.hex, at (n=100, x=1, reps=2000, seed=7), one span at one
# worker, and at (n=1000, x=1, reps=4500, seed=8), two spans at one worker;
# both n lie above every law's smallest n with a tilt root (62 for the
# designed law)
TILTED_PINS = {
    "gaussian": (
        (
            ("0x1.a5029ed2fbf7cp-6", "0x1.7ef86153b5808p-11"),
            ("0x1.0000000000000p+0", "0x1.7ef86153b5808p-11"),
            ("0x1.dddd3fdf79298p-8", "0x1.e08cac83c1b5ap-13"),
        ),
        (
            ("0x1.23c8df166d9cep-7", "0x1.afd5dc68c4d7fp-13"),
            ("0x1.70bf5bc0b3821p-7", "0x1.afd5dc68c4d7fp-13"),
            ("0x1.ec4974ea546b5p-10", "0x1.8d6020c10c825p-15"),
        ),
    ),
    "two_point": (
        (
            ("0x1.e64af5d8ab099p-6", "0x1.ac5440b8f9cb8p-11"),
            ("0x1.e64af5d8ab099p-6", "0x1.ac5440b8f9cb8p-11"),
            ("0x1.572bef9945078p-7", "0x1.513bf212edcf3p-12"),
        ),
        (
            ("0x1.243312f163808p-7", "0x1.b75e60d3db877p-13"),
            ("0x1.243312f163808p-7", "0x1.b75e60d3db877p-13"),
            ("0x1.fad3e94519638p-10", "0x1.9d70c5990ca54p-15"),
        ),
    ),
    "pareto(3)": (
        (
            ("0x1.f6df58a1ce90ep-15", "0x1.2b1b0fd0bea4ap-19"),
            ("0x1.0000000000000p+0", "0x1.2b1b0fd0bea4ap-19"),
            ("0x1.cab936d4b1fb9p-44", "0x1.43f63a251d4a6p-48"),
        ),
        (
            ("0x1.39c483b0e0b22p-12", "0x1.200ddcef905f5p-17"),
            ("0x1.0000000000000p+0", "0x1.200ddcef905f5p-17"),
            ("0x1.b7b59c6da75cep-27", "0x1.dc363d07d0d72p-32"),
        ),
    ),
    "designed(0.5,2;t)": (
        (
            ("0x1.236cc65025419p-9", "0x1.75f5437231871p-14"),
            ("0x1.0000000000000p+0", "0x1.75f5437231871p-14"),
            ("0x1.6b72f6fcb2493p-42", "0x1.2f7003ea9016ep-46"),
        ),
        (
            ("0x1.dfb295af17818p-6", "0x1.5ad6e749edb2bp-11"),
            ("0x1.0000000000000p+0", "0x1.5ad6e749edb2bp-11"),
            ("0x1.06dc13be7fec6p-26", "0x1.073e3ad55096dp-31"),
        ),
    ),
    "oscillating(0.5,2;t;x3)": (
        (
            ("0x1.b59ac42cdf101p-7", "0x1.d66f707f26358p-12"),
            ("0x1.0000000000000p+0", "0x1.d66f707f26358p-12"),
            ("0x1.58e752d01e3a4p-20", "0x1.9fd7e08eccd29p-25"),
        ),
        (
            ("0x1.6a6fa4c9a4bffp-5", "0x1.ec5e2a854f6bep-11"),
            ("0x1.0000000000000p+0", "0x1.ec5e2a854f6bep-11"),
            ("0x1.40e4f26ec134ap-8", "0x1.cf30f2105df9ap-14"),
        ),
    ),
}


def test_tilted_bits_are_pinned(monkeypatch):
    entries = {e.model.label: e for e in md.catalog()}
    points = ((100, 1.0, 2000, 7), (1000, 1.0, 4500, 8))

    def pinned(label, workers):
        m, g = entries[label].model, entries[label].scale
        got = []
        for n, x, reps, seed in points:
            t = S.tilted_mc_truncated(m, g, n=n, x=x, reps=reps, seed=seed, workers=workers)
            s = S.split_estimate(m, g, n=n, x=x, reps=reps, seed=seed, workers=workers)
            got.append(tuple((e.p_hat.hex(), e.stderr.hex()) for e in (t, s.upper, s.lower)))
        return tuple(got)

    assert 2000 * 100 <= S.CHUNK_TARGET < 4500 * 1000 <= 2 * S.CHUNK_TARGET
    for label, pins in TILTED_PINS.items():
        assert pinned(label, 1) == pins, label
        assert pinned(label, 2) == pins, label
        with monkeypatch.context() as patch:
            patch.setattr(S, "_BLOCK_ELEMS", 256)
            assert pinned(label, 1) == pins, label
        # eight claimed cores cut each point into eight spans
        with monkeypatch.context() as patch:
            patch.setattr(S, "_cores", lambda: 8)
            assert pinned(label, 8) == pins, label


def test_crude_chunk_memory_stays_bounded():
    # an estimate is drawn in cache-sized blocks, never as one reps * n array
    def run():
        return S.crude_mc(md.gaussian(), G1, n=1000, x=1.0, reps=5000, seed=1)

    run()  # warm-up: lazy imports and caches are not the kernel's memory
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


# ------------------------------------------------------------ alias table


def _rebuilt_law(prob, alias):
    mass = prob.copy()
    np.add.at(mass, alias, 1.0 - prob)
    return mass / len(prob)


def _check_alias_table(masses):
    masses = np.asarray(masses, dtype=float)
    prob, alias = S._alias_table(masses)
    assert prob.shape == alias.shape == masses.shape
    assert np.all((prob >= 0.0) & (prob <= 1.0))
    assert np.all((alias >= 0) & (alias < len(masses)))
    law = masses / masses.sum()
    np.testing.assert_allclose(_rebuilt_law(prob, alias), law, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "masses",
    [
        [0.7],
        [0.25, 0.75],
        [1.0, 1.0],
        [0.1] * 1000,
        [1e-9] * 20 + [1.0] + [1e-9] * 20,
        np.logspace(-300, 0, 301),
        np.random.default_rng(1).random(32769),
    ],
    ids=["K=1", "K=2", "K=2 equal", "all equal", "dominant", "1e-300..1", "K=32769"],
)
def test_alias_table_rebuilds_the_law(masses):
    _check_alias_table(masses)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-300.0, 0.0), min_size=1, max_size=200))
def test_alias_table_rebuilds_any_law(log10_masses):
    _check_alias_table(10.0 ** np.asarray(log10_masses))


def test_alias_column_stays_below_the_cell_count():
    u_max = 1.0 - 2.0**-53  # the largest value Generator.random returns
    cells = np.concatenate((np.arange(1, 100_000), [2**31 - 1, 2**40 + 3, 2**53 - 1]))
    assert np.all(np.floor(u_max * cells.astype(float)) < cells)

    class TopRng:
        def random(self, size, out):
            out[:] = u_max
            return out

    for K in (1, 2, 32769):
        prob, alias = S._alias_table(np.ones(K))
        # pairs[2c] = 2c: the draw 2c is column c keeping its own cell
        draws = S._alias_row_sums(TopRng(), 3, 1, prob, np.arange(2.0 * K))
        assert np.all(draws == 2 * (K - 1)), K


def test_alias_draws_match_the_law():
    law = np.array([0.05, 0.4, 0.01, 0.3, 0.24])
    prob, alias = S._alias_table(law)
    pairs = np.stack((np.arange(5), alias), axis=1).ravel().astype(float)
    draws = 400_000
    # rows of one draw: each row sum is the draw itself
    idx = S._alias_row_sums(np.random.default_rng(2024), draws, 1, prob, pairs)
    counts = np.bincount(idx.astype(np.intp), minlength=5)
    sd = np.sqrt(draws * law * (1.0 - law))
    assert np.all(np.abs(counts - draws * law) <= 5.0 * sd), counts


def test_the_workspace_carries_no_state(monkeypatch):
    # one thread reuses its workspace across estimates of other row lengths
    # (n = 30 leaves stale draws of n = 300 beyond its blocks) and keeps it
    # through a row longer than a block, which gets buffers of its own
    def estimate(n):
        est = S.tilted_mc_truncated(md.gaussian(), G1, n=n, x=1.0, reps=2000, seed=3)
        return est.p_hat, est.stderr

    def long_row():
        with monkeypatch.context() as patch:
            patch.setattr(S, "_BLOCK_ELEMS", 256)
            return estimate(300)

    def in_a_fresh_thread(call):
        out = []
        thread = threading.Thread(target=lambda: out.append(call()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and len(out) == 1
        return out[0]

    calls = (lambda: estimate(300), long_row, lambda: estimate(30), lambda: estimate(300))
    fresh = [in_a_fresh_thread(call) for call in calls]

    def one_thread():
        return [call() for call in calls]

    assert in_a_fresh_thread(one_thread) == fresh
    assert all(p > 0 for p, _ in fresh)


def test_the_tilted_kernel_allocates_nothing_per_block():
    # gaussian discretized on 2^15 cells; n = 1000 fills two blocks of 65 whole rows
    values = np.linspace(-5.0, 5.0, 1 << 15)
    prob, alias = S._alias_table(np.exp(-0.5 * values**2))
    pairs = np.stack((values, values[alias]), axis=1).ravel()

    def run():
        return S._alias_row_sums(S._rng_stream(1), 130, 1000, prob, pairs)

    first = run()  # the thread's workspace is made here, and kept
    tracemalloc.start()
    try:
        second = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second) and first.size > 0
    assert peak < 128 << 10, peak


# ------------------------------------------------------------ split bounds


def test_split_worked_example_on_the_sign_lattice():
    n, x = 100, 1.0
    a = math.sqrt(n * math.log(n))
    # eps = x/10: upper target 0.9*a = 19.31 -> {K >= 60},
    #             lower target 1.1*a = 23.60 -> {K >= 62}
    p_up = sum(math.comb(100, k) for k in range(60, 101)) / 2**100
    p_lo = sum(math.comb(100, k) for k in range(62, 101)) / 2**100
    assert math.isclose(p_up, 0.028443966820490395, rel_tol=1e-15)
    assert math.isclose(p_lo, 0.010489367838925859, rel_tol=1e-15)
    sp = S.split_estimate(TWO_POINT, G1, n=n, x=x, reps=100_000, seed=6)
    assert sp.eps == 0.1
    assert sp.upper.method == "split"
    assert sp.lower.method == "conditional-lower"
    assert abs(sp.upper.p_hat - p_up) <= 4.0 * sp.upper.stderr
    assert abs(sp.lower.p_hat - p_lo) <= 4.0 * sp.lower.stderr
    assert sp.scheme.p_n == 0.0


def test_split_flags_when_the_max_term_dominates():
    sp = S.split_estimate(md.pareto(3.0), G1, n=100, x=1.0, reps=20_000, seed=6)
    assert "max_term_vacuous" in sp.upper.flags
    assert sp.upper.p_hat == 1.0
    assert "mu_shift_exceeds_eps" in sp.lower.flags
    assert 0.0 <= sp.lower.p_hat < 1.0


def test_split_flags_a_mean_shift_on_both_brackets():
    m = md.make_designed_tail(2.0, 0.5, G1)
    sp = S.split_estimate(m, G1, n=100, x=1.0, reps=1000, seed=6)
    assert "mu_shift_exceeds_eps" in sp.upper.flags
    assert "mu_shift_exceeds_eps" in sp.lower.flags


def test_split_eps_validation():
    with pytest.raises(ValueError):
        S.split_estimate(TWO_POINT, G1, n=100, x=1.0, reps=2000, seed=0, eps=0.0)
    with pytest.raises(ValueError):
        S.split_estimate(TWO_POINT, G1, n=100, x=1.0, reps=2000, seed=0, eps=1.0)


REPS_BY_N = {100: 30_000, 1000: 10_000, 10_000: 2_000}


def test_sandwich_brackets_the_crude_estimate_across_the_catalog():
    # lower <= P(S_n > n mu + x a_n) <= upper, with the middle probed by
    # crude MC.  When crude sees zero hits its stderr collapses, so the
    # lower comparison falls back to the rule-of-three confidence bound.
    for entry in md.catalog():
        m = entry.model
        if math.isinf(m.sigma2):
            continue
        for n in (100, 1000, 10_000):
            reps = REPS_BY_N[n]
            sp = S.split_estimate(m, G1, n=n, x=1.0, reps=reps, seed=31, workers=4)
            crude = S.crude_mc(m, G1, n=n, x=1.0, reps=reps, seed=32, workers=4)
            tol_up = 4.0 * math.sqrt(sp.upper.stderr**2 + crude.stderr**2)
            assert crude.p_hat <= sp.upper.p_hat + tol_up, (m.label, n)
            if crude.p_hat == 0.0:
                assert sp.lower.p_hat <= 3.0 / reps, (m.label, n)
            else:
                tol_lo = 4.0 * math.sqrt(sp.lower.stderr**2 + crude.stderr**2)
                assert sp.lower.p_hat <= crude.p_hat + tol_lo, (m.label, n)


def test_tilted_and_crude_agree_on_matched_lattice_event():
    n = 30
    a = math.sqrt(n * math.log(n))
    x = 11.9 / a
    eps = 0.8 / a
    # crude threshold 11.9 and tilted target 11.1 select the same event
    crude = S.crude_mc(TWO_POINT, G1, n=n, x=x, reps=20_000, seed=8)
    tilt = S.tilted_mc_truncated(TWO_POINT, G1, n=n, x=x, eps=eps, reps=20_000, seed=9)
    assert abs(_combined_z(crude, tilt)) <= 4.0


# ------------------------------------------------------- sign arrays


def test_unit_sign_array_matches_exact_binomial():
    arr = S.unit_sign_array(G1)
    n = 1000
    thr = math.sqrt(n * math.log(n))
    k_min = int(math.floor((n + thr) / 2)) + 1
    p = float(binom.sf(k_min - 1, n, 0.5))
    est = S.bounded_array_mc(arr, G1, n=n, r=1.0, reps=400_000, seed=14)
    assert abs(est.p_hat - p) <= 4.0 * est.stderr
    assert est.method == "crude"
    assert est.x == 1.0


def test_sign_array_envelope_rejections():
    bad_env = S.TriangularSignArray(
        "bad-envelope",
        magnitude=lambda n: 10.0,
        tau=lambda n: math.sqrt(G1.eval(math.log(n)) / n),
    )
    with pytest.raises(ValueError, match="envelope"):
        S.bounded_array_mc(bad_env, G1, n=1000, r=1.0, reps=1000, seed=1)
    flat_tau = S.TriangularSignArray("bad-tau", magnitude=lambda n: 0.4, tau=lambda n: 0.5)
    with pytest.raises(ValueError, match="decrease"):
        S.bounded_array_mc(flat_tau, G1, n=1000, r=1.0, reps=1000, seed=1)


def test_sign_array_draws_every_row_from_one_stream(monkeypatch):
    # row j is the j-th binomial draw of the stream (seed, 0), whatever the block size
    n, reps, seed = 1000, 20_000, 14
    heads = S._rng_stream(seed).binomial(n, 0.5, reps)
    hits = int(np.count_nonzero(2.0 * heads - n > math.sqrt(n * math.log(n))))
    stream, seeds = S._rng_stream, []

    def counted(seed):
        seeds.append(seed)
        return stream(seed)

    monkeypatch.setattr(S, "_rng_stream", counted)
    est = S.bounded_array_mc(S.unit_sign_array(G1), G1, n=n, r=1.0, reps=reps, seed=seed)
    assert est.p_hat == hits / reps and seeds == [seed]
    monkeypatch.setattr(S, "_BLOCK_ELEMS", 256)
    again = S.bounded_array_mc(S.unit_sign_array(G1), G1, n=n, r=1.0, reps=reps, seed=seed)
    assert (again.p_hat, again.stderr) == (est.p_hat, est.stderr)


# --------------------------------------------- exponential tail envelopes


def test_exponential_upper_bound_values():
    got = S.kolmogorov_upper(B_n=4.0, M_n=0.5, x_n=1.0)
    assert math.isclose(got, math.exp(-0.125 * (1.0 - 0.5 / 8.0)), rel_tol=1e-15)
    # zero summand bound collapses to the pure quadratic
    assert S.kolmogorov_upper(B_n=4.0, M_n=0.0, x_n=1.0) == math.exp(-0.125)
    with pytest.raises(ValueError, match="validity window"):
        S.kolmogorov_upper(B_n=4.0, M_n=0.5, x_n=10.0)
    with pytest.raises(ValueError):
        S.kolmogorov_upper(B_n=0.0, M_n=0.5, x_n=1.0)
    # a NaN or an infinity names its argument instead of returning nan or 1
    for args, name in (
        ((1.0, math.nan, 0.5), "M_n"),
        ((math.nan, 0.0, 1.0), "B_n"),
        ((math.inf, 0.5, 1.0), "B_n"),
        ((1.0, 0.0, math.nan), "x_n"),
        ((1.0, 0.0, math.inf), "x_n"),
    ):
        with pytest.raises(ValueError, match=name):
            S.kolmogorov_upper(*args)


def test_exponential_lower_floor_values():
    got = S.kolmogorov_lower(B_n=4.0, x_n=1.0, eps=0.1)
    assert math.isclose(got, math.exp(-0.125 * 0.9), rel_tol=1e-15)
    # halving eps moves the floor toward the quadratic value
    pure = math.exp(-0.125)
    v1 = S.kolmogorov_lower(B_n=4.0, x_n=1.0, eps=0.2)
    v2 = S.kolmogorov_lower(B_n=4.0, x_n=1.0, eps=0.1)
    assert abs(v2 - pure) < abs(v1 - pure)
    with pytest.raises(ValueError):
        S.kolmogorov_lower(B_n=4.0, x_n=1.0, eps=1.0)
    with pytest.raises(ValueError):
        S.kolmogorov_lower(B_n=4.0, x_n=1.0, eps=-0.1)
    for args, name in (((math.inf, 1.0, 0.1), "B_n"), ((4.0, math.inf, 0.1), "x_n")):
        with pytest.raises(ValueError, match=name):
            S.kolmogorov_lower(*args)


# ------------------------------------------------- exact maximal inequalities


def _oracle_statistics(law, n):
    """Brute-force enumeration of both maximal statistics, kept separate
    from the implementation (plain dict convolution, list-scan medians).

    Returns (prob, increment stat, prefix stat, max partial sum, T_n) for
    every outcome tuple of n draws.
    """
    def median(dist):
        items = sorted(dist.items())
        cum = F(0)
        lo = next(v for v, p in items if (cum := cum + p) >= F(1, 2))
        cum = F(0)
        hi = next(v for v, p in reversed(items) if (cum := cum + p) >= F(1, 2))
        return (lo + hi) / 2

    sums = [{F(0): F(1)}]
    for _ in range(n):
        cur: dict = {}
        for s, ps in sums[-1].items():
            for v, pv in law:
                cur[s + v] = cur.get(s + v, F(0)) + ps * pv
        sums.append(cur)
    med = [median(d) for d in sums]
    rows = []
    for outcome in product(law, repeat=n):
        prob = F(1)
        for _, pv in outcome:
            prob *= pv
        run = F(0)
        partials = []
        for v, _ in outcome:
            run += v
            partials.append(run)
        incr_stat = max(outcome[k][0] + med[k] for k in range(n))
        pref_stat = max(partials[k] + med[n - 1 - k] for k in range(n))
        rows.append((prob, incr_stat, pref_stat, max(partials), partials[-1]))
    return rows


def _oracle_levy(law, n, t, rows=None):
    """(increment side, increment bound, prefix side, prefix bound) at t, from
    rows of _oracle_statistics(law, n), computed here when not given."""
    p_incr = p_pref = p_maxT = p_Tn = F(0)
    for prob, incr_stat, pref_stat, max_t, t_n in rows or _oracle_statistics(law, n):
        if incr_stat > t:
            p_incr += prob
        if pref_stat > t:
            p_pref += prob
        if max_t > t:
            p_maxT += prob
        if t_n > t:
            p_Tn += prob
    return p_incr, 2 * p_maxT, p_pref, 2 * p_Tn


SIGN_LAW = ((F(-1), F(1, 2)), (F(1), F(1, 2)))
ASYM_LAW = ((F(-1), F(1, 2)), (F(0), F(3, 10)), (F(2), F(1, 5)))
# four atoms with unequal weights over 999997
QUAD_LAW = (
    (F(-2), F(400003, 999997)),
    (F(-1, 3), F(250001, 999997)),
    (F(1, 2), F(200000, 999997)),
    (F(3), F(149993, 999997)),
)


@pytest.mark.parametrize(
    "law,n,t",
    [
        (SIGN_LAW, 4, F(1, 2)),
        (SIGN_LAW, 2, F(0)),
        (ASYM_LAW, 5, F(3, 2)),
        (ASYM_LAW, 1, F(0)),
        (ASYM_LAW, 3, F(-1)),
    ],
)
def test_levy_check_agrees_with_brute_force(law, n, t):
    (res,) = S.levy_maximal_sweep(law, n=n, thresholds=[t])
    want = _oracle_levy(list(law), n, t)
    got = (res.increment_side, res.increment_bound, res.prefix_side, res.prefix_bound)
    assert got == want
    assert res.passed_increment and res.passed_prefix and res.passed


@pytest.mark.parametrize("law", [SIGN_LAW, ASYM_LAW, QUAD_LAW], ids=["sign", "asym", "quad"])
@pytest.mark.parametrize("n", [5, 6])
def test_levy_check_agrees_with_brute_force_at_the_largest_n(law, n):
    """n = 5 and 6, where merged prefix states and outcome paths differ most,
    at thresholds on, a hair off, and a float near a value each statistic
    takes."""
    rows = _oracle_statistics(list(law), n)
    thresholds = []
    for column in range(1, 5):
        values = sorted({row[column] for row in rows})
        on = values[len(values) // 2]
        thresholds += [on, on - F(1, 10**12), on + F(1, 10**12), float(on)]
    for t, res in zip(thresholds, S.levy_maximal_sweep(law, n, thresholds)):
        got = (res.increment_side, res.increment_bound, res.prefix_side, res.prefix_bound)
        assert got == _oracle_levy(law, n, t, rows), t
        assert res.passed


def test_levy_result_contract():
    """What callers see: frozen results, exact Fraction sides and bounds equal
    to the oracle's, bool verdicts that agree with them, and equality by
    value whatever the common denominator."""
    thresholds = [*report._threshold_grid(ASYM_LAW, 4), 1, 0.75]
    results = S.levy_maximal_sweep(ASYM_LAW, 4, thresholds)
    assert results == S.levy_maximal_sweep(ASYM_LAW, 4, thresholds)
    rows = _oracle_statistics(list(ASYM_LAW), 4)
    for t, res in zip(thresholds, results):
        sides = (res.increment_side, res.increment_bound, res.prefix_side, res.prefix_bound)
        assert all(type(f) is F for f in (res.t, *sides))
        assert sides == _oracle_levy(ASYM_LAW, 4, t, rows)
        assert type(res.passed_increment) is bool and type(res.passed_prefix) is bool
        assert res.passed_increment == (res.increment_side <= res.increment_bound)
        assert res.passed_prefix == (res.prefix_side <= res.prefix_bound)
    with pytest.raises(dataclasses.FrozenInstanceError):
        results[0].passed_prefix = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        results[0].increment_side = F(0)
    # all four values are 0 over Dw = 2 on one side and over Dw = 4 on the other
    wide = ((F(-1), F(1, 2)), (F(1), F(1, 4)), (F(3), F(1, 4)))
    (a,) = S.levy_maximal_sweep(SIGN_LAW, 1, [F(5)])
    (b,) = S.levy_maximal_sweep(wide, 1, [F(5)])
    assert a == b and hash(a) == hash(b)
    (c,) = S.levy_maximal_sweep(SIGN_LAW, 1, [F(0)])
    assert a != c


def test_levy_frozen_values():
    (res,) = S.levy_maximal_sweep(SIGN_LAW, n=4, thresholds=[F(1, 2)])
    assert (res.increment_side, res.increment_bound) == (F(15, 16), F(5, 4))
    assert (res.prefix_side, res.prefix_bound) == (F(5, 8), F(5, 8))
    # equality case: the prefix inequality is tight here and must still pass
    (res,) = S.levy_maximal_sweep(SIGN_LAW, n=2, thresholds=[F(0)])
    assert res.prefix_side == res.prefix_bound == F(1, 2)
    assert res.passed_prefix


def test_levy_sweep_matches_pointwise_checks():
    thresholds = [F(-2), F(0), F(1, 2), F(3)]
    swept = S.levy_maximal_sweep(SIGN_LAW, n=3, thresholds=thresholds)
    assert [r.t for r in swept] == thresholds
    for r, t in zip(swept, thresholds):
        (single,) = S.levy_maximal_sweep(SIGN_LAW, n=3, thresholds=[t])
        assert (r.increment_side, r.prefix_side) == (
            single.increment_side,
            single.prefix_side,
        )


_SUPPORT_POINT = st.one_of(
    st.integers(-4, 4).map(F),
    st.fractions(-4, 4, max_denominator=12),
    st.floats(-4.0, 4.0, allow_nan=False).map(F),
)


@st.composite
def _levy_cases(draw):
    """A law on 1-4 points with weights over a denominator up to 10**6, n in
    1..4, and a threshold on (or a hair off, or a float near) a value that
    one of the enumerated statistics takes."""
    values = draw(st.lists(_SUPPORT_POINT, min_size=1, max_size=4, unique=True))
    denom = draw(st.integers(len(values), 10**6))
    cuts = draw(
        st.lists(
            st.integers(1, max(denom - 1, 1)),
            min_size=len(values) - 1,
            max_size=len(values) - 1,
            unique=True,
        )
    )
    edges = [0, *sorted(cuts), denom]
    law = [(v, F(b - a, denom)) for v, a, b in zip(values, edges[:-1], edges[1:])]
    n = draw(st.integers(1, 4))
    stats = sorted({s for row in _oracle_statistics(law, n) for s in row[1:]})
    on = draw(st.sampled_from(stats))
    t = draw(st.sampled_from([on, on - F(1, 10**12), on + F(1, 10**12), float(on)]))
    return law, n, t


@settings(max_examples=150, deadline=None)
@given(_levy_cases())
def test_levy_check_agrees_with_brute_force_on_drawn_laws(case):
    law, n, t = case
    (res,) = S.levy_maximal_sweep(law, n=n, thresholds=[t])
    got = (res.increment_side, res.increment_bound, res.prefix_side, res.prefix_bound)
    assert got == _oracle_levy(law, n, t)
    assert res.t == F(t)
    assert res.passed_increment == (res.increment_side <= res.increment_bound)
    assert res.passed_prefix == (res.prefix_side <= res.prefix_bound)


def test_levy_full_sweep_is_pinned(monkeypatch):
    """Every (law, n, threshold) case of the A3 sweep through the public
    levy_maximal_sweep, hashed with its fractions written num/den, and
    compared case by case with the integer path that levy_full_sweep counts
    (report._levy_grid_cases): the cut floor(2*Dv*t), the four numerators and
    both verdicts.  The digest was read from the earlier all-Fraction
    enumeration; any change of a side, a bound or a verdict moves it.  Levy's
    inequalities never fail, so (23100, 0) alone would not see a failure
    count that missed a failure; the per-case comparison and the count on
    swapped sides below are the only tests of it."""
    digest = hashlib.sha256()
    cases = list(report._levy_grid_cases())
    flipped = 0
    for i, law in enumerate(report.inequality_law_grid()):
        _, dv, _ = S._scaled_law(law)
        for n in range(1, 6):
            case_law, case_n, cuts, sides = cases[5 * i + n - 1]
            assert (case_law, case_n) == (law, n)
            thresholds = report._threshold_grid(law, n)
            results = S.levy_maximal_sweep(law, n, thresholds)
            for t, r, cut, got in zip(thresholds, results, cuts, sides, strict=True):
                fields = (r.t, r.increment_side, r.increment_bound, r.prefix_side, r.prefix_bound)
                text = ",".join(f"{f.numerator}/{f.denominator}" for f in fields)
                digest.update(f"{i},{n},{text},{r.passed_increment},{r.passed_prefix}\n".encode())
                assert cut == math.floor(2 * dv * t), (i, n, t)
                assert got == r._numerators, (i, n, t)
                assert (got[0] <= got[1], got[2] <= got[3]) == (r.passed_increment, r.passed_prefix)
                flipped += r.increment_bound > r.increment_side or r.prefix_bound > r.prefix_side
    assert digest.hexdigest() == "72ea60a0a8c2f1da19c8955fea2fed42e811180041a8aab89541fb52146e50f7"
    assert len(cases) == 5 * (i + 1)
    assert report.levy_full_sweep() == (23100, 0)
    # sides and bounds swapped: a case fails where either bound exceeds its side
    swapped = [(law, n, cuts, [(b, a, d, c) for a, b, c, d in s]) for law, n, cuts, s in cases]
    monkeypatch.setattr(report, "_levy_grid_cases", lambda: iter(swapped))
    assert 0 < flipped < 23100
    assert report.levy_full_sweep() == (23100, flipped)


def test_levy_validation():
    with pytest.raises(ValueError, match="at most 4"):
        S.levy_maximal_sweep(tuple((F(k), F(1, 5)) for k in range(5)), 2, [F(0)])
    with pytest.raises(ValueError, match="sum to exactly 1"):
        S.levy_maximal_sweep(((F(0), F(1, 2)), (F(1), F(1, 3))), 2, [F(0)])
    with pytest.raises(ValueError, match="1 <= n <= 6"):
        S.levy_maximal_sweep(SIGN_LAW, 7, [F(0)])
    with pytest.raises(ValueError, match="positive"):
        S.levy_maximal_sweep(((F(0), F(1)), (F(1), F(0))), 2, [F(0)])
    with pytest.raises(ValueError, match="distinct"):
        S.levy_maximal_sweep(((F(0), F(1, 2)), (F(0), F(1, 2))), 2, [F(0)])
    for bad in (math.inf, -math.inf, math.nan, None, "1/2", 1j, Decimal("0.5")):
        with pytest.raises(ValueError, match="threshold must be"):
            S.levy_maximal_sweep(SIGN_LAW, 2, [F(0), bad])
    # a Rational or a finite float is taken exactly
    got = S.levy_maximal_sweep(SIGN_LAW, 2, [F(1, 2), 0.5, 1, True, np.int64(1), np.float64(0.5)])
    assert [r.t for r in got] == [F(1, 2), F(1, 2), F(1), F(1), F(1), F(1, 2)]


def test_max_lower_bound_boundaries():
    # p = 0 meets the bound with equality (0 <= 0) and p = 1 with room (1/2 <= 1)
    assert S.max_lower_bound_sweep([0.0], [5]) == 0
    assert S.max_lower_bound_sweep([1.0], [1]) == 0
    with pytest.raises(ValueError, match="p must"):
        S.max_lower_bound_sweep([1.5], [1])
    with pytest.raises(ValueError, match="n must"):
        S.max_lower_bound_sweep([0.5], [0])


def test_max_lower_bound_sweep():
    assert S.max_lower_bound_sweep(np.linspace(0.0, 1.0, 101), np.arange(1, 200)) == 0
    with pytest.raises(ValueError):
        S.max_lower_bound_sweep([-0.1], [1])
    # a NaN cell would compare false and count as passing
    with pytest.raises(ValueError, match="p must"):
        S.max_lower_bound_sweep([0.5, math.nan], [1, 2])
    for n in (math.nan, math.inf):
        with pytest.raises(ValueError, match="n must"):
            S.max_lower_bound_sweep([0.5], [1, n])


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0), n=st.integers(1, 10**6))
def test_max_lower_bound_property(p, n):
    assert S.max_lower_bound_sweep([p], [n]) == 0


# --------------------------------------------------------- trajectories
# A run's trajectory is one report._METHODS runner call per (x, n) point.


def test_trajectory_survives_per_point_estimator_failure():
    run = report._METHODS["tilted"]
    with pytest.raises(S.EstimatorError, match="support"):
        run(TWO_POINT, G1, 10, 2.5, 2000, 2, None, 1)
    (second,) = run(TWO_POINT, G1, 100, 2.5, 2000, 2, None, 1)
    assert second.n == 100 and second.p_hat > 0.0


def test_trajectory_split_records_both_estimates():
    ests = report._METHODS["split"](TWO_POINT, G1, 100, 1.0, 2000, 2, None, 1)
    assert [e.method for e in ests] == ["split", "conditional-lower"]


# --------------------------------------------------------- determinism


def test_worker_count_never_changes_results():
    runs = {
        "crude": lambda w: S.crude_mc(
            md.pareto(3.0), G1, n=1000, x=1.0, reps=50_000, seed=9, workers=w
        ),
        "tilted": lambda w: S.tilted_mc_truncated(
            TWO_POINT, G1, n=30, x=0.5, reps=50_000, seed=9, workers=w
        ),
    }
    for label, fn in runs.items():
        serial = fn(1)
        threaded = fn(4)
        assert serial.p_hat == threaded.p_hat, label
        assert serial.stderr == threaded.stderr, label


def test_one_chunk_is_shared_by_two_threads(monkeypatch):
    # a point whose rows fit one span at one worker draws them on two threads:
    # its two spans each build the stream (seed, 0) and meet at a barrier that
    # one thread alone never passes; the bits are the pinned ones
    monkeypatch.setattr(S, "_cores", lambda: 2)
    stream = S._rng_stream
    barrier, seen = threading.Barrier(2, timeout=30), []

    def meeting(seed):
        seen.append((seed, threading.get_ident()))
        barrier.wait()
        return stream(seed)

    monkeypatch.setattr(S, "_rng_stream", meeting)
    assert 2000 * 100 <= S.CHUNK_TARGET
    est = S.tilted_mc_truncated(TWO_POINT, G1, n=100, x=1.0, reps=2000, seed=7, workers=2)
    assert [s for s, _ in seen] == [7, 7] and len({t for _, t in seen}) == 2
    assert (est.p_hat.hex(), est.stderr.hex()) == TILTED_PINS["two_point"][0][0]


@pytest.mark.parametrize(
    "threads, n, reps, target, block",
    [
        # spans start at rows 666 and 1333, inside blocks of 655 rows
        (3, 100, 2000, S.CHUNK_TARGET, S._BLOCK_ELEMS),
        # one-row blocks of 256 values: every row outgrows its block
        (2, 300, 2000, S.CHUNK_TARGET, 256),
        # spans of at most 54 rows: 24 spans of 42 or 43 rows, three per thread
        (8, 300, 1029, 1 << 14, 256),
    ],
    ids=["mid-block", "rows-outgrow-blocks", "more-spans-than-threads"],
)
def test_spans_give_the_bits_of_one_thread(monkeypatch, threads, n, reps, target, block):
    designed = md.make_designed_tail(0.5, 2.0, G1)
    runs = [
        lambda w: S.tilted_mc_truncated(md.gaussian(), G1, n=n, x=2.0, reps=reps, seed=4, workers=w),
        lambda w: S.crude_mc(md.gaussian(), G1, n=n, x=0.5, reps=reps, seed=4, workers=w),
        lambda w: S.crude_mc(designed, G1, n=n, x=0.5, reps=reps, seed=4, workers=w),
    ]
    monkeypatch.setattr(S, "CHUNK_TARGET", target)
    monkeypatch.setattr(S, "_BLOCK_ELEMS", block)
    serial = [run(1) for run in runs]
    assert all(est.p_hat > 0 for est in serial)
    monkeypatch.setattr(S, "_cores", lambda: threads)
    for run, ref in zip(runs, serial):
        est = run(threads)
        assert (est.p_hat, est.stderr) == (ref.p_hat, ref.stderr), est.method


def test_eight_threads_give_the_bytes_of_one(monkeypatch):
    # the pool is capped at the core count; claim 8 cores so 8 real threads
    # run (the first 8 spans meet at a barrier, which fewer threads never
    # pass), and use small spans so every estimator cuts many more than 8
    monkeypatch.setattr(S, "_cores", lambda: 8)
    monkeypatch.setattr(S, "CHUNK_TARGET", 1 << 14)
    stream, lock = S._rng_stream, threading.Lock()

    def meeting(seed):
        if barrier is not None:
            with lock:
                spans.append(seed)
                first_eight = len(spans) <= 8
            if first_eight:
                threads.add(threading.get_ident())
                barrier.wait()
        return stream(seed)

    monkeypatch.setattr(S, "_rng_stream", meeting)
    runs = {
        "crude": lambda w: S.crude_mc(md.pareto(3.0), G1, n=1000, x=1.0, reps=5000, seed=9, workers=w),
        "tilted": lambda w: S.tilted_mc_truncated(TWO_POINT, G1, n=30, x=0.5, reps=5000, seed=9, workers=w),
    }
    for label, fn in runs.items():
        barrier = None
        serial = fn(1)
        barrier, threads, spans = threading.Barrier(8, timeout=30), set(), []
        threaded = fn(8)
        assert len(threads) == 8, label
        assert (serial.p_hat, serial.stderr) == (threaded.p_hat, threaded.stderr), label

"""Monte Carlo estimators, truncation plan, exact inequality checks."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def test_tilted_weights_do_not_overflow_under_a_long_left_tail():
    # lambda_minus = 0.2: a slowly decaying left tail, so rows far below the
    # target would carry huge likelihood ratios; only hit rows are weighted
    m = md.make_designed_tail(2.0, 0.2, G1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = S.tilted_mc_truncated(m, G1, n=100, x=4.0, reps=5000, seed=3)
    assert 0.0 < est.p_hat < 1.0 and math.isfinite(est.stderr)


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
    # every ceiling +inf: the screen keeps every row and each takes the exact map
    monkeypatch.undo()
    monkeypatch.setattr(S, "_ceiling_table", lambda model: np.full(S._CEILING_CELLS, np.inf))
    for run, ref in zip(runs[1:], base[1:]):
        est = run()
        assert (est.p_hat, est.stderr) == (ref.p_hat, ref.stderr), "no screen"


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
        over = entry.model.from_uniform(u) > ceiling[j]
        assert not over.any(), (entry.model.label, u[over][:5])


def test_the_ceiling_screen_maps_few_values_exactly():
    # at the crude_kernel reference point, p is about 1e-4, so nearly every
    # row can be dropped on its ceiling sum alone
    model = md.gaussian()
    mapped = []

    def counting(u):
        mapped.append(u.size)
        return model.from_uniform(u)

    reps = 20_000
    counted = dataclasses.replace(model, from_uniform=counting)
    est = S.crude_mc(counted, G1, n=1000, x=math.sqrt(2.0), reps=reps, seed=8)
    assert est.p_hat > 0
    assert sum(mapped) < 0.03 * reps * 1000, sum(mapped) / (reps * 1000)


# crude (p_hat, stderr) as float.hex at (n=37, x=1, reps=4000, seed=5) and at
# (n=300, x=0.7, reps=2000, seed=6); the second point runs with 256-value
# blocks, so every row outgrows its block
CRUDE_PINS = {
    "gaussian": (
        ("0x1.e353f7ced9168p-6", "0x1.5ea978fda0aa2p-9"),
        ("0x1.916872b020c4ap-5", "0x1.3c56e047758cdp-8"),
    ),
    "two_point": (
        ("0x1.78d4fdf3b645ap-6", "0x1.36aa05505a9c6p-9"),
        ("0x1.a9fbe76c8b439p-5", "0x1.455d6db0153bep-8"),
    ),
    "pareto(2.5)": (
        ("0x1.147ae147ae148p-4", "0x1.03f8c7e6ffc6ep-8"),
        ("0x1.916872b020c4ap-4", "0x1.b3b193a3f29b4p-8"),
    ),
    "pareto(3)": (
        ("0x1.db22d0e560419p-6", "0x1.5bc46353b76f9p-9"),
        ("0x1.1a9fbe76c8b44p-5", "0x1.0b7476c4068ffp-8"),
    ),
    "pareto(4)": (
        ("0x1.26e978d4fdf3bp-9", "0x1.88c5fc6bc1d3dp-11"),
        ("0x1.89374bc6a7efap-9", "0x1.4093db8859e03p-10"),
    ),
    "designed(1,1;t)": (
        ("0x1.6b851eb851eb8p-4", "0x1.26ae776f4b9cap-8"),
        ("0x1.116872b020c4ap-3", "0x1.f269df0d965a6p-8"),
    ),
    "designed(0.5,2;t)": (
        ("0x1.fef9db22d0e56p-4", "0x1.5666e863deeb9p-8"),
        ("0x1.6353f7ced9168p-3", "0x1.1576b23592108p-7"),
    ),
    "designed(1,0.5;t^2)": (
        ("0x1.eb851eb851eb8p-9", "0x1.faafdc444c74fp-11"),
        ("0x1.89374bc6a7efap-10", "0x1.c5b4c09d34814p-11"),
    ),
    "oscillating(0.5,2;t;x3)": (
        ("0x1.8e5604189374cp-4", "0x1.33074266c385ap-8"),
        ("0x1.083126e978d50p-3", "0x1.eb363e0b70987p-8"),
    ),
    "designed(inf,1;t)": (
        ("0x1.89374bc6a7efap-11", "0x1.c5e05d8c7671bp-12"),
        ("0x1.2f1a9fbe76c8bp-5", "0x1.149df6b1a8617p-8"),
    ),
    "designed(1,inf;t)": (
        ("0x1.ced916872b021p-5", "0x1.de7e12727fd0fp-9"),
        ("0x1.22d0e56041893p-4", "0x1.785bd40368cbap-8"),
    ),
    # sigma2 = 0.06 puts both thresholds out of reach: zero hits at both points
    "designed(inf,inf;t)": (
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
    ),
}


def test_crude_bits_are_pinned_across_the_catalog(monkeypatch):
    entries = (*md.catalog(), *GAUSSIAN_SIDED)
    assert [e.model.label for e in entries] == list(CRUDE_PINS)
    for entry in entries:
        m, g = entry.model, entry.scale
        first = S.crude_mc(m, g, n=37, x=1.0, reps=4000, seed=5)
        with monkeypatch.context() as patch:
            patch.setattr(S, "_BLOCK_ELEMS", 256)
            second = S.crude_mc(m, g, n=300, x=0.7, reps=2000, seed=6)
        got = tuple((e.p_hat.hex(), e.stderr.hex()) for e in (first, second))
        assert got == CRUDE_PINS[m.label], m.label


def test_crude_chunk_memory_stays_bounded():
    # a chunk is drawn in cache-sized blocks, never as one reps * n array
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
        def random(self, size):
            return np.full(size, u_max)

    for K in (1, 2, 32769):
        prob, alias = S._alias_table(np.ones(K))
        draws = S._alias_map(TopRng().random(3), prob, np.arange(2 * K))
        assert np.all(draws == K - 1), K


def test_alias_draws_match_the_law():
    law = np.array([0.05, 0.4, 0.01, 0.3, 0.24])
    prob, alias = S._alias_table(law)
    outcomes = np.concatenate((np.arange(5), alias))
    draws = 400_000
    idx = S._alias_map(np.random.default_rng(2024).random(draws), prob, outcomes)
    counts = np.bincount(idx, minlength=5)
    sd = np.sqrt(draws * law * (1.0 - law))
    assert np.all(np.abs(counts - draws * law) <= 5.0 * sd), counts


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


def _oracle_levy(law, n, t):
    p_incr = p_pref = p_maxT = p_Tn = F(0)
    for prob, incr_stat, pref_stat, max_t, t_n in _oracle_statistics(law, n):
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
    res = S.levy_maximal_check(law, n=n, t=t)
    want = _oracle_levy(list(law), n, t)
    got = (res.increment_side, res.increment_bound, res.prefix_side, res.prefix_bound)
    assert got == want
    assert res.passed_increment and res.passed_prefix and res.passed


def test_levy_frozen_values():
    res = S.levy_maximal_check(SIGN_LAW, n=4, t=F(1, 2))
    assert (res.increment_side, res.increment_bound) == (F(15, 16), F(5, 4))
    assert (res.prefix_side, res.prefix_bound) == (F(5, 8), F(5, 8))
    # equality case: the prefix inequality is tight here and must still pass
    res = S.levy_maximal_check(SIGN_LAW, n=2, t=F(0))
    assert res.prefix_side == res.prefix_bound == F(1, 2)
    assert res.passed_prefix


def test_levy_sweep_matches_pointwise_checks():
    thresholds = [F(-2), F(0), F(1, 2), F(3)]
    swept = S.levy_maximal_sweep(SIGN_LAW, n=3, thresholds=thresholds)
    assert [r.t for r in swept] == thresholds
    for r, t in zip(swept, thresholds):
        single = S.levy_maximal_check(SIGN_LAW, n=3, t=t)
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
    res = S.levy_maximal_check(law, n=n, t=t)
    got = (res.increment_side, res.increment_bound, res.prefix_side, res.prefix_bound)
    assert got == _oracle_levy(law, n, t)
    assert res.t == F(t)
    assert res.passed_increment == (res.increment_side <= res.increment_bound)
    assert res.passed_prefix == (res.prefix_side <= res.prefix_bound)


def test_levy_full_sweep_is_pinned():
    """Every (law, n, threshold) case of the A3 sweep, hashed with its
    fractions written num/den.  The digest was read from the earlier
    all-Fraction enumeration; any change of a side, a bound or a verdict
    moves it."""
    digest = hashlib.sha256()
    for i, law in enumerate(report.inequality_law_grid()):
        for n in range(1, 6):
            for r in S.levy_maximal_sweep(law, n, report._threshold_grid(law, n)):
                fields = (r.t, r.increment_side, r.increment_bound, r.prefix_side, r.prefix_bound)
                text = ",".join(f"{f.numerator}/{f.denominator}" for f in fields)
                digest.update(f"{i},{n},{text},{r.passed_increment},{r.passed_prefix}\n".encode())
    assert digest.hexdigest() == "72ea60a0a8c2f1da19c8955fea2fed42e811180041a8aab89541fb52146e50f7"


def test_levy_validation():
    with pytest.raises(ValueError, match="at most 4"):
        S.levy_maximal_check(tuple((F(k), F(1, 5)) for k in range(5)), n=2, t=F(0))
    with pytest.raises(ValueError, match="sum to exactly 1"):
        S.levy_maximal_check(((F(0), F(1, 2)), (F(1), F(1, 3))), n=2, t=F(0))
    with pytest.raises(ValueError, match="1 <= n <= 6"):
        S.levy_maximal_check(SIGN_LAW, n=7, t=F(0))
    with pytest.raises(ValueError, match="positive"):
        S.levy_maximal_check(((F(0), F(1)), (F(1), F(0))), n=2, t=F(0))
    with pytest.raises(ValueError, match="distinct"):
        S.levy_maximal_check(((F(0), F(1, 2)), (F(0), F(1, 2))), n=2, t=F(0))


def test_max_lower_bound_boundaries():
    r = S.max_lower_bound_check(p=0.0, n=5)
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed
    r = S.max_lower_bound_check(p=1.0, n=1)
    assert r.lhs == 0.5 and r.rhs == 1.0 and r.passed
    with pytest.raises(ValueError):
        S.max_lower_bound_check(p=1.5, n=1)
    with pytest.raises(ValueError):
        S.max_lower_bound_check(p=0.5, n=0)
    for n in (math.nan, math.inf):
        with pytest.raises(ValueError, match="n must"):
            S.max_lower_bound_check(p=0.5, n=n)


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
    assert S.max_lower_bound_check(p=p, n=n).passed


# --------------------------------------------------------- trajectories


def test_trajectory_validation():
    with pytest.raises(ValueError):
        S.convergence_trajectory(TWO_POINT, G1, 1.0, [100, 100], "crude", 2000, 0)
    with pytest.raises(ValueError):
        S.convergence_trajectory(TWO_POINT, G1, 1.0, [], "crude", 2000, 0)
    with pytest.raises(ValueError):
        S.convergence_trajectory(TWO_POINT, G1, 1.0, [100], "exact", 2000, 0)


def test_trajectory_band_is_degenerate_for_symmetric_design():
    m = md.make_designed_tail(1.0, 1.0, G1)
    traj = S.convergence_trajectory(m, G1, 1.0, [100, 200], "crude", 2000, 2)
    assert traj.rate_limsup == traj.rate_liminf
    assert traj.rate_limsup == -min(1.0 / (2.0 * m.sigma2), 0.5)
    assert [p.n for p in traj.points] == [100, 200]
    assert all(p.error is None and len(p.estimates) == 1 for p in traj.points)


def test_trajectory_band_falls_back_to_computed_exponents_off_the_design_scale():
    # designed on t^2 but run on t: the design exponents do not apply, and at
    # x = 2 they would cap the band at -1/2
    m = md.make_designed_tail(1.0, 0.5, md.power_scale(2.0))
    traj = S.convergence_trajectory(m, G1, 2.0, [100], "crude", 1000, 3)
    spec = md.RateSpec(sigma2=m.sigma2, rho=G1.rho, exps=md.exponents_from_tail(m, G1))
    assert traj.rate_limsup == md.rate_limsup(spec, 2.0, "upper")
    assert traj.rate_liminf == md.rate_liminf(spec, 2.0, "upper")
    design = md.RateSpec(sigma2=m.sigma2, rho=G1.rho, exps=m.design_exponents)
    assert traj.rate_limsup != md.rate_limsup(design, 2.0, "upper")


def test_trajectory_survives_per_point_estimator_failure():
    traj = S.convergence_trajectory(TWO_POINT, G1, 2.5, [10, 100], "tilted", 2000, 2)
    first, second = traj.points
    assert first.estimates == () and first.error is not None
    assert "support" in first.error
    assert second.error is None and len(second.estimates) == 1


def test_trajectory_with_infinite_variance_pins_zero_band():
    traj = S.convergence_trajectory(md.pareto(1.5), G1, 1.0, [100], "crude", 2000, 2)
    assert traj.rate_limsup == 0.0 and traj.rate_liminf == 0.0
    assert "infinite_variance_band" in traj.flags


def test_trajectory_split_records_both_estimates():
    traj = S.convergence_trajectory(TWO_POINT, G1, 1.0, [100], "split", 2000, 2)
    (pt,) = traj.points
    assert [e.method for e in pt.estimates] == ["split", "conditional-lower"]


# --------------------------------------------------------- determinism


def test_worker_count_never_changes_results():
    runs = {
        "crude": lambda w: S.crude_mc(
            md.pareto(3.0), G1, n=1000, x=1.0, reps=50_000, seed=9, workers=w
        ),
        "tilted": lambda w: S.tilted_mc_truncated(
            TWO_POINT, G1, n=30, x=0.5, reps=50_000, seed=9, workers=w
        ),
        "signs": lambda w: S.bounded_array_mc(
            S.unit_sign_array(G1), G1, n=1000, r=1.0, reps=50_000, seed=9, workers=w
        ),
    }
    for label, fn in runs.items():
        serial = fn(1)
        threaded = fn(4)
        assert serial.p_hat == threaded.p_hat, label
        assert serial.stderr == threaded.stderr, label

"""Law catalog behavior: tails, atoms, moments, samplers, designed envelopes."""

import math

import numpy as np
import pytest
from numpy.random import PCG64DXSM, Generator, SeedSequence
from scipy.integrate import quad
from scipy.special import erfcx

import mdtail as md
from mdtail import simulate, tails
from mdtail.tails import _tail_mean_u, _tail_second_moment_u, catalog, model_from_spec

CATALOG = catalog()
CUT_NS = (62, 100, 1000, 10000)
# the reference helpers below call scipy's quad; one that stops short of its
# tolerance fails the test instead of returning a silent number
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")


def test_catalog_shape():
    labels = [entry.model.label for entry in CATALOG]
    assert len(labels) == 9
    assert len(set(labels)) == 9
    assert "gaussian" in labels and "two_point" in labels
    assert any(lbl.startswith("oscillating") for lbl in labels)


def test_survival_is_monotone_and_bounded():
    for entry in CATALOG:
        m = entry.model
        ts = np.geomspace(max(m.t0 * 0.5, 1e-3), 1e6, 400)
        vals = np.array([m.right_tail(float(t)) for t in ts])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15), m.label


def test_survival_rejects_negative_threshold():
    m = md.two_point()
    for tail in (m.right_tail, m.left_tail):
        with pytest.raises(ValueError):
            tail(-0.5)
        with pytest.raises(ValueError):
            tail(np.array([1.0, -0.5]))


def test_tails_return_a_float_for_a_scalar():
    m = md.pareto(3.0)
    for tail in (m.right_tail, m.left_tail):
        for t in (10.0, 3, np.float64(10.0), np.array(10.0)):
            assert type(tail(t)) is float
        out = tail(np.array([10.0, 20.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_two_point_pointwise_probabilities():
    m = md.two_point()
    assert m.right_tail(0.5) == 0.5
    assert m.right_tail(1.0) == 0.0
    assert m.prob_greater(np.array([-1.5]))[0] == 1.0
    assert m.prob_greater(np.array([-1.0]))[0] == 0.5
    assert m.prob_greater(np.array([0.0]))[0] == 0.5
    assert m.prob_greater(np.array([1.0]))[0] == 0.0
    assert m.atoms == ((-1.0, 0.5), (1.0, 0.5))


def test_moments_match_recorded_values():
    # Second moments via tail integrals must agree with the recorded values.
    for entry in CATALOG:
        m = entry.model
        mean, var = md.moments(m)
        assert math.isclose(mean, m.mu, rel_tol=5e-3, abs_tol=5e-4), m.label
        assert math.isfinite(m.sigma2)
        second_recorded = m.sigma2 + m.mu**2
        second_tonelli = var + mean**2
        assert math.isclose(second_tonelli, second_recorded, rel_tol=5e-3), m.label


def test_moments_recover_recorded_values_tightly():
    # moments() is the independent check of each law's recorded mu and
    # sigma2; pareto(2.5) loses 4e-6 of its second moment beyond the 1e12
    # probe horizon, so it gets the looser tolerance
    for entry in CATALOG:
        m = entry.model
        rel = 1e-5 if m.label == "pareto(2.5)" else 1e-9
        mean, var = md.moments(m)
        assert math.isclose(mean, m.mu, rel_tol=rel, abs_tol=1e-12), m.label
        assert math.isclose(var, m.sigma2, rel_tol=rel), m.label


def test_moments_divergence_reports_infinite_variance():
    mean, var = md.moments(md.pareto(1.5))
    assert math.isclose(mean, 3.0, rel_tol=1e-6)
    assert math.isinf(var)
    assert math.isinf(md.pareto(1.5).sigma2)


def test_pareto_closed_form_moments():
    m = md.pareto(3.0)
    assert math.isclose(m.mu, 1.5, rel_tol=1e-15)
    assert math.isclose(m.sigma2, 0.75, rel_tol=1e-15)
    assert math.isclose(m.right_tail(10.0), 1e-3, rel_tol=1e-12)


def test_sampler_agrees_with_survival():
    n = 10**6
    for entry in CATALOG:
        m = entry.model
        xs = m.sample(seed=11, n=n)
        for t in (m.t0, 2.0 * m.t0, 5.0 * m.t0):
            p = m.right_tail(float(t))
            if not 1e-5 < p < 1.0 - 1e-5:
                continue
            hat = np.count_nonzero(xs > t) / n
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(hat - p) <= 4.0 * se, (m.label, t)


def test_two_point_sample_mean_envelope():
    xs = md.two_point().sample(seed=1234, n=10**6)
    assert set(np.unique(xs)) == {-1.0, 1.0}
    assert abs(xs.mean()) <= 4.0 / math.sqrt(10**6)


def test_sampling_is_deterministic_per_seed():
    m = md.pareto(3.0)
    a = m.sample(seed=5, n=1000)
    b = m.sample(seed=5, n=1000)
    c = m.sample(seed=6, n=1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        m.sample(seed=5, n=0)


def test_rng_stream_is_pcg64dxsm_keyed_by_seed_sequence():
    # every estimate with seed s draws from the stream (s, (0,)), and the
    # split's lower bracket from (s + 1, (0,)): each must be its own stated stream
    for seed in (0, 5, 2**64 - 1):
        stated = Generator(PCG64DXSM(SeedSequence(seed, spawn_key=(0,))))
        assert tails._rng_stream(seed).random(64).tobytes() == stated.random(64).tobytes()
    # the seed is taken mod 2^64, so a negative seed is masked
    masked = tails._rng_stream(2**64 - 5).random(64)
    assert tails._rng_stream(-5).random(64).tobytes() == masked.tobytes()
    firsts = {tails._rng_stream(s).random(8).tobytes() for s in (9, 10, 11)}
    assert len(firsts) == 3


def test_samplers_consume_their_stream_in_order():
    # sample(seed, n) maps the first n uniforms of one stream: a shorter
    # sample is a prefix of a longer one, bit for bit
    for entry in CATALOG:
        short = entry.model.sample(seed=7, n=37)
        whole = entry.model.sample(seed=7, n=1037)
        assert short.tobytes() == whole[:37].tobytes(), entry.model.label


def test_uniform_maps_act_value_by_value():
    # the crude screen maps only some rows' uniforms: a value must not depend
    # on which other uniforms share its call, or on their order
    # uniforms of the crude kernel's top cell, built as it builds them, close the list
    fine = PCG64DXSM(SeedSequence(3, spawn_key=(2,))).random_raw(16)
    top = (np.uint64(0xFFFF << 37) | fine >> 27) * 2.0**-53
    u = np.concatenate(
        (tails._rng_stream(3).random(20_000), [0.0, 0.25, 0.5, 1.0 - 2.0**-53], top)
    )
    pick = Generator(PCG64DXSM(SeedSequence(3, spawn_key=(1,)))).permutation(u.size)[:777]
    # the second crude screen maps a row's few loose values per call: single
    # values and calls shorter than a SIMD width, at the ends of u and inside
    # it, and each of the last 20 (the fixed and top-cell uniforms) alone
    short = [(a, a + size) for size in range(1, 8) for a in (0, 9_999, 20_000, u.size - size)]
    short += [(j, j + 1) for j in range(u.size - 20, u.size)]
    for entry in CATALOG:
        m = entry.model
        full = m.from_uniform(u)
        assert m.sample(seed=3, n=20_000).tobytes() == full[:20_000].tobytes()
        assert m.from_uniform(u[pick]).tobytes() == full[pick].tobytes(), m.label
        assert m.from_uniform(u[::-1].copy()).tobytes() == full[::-1].tobytes(), m.label
        for a, b in short:
            assert m.from_uniform(u[a:b].copy()).tobytes() == full[a:b].tobytes(), (m.label, a, b)
        assert all(0.0 < b < 1.0 for b in m.uniform_breaks), m.label


def test_designed_tail_matches_envelope_form_far_out():
    g1 = md.power_scale(1.0)
    g2 = md.power_scale(2.0)
    for lam_p, lam_m, g in ((1.0, 1.0, g1), (0.5, 2.0, g1), (1.0, 0.5, g2)):
        m = md.make_designed_tail(lam_p, lam_m, g)
        log_q_r = math.log(m.right_tail(m.t0))
        for t in (1e6, 1e8, 1e10):
            u = math.log(t)
            got = float(m.log_right_tail_u(np.array([u]))[0])
            want = min(log_q_r, -2.0 * u - lam_p * g.eval(u))
            assert abs(got - want) <= 1e-3, (m.label, t)


ORACLE_CONSTANTS = {
    # label: float.hex() of (sigma2, core atom location, core atom mass, right_tail(t0))
    "designed(1,1;t)": (
        "0x1.1a880a8a1903ep+1", "0x0.0p+0", "0x1.cd049e66629eap-1", "0x1.97db0ccceb0afp-5",
    ),
    "designed(0.5,2;t)": (
        "0x1.b41ac4a31d6e6p+1", "-0x1.5bbf32e0db739p-2", "0x1.cc9849a2c5793p-1", "0x1.50385c094f425p-4",
    ),
    "designed(1,0.5;t^2)": (
        "0x1.093edf19750c3p+1", "0x1.51edc33522fb1p-3", "0x1.bc7b43b207670p-1", "0x1.97db0ccceb0afp-5",
    ),
    "designed(inf,1;t)": (
        "0x1.2c5a0cadbc72cp+0", "0x1.a199b9a1476a9p-3", "0x1.e4d43fe49199dp-1", "0x1.ae0f4e9fb5822p-9",
    ),
    "oscillating(0.5,2;t;x3)": (
        "0x1.19b1c8c831d4cp+1", "0x0.0p+0", "0x1.abf1e8fdac2f7p-1", "0x1.50385c094f425p-4",
    ),
}


def test_oracle_constants_are_pinned_bit_for_bit():
    t, t2 = md.power_scale(1.0), md.power_scale(2.0)
    models = (
        md.make_designed_tail(1.0, 1.0, t),
        md.make_designed_tail(0.5, 2.0, t),
        md.make_designed_tail(1.0, 0.5, t2),
        md.make_designed_tail(math.inf, 1.0, t),
        md.make_oscillating_tail(0.5, 2.0, t, 3.0),
    )
    assert [m.label for m in models] == list(ORACLE_CONSTANTS)
    for m in models:
        ((loc, mass),) = m.atoms
        got = tuple(float(v).hex() for v in (m.sigma2, loc, mass, m.right_tail(m.t0)))
        assert got == ORACLE_CONSTANTS[m.label], m.label


# ------------------------------------------------ tail integrals in u = log t


def _quad_tail_integral(log_tail_u, power, edges, epsabs):
    """Reference: scipy's quad over the scalar integrand, panel by panel."""

    def integrand(u):
        e = power * u + float(log_tail_u(np.asarray([u]))[0])
        return math.exp(e) if e > -745.0 else 0.0

    return [quad(integrand, a, b, limit=200, epsabs=epsabs, epsrel=1e-11)[0]
            for a, b in zip(edges[:-1], edges[1:])]


def _quad_tail_mean(log_tail_u, u_lo, u_breaks=()):
    top = tails._U_QUAD_MAX
    edges = sorted(set(np.linspace(u_lo, top, 24)) | {b for b in u_breaks if u_lo < b < top})
    return sum(_quad_tail_integral(log_tail_u, 1, edges, 1e-14))


def _quad_tail_second_moment(log_tail_u, u_lo, u_breaks=()):
    decade = math.log(10.0)
    probe = tails._U_DIVERGENCE_PROBE
    inner = [k * decade for k in range(math.ceil(u_lo / decade), 13) if u_lo < k * decade < probe - 1e-9]
    inner = sorted(set(inner) | {b for b in u_breaks if u_lo < b < probe})
    return sum(2.0 * v for v in _quad_tail_integral(log_tail_u, 2, [u_lo, *inner, probe], 0.5e-13))


def _cut_levels(model):
    """The truncation levels c_n at CUT_NS on the catalog's scale g(u) = u."""
    return [simulate.plan_truncation(model, md.power_scale(1.0), n).c_n for n in CUT_NS]


def test_prob_greater_on_the_restricted_grid():
    # the discretization grid spans the left half-line and each designed
    # law's core, where prob_greater leaves the analytic tail forms
    for entry in CATALOG:
        m = entry.model
        for n in CUT_NS:
            plan = simulate.plan_truncation(m, md.power_scale(1.0), n)
            c = plan.c_n
            edges = np.linspace(-c, c, simulate._CELLS + 1)
            sf = m.prob_greater(edges)
            assert np.all((sf >= 0.0) & (sf <= 1.0)), (m.label, n)
            assert np.all(np.diff(sf) <= 0.0), (m.label, n)
            for a, mass in m.atoms:
                idx = int(np.searchsorted(edges, a, side="left")) - 1
                if 0 <= idx < simulate._CELLS:
                    # the drop and the mass are rounded apart, by an ulp or so
                    assert sf[idx] - sf[idx + 1] >= mass - 1e-15, (m.label, n, a)
            masses = simulate._restricted_law(m, c)[1]
            assert math.isclose(masses.sum(), 1.0 - plan.p_n, rel_tol=0.0, abs_tol=1e-12), (m.label, n)


@pytest.mark.parametrize("alpha", [3.0, 2.2])
def test_tail_integrals_match_pareto_closed_forms(alpha):
    m = md.pareto(alpha)
    for c in [1.0, *_cut_levels(m)]:
        u = math.log(c)
        # int_c^T t^-alpha dt and int_c^T 2 t^(1-alpha) dt, T the quadrature
        # horizon: 1e15 for the mean, the 1e12 divergence probe for the second
        mean = (c ** (1 - alpha) - math.exp((1 - alpha) * tails._U_QUAD_MAX)) / (alpha - 1)
        second = 2 * (c ** (2 - alpha) - math.exp((2 - alpha) * tails._U_DIVERGENCE_PROBE)) / (alpha - 2)
        assert math.isclose(_tail_mean_u(m.log_right_tail_u, u), mean, rel_tol=1e-13), c
        got, diverging = _tail_second_moment_u(m.log_right_tail_u, u)
        assert math.isclose(got, second, rel_tol=1e-13), c
        assert not diverging


def test_tail_mean_matches_the_gaussian_closed_form():
    m = md.gaussian()
    for n, c in zip(CUT_NS[1:], _cut_levels(m)[1:]):
        # int_c^inf Q(t) dt = phi(c) - c Q(c), with Q(c) = erfcx(c/sqrt 2) phi(c) sqrt(pi/2)
        want = math.exp(-0.5 * c * c) * (1.0 / math.sqrt(2.0 * math.pi) - 0.5 * c * erfcx(c / math.sqrt(2.0)))
        got = _tail_mean_u(m.log_right_tail_u, math.log(c))
        # At n = 1e4 the value is 2.3e-81, far under the absolute tolerance
        # 1e-14, so every panel passes its check and the 48-point sum stands;
        # it is 3.9e-8 off (scipy's quad alone is 0.6% off there).
        assert math.isclose(got, want, rel_tol=1e-10 if n < 10000 else 1e-7), n


def test_tail_breaks_are_the_atoms_t0_and_the_schedule_kinks():
    for entry in CATALOG:
        m = entry.model
        atoms = sorted(math.log(abs(a)) for a, _ in m.atoms if a != 0.0)
        if m.label.startswith(("gaussian", "two_point", "pareto")):
            # t0 = 1, and two_point's atoms sit at |a| = 1 too
            assert m.tail_breaks == (0.0,), m.label
        elif m.oscillation is None:
            assert m.tail_breaks == (*atoms, 1.0), m.label
        else:
            assert m.tail_breaks == (1.0, 3.0, 12.0, 27.0, 81.0, 324.0, 729.0, 2187.0, 8748.0)
            assert m.tail_breaks == m.oscillation.u_start and not atoms
            # the slope of the log-survival changes at every segment start
            u, h = np.asarray(m.tail_breaks[1:]), 1e-5
            f = m.log_right_tail_u
            assert np.all(np.abs((f(u + h) - 2.0 * f(u) + f(u - h)) / h) > 0.4)
    # the tlog scale kinks at u = e, beyond u0 = log 2
    m = md.make_designed_tail(0.5, 2.0, md.power_log_scale(), t0=2.0)
    assert m.tail_breaks[-1] == math.e
    # at t0 = 1.0001 both sides of designed(1,1;t) sit at their cap of 1/4
    # until w(u) = 2u + u = log 4, so the survival kinks at u* = log(4)/3
    m = md.make_designed_tail(1.0, 1.0, md.power_scale(1.0), t0=1.0001)
    u0, u_star = m.tail_breaks
    assert u0 == math.log(1.0001) and m.atoms[0][0] == 0.0
    assert abs(u_star - math.log(4.0) / 3.0) <= 1e-12


def test_a_panel_over_an_undeclared_kink_is_halved_and_a_jump_raises(monkeypatch):
    # without its breaks the oscillating law's log-survival kinks inside
    # panels, whose 48- and 24-point sums then disagree: with halving turned
    # off they raise, with it the pieces meet the tolerance; either way the
    # sums match scipy's quad
    m = md.make_oscillating_tail(0.5, 2.0, md.power_scale(1.0), 3.0)
    f, breaks = m.log_right_tail_u, m.tail_breaks
    for c in _cut_levels(m):
        u = math.log(c)
        for u_breaks in ((), breaks):
            got = _tail_mean_u(f, u, u_breaks)
            assert math.isclose(got, _quad_tail_mean(f, u, breaks), rel_tol=1e-12), c
            got = _tail_second_moment_u(f, u, u_breaks)[0]
            assert math.isclose(got, _quad_tail_second_moment(f, u, breaks), rel_tol=1e-12), c
        monkeypatch.setattr(tails, "_MAX_HALVINGS", 0)
        for integral in (_tail_mean_u, _tail_second_moment_u):
            with pytest.raises(ValueError, match=r"panel \[\S+, \S+\] misses its tolerance after 0 halvings"):
                integral(f, u)
            integral(f, u, breaks)
        monkeypatch.undo()
    # two_point's survival drops from 1/2 to 0 at u = 0, inside the mean's
    # first panel from u = -1: no halving resolves a jump
    with pytest.raises(ValueError, match=r"after 50 halvings near u = -?\d\S*: a jump there is missing"):
        _tail_mean_u(md.two_point().log_right_tail_u, -1.0)


_SWEEP_SCALES = {"t": md.power_scale(1.0), "t^2": md.power_scale(2.0), "log": md.log_scale(), "tlog": md.power_log_scale()}


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda e=e: (e.model, e.scale), id=e.model.label) for e in CATALOG),
    *(pytest.param(lambda g=g, t0=t0: (md.make_designed_tail(2.0, math.inf, g, t0=t0), g), id=f"designed-{k}-{t0:g}")
      for k, g in _SWEEP_SCALES.items() for t0 in (1.0001, 1.5, 2.0, math.e)),
    *(pytest.param(lambda g=_SWEEP_SCALES[k], u0=u0: (md.make_oscillating_tail(0.5, 2.0, g, 3.0, u0=u0), g),
                   id=f"oscillating-{k}-{u0:g}")
      for k in ("t", "tlog") for u0 in (0.5, 1.0, 2.0)),
])
def test_every_panel_of_a_nameable_law_meets_its_tolerance(build, monkeypatch):
    # every catalog law, and a designed law on any preset scale at a t0 where
    # q is capped or where the scale kinks beyond t0, lists every kink of its
    # log-survivals, so its construction, moments and truncation plans on
    # its own scale halve no panel
    monkeypatch.setattr(tails, "_MAX_HALVINGS", 0)
    m, g = build()
    mean, var = md.moments(m)
    for n in CUT_NS:
        simulate.plan_truncation(m, g, n)
    if m.label.startswith(("designed", "oscillating")):
        # sigma2 sums the sides' tail integrals from t0 up, on their own breaks
        assert abs(mean) < 1e-12 and math.isclose(var, m.sigma2, rel_tol=1e-12), m.label


@pytest.mark.parametrize(("lam", "rho", "t0", "want"), [
    # sigma2 to the 1e12 probe horizon by mpmath's quad at 30 digits
    (10.0, 0.5, 1.0001, 0.56729839197917357297),
    (10.0, 0.5, 1.02, 0.53679429900152024566),
    (10.0, 0.5, 1.0202, 0.53321218471957725413),
    (10.0, 0.5, math.e, 0.00013075179771595640616),
    (2.0, 0.5, 1.2, 2.2927586492198860381),
    (10.0, 1.5, 1.0202, 0.94404222729748927461),
    (100.0, 2.5, 1.02, 0.75350078021951888827),
])
def test_panels_near_a_branch_point_or_a_steep_fall_are_halved_to_tolerance(lam, rho, t0, want):
    # u^rho has a branch point at u = 0, a few hundredths below u0 (or the
    # cap kink) for t0 near 1, and with lambda = 100 the survival falls by
    # e^-700 across the first decade panel; no break can be stated for
    # either, so the panels are halved until their pieces pass
    g = md.power_scale(rho)
    m = md.make_designed_tail(lam, lam, g, t0=t0)
    assert math.isclose(m.sigma2, want, rel_tol=1e-13), m.sigma2
    mean, var = md.moments(m)
    assert abs(mean) < 1e-12 and math.isclose(var, m.sigma2, rel_tol=1e-12)
    for n in CUT_NS:
        assert simulate.plan_truncation(m, g, n).mu_n == 0.0


def test_atom_breaks_keep_the_two_point_recentering_exact():
    # with g = (log n)^4 the cut sits below the atoms at +-1, so the tail
    # integrals carry a break at u = 0 where the survival drops from 1/2 to 0
    plan = simulate.plan_truncation(md.two_point(), md.power_scale(4.0), 100)
    c = plan.c_n
    assert c < 1.0
    assert plan.mu_n == 0.0
    got = _tail_mean_u(md.two_point().log_right_tail_u, math.log(c), [0.0])
    assert math.isclose(got, 0.5 * (1.0 - c), rel_tol=1e-14)


@pytest.mark.parametrize("preset", [
    {"preset": "pareto", "alpha": 3},
    {"preset": "designed", "lambda_plus": 0.5, "lambda_minus": 2, "scale": {"kind": "power"}},
    {"preset": "gaussian"},
    {"preset": "two_point"},
    {"preset": "designed", "lambda_plus": 3, "lambda_minus": 2, "scale": {"kind": "log"}, "t0": 2},
    {"preset": "designed", "lambda_plus": 0.5, "lambda_minus": 2, "scale": {"kind": "tlog"}, "t0": 2},
    {"preset": "designed", "lambda_plus": 1, "lambda_minus": 0.5, "scale": {"kind": "power"}, "t0": 1.0001},
])
def test_truncation_recentering_matches_the_quad_reference(preset, monkeypatch):
    m = model_from_spec(preset)
    g = md.power_scale(1.0)
    got = [simulate.plan_truncation(m, g, n).mu_n for n in CUT_NS]
    monkeypatch.setattr(simulate, "_tail_mean_u", _quad_tail_mean)
    want = [simulate.plan_truncation(m, g, n).mu_n for n in CUT_NS]
    for n, a, b in zip(CUT_NS, got, want):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (m.label, n)


def test_designed_tail_is_centered_with_recorded_variance():
    g = md.power_scale(1.0)
    m = md.make_designed_tail(0.5, 2.0, g)
    assert m.mu == 0.0
    mean, var = md.moments(m)
    assert abs(mean) < 1e-9
    assert math.isclose(var, m.sigma2, rel_tol=5e-3)
    assert len(m.atoms) == 1
    assert abs(m.atoms[0][0]) < m.t0


def test_designed_tail_cap_keeps_survival_below_quarter():
    g = md.power_scale(1.0)
    m = md.make_designed_tail(1.0, 1.0, g, t0=1.0001)
    assert m.right_tail(m.t0) <= 0.25 + 1e-12


def test_designed_tail_rejections():
    g = md.power_scale(1.0)
    with pytest.raises(ValueError):
        md.make_designed_tail(-1.0, 1.0, g)
    with pytest.raises(ValueError):
        md.make_designed_tail(float("nan"), 1.0, g)
    with pytest.raises(ValueError):
        md.make_designed_tail(1.0, 1.0, g, t0=1.0)
    # second moment diverges when the decay exponent on a log scale is <= 1
    with pytest.raises(ValueError):
        md.make_designed_tail(0.5, 0.5, md.log_scale())


def test_laws_that_start_beyond_the_probe_horizon_are_rejected():
    # the second-moment integral is probed up to t = 1e12; a law whose tail
    # form starts there would be integrated backwards (sigma2 3.2e-9 at
    # t0 = 1e13, nan at 1e200, -2.2e-24 at u0 = 50)
    g = md.power_scale(1.0)
    for t0 in (1e12, 1e13, 1e200):
        with pytest.raises(ValueError, match="below 1e12"):
            md.make_designed_tail(0.5, 2.0, g, t0=t0)
    for u0 in (math.log(1e12), 50.0, 500.0):
        with pytest.raises(ValueError, match=r"below log\(1e12\)"):
            md.make_oscillating_tail(0.5, 2.0, g, 3.0, u0=u0)
    for u_lo in (math.log(1e12), 50.0):
        with pytest.raises(ValueError, match="probe horizon"):
            _tail_second_moment_u(lambda u: -3.0 * np.asarray(u), u_lo)


def test_designed_infinite_exponent_uses_gaussian_side():
    g = md.power_scale(1.0)
    m = md.make_designed_tail(math.inf, 1.0, g)
    from scipy.special import ndtr

    t = 3.0
    q_scale = m.right_tail(m.t0) / float(ndtr(-m.t0))
    assert math.isclose(m.right_tail(t), q_scale * float(ndtr(-t)), rel_tol=1e-9)
    assert m.design_exponents.lam1_bar == math.inf
    assert m.design_exponents.lam_bar == 1.0


def test_oscillating_schedule_block_structure():
    g = md.power_scale(1.0)
    m = md.make_oscillating_tail(0.5, 2.0, g, 3.0)
    sched = m.oscillation
    assert sched.lows == (1.0, 27.0, 729.0, 19683.0)
    assert sched.peaks == (3.0, 81.0, 2187.0)
    assert m.design_grid.u_min == 1.0
    assert m.design_grid.u_max == 19683.0
    assert m.design_grid.spacing == "geometric"


def test_oscillating_alternates_between_envelopes():
    # At block lows the tail sits on the shallow envelope, at peaks on the
    # steep one; both within 5% in log space.
    g = md.power_scale(1.0)
    m = md.make_oscillating_tail(0.5, 2.0, g, 3.0)
    sched = m.oscillation
    for u in sched.lows[1:]:
        got = float(m.log_right_tail_u(np.array([u]))[0])
        want = -2.0 * u - 0.5 * g.eval(u)
        assert abs(got - want) <= 0.05 * abs(want), ("low", u)
    for u in sched.peaks:
        got = float(m.log_right_tail_u(np.array([u]))[0])
        want = -2.0 * u - 2.0 * g.eval(u)
        assert abs(got - want) <= 0.05 * abs(want), ("peak", u)


def test_oscillating_rejections():
    g = md.power_scale(1.0)
    with pytest.raises(ValueError):
        md.make_oscillating_tail(2.0, 0.5, g, 3.0)
    with pytest.raises(ValueError):
        md.make_oscillating_tail(0.5, 2.0, g, 1.0)
    with pytest.raises(ValueError):
        md.make_oscillating_tail(0.5, 2.0, g, 3.0, u0=0.0)


def test_model_from_spec_presets():
    m = model_from_spec({"preset": "pareto", "alpha": 3})
    assert m.label == "pareto(3)"
    m = model_from_spec(
        {
            "preset": "designed",
            "lambda_plus": 0.5,
            "lambda_minus": "inf",
            "scale": {"kind": "power", "rho": 1.0},
        }
    )
    assert m.design_exponents.lam2_bar == math.inf
    m = model_from_spec(
        {
            "preset": "oscillating",
            "lambda_lo": 0.5,
            "lambda_hi": 2.0,
            "block_growth": 3.0,
            "scale": {"kind": "power", "rho": 1.0},
        }
    )
    assert m.oscillation is not None


def test_model_from_spec_rejections():
    with pytest.raises(ValueError):
        model_from_spec({"preset": "mystery"})
    with pytest.raises(ValueError):
        model_from_spec({"preset": "pareto"})
    with pytest.raises(ValueError):
        model_from_spec({"preset": "gaussian", "alpha": 2})
    with pytest.raises(ValueError):
        model_from_spec({"preset": "designed", "scale": {"kind": "power"}})
    with pytest.raises(ValueError):
        model_from_spec({"preset": "designed", "lambda_plus": 1, "lambda_minus": "huge",
                         "scale": {"kind": "power"}})


def test_pareto_design_metadata():
    assert md.pareto(2.5).design_scale_label == "t"
    assert md.pareto(2.5).design_exponents.lam1_bar == 0.5
    assert md.pareto(1.5).design_exponents is None
    with pytest.raises(ValueError):
        md.pareto(1.0)

"""Extract tail exponents three ways and compare.

1. window route: limits of exponent windows along the analytic tail
2. sup route: a single running-supremum pass over a coarse r-grid
3. empirical route: the same machinery on simulated samples
"""

import mdtail as md

g = md.power_scale(1.0)
m = md.make_oscillating_tail(0.5, 2.0, g, 3.0)

window = md.exponents_from_tail(m, g)
sup = md.exponents_sup_form(m, g)

print(f"model: {m.label}")
print(f"designed:  {m.design_exponents}")
print(f"window:    {window}")
print(f"sup-form:  {sup}")
print()
print("the limsup-flavored exponent tracks the shallow envelope (0.5) and the")
print("liminf-flavored one the steep envelope (2.0); the two-sided values pick")
print("up a log(2) finite-window correction because both sides carry mass.")
print()

# empirical route needs a lot of samples before the top of the grid has
# enough exceedances to say anything
for n in (10**5, 10**6):
    xs = md.pareto(3.0).sample(seed=7, n=n)
    emp = md.empirical_exponents(xs, g)
    e = emp.exps
    print(f"pareto(3), {n:>8d} draws: lam1 window ({e.lam1_bar:.3f}, {e.lam1_under:.3f})"
          f"  exceedances at top {emp.exceedances_at_max}  flags {emp.flags}")

print()
print("prediction arithmetic: with rho=1 the normalized tail limit is")
print("-min(x^2/2sigma^2, lam/2); the exponent pair feeds straight in:")
pred = md.scaled_tail_predictions(window, rho=1.0)
print(f"  limsup branch {pred.sqrt_tg_limsup:+.4f}, liminf branch {pred.sqrt_tg_liminf:+.4f}")

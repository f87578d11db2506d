"""Extract tail exponents two ways and compare, then read the plateau they set.

1. window route: limits of exponent windows along the analytic tail
2. sup route: a single running-supremum pass over a coarse r-grid
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

print("prediction arithmetic: with rho=1 the normalized tail limit is")
print("-min(x^2/2sigma^2, lam/2); far past the kink only the plateau -lam/2 is left:")
spec = md.RateSpec(m.sigma2, g.rho, window)
print(f"  limsup branch {md.rate_limsup(spec, 1e3):+.4f}, liminf branch {md.rate_liminf(spec, 1e3):+.4f}")

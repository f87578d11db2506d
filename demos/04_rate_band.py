"""Rate functions and regime classification for a few representative laws."""

import math

import mdtail as md
from mdtail.rate import Regime


def print_curve(spec, xs):
    print("x,rate_limsup,rate_liminf")
    for x in xs:
        print(f"{x:g},{md.rate_limsup(spec, x):g},{md.rate_liminf(spec, x):g}")
    print()


g = md.power_scale(1.0)

# symmetric designed tail: limsup and liminf rates coincide
m = md.make_designed_tail(1.0, 1.0, g)
spec = md.RateSpec(m.sigma2, g.rho, md.exponents_from_tail(m, g))
print(f"{m.label} (sigma2={m.sigma2:.3f})")
print_curve(spec, [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0])

# oscillating tail: the band is genuinely two curves
m = md.make_oscillating_tail(0.5, 2.0, g, 3.0)
spec = md.RateSpec(m.sigma2, g.rho, m.design_exponents)
print(f"{m.label} (sigma2={m.sigma2:.3f})")
print_curve(spec, [0.5, 1.0, 2.0, 5.0, 10.0])

print("small x is always the quadratic branch; past the kink the tail")
print("exponent takes over and the curves go flat.")
print()

cases = [
    ("gaussian, matched mean", 1.0, True, (math.inf, math.inf)),
    ("gaussian, shifted mean", 1.0, False, (math.inf, math.inf)),
    ("infinite variance", math.inf, True, (0.0, 0.0)),
    ("degenerate constant", 0.0, True, (math.inf, math.inf)),
    ("sub-quadratic tail", 1.0, True, (0.0, 0.0)),
    ("oscillating exponents", 1.0, True, (0.0, 2.0)),
]
print("classifier:")
for name, sigma2, matches, (b, u) in cases:
    exps = md.TailExponents(b, u, b, u, b, u)
    regime = md.classify(sigma2, matches, exps)
    print(f"  {name:24s} -> {regime.name}")
assert md.classify(1.0, True, md.TailExponents(*[1.0] * 6)) is Regime.BOUNDED_NONZERO_LIMINF_TOO

"""Exact rational-arithmetic checks of the maximal and maximum inequalities,
plus the exponential envelopes on a concrete sign array."""

import math
from fractions import Fraction as F

import mdtail as md
from mdtail import simulate as S

law = ((F(-1), F(1, 2)), (F(1), F(1, 2)))
print("median-corrected maximal inequalities for n fair signs, t = 1/2:")
for n in (2, 3, 4, 5):
    (r,) = S.levy_maximal_sweep(law, n=n, thresholds=[F(1, 2)])
    print(f"  n={n}: increment side {r.increment_side} <= {r.increment_bound}"
          f"   prefix side {r.prefix_side} <= {r.prefix_bound}   passed={r.passed}")

skew = ((F(-1), F(1, 2)), (F(0), F(3, 10)), (F(2), F(1, 5)))
print("an asymmetric three-point law, swept over thresholds at n=4:")
for r in S.levy_maximal_sweep(skew, n=4, thresholds=[F(-2), F(0), F(2), F(4)]):
    print(f"  t={str(r.t):>3s}: {str(r.prefix_side):>12s} <= {str(r.prefix_bound):>12s}  passed={r.passed}")
print()

print("maximum lower bound min(1, n*p)/2 <= 1-(1-p)^n on a few corners:")
for p, n in ((0.0, 10), (1e-9, 10**6), (0.5, 1), (1.0, 3)):
    failures = S.max_lower_bound_sweep([p], [n])
    print(f"  p={p:<8g} n={n:<8d} failures={failures}")
failures = S.max_lower_bound_sweep([k / 100 for k in range(101)], range(1, 501))
print(f"  grid sweep: {failures} failures")
print()

# the exponential envelopes around a concrete bounded sign array
g = md.power_scale(1.0)
arr = S.unit_sign_array(g)
print("exponential envelopes around a fair sign array, threshold sqrt(n log n):")
print("  the upper bound holds at every n; the floor is an asymptotic statement,")
print("  so the normalized estimate approaches it from below as n grows.")
for n in (1_000, 10_000):
    G = math.log(n)
    x_n = math.sqrt(n * G)
    est = S.bounded_array_mc(arr, g, n=n, r=1.0, reps=400_000, seed=6)
    upper = S.kolmogorov_upper(B_n=float(n), M_n=1.0, x_n=x_n)
    floor = S.kolmogorov_lower(B_n=float(n), x_n=x_n, eps=0.001)
    print(f"  n={n:>6d}: p_hat {est.p_hat:.3e} <= upper {upper:.3e}: {est.p_hat <= upper};"
          f" normalized {est.normalized:.3f} vs floor {math.log(floor) / G:.3f}")

"""Crude MC vs exponential tilting vs the split bounds on a lattice law.

The two-point sign law makes every probability exactly computable from
binomial coefficients, so the three estimators can be judged against the
truth rather than against each other.
"""

import argparse
import math

from scipy.stats import binom

import mdtail as md
from mdtail import simulate as S


def exact_sum_tail(n, threshold):
    # P(sum of n signs > threshold) with heads-tails coding
    k_min = int(math.floor((n + threshold) / 2)) + 1
    return float(binom.sf(k_min - 1, n, 0.5))


parser = argparse.ArgumentParser()
parser.add_argument("--reps", type=int, default=100_000)
parser.add_argument("--workers", type=int, default=4)
args = parser.parse_args()

g = md.power_scale(1.0)
m = md.two_point()
n, x = 100, 1.0
a_n = math.sqrt(n * math.log(n))
print(f"event: sum of {n} signs exceeds x*a_n = {x * a_n:.2f}")
exact = exact_sum_tail(n, x * a_n)
print(f"exact probability {exact:.6e}")
print()

crude = S.crude_mc(m, g, n=n, x=x, reps=args.reps, seed=1, workers=args.workers)
print(f"crude:   p_hat {crude.p_hat:.6e}  stderr {crude.stderr:.2e}")

tilt = S.tilted_mc_truncated(m, g, n=n, x=x / 0.9, reps=args.reps, seed=2,
                             workers=args.workers)
print(f"tilted:  p_hat {tilt.p_hat:.6e}  stderr {tilt.stderr:.2e}"
      f"  (same event, {tilt.stderr / crude.stderr:.2f}x the crude stderr)")

sp = S.split_estimate(m, g, n=n, x=x, reps=args.reps, seed=3, workers=args.workers)
print(f"split:   lower {sp.lower.p_hat:.6e} <= truth <= upper {sp.upper.p_hat:.6e}")
print(f"         (targets are x -/+ eps = {x - sp.eps}, {x + sp.eps})")
print()

print("going deeper, crude MC dies first; tilting keeps the relative error flat:")
for xx in (1.0, 1.5, 2.0, 2.5):
    t = S.tilted_mc_truncated(m, g, n=n, x=xx / 0.9, reps=args.reps, seed=4,
                              workers=args.workers)
    truth = exact_sum_tail(n, xx * a_n)
    rel = t.stderr / t.p_hat if t.p_hat else float("inf")
    print(f"  x={xx:.1f}: exact {truth:.3e}  tilted {t.p_hat:.3e}  rel err {rel:.3f}")

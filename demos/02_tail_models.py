"""Walk the model catalog: survival curves, moments, and sampler sanity.

Run as a script; prints a small table per model. Sampling uses a fixed
seed so the output is stable run to run.
"""

import math

import numpy as np

import mdtail as md


def describe(model, n_samples=200_000, seed=0):
    xs = model.sample(seed=seed, n=n_samples)
    mean_mc = xs.mean()
    print(f"{model.label}")
    print(f"  recorded mu={model.mu:.4f} sigma2={model.sigma2}")
    print(f"  sample mean {mean_mc:+.4f} over {n_samples} draws")
    mean_int, var_int = md.moments(model)
    print(f"  tail-integral moments: mean {mean_int:+.4f}, var {var_int:.4f}")
    for mult in (1.0, 3.0, 10.0):
        t = model.t0 * mult
        p = model.right_tail(t)
        hat = np.count_nonzero(xs > t) / n_samples
        print(f"  P(X > {t:8.3f}) = {p:.3e}   empirical {hat:.3e}")
    print()


for entry in md.catalog():
    describe(entry.model)

# the designed family puts whatever exponent pair you ask for on each side
g = md.power_scale(1.0)
m = md.make_designed_tail(0.5, 2.0, g)
print(f"custom model {m.label}: right tail decays like t^-2 * exp(-0.5*g(log t))")
for t in (10.0, 100.0, 1000.0):
    print(f"  P(X > {t:6.0f}) = {m.right_tail(t):.3e}")

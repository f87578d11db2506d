"""Tour of the scale-function presets and their regular-variation indexes."""

import mdtail as md

for g in (md.power_scale(1.0), md.power_scale(0.5), md.power_scale(2.0),
          md.log_scale(), md.power_log_scale()):
    print(f"{g.label:12s} rho={g.rho:>4}  g(10)={g.eval(10.0):10.3f}  g(100)={g.eval(100.0):12.3f}")

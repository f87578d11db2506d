"""Moderate-deviation tail asymptotics: exponents, rate functions, estimators.

The package studies P(S_n - n*mu > x*sqrt(n*g(log n))) for i.i.d. sums:
`scale` provides the regularly varying scale functions g, `tails` the law
catalog with analytically known tails, `exponents` the windowed tail
exponents on the g-scale, `rate` the limit values and regime classifier,
`simulate` the Monte Carlo estimators and exact inequality verifiers, and
`report` the config-driven experiment runner and CLI.  The package exports
exactly the names each module lists in its own `__all__`.
"""

__version__ = "0.1.0"

from . import exponents, rate, report, scale, simulate, tails
from .scale import *
from .tails import *
from .exponents import *
from .rate import *
from .simulate import *
from .report import *

__all__ = [
    "__version__",
    *scale.__all__,
    *tails.__all__,
    *exponents.__all__,
    *rate.__all__,
    *simulate.__all__,
    *report.__all__,
]

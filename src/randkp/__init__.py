"""Negative-eigenvalue counting for randomly bumped 1-D Schrodinger operators.

The operator is H = -d^2/dx^2 + V - W on the half axis with a Dirichlet
condition at the origin, where V is a random arrangement of rectangular
bumps and W is a nonnegative decaying envelope.  The package samples
realizations, counts negative eigenvalues on truncations by two
independent certified methods, evaluates the closed-form borderline
constants for the decay of W, and runs seeded growth experiments that
exhibit the finite/infinite transition empirically.
"""

__version__ = "0.1.0"

from . import montecarlo, randpot, spectral, theory
from .montecarlo import *  # noqa: F401,F403  (each module's __all__ is the public list)
from .randpot import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .theory import *  # noqa: F401,F403

__all__ = ["__version__", *randpot.__all__, *spectral.__all__, *theory.__all__, *montecarlo.__all__]

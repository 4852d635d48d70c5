"""Reconstruct a particle's density matrix from time-resolved position densities.

The probability density sampled at n+1 discrete times determines the momentum
moments of the phase-space quasi-probability distribution up to order n
through a recursion in which each moment follows from time differentiation
and cumulative integration of the ones below it.  Those moments are the
Taylor coefficients of the position-representation density matrix in the
off-diagonal variable, so truncated reconstructions converge outward from the
diagonal as more observation times are added.

Each public name is declared once, in its module's ``__all__``, and re-exported here.
"""

from . import assembly, numerics, potentials, reconstruction, simulator
from .assembly import *  # noqa: F403
from .numerics import *  # noqa: F403
from .potentials import *  # noqa: F403
from .reconstruction import *  # noqa: F403
from .simulator import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (numerics, potentials, simulator, reconstruction, assembly)
    for name in module.__all__
]

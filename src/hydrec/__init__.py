"""Reconstruct a particle's density matrix from time-resolved position densities.

The probability density sampled at n+1 discrete times determines the momentum
moments of the phase-space quasi-probability distribution up to order n
through a recursion in which each moment follows from time differentiation
and cumulative integration of the ones below it.  Those moments are the
Taylor coefficients of the position-representation density matrix in the
off-diagonal variable, so truncated reconstructions converge outward from the
diagonal as more observation times are added.

Each public name is declared once, in its module's ``__all__``, and re-exported here;
the modules load on the first use of a name (PEP 562), so ``import hydrec`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    library = ("numerics", "potentials", "simulator", "reconstruction", "assembly")
    modules = [importlib.import_module(f"{__name__}.{module}") for module in library]
    names = {attr: getattr(module, attr) for module in modules for attr in module.__all__}
    globals().update(names, __all__=["__version__", *names])
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]

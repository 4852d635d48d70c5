"""Reconstruct a particle's density matrix from time-resolved position densities.

The probability density sampled at n+1 discrete times determines the momentum
moments of the phase-space quasi-probability distribution up to order n
through a recursion in which each moment follows from time differentiation
and cumulative integration of the ones below it.  Those moments are the
Taylor coefficients of the position-representation density matrix in the
off-diagonal variable, so truncated reconstructions converge outward from the
diagonal as more observation times are added.
"""

from .assembly import ComparisonReport, MomentField, TaylorReconstruction, assemble, compare
from .numerics import (
    DecayAssumptionWarning,
    GridField,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    cumulative_integral,
    differentiation_matrix,
)
from .potentials import (
    PotentialModel,
    free_potential,
    harmonic_potential,
    paul_trap_potential,
    polynomial_potential,
    potential_derivative,
    potential_value,
    quartic_potential,
)
from .reconstruction import InsufficientTimeSamplesError, MomentPyramid, build_pyramid
from .simulator import (
    CatStateParams,
    DensityMatrixGrid,
    GridCoverageWarning,
    SimulationQualityError,
    WaveFunction,
    WignerGrid,
    cat_state_density_matrix,
    cat_state_moment,
    cat_state_norm,
    exact_density_matrix,
    gaussian_packet,
    gaussian_packet_moment,
    make_cat_state,
    offdiagonal_lattice,
    oracle_moment_set,
    probability_density,
    propagate,
    sample_densities,
    wigner_transform,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SpatialGrid",
    "TimeNodes",
    "GridField",
    "PhysicalConstants",
    "DecayAssumptionWarning",
    "cumulative_integral",
    "differentiation_matrix",
    "PotentialModel",
    "free_potential",
    "harmonic_potential",
    "quartic_potential",
    "polynomial_potential",
    "paul_trap_potential",
    "potential_value",
    "potential_derivative",
    "WaveFunction",
    "CatStateParams",
    "DensityMatrixGrid",
    "WignerGrid",
    "GridCoverageWarning",
    "SimulationQualityError",
    "make_cat_state",
    "gaussian_packet",
    "cat_state_norm",
    "cat_state_density_matrix",
    "cat_state_moment",
    "gaussian_packet_moment",
    "probability_density",
    "propagate",
    "sample_densities",
    "exact_density_matrix",
    "offdiagonal_lattice",
    "wigner_transform",
    "oracle_moment_set",
    "MomentField",
    "MomentPyramid",
    "InsufficientTimeSamplesError",
    "build_pyramid",
    "TaylorReconstruction",
    "ComparisonReport",
    "assemble",
    "compare",
]

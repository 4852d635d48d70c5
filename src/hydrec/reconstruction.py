"""Recursive moment reconstruction from time-resolved position densities.

Given the probability density sampled at ``m + 1`` uniform times, each higher
momentum moment follows from the ones below it:

    f_{n+1} = -mass * d/dt CumInt(f_n)
              - mass * sum_k (-1)^k (hbar/2)^(2k) C(n, 2k+1)
                       CumInt(d^(2k+1)V/dx^(2k+1) * f_{n-2k-1})

where ``CumInt`` is the running integral from the left grid edge and the time
derivative is the uniform-node collocation derivative.  Producing order ``N``
therefore consumes ``N + 1`` time samples; requesting more is rejected.

Every moment is computed at all nodes so that repeated application of the
same differentiation matrix realizes the nested time derivatives; the central
node, where differentiation is most accurate, is the reported slice:
:meth:`MomentPyramid.central_slice` gives f_0 .. f_N there as one
``(N+1, n_points)`` :class:`~hydrec.numerics.GridField`, the matrix that
:func:`~hydrec.assembly.assemble` takes.  All arithmetic is real: the even
powers of (hbar / 2i) are the real numbers (-1)^k (hbar/2)^(2k).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .numerics import (
    GridField,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    _read_only_array,
    cumulative_integral,
    differentiation_matrix,
    smooth_local_poly,
)
from .potentials import PotentialModel, check_mass, free_potential, potential_derivative

__all__ = [
    "InsufficientTimeSamplesError",
    "MomentPyramid",
    "build_pyramid",
    "reconstruct_current",
]


class InsufficientTimeSamplesError(ValueError):
    """Raised when an order-N reconstruction has fewer than N+1 time samples."""


@dataclass(frozen=True)
class MomentPyramid:
    """All moments up to order N at all time nodes.

    ``levels[n]`` is a read-only ``(m+1, n_points)`` array of f_n at every
    node.  Order 0 is the (possibly smoothed) input density; each higher level
    derives only from the levels below it.
    """

    grid: SpatialGrid
    nodes: TimeNodes
    levels: tuple = field(repr=False)

    @property
    def order_max(self) -> int:
        return len(self.levels) - 1

    def central_slice(self) -> GridField:
        """All orders at the central node, as one ``(N+1, n_points)`` field."""
        c = self.nodes.central_index
        return GridField(self.grid, [level[c] for level in self.levels])


def _as_record_matrix(f0_records, grid: SpatialGrid, nodes: TimeNodes) -> np.ndarray:
    records = list(f0_records)
    for r in records:
        if isinstance(r, GridField) and r.grid != grid:
            raise ValueError(f"a density record lies on {r.grid}, not on the pyramid's {grid}")
    records = [getattr(r, "values", r) for r in records]
    if len(records) != nodes.m_plus_1:
        raise ValueError(f"got {len(records)} density records for {nodes.m_plus_1} time nodes")
    return _read_only_array(records, float, (nodes.m_plus_1, grid.n_points), finite=True)


def _force_table(model: PotentialModel, grid: SpatialGrid, nodes: TimeNodes, n_max: int) -> list:
    """Entry k: d^(2k+1)V/dx^(2k+1) at every node, for 2k+1 <= min(n_max, degree).

    Higher odd derivatives vanish identically, so their terms are skipped.
    """
    x = grid.points
    return [
        np.stack([potential_derivative(model, order, x, float(t)) for t in nodes.points])
        for order in range(1, min(n_max, model.degree) + 1, 2)
    ]


def _next_level(levels, forces: list, diff: np.ndarray, dx: float, constants: PhysicalConstants):
    """f_{n+1} at all nodes from levels 0..n, one cumulative integral per integrand."""
    n = len(levels) - 1
    mass, hbar = constants.mass, constants.hbar
    out = -mass * (diff @ cumulative_integral(levels[n], dx))
    for k, dv in enumerate(forces[: (n + 1) // 2]):
        coef = mass * (-1.0) ** k * (hbar / 2.0) ** (2 * k) * comb(n, 2 * k + 1)
        out -= coef * cumulative_integral(dv * levels[n - 2 * k - 1], dx)
    return out


def build_pyramid(
    f0_records,
    grid: SpatialGrid,
    nodes: TimeNodes,
    model: PotentialModel,
    constants: PhysicalConstants,
    order_max: int,
    smoothing: tuple[int, int] | None = None,
) -> MomentPyramid:
    """Reconstruct all moments up to ``order_max`` from density records.

    Parameters
    ----------
    f0_records : sequence of GridField or arrays
        Probability density at each of the ``m + 1`` time nodes.
    grid, nodes : SpatialGrid, TimeNodes
        Shared sampling lattices of the records.
    model : PotentialModel
        Potential generating the dynamics.
    constants : PhysicalConstants
        hbar and mass.
    order_max : int
        Highest moment order N; requires ``N <= m``.
    smoothing : (window, degree), optional
        Local-polynomial smoothing applied to the input densities only,
        before the recursion.  Off by default.

    Returns
    -------
    MomentPyramid
    """
    m = nodes.m
    if order_max < 0:
        raise ValueError("order_max must be >= 0")
    if order_max > m:
        raise InsufficientTimeSamplesError(
            f"order {order_max} needs at least {order_max + 1} time samples "
            f"(an order-n moment requires the density at n+1 times); got {m + 1}"
        )
    check_mass(model, constants.mass)
    base = _as_record_matrix(f0_records, grid, nodes)
    if smoothing is not None:
        base = smooth_local_poly(base, *smoothing)
    levels = [base]
    if order_max >= 1:
        if m > 12:
            warnings.warn(
                "more than 13 uniform nodes: high-order collocation derivatives "
                "amplify noise; prefer a short window with fewer samples",
                UserWarning,
                stacklevel=2,
            )
        diff = differentiation_matrix(nodes)
        forces = _force_table(model, grid, nodes, order_max - 1)
        for _ in range(order_max):
            levels.append(_next_level(levels, forces, diff, grid.dx, constants))
    for level in levels:
        level.setflags(write=False)
    return MomentPyramid(grid=grid, nodes=nodes, levels=tuple(levels))


def reconstruct_current(
    f0_records,
    grid: SpatialGrid,
    nodes: TimeNodes,
    constants: PhysicalConstants,
    node: int | None = None,
) -> GridField:
    """Probability-current moment f_1 from densities alone.

    The order-0 recursion step is potential-independent: f_1 is ``-mass``
    times the time derivative of the cumulative position probability.
    """
    pyramid = build_pyramid(f0_records, grid, nodes, free_potential(), constants, order_max=1)
    return GridField(grid, pyramid.levels[1][nodes.central_index if node is None else node])

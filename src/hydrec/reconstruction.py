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
node, where differentiation is most accurate, is the reported slice.  All
arithmetic is real: the even powers of (hbar / 2i) are the real numbers
(-1)^k (hbar/2)^(2k).
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
    differentiation_matrix,
    local_poly_filter,
    running_integral,
)
from .potentials import PotentialModel, check_mass, free_potential, potential_derivative

__all__ = [
    "InsufficientTimeSamplesError",
    "MomentField",
    "MomentPyramid",
    "next_moment",
    "build_pyramid",
    "reconstruct_current",
]


class InsufficientTimeSamplesError(ValueError):
    """Raised when an order-N reconstruction has fewer than N+1 time samples."""


@dataclass(frozen=True)
class MomentField:
    """A single moment f_n(x) at one time node."""

    order: int
    time_node: int
    time: float
    field: GridField

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("moment order must be >= 0")


@dataclass(frozen=True)
class MomentPyramid:
    """All moments up to order N at all time nodes.

    ``levels[n]`` is an ``(m+1, n_points)`` array of f_n at every node.  Order
    0 is the (possibly smoothed) input density; each higher level derives only
    from the levels below it.
    """

    grid: SpatialGrid
    nodes: TimeNodes
    levels: tuple = field(repr=False)

    @property
    def order_max(self) -> int:
        return len(self.levels) - 1

    @property
    def central_time(self) -> float:
        return self.nodes.central_time

    def moment(self, order: int, node: int | None = None) -> MomentField:
        """f_n at one node (central by default)."""
        if node is None:
            node = self.nodes.central_index
        values = self.levels[order][node]
        return MomentField(
            order=order,
            time_node=node,
            time=float(self.nodes.t_0 + node * self.nodes.dt),
            field=GridField(self.grid, values),
        )

    def central_slice(self) -> list[MomentField]:
        """All orders at the central node."""
        return [self.moment(n) for n in range(self.order_max + 1)]


def _as_record_matrix(f0_records, grid: SpatialGrid, nodes: TimeNodes) -> np.ndarray:
    records = [np.asarray(getattr(r, "values", r), dtype=float) for r in f0_records]
    if len(records) != nodes.m_plus_1:
        raise ValueError(
            f"got {len(records)} density records for {nodes.m_plus_1} time nodes"
        )
    for r in records:
        if r.shape != (grid.n_points,):
            raise ValueError("all density records must share the spatial grid")
        if not np.all(np.isfinite(r)):
            raise ValueError("density records contain non-finite values")
    return np.stack(records)


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
    out = -mass * (diff @ running_integral(levels[n], dx))
    for k, dv in enumerate(forces[: (n + 1) // 2]):
        coef = mass * (-1.0) ** k * (hbar / 2.0) ** (2 * k) * comb(n, 2 * k + 1)
        out -= coef * running_integral(dv * levels[n - 2 * k - 1], dx)
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
        base = local_poly_filter(base, *smoothing)
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
    return MomentPyramid(grid=grid, nodes=nodes, levels=tuple(levels))


def next_moment(
    pyramid: MomentPyramid,
    model: PotentialModel,
    constants: PhysicalConstants,
    node: int | None = None,
) -> MomentField:
    """One more moment order from an existing pyramid, at one node.

    Evaluates the recursion step from the pyramid's top level; the pyramid
    itself is immutable and unchanged.
    """
    n = pyramid.order_max
    nodes = pyramid.nodes
    if n + 1 > nodes.m:
        raise InsufficientTimeSamplesError(
            f"order {n + 1} needs at least {n + 2} time samples; got {nodes.m_plus_1}"
        )
    check_mass(model, constants.mass)
    forces = _force_table(model, pyramid.grid, nodes, n)
    diff = differentiation_matrix(nodes)
    level = _next_level(pyramid.levels, forces, diff, pyramid.grid.dx, constants)
    return MomentPyramid(pyramid.grid, nodes, pyramid.levels + (level,)).moment(n + 1, node)


def reconstruct_current(
    f0_records,
    grid: SpatialGrid,
    nodes: TimeNodes,
    constants: PhysicalConstants,
    node: int | None = None,
) -> MomentField:
    """Probability-current moment f_1 from densities alone.

    The order-0 recursion step is potential-independent: f_1 is ``-mass``
    times the time derivative of the cumulative position probability.
    """
    model = free_potential()
    pyramid = build_pyramid(f0_records, grid, nodes, model, constants, order_max=0)
    return next_moment(pyramid, model, constants, node=node)

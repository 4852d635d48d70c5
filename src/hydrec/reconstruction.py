"""Recursive moment reconstruction from time-resolved position densities.

Given the probability density sampled at ``m + 1`` uniform times, each higher
momentum moment follows from the ones below it:

    f_{n+1} = -mass * CumInt(d/dt f_n + sum_k (-1)^k (hbar/2)^(2k) C(n, 2k+1)
                                        d^(2k+1)V/dx^(2k+1) * f_{n-2k-1})

where ``CumInt`` is the paper's running integral from -inf, taken from the
left edge of the packet's support window: the grid columns where f_0 exceeds
:data:`~hydrec.numerics.SUPPORT_THRESHOLD` of its peak at some node, plus one
on each side (the whole grid when no column does, as for noisy records).  The
time derivative is the uniform-node collocation derivative.  The recursion is
linear and d/dt commutes with ``CumInt``, so each level is one running
integral of one combined integrand; f_1 .. f_N are exactly 0 outside the
window.  Producing order ``N`` therefore consumes ``N + 1`` time samples;
requesting more is rejected.

``CumInt`` assumes its integrand decays at the window's edges.  That is
checked once per pyramid on the integrated f_0 .. f_(N-1), at every node,
against each order's peak over all nodes, with at most one
:class:`~hydrec.numerics.DecayAssumptionWarning` naming the lowest order that
has not decayed; the force integrands
d^(2k+1)V/dx^(2k+1) * f are not checked.

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
    EDGE_TOLERANCE,
    SUPPORT_THRESHOLD,
    DecayAssumptionWarning,
    GridField,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    _is_number,
    _read_only_array,
    _row_blocks,
    _support_window,
    cumulative_integral,
    differentiation_matrix,
)
from .potentials import PotentialModel, check_mass, potential_derivative

__all__ = [
    "InsufficientTimeSamplesError",
    "MomentPyramid",
    "build_pyramid",
]


class InsufficientTimeSamplesError(ValueError):
    """Raised when an order-N reconstruction has fewer than N+1 time samples."""


@dataclass(frozen=True)
class MomentPyramid:
    """All moments up to order N at all time nodes.

    ``records`` is the read-only ``(m+1, n_points)`` f_0 matrix on the whole
    grid.  ``window`` is the slice of grid columns the recursion ran on, and
    ``window_levels`` is one read-only ``(N+1, m+1, window width)`` array:
    ``window_levels[n]`` holds f_n there at every node.  f_1 .. f_N are 0
    outside the window.  Each level derives only from the levels below it.
    """

    grid: SpatialGrid
    nodes: TimeNodes
    records: np.ndarray = field(repr=False)
    window: slice
    window_levels: np.ndarray = field(repr=False)

    @property
    def order_max(self) -> int:
        return len(self.window_levels) - 1

    @property
    def levels(self) -> np.ndarray:
        """f_0 .. f_N at every node on the whole grid, one read-only
        ``(N+1, m+1, n_points)`` array built on each read."""
        return self._on_grid(slice(None))

    def central_slice(self, node: int | None = None) -> GridField:
        """All orders at one node, the central one by default, as one ``(N+1, n_points)`` field.

        ``node`` is an integer in ``0..m`` (numpy integers too; not a bool).
        """
        if node is None:
            node = self.nodes.central_index
        elif not _is_number(node, integer=True):
            raise TypeError(f"node must be an integer in 0..{self.nodes.m}, got {node!r}")
        elif not 0 <= node <= self.nodes.m:
            raise ValueError(f"node {node} outside 0..{self.nodes.m}")
        return GridField(self.grid, self._on_grid(node))

    def _on_grid(self, node) -> np.ndarray:
        inner = self.window_levels[:, node]
        out = np.zeros(inner.shape[:-1] + (self.grid.n_points,))
        out[..., self.window] = inner
        out[0] = self.records[node]
        out.setflags(write=False)
        return out


def _as_record_matrix(f0_records, grid: SpatialGrid, nodes: TimeNodes) -> np.ndarray:
    records = list(f0_records)
    for r in records:
        if isinstance(r, GridField) and r.grid != grid:
            raise ValueError(f"a density record lies on {r.grid}, not on the pyramid's {grid}")
    records = [getattr(r, "values", r) for r in records]
    if len(records) != nodes.m_plus_1:
        raise ValueError(f"got {len(records)} density records for {nodes.m_plus_1} time nodes")
    return _read_only_array(records, float, (nodes.m_plus_1, grid.n_points), finite=True)


def _force_table(model: PotentialModel, x: np.ndarray, nodes: TimeNodes, n_max: int) -> list:
    """Entry k: d^(2k+1)V/dx^(2k+1) at ``x`` at every node, for 2k+1 <= min(n_max, degree).

    Higher odd derivatives vanish identically, so their terms are skipped.
    """
    orders = range(1, min(n_max, model.degree) + 1, 2)
    return [potential_derivative(model, order, x, nodes.points) for order in orders]


def build_pyramid(
    f0_records,
    grid: SpatialGrid,
    nodes: TimeNodes,
    model: PotentialModel,
    constants: PhysicalConstants,
    order_max: int,
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
        Highest moment order N; requires ``N <= m``.  Order 1, the
        probability current, does not depend on the potential: f_1 is
        ``-mass`` times the time derivative of the cumulative probability.

    d/dt runs on one cache block of columns per product, too small for OpenBLAS
    to thread: the pyramid is bitwise the same for any BLAS thread count.

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
    records = _as_record_matrix(f0_records, grid, nodes)
    colmax = np.maximum(records.max(axis=0), -records.min(axis=0))  # max |f_0| over the nodes
    window = _support_window(colmax, SUPPORT_THRESHOLD)
    levels = np.empty((order_max + 1, nodes.m_plus_1, window.stop - window.start))
    levels[0] = records[:, window]
    if order_max >= 1:
        if m > 12:
            warnings.warn(
                "more than 13 uniform nodes: high-order collocation derivatives "
                "amplify noise; prefer a short window with fewer samples",
                UserWarning,
                stacklevel=2,
            )
        diff = differentiation_matrix(nodes)
        forces = _force_table(model, grid.points[window], nodes, order_max - 1)
        integrand = np.empty(levels.shape[1:])  # d/dt and the running integral commute
        for n in range(order_max):
            for blk in _row_blocks(integrand.shape[1], 8 * nodes.m_plus_1):
                np.matmul(diff, levels[n][:, blk], out=integrand[:, blk])
            for k, dv in enumerate(forces[: (n + 1) // 2]):
                coef = (-1.0) ** k * (constants.hbar / 2.0) ** (2 * k) * comb(n, 2 * k + 1)
                integrand += coef * dv * levels[n - 2 * k - 1]
            np.multiply(cumulative_integral(integrand, grid.dx), -constants.mass, out=levels[n + 1])
        # CumInt assumed that the integrated f_0 .. f_(N-1) decay at the window's edges,
        # against each order's peak over all nodes: a node where the order vanishes, as a
        # real state's odd orders do at t = 0, holds only rounding, edges included
        peak = np.maximum(levels[:-1].max(axis=(1, 2)), -levels[:-1].min(axis=(1, 2)))[:, None]
        edge = np.maximum(np.abs(levels[:-1, :, 0]), np.abs(levels[:-1, :, -1]))
        hot = np.argwhere((peak > 0.0) & (edge > EDGE_TOLERANCE * peak))  # lowest order first
        if hot.size:
            n, j = hot[0]
            warnings.warn(
                f"f_{n} has edge amplitude {edge[n, j]:.3e} (> {EDGE_TOLERANCE:.0e} of max "
                f"{peak[n, 0]:.3e} over the nodes) at node {j}; the half-line integral is not "
                "well approximated",
                DecayAssumptionWarning,
                stacklevel=2,
            )
    levels.setflags(write=False)
    return MomentPyramid(grid, nodes, records, window, levels)

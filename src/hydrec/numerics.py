"""Shared numerical kernels: grids, cumulative integration, time differentiation.

Everything here is a pure function of immutable value objects, so results are
deterministic and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import savgol_filter

__all__ = [
    "DecayAssumptionWarning",
    "SpatialGrid",
    "TimeNodes",
    "GridField",
    "PhysicalConstants",
    "running_integral",
    "cumulative_integral",
    "differentiation_matrix",
    "local_poly_filter",
    "smooth_local_poly",
    "derivative_stencil",
]

#: Relative amplitude above which a field is considered not to have decayed
#: at the grid edges.  Gaussian-type packets on a grid padded to >= 6 sigma
#: sit far below this, so a triggered warning indicates a mis-sized grid.
EDGE_TOLERANCE = 1e-8


class DecayAssumptionWarning(UserWarning):
    """A field treated as decaying at the grid boundary is not negligible there."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform position lattice with both endpoints included.

    Parameters
    ----------
    x_min, x_max : float
        Grid extent, ``x_min < x_max``.
    n_points : int
        Number of samples, at least 8.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_min >= self.x_max:
            raise ValueError(f"x_min must be below x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 8:
            raise ValueError(f"need at least 8 grid points, got {self.n_points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.x_max - self.x_min)


@dataclass(frozen=True)
class TimeNodes:
    """Uniform time lattice ``t_0 + j*dt`` for ``j = 0 .. m``.

    ``m_plus_1`` is the node count; the central node index is ``m // 2``.
    """

    t_0: float
    dt: float
    m_plus_1: int

    def __post_init__(self):
        if not np.isfinite(self.t_0):
            raise ValueError("t_0 must be finite")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.m_plus_1 < 1:
            raise ValueError(f"need at least one time node, got {self.m_plus_1}")

    @property
    def m(self) -> int:
        return self.m_plus_1 - 1

    @property
    def central_index(self) -> int:
        return self.m // 2

    @property
    def central_time(self) -> float:
        return self.t_0 + self.central_index * self.dt

    @property
    def points(self) -> np.ndarray:
        return self.t_0 + self.dt * np.arange(self.m_plus_1)


@dataclass(frozen=True)
class GridField:
    """Real scalar field sampled on a :class:`SpatialGrid`."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"field length {values.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck constant and particle mass; natural units by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


def running_integral(values, dx: float, edge_tolerance: float = EDGE_TOLERANCE) -> np.ndarray:
    """Trapezoidal integral from the left edge along the last axis of ``values``.

    Each row is one field and integrates bitwise as it would on its own.  Rows
    that have not decayed at the grid edges (relative amplitude above
    ``edge_tolerance``) get one :class:`DecayAssumptionWarning` per call.
    """
    rows = np.atleast_2d(values)
    peak = np.max(np.abs(rows), axis=-1)
    edge = np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, -1]))
    hot = np.flatnonzero((peak > 0.0) & (edge > edge_tolerance * peak))
    if hot.size:
        i = hot[0]
        warnings.warn(
            f"field has edge amplitude {edge[i]:.3e} (> {edge_tolerance:.0e} of max "
            f"{peak[i]:.3e}); the half-line integral is not well approximated",
            DecayAssumptionWarning,
            stacklevel=2,
        )
    steps = np.cumsum(dx * (values[..., 1:] + values[..., :-1]) / 2.0, axis=-1)
    return np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)


def cumulative_integral(f: GridField, edge_tolerance: float = EDGE_TOLERANCE) -> GridField:
    """Running trapezoidal integral of ``f`` from the left grid edge.

    Approximates the half-line integral up to ``x`` for fields that decay at
    the left boundary; the decay assumption is diagnosed, not enforced.

    Parameters
    ----------
    f : GridField
        Integrand samples.
    edge_tolerance : float
        Relative edge amplitude above which a :class:`DecayAssumptionWarning`
        is issued.

    Returns
    -------
    GridField
        ``F`` with ``F(x_min) = 0`` and ``F(x_j)`` the trapezoidal integral
        of ``f`` over ``[x_min, x_j]``.
    """
    return GridField(f.grid, running_integral(f.values, f.grid.dx, edge_tolerance))


def differentiation_matrix(nodes: TimeNodes) -> np.ndarray:
    """First-derivative collocation matrix on uniform time nodes.

    Row ``j`` holds the derivatives at node ``j`` of the Lagrange cardinal
    polynomials, so ``D @ samples`` differentiates the degree-``m``
    interpolant exactly at every node.  Built from barycentric weights with
    the negative-sum diagonal, which makes each row sum to exactly zero.

    Parameters
    ----------
    nodes : TimeNodes
        ``m + 1`` uniform nodes, ``m >= 1``.

    Returns
    -------
    numpy.ndarray
        Dense ``(m+1, m+1)`` matrix.
    """
    n = nodes.m_plus_1
    if n < 2:
        raise ValueError("differentiation needs at least two nodes")
    t = nodes.points
    diff = t[:, None] - t[None, :]
    np.fill_diagonal(diff, 1.0)
    weights = 1.0 / np.prod(diff, axis=1)
    d = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def local_poly_filter(values, window: int, degree: int) -> np.ndarray:
    """Savitzky-Golay smoothing along the last axis of ``values``, in one call.

    The array form of :func:`smooth_local_poly`, with the same argument rules.
    """
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window > np.shape(values)[-1]:
        raise ValueError(f"window {window} exceeds grid size {np.shape(values)[-1]}")
    if degree >= window:
        raise ValueError(f"degree {degree} must be below window {window}")
    if window == 1:
        return values
    return savgol_filter(values, window_length=window, polyorder=degree, mode="interp", axis=-1)


def smooth_local_poly(f: GridField, window: int, degree: int) -> GridField:
    """Local least-squares polynomial smoothing (Savitzky-Golay).

    Each point is replaced by the value at that point of the least-squares
    polynomial of the given degree fitted over a centered window; near the
    edges the fit uses the one-sided end windows.

    Parameters
    ----------
    f : GridField
        Input samples.
    window : int
        Odd window length, ``degree < window <= n_points``.
    degree : int
        Fit polynomial degree.

    Returns
    -------
    GridField
        Smoothed field; polynomials of degree <= ``degree`` pass unchanged.
    """
    return GridField(f.grid, local_poly_filter(f.values, window, degree))


def derivative_stencil(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for a derivative on arbitrary point offsets.

    Solves the moment conditions ``sum_i w_i * s_i**k / k! = delta(k, order)``
    for ``k = 0 .. len(offsets)-1``; the excess stencil length sets the
    approximation order.
    """
    s = np.asarray(offsets, dtype=float)
    if order >= s.size:
        raise ValueError("stencil too short for requested derivative order")
    rhs = np.zeros(s.size)
    rhs[order] = 1.0
    powers = s[None, :] ** np.arange(s.size)[:, None]
    factorials = np.cumprod(np.concatenate(([1.0], np.arange(1.0, s.size))))
    return np.linalg.solve(powers / factorials[:, None], rhs)

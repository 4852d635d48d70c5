"""Shared numerical kernels: grids, cumulative integration, time differentiation.

Everything here is a pure function of immutable value objects, so results are
deterministic and safe to share across threads.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "DecayAssumptionWarning",
    "SpatialGrid",
    "TimeNodes",
    "GridField",
    "PhysicalConstants",
    "cumulative_integral",
    "differentiation_matrix",
    "smooth_local_poly",
]

#: Relative amplitude above which a field is considered not to have decayed
#: at the grid edges.  Gaussian-type packets on a grid padded to >= 6 sigma
#: sit far below this, so a triggered warning indicates a mis-sized grid.
EDGE_TOLERANCE = 1e-8
#: Bytes of one block of lattice rows: a kernel that sweeps an (x, y) lattice
#: holds its temporaries for one block at a time.
LATTICE_BLOCK_BYTES = 1 << 18


class DecayAssumptionWarning(UserWarning):
    """A field treated as decaying at the grid boundary is not negligible there."""


def _is_number(value, integer: bool = False) -> bool:
    """True for a real number (an integer with ``integer``), numpy scalars included; not a bool."""
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_numbers(obj) -> None:
    """Reject a dataclass field annotated ``float`` or ``int`` that holds another type."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float", "int") and not _is_number(value, integer=f.type == "int"):
            what = "an integer" if f.type == "int" else "a number"
            raise TypeError(f"{f.name} must be {what}, got {value!r}")


def _read_only_array(values, dtype, shape=None, finite=False) -> np.ndarray:
    """``values`` as a write-protected C-ordered ``dtype`` array, checked against ``shape``.

    A frozen array that owns its C-contiguous data in ``dtype`` is adopted as
    it is; anything else is copied, so a caller's array is never frozen or
    aliased.  With ``finite``, NaN and infinite entries are rejected too.
    """
    adopt = (
        type(values) is np.ndarray
        and not values.flags.writeable
        and values.flags.owndata
        and values.flags.c_contiguous
        and values.dtype == dtype
    )
    array = values if adopt else np.array(values, dtype=dtype, order="C")
    if shape is not None and array.shape != shape:
        raise ValueError(f"array of shape {array.shape} does not match the lattice {shape}")
    if finite and not np.all(np.isfinite(array)):
        raise ValueError("array contains non-finite values")
    array.setflags(write=False)
    return array


def _row_blocks(n_rows: int, row_bytes: int):
    """Slices of consecutive rows, each block within ``LATTICE_BLOCK_BYTES`` (at least one row)."""
    step = max(1, LATTICE_BLOCK_BYTES // row_bytes)
    return (slice(start, start + step) for start in range(0, n_rows, step))


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
        _check_numbers(self)
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


@dataclass(frozen=True)
class TimeNodes:
    """Uniform time lattice ``t_0 + j*dt`` for ``j = 0 .. m``.

    ``m_plus_1`` is the node count; the central node index is ``m // 2``.
    """

    t_0: float
    dt: float
    m_plus_1: int

    def __post_init__(self):
        _check_numbers(self)
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
    """Real fields on one :class:`SpatialGrid`: ``values`` is ``(..., n_points)``, one per row."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = _read_only_array(self.values, float, finite=True)
        if values.shape[-1:] != (self.grid.n_points,):
            raise ValueError(f"array of shape {values.shape} does not lie on {self.grid}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck constant and particle mass; natural units by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _check_numbers(self)
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


def cumulative_integral(values, dx: float) -> np.ndarray:
    """Running trapezoidal integral from the left grid edge, along the last axis.

    Approximates the half-line integral up to ``x`` for fields that decay at
    the left boundary; the decay assumption is diagnosed, not enforced.  Each
    row of ``values`` is one field and integrates bitwise as it would on its
    own.  Rows that have not decayed at the grid edges (relative amplitude
    above ``EDGE_TOLERANCE``) get one :class:`DecayAssumptionWarning` per call.

    Returns
    -------
    numpy.ndarray
        ``F`` shaped like ``values``, with ``F[..., 0] = 0`` and ``F[..., j]``
        the trapezoidal integral over ``[x_0, x_j]``.
    """
    rows = np.reshape(values, (-1, np.shape(values)[-1]))  # one field per row
    peak = np.maximum(rows.max(axis=-1), -rows.min(axis=-1))  # max |row|, without an |rows| copy
    edge = np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, -1]))
    hot = np.flatnonzero((peak > 0.0) & (edge > EDGE_TOLERANCE * peak))
    if hot.size:
        i = hot[0]
        warnings.warn(
            f"field has edge amplitude {edge[i]:.3e} (> {EDGE_TOLERANCE:.0e} of max "
            f"{peak[i]:.3e}); the half-line integral is not well approximated",
            DecayAssumptionWarning,
            stacklevel=2,
        )
    # dx * (a + b) / 2.0 accumulated in place, in scipy's arithmetic order
    steps = values[..., 1:] + values[..., :-1]
    steps *= dx
    steps /= 2.0
    result = np.zeros(np.shape(values))
    np.cumsum(steps, axis=-1, out=result[..., 1:])
    return result


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


def smooth_local_poly(values, window: int, degree: int) -> np.ndarray:
    """Local least-squares polynomial smoothing (Savitzky-Golay) along the last axis.

    Each point is replaced by the value at that point of the least-squares
    polynomial of the given degree fitted over a centered window; near the
    edges the fit uses the one-sided end windows.  All rows go through one
    filter call.

    Parameters
    ----------
    values : array
        Input samples, one field per row.
    window : int
        Odd window length, ``degree < window <= n_points``.
    degree : int
        Fit polynomial degree, at least 0.

    Returns
    -------
    numpy.ndarray
        Smoothed samples; polynomials of degree <= ``degree`` pass unchanged.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    if window > np.shape(values)[-1]:
        raise ValueError(f"window {window} exceeds grid size {np.shape(values)[-1]}")
    if not 0 <= degree < window:
        raise ValueError(f"degree {degree} must be >= 0 and below window {window}")
    if window == 1:
        return values
    from scipy.signal import savgol_filter  # only smoothing needs scipy

    return savgol_filter(values, window_length=window, polyorder=degree, mode="interp", axis=-1)

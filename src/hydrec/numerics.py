"""Shared numerical kernels: grids, cumulative integration, time differentiation.

Everything here is a pure function of immutable value objects, so results are
deterministic and safe to share across threads.
"""

from __future__ import annotations

import numbers
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
]

#: Relative amplitude above which a field is considered not to have decayed
#: at the grid edges.  Gaussian-type packets on a grid padded to >= 6 sigma
#: sit far below this, so a triggered warning indicates a mis-sized grid.
EDGE_TOLERANCE = 1e-8
#: Relative amplitude above which a grid column holds the measured density:
#: the moment recursion runs on the columns where f_0 exceeds this fraction
#: of its peak at some node, plus one on each side.
SUPPORT_THRESHOLD = 1e-14
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


def _support_window(colmax: np.ndarray, threshold: float) -> slice:
    """The columns where ``colmax`` exceeds ``threshold`` of its peak, plus one on each side.

    All columns when none does, as when ``colmax`` is all zero.
    """
    live = np.flatnonzero(colmax > threshold * colmax.max())
    if live.size == 0:
        return slice(0, colmax.size)
    return slice(max(int(live[0]) - 1, 0), min(int(live[-1]) + 2, colmax.size))


def _row_blocks(stop: int, row_bytes: int, start: int = 0):
    """Slices of the consecutive rows ``start .. stop - 1``, each block within
    ``LATTICE_BLOCK_BYTES`` (at least one row)."""
    step = max(1, LATTICE_BLOCK_BYTES // row_bytes)
    return (slice(first, min(first + step, stop)) for first in range(start, stop, step))


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
    the left boundary; the decay assumption is the caller's to check.  Each
    row of ``values`` is one field and integrates bitwise as it would on its
    own.

    Returns
    -------
    numpy.ndarray
        ``F`` shaped like ``values``, with ``F[..., 0] = 0`` and ``F[..., j]``
        the trapezoidal integral over ``[x_0, x_j]``.
    """
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

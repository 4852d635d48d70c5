"""Taylor assembly of the density matrix from a moment set, plus diagnostics.

The degree-N truncation in the off-diagonal variable is

    rho_N(x, y) = sum_{n=0}^{N} f_n(x) / n! * (2 i y / hbar)^n,

accumulated by the running-term recurrence ``z_n = z_{n-1} * (2 i y / hbar) / n``
so that no explicit large factorial is formed.  The moments f_0 .. f_N at one
time arrive as one ``(N+1, n_points)`` :class:`~hydrec.numerics.GridField`,
and the sum is one contraction of that matrix with the table of ``z_n``.
Real moments make the real part of the sum carry only even orders and the
imaginary part only odd orders.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import GridField, _row_blocks
from .simulator import DensityMatrixGrid, _offdiagonal_axis

__all__ = [
    "MomentField",
    "TaylorReconstruction",
    "ComparisonReport",
    "assemble",
    "compare",
]

#: A running term whose magnitude passes this bound is reported as overflowing.
TERM_MAGNITUDE_LIMIT = 1e300
#: Share of max|f_0| that the last two terms stay below inside the trust radius.
TRUST_THRESHOLD = 1e-6


@dataclass(frozen=True)
class MomentField:
    """The moment f_n(x) of one order, as :class:`TaylorReconstruction` records it."""

    order: int
    field: GridField


@dataclass(frozen=True)
class TaylorReconstruction:
    """Truncated off-diagonal Taylor polynomial of the density matrix.

    ``trust_radius`` is the largest |y| where the last two terms stay below
    ``TRUST_THRESHOLD * max|f_0|``, a heuristic convergence indicator.  The
    scale is absolute, since |rho(x, x')| <= max f_0 for any density matrix.
    Two terms, because a real state's odd moments are identically zero; at
    N = 0 the last term is f_0 itself, so the radius is 0.

    ``moments`` holds one :class:`MomentField` per row of the assembled matrix,
    because the benchmark reads ``rec.moments[0].field`` (``perfbench/worker.py``
    lines 126, 133 and 186).
    """

    order_max: int
    moments: tuple
    hbar: float
    values: DensityMatrixGrid
    #: max |f_n (2iy/hbar)^n / n!| over the y lattice, per order (read-only)
    term_peaks: np.ndarray = field(repr=False)
    trust_radius: float

    @property
    def y(self) -> np.ndarray:
        return self.values.y


@dataclass(frozen=True)
class ComparisonReport:
    """Error metrics between two density-matrix grids over a region."""

    sup_error: float
    l2_error: float
    region: tuple
    trace_a: float
    trace_b: float
    hermiticity_defect: float
    diagonal_mismatch: float
    resampled: bool = False

    def __post_init__(self):
        for name in ("sup_error", "l2_error", "hermiticity_defect", "diagonal_mismatch"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (np.isfinite(self.trace_a) and np.isfinite(self.trace_b)):
            raise ValueError("traces must be finite")

    def as_dict(self) -> dict:
        return {
            "sup_error": self.sup_error,
            "l2_error": self.l2_error,
            "region": {"x_max": self.region[0], "y_max": self.region[1]},
            "trace_a": self.trace_a,
            "trace_b": self.trace_b,
            "hermiticity_defect": self.hermiticity_defect,
            "diagonal_mismatch": self.diagonal_mismatch,
            "resampled": self.resampled,
        }


def _taylor_terms(y: np.ndarray, hbar: float, order_max: int) -> np.ndarray:
    """Rows ``z_n = (2 i y / hbar)^n / n!``, n = 0..order_max; overflow is left to the callers."""
    ratio = 2j * y / hbar
    z = np.ones((order_max + 1, y.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, order_max + 1):
            z[n] = z[n - 1] * ratio / n
    return z


def assemble(moments: GridField, y: np.ndarray, hbar: float) -> TaylorReconstruction:
    """Build rho_N(x, y) from moments f_0 .. f_N.

    Parameters
    ----------
    moments : GridField
        The ``(N+1, n_points)`` matrix of f_0 .. f_N at one time, row n
        holding f_n, as :meth:`~hydrec.reconstruction.MomentPyramid.central_slice`
        returns it.
    y : array
        Off-diagonal lattice: odd, ascending, uniform and symmetric about 0.
    hbar : float
        Sets the off-diagonal length scale; positive and finite.

    Returns
    -------
    TaylorReconstruction
        With ``values[x, y=0]`` equal to f_0 exactly (only the n = 0 term
        survives on the diagonal).
    """
    f = moments.values
    if f.ndim != 2 or not len(f):
        raise ValueError(f"moments must be one (N+1, n_points) matrix holding f_0, got {f.shape}")
    if not (np.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    y = _offdiagonal_axis(y)  # checked before the sweep, not by DensityMatrixGrid after it
    z = _taylor_terms(y, hbar, len(f) - 1)
    abs_z = np.abs(z)
    f_peaks = np.max(np.abs(f), axis=1)
    values = np.zeros((f.shape[1], y.size), dtype=complex)
    blocks = list(_row_blocks(f.shape[1], values.itemsize * y.size))
    term = np.empty_like(values[blocks[0]])  # the first block is the largest
    with np.errstate(over="ignore", invalid="ignore"):  # reported per order below
        # summed from +0.0, orders in sequence, so a -0.0 moment gives +0.0 (a start from
        # the n = 0 term would keep -0.0); one block of rows at a time, one reused term buffer
        for blk in blocks:
            block = values[blk]
            for f_n, z_n in zip(f, z):
                block += np.multiply(f_n[blk, None], z_n, out=term[: block.shape[0]])
        values.setflags(write=False)  # DensityMatrixGrid adopts it
        # each z_n is purely real or purely imaginary, so this is max |f_n z_n| exactly
        term_peaks = f_peaks * np.max(abs_z, axis=1)
        # an overflowed term is never trusted
        tail = np.max(f_peaks[-2:, None] * abs_z[-2:], axis=0)
    trusted = np.abs(y)[tail < TRUST_THRESHOLD * f_peaks[0]]
    for n in np.flatnonzero(~(term_peaks <= TERM_MAGNITUDE_LIMIT)):
        warnings.warn(
            f"order-{n} term reaches magnitude {term_peaks[n]:.3e}; the expansion has "
            "left the floating-point range on this lattice",
            UserWarning,
            stacklevel=2,
        )
    term_peaks.setflags(write=False)
    return TaylorReconstruction(
        order_max=len(f) - 1,
        moments=tuple(MomentField(n, GridField(moments.grid, f_n)) for n, f_n in enumerate(f)),
        hbar=float(hbar),
        values=DensityMatrixGrid(moments.grid, y, values),
        term_peaks=term_peaks,
        trust_radius=float(trusted.max()) if trusted.size else 0.0,
    )


def _axis_weights(grid: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower-corner index and fractional distance of each point on an ascending grid."""
    i = np.clip(np.searchsorted(grid, points, side="right") - 1, 0, grid.size - 2)
    return i, (points - grid[i]) / (grid[i + 1] - grid[i])


def _resample_onto(b: DensityMatrixGrid, a: DensityMatrixGrid) -> np.ndarray:
    """Bilinear resample of b's values onto a's lattice; points outside b get 0.

    Corners and weights combine in the order of scipy's
    ``RegularGridInterpolator(..., bounds_error=False, fill_value=0.0)``.
    """
    bx = b.x_grid.points
    ax = a.x_grid.points
    if bx[-1] < ax[0] or ax[-1] < bx[0]:  # both y lattices hold 0, so they always overlap
        raise ValueError("lattices are disjoint; nothing to compare")
    i, tx = _axis_weights(bx, ax)
    j, ty = _axis_weights(b.y, a.y)
    v = b.values
    vals = np.empty((ax.size, a.y.size), dtype=complex)
    for blk in _row_blocks(ax.size, vals.itemsize * a.y.size):
        ib, tb = i[blk], tx[blk]
        vals[blk] = (
            v[np.ix_(ib, j)] * np.outer(1 - tb, 1 - ty)
            + v[np.ix_(ib, j + 1)] * np.outer(1 - tb, ty)
            + v[np.ix_(ib + 1, j)] * np.outer(tb, 1 - ty)
            + v[np.ix_(ib + 1, j + 1)] * np.outer(tb, ty)
        )
    vals[(ax < bx[0]) | (ax > bx[-1])] = 0.0
    vals[:, (a.y < b.y[0]) | (a.y > b.y[-1])] = 0.0
    return vals


def compare(
    a: DensityMatrixGrid,
    b: DensityMatrixGrid,
    region: tuple[float, float] | None = None,
    f0: GridField | None = None,
) -> ComparisonReport:
    """Error metrics of ``a`` against reference ``b`` over ``|x|, |y|`` bounds.

    ``b`` is resampled bilinearly onto ``a``'s lattice when the lattices
    differ (recorded in the report); disjoint lattices are rejected.  Traces
    come from trapezoidal quadrature along the diagonal; the diagonal
    mismatch is measured against ``f0`` when provided, else against ``b``'s
    diagonal; ``f0`` must be one field on ``a``'s x grid.
    """
    if f0 is not None and (f0.values.ndim != 1 or f0.grid != a.x_grid):
        raise ValueError(f"f0 must be one field on {a.x_grid}, not {f0.values.shape} on {f0.grid}")
    resampled = not (a.x_grid == b.x_grid and np.array_equal(a.y, b.y))
    b_vals = _resample_onto(b, a) if resampled else b.values

    if region is None:
        region = (float("inf"), float("inf"))
    x_max, y_max = region
    x = a.x_grid.points
    mask_x = np.abs(x) <= x_max
    mask_y = np.abs(a.y) <= y_max
    if not (mask_x.any() and mask_y.any()):
        raise ValueError("comparison region contains no lattice points")
    ix = np.ix_(mask_x, mask_y)
    err = np.abs(a.values[ix] - b_vals[ix])  # cropped first: only the region is subtracted
    sup_error = float(np.max(err))
    l2_error = float(np.sqrt(np.sum(err**2) * a.x_grid.dx * a.dy))

    diag_a = a.values[:, a.y.size // 2]
    diag_b = b_vals[:, a.y.size // 2]
    trace_a = float(np.trapezoid(diag_a.real, dx=a.x_grid.dx))
    trace_b = float(np.trapezoid(diag_b.real, dx=a.x_grid.dx))
    if f0 is not None:
        diagonal_mismatch = float(np.max(np.abs(diag_a - f0.values)))
    else:
        diagonal_mismatch = float(np.max(np.abs(diag_a - diag_b)))

    return ComparisonReport(
        sup_error=sup_error,
        l2_error=l2_error,
        region=(x_max, y_max),
        trace_a=trace_a,
        trace_b=trace_b,
        hermiticity_defect=a.hermiticity_defect(),
        diagonal_mismatch=diagonal_mismatch,
        resampled=resampled,
    )

"""Taylor assembly of the density matrix from a moment set, plus diagnostics.

The degree-N truncation in the off-diagonal variable is

    rho_N(x, y) = sum_{n=0}^{N} f_n(x) / n! * (2 i y / hbar)^n,

accumulated by the running-term recurrence ``z_n = z_{n-1} * (2 i y / hbar) / n``
so that no explicit large factorial is formed.  The moments f_0 .. f_N at one
time arrive as one ``(N+1, n_points)`` :class:`~hydrec.numerics.GridField`,
and the sum is one contraction of that matrix with the table of ``z_n``.
Real moments make the real part of the sum carry only even orders and the
imaginary part only odd orders, so the y < 0 half is the conjugate of the
y >= 0 half; only that half is summed.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .numerics import GridField, SpatialGrid, _row_blocks
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

    ``values`` is Hermitian by construction: :func:`assemble` sums the Taylor
    terms on the y >= 0 columns ``M//2 .. M-1`` only and writes column
    ``M-1-j`` as ``(re, 0.0 - im)`` of column j.  On a lattice whose halves
    are exact negatives (as ``offdiagonal_lattice`` builds it) that is the sum
    at -y bit for bit, ``+0.0`` imaginary parts included; on one symmetric
    only to rounding, the y < 0 columns hold the values at the mirrored points.

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
    resampled: bool

    def __post_init__(self):
        for name in ("sup_error", "l2_error", "hermiticity_defect", "diagonal_mismatch"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (np.isfinite(self.trace_a) and np.isfinite(self.trace_b)):
            raise ValueError("traces must be finite")

    def as_dict(self) -> dict:
        return asdict(self) | {"region": {"x_max": self.region[0], "y_max": self.region[1]}}


def _taylor_terms(y: np.ndarray, hbar: float, order_max: int) -> np.ndarray:
    """Rows ``z_n = (2 i y / hbar)^n / n!``, n = 0..order_max; overflow is left to the callers."""
    z = np.ones((order_max + 1, y.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = 2j * y / hbar
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
    c = y.size // 2  # y = 0
    # the y >= 0 half: the y < 0 half mirrors it, and |z_n| and |y| are even in y
    z = _taylor_terms(y[c:], hbar, len(f) - 1)
    # a NaN z_n comes only from an overflow (0 * inf), so its magnitude is inf
    abs_z = np.abs(z)
    abs_z[np.isnan(abs_z)] = np.inf
    f_peaks = np.max(np.abs(f), axis=1)
    values = np.empty((f.shape[1], y.size), dtype=complex)
    blocks = list(_row_blocks(f.shape[1], values.itemsize * z.shape[1]))
    # a block's y >= 0 half is summed y-major, so that each multiply and add runs along x
    sums = np.empty((z.shape[1], f[:, blocks[0]].shape[1]), dtype=complex)  # the largest block
    term = np.empty_like(sums)
    with np.errstate(over="ignore", invalid="ignore"):  # reported per order below
        # summed from +0.0, orders in sequence, so a -0.0 moment gives +0.0 (a start from
        # the n = 0 term would keep -0.0); one block of rows at a time, reused buffers
        for blk in blocks:
            f_blk = f[:, blk]
            acc = sums[:, : f_blk.shape[1]]
            acc.fill(0.0)
            for f_n, z_n in zip(f_blk, z):
                acc += np.multiply(f_n, z_n[:, None], out=term[:, : acc.shape[1]])
            values[blk, c:] = acc.T
            # column M-1-j holds (re, 0.0 - im) of column j: 0.0 - 0.0 is +0.0, as the sum gives
            mirror, upper = values[blk, :c], acc[:0:-1].T
            mirror.real = upper.real
            np.subtract(0.0, upper.imag, out=mirror.imag)
        values.setflags(write=False)  # DensityMatrixGrid adopts it
        # each z_n is purely real or purely imaginary, so this is max |f_n z_n| exactly
        term_peaks = f_peaks * np.max(abs_z, axis=1)
        # an overflowed term is never trusted
        tail = np.max(f_peaks[-2:, None] * abs_z[-2:], axis=0)
    trusted = np.abs(y[c:])[tail < TRUST_THRESHOLD * f_peaks[0]]
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


def _resample_onto(b: DensityMatrixGrid, y: np.ndarray) -> np.ndarray:
    """b's values interpolated linearly in y onto ``y``; points outside b's y range get 0."""
    j, ty = _axis_weights(b.y, y)
    v = b.values
    vals = np.empty((v.shape[0], y.size), dtype=complex)
    for blk in _row_blocks(v.shape[0], vals.itemsize * y.size):
        vals[blk] = v[blk, j] * (1 - ty) + v[blk, j + 1] * ty
    vals[:, (y < b.y[0]) | (y > b.y[-1])] = 0.0
    return vals


def _region_masks(
    grid: SpatialGrid, y: np.ndarray, region: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """The ``|x| <= x_max`` and ``|y| <= y_max`` masks of ``region``; an empty region is refused."""
    x_max, y_max = region
    mask_x = np.abs(grid.points) <= x_max
    mask_y = np.abs(y) <= y_max
    if not (mask_x.any() and mask_y.any()):
        raise ValueError("comparison region contains no lattice points")
    return mask_x, mask_y


def compare(
    a: DensityMatrixGrid, b: DensityMatrixGrid, region: tuple[float, float], f0: GridField
) -> ComparisonReport:
    """Error metrics of ``a`` against reference ``b`` over ``|x|, |y|`` bounds.

    ``b`` must lie on ``a``'s x grid; it is interpolated linearly in y onto
    ``a``'s y lattice when the two differ (recorded in the report).  Traces
    come from trapezoidal quadrature along the diagonal; the diagonal
    mismatch is measured against ``f0``, one field on ``a``'s x grid.
    """
    if f0.values.ndim != 1 or f0.grid != a.x_grid:
        raise ValueError(f"f0 must be one field on {a.x_grid}, not {f0.values.shape} on {f0.grid}")
    if b.x_grid != a.x_grid:
        raise ValueError(f"the reference must lie on the compared x grid {a.x_grid}, not {b.x_grid}")
    resampled = not np.array_equal(a.y, b.y)
    b_vals = _resample_onto(b, a.y) if resampled else b.values

    ix = np.ix_(*_region_masks(a.x_grid, a.y, region))
    err = np.abs(a.values[ix] - b_vals[ix])  # cropped first: only the region is subtracted
    sup_error = float(np.max(err))
    l2_error = float(np.sqrt(np.sum(err**2) * a.x_grid.dx * a.dy))

    diag_a = a.values[:, a.y.size // 2]
    trace_a = float(np.trapezoid(diag_a.real, dx=a.x_grid.dx))
    trace_b = float(np.trapezoid(b_vals[:, a.y.size // 2].real, dx=a.x_grid.dx))

    return ComparisonReport(
        sup_error=sup_error,
        l2_error=l2_error,
        region=tuple(region),
        trace_a=trace_a,
        trace_b=trace_b,
        diagonal_mismatch=float(np.max(np.abs(diag_a - f0.values))),
        hermiticity_defect=a.hermiticity_defect(),
        resampled=resampled,
    )

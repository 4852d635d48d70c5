"""Taylor assembly of the density matrix from a moment set, plus diagnostics.

The degree-N truncation in the off-diagonal variable is

    rho_N(x, y) = sum_{n=0}^{N} f_n(x) / n! * (2 i y / hbar)^n,

accumulated by the running-term recurrence ``z_n = z_{n-1} * (2 i y / hbar) / n``
so that no explicit large factorial is formed.  The moments f_0 .. f_N at one
time arrive as one ``(N+1, n_points)`` :class:`~hydrec.numerics.GridField`,
and the sum is one contraction of that matrix with the table of ``z_n``.
Real moments make the real part of the sum carry only even orders and the
imaginary part only odd orders, so the y < 0 half is the conjugate of the
y >= 0 half; only that half is summed.  The lattice is filled one block of
rows at a time, and each block decides how: past a pyramid's support window
f_1 .. f_N are 0, and a block where they all are is f_0 plus one row of
zero products, bit for bit the same sum; every other block runs the sum.
:func:`assemble` fills every row, or a window of rows (``rows=``), each row
bitwise the whole lattice's; the command line drives the same fill one row
block at a time to write a lattice it never holds whole.

:func:`compare` reads both lattices only inside its region, one block of
rows at a time, and holds one region-sized array, the errors ``|a - b|``.
Either lattice need hold only the region's rows, with its diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .numerics import GridField, SpatialGrid, _row_blocks
from .simulator import DensityMatrixGrid, _filled_lattice, _offdiagonal_axis, _row_window

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

    ``values`` holds every grid row, or the row window that :func:`assemble`
    was given, with the whole lattice's diagonal; ``term_peaks`` and
    ``trust_radius`` are those of the whole lattice either way.

    ``moments`` holds one :class:`MomentField` per row of the assembled matrix.
    Only the benchmark (``rec.moments[0].field`` in ``perfbench/worker.py``)
    and the tests read it; the library, the CLI and the demos pass
    :func:`compare` its ``f0`` from the matrix they hold.
    """

    order_max: int
    moments: tuple
    hbar: float
    values: DensityMatrixGrid
    #: max |f_n (2iy/hbar)^n / n!| over the y lattice, per order (read-only)
    term_peaks: np.ndarray = field(repr=False)
    trust_radius: float


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


class _TaylorFill(NamedTuple):
    """What every lattice of one moment matrix is filled from, rows or blocks alike.

    ``fill(out, blk, cols)`` writes the grid rows ``blk`` into ``out``: every
    column, or the centre column alone (``cols`` is the y = 0 slice), each
    entry bitwise the whole lattice's.  ``term_peaks`` and ``trust_radius``
    are taken from the whole moment matrix.
    """

    grid: SpatialGrid
    y: np.ndarray
    order_max: int
    hbar: float
    term_peaks: np.ndarray
    trust_radius: float
    fill: Callable

    def lattice(self, rows: slice | None = None) -> DensityMatrixGrid:
        """The lattice of the grid rows ``rows``, every row by default, as :func:`assemble`."""
        return _filled_lattice(self.grid, self.y, _row_window(rows, self.grid.n_points), self.fill)


def _taylor_fill(moments: GridField, y: np.ndarray, hbar: float, stacklevel=2) -> _TaylorFill:
    """The Taylor fill of :func:`assemble`, with its diagnostics.

    Warns of each overflowed order at the frame ``stacklevel`` of ``warnings.warn``: the
    caller's line by default.
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
    f_peaks = np.abs(np.maximum(f.max(axis=1), -f.min(axis=1)))  # max |f_n|, no |f| copy

    def fill(out, blk, cols):
        f_blk = f[:, blk]
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed orders are reported
            if not f_blk[1:].any():  # f_1 .. f_N all ±0.0: the sum is f_0 plus the zero row
                np.add(f_blk[0, :, None], row[cols], out=out)
                return
            # the y >= 0 half (y = 0 alone for the centre column) is summed y-major, so that
            # each multiply and add runs along x; from +0.0, orders in sequence, so a -0.0
            # moment gives +0.0 (a start from the n = 0 term would keep -0.0)
            half = z if cols == slice(None) else z[:, :1]
            acc = np.zeros((half.shape[1], f_blk.shape[1]), dtype=complex)
            term = np.empty_like(acc)
            for f_n, z_n in zip(f_blk, half):
                acc += np.multiply(f_n, z_n[:, None], out=term)
        if cols != slice(None):
            out[:] = acc.T
            return
        out[:, c:] = acc.T
        # column M-1-j holds (re, 0.0 - im) of column j: 0.0 - 0.0 is +0.0, as the sum gives
        mirror, upper = out[:, :c], acc[:0:-1].T
        mirror.real = upper.real
        np.subtract(0.0, upper.imag, out=mirror.imag)

    with np.errstate(over="ignore", invalid="ignore"):  # reported per order below
        # where f_1 .. f_N are ±0.0 each f_n z_n is ±0.0, or NaN in both parts where z_n
        # overflowed, so the sum from +0.0 is f_0 plus this row, bit for bit: the sum of
        # 0.0 * z_n, +0.0 or NaN; its mirror is itself, as 0.0 - im gives im, and it turns
        # a -0.0 f_0 into +0.0 as the sum does
        zero = np.zeros(z.shape[1], dtype=complex)
        for z_n in z[1:]:
            zero += 0.0 * z_n
        row = np.concatenate((zero[:0:-1], zero))
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
            stacklevel=stacklevel,
        )
    term_peaks.setflags(write=False)
    trust_radius = float(trusted.max()) if trusted.size else 0.0
    return _TaylorFill(moments.grid, y, len(f) - 1, float(hbar), term_peaks, trust_radius, fill)


def assemble(
    moments: GridField, y: np.ndarray, hbar: float, rows: slice | None = None
) -> TaylorReconstruction:
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
    rows : slice, optional
        Consecutive grid rows to fill, every row by default.  Each row is
        bitwise the whole lattice's row, and the window carries the whole
        lattice's centre column as its ``diagonal``; ``term_peaks`` and
        ``trust_radius`` are those of the whole lattice.

    Returns
    -------
    TaylorReconstruction
        With ``values[x, y=0]`` equal to f_0 exactly (only the n = 0 term
        survives on the diagonal).  ``values`` is the order-by-order sum of
        the outer products ``f_n z_n`` bit for bit, filled one block of rows
        at a time; a block where f_1 .. f_N are all 0 is written as f_0
        plus the zero row, without running the sum.
    """
    rows = _row_window(rows, moments.grid.n_points)  # refused before any work
    taylor = _taylor_fill(moments, y, hbar, stacklevel=3)  # warns from the caller's line
    f = moments.values
    return TaylorReconstruction(
        order_max=taylor.order_max,
        moments=tuple(MomentField(n, GridField(moments.grid, f_n)) for n, f_n in enumerate(f)),
        hbar=taylor.hbar,
        values=taylor.lattice(rows),
        term_peaks=taylor.term_peaks,
        trust_radius=taylor.trust_radius,
    )


def _axis_weights(grid: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower-corner index and fractional distance of each point on an ascending grid."""
    i = np.clip(np.searchsorted(grid, points, side="right") - 1, 0, grid.size - 2)
    return i, (points - grid[i]) / (grid[i + 1] - grid[i])


def _resample_onto(v: np.ndarray, b_y: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows ``v`` on the y lattice ``b_y``, interpolated linearly in y onto ``y``.

    Points outside ``b_y``'s range get 0.
    """
    j, ty = _axis_weights(b_y, y)
    vals = np.empty((v.shape[0], y.size), dtype=complex)
    for blk in _row_blocks(v.shape[0], vals.itemsize * y.size):
        np.multiply(v[blk, j], 1 - ty, out=vals[blk])
        vals[blk] += v[blk, j + 1] * ty
    vals[:, (y < b_y[0]) | (y > b_y[-1])] = 0.0
    return vals


def _region_slices(
    grid: SpatialGrid, y: np.ndarray, region: tuple[float, float]
) -> tuple[slice, slice]:
    """The rows ``|x| <= x_max`` and the columns ``|y| <= y_max`` of ``region``.

    Both axes ascend, so each is one run of indices; an empty region is refused.
    """
    runs = [np.flatnonzero(np.abs(p) <= bound) for p, bound in zip((grid.points, y), region)]
    if not all(run.size for run in runs):
        raise ValueError("comparison region contains no lattice points")
    return tuple(slice(run[0], run[-1] + 1) for run in runs)


def compare(
    a: DensityMatrixGrid, b: DensityMatrixGrid, region: tuple[float, float], f0: GridField
) -> ComparisonReport:
    """Error metrics of ``a`` against reference ``b`` over ``|x|, |y|`` bounds.

    Both lattices lie on one x grid and hold the region's rows: all rows, or
    a row window (``rows``) that covers them.  ``b`` is interpolated
    linearly in y onto ``a``'s y lattice when the two differ (recorded in
    the report).  Traces come from trapezoidal quadrature along each
    lattice's ``diagonal`` (the y = 0 column of its whole lattice); the
    diagonal mismatch is that of ``a``'s diagonal against ``f0``, one field
    on ``a``'s x grid.

    Both lattices are read only inside the region, one block of rows at a
    time, and ``b`` is resampled there block by block: the one region-sized
    array is ``|a - b|``, so the report is bitwise the one from
    whole-lattice copies of the region, and the same for a window of either
    lattice as for its whole lattice.  The same sweep takes ``a``'s
    Hermiticity defect over the region, column j against column M-1-j.
    Errors that are not finite, or whose L2 sum is not, raise ``ValueError``
    naming the region.
    """
    if f0.values.ndim != 1 or f0.grid != a.x_grid:
        raise ValueError(f"f0 must be one field on {a.x_grid}, not {f0.values.shape} on {f0.grid}")
    if b.x_grid != a.x_grid:
        raise ValueError(f"the reference must lie on the compared x grid {a.x_grid}, not {b.x_grid}")
    rows, cols = _region_slices(a.x_grid, a.y, region)
    for name, lattice in (("compared lattice", a), ("reference", b)):
        if not lattice.rows.start <= rows.start < rows.stop <= lattice.rows.stop:
            raise ValueError(
                f"the {name} holds rows {lattice.rows.start}..{lattice.rows.stop - 1}, which miss "
                f"rows of the region |x| <= {region[0]}, |y| <= {region[1]} "
                f"(rows {rows.start}..{rows.stop - 1})"
            )
    resampled = not np.array_equal(a.y, b.y)
    trace_a = float(np.trapezoid(a.diagonal.real, dx=a.x_grid.dx))
    trace_b = float(np.trapezoid(b.diagonal.real, dx=a.x_grid.dx))

    a_rows, b_rows = (  # the region's rows of each lattice
        v.values[rows.start - v.rows.start : rows.stop - v.rows.start] for v in (a, b)
    )
    a_in, y_in = a_rows[:, cols], a.y[cols]
    a_mirror = a_rows[:, ::-1][:, cols]  # column M-1-j of each region column j
    err = np.empty(a_in.shape)
    defects = []
    for blk in _row_blocks(len(err), a_in.itemsize * y_in.size):
        b_blk = _resample_onto(b_rows[blk], b.y, y_in) if resampled else b_rows[blk, cols]
        np.abs(a_in[blk] - b_blk, out=err[blk])
        with np.errstate(over="ignore", invalid="ignore"):  # a defect not finite is refused
            defects.append(np.max(np.abs(a_in[blk] - np.conj(a_mirror[blk]))))
    sup_error = float(np.max(err))
    # squared in place: the same values summed in the same order as a fresh err**2
    with np.errstate(over="ignore"):  # an overflow is refused below
        l2_error = float(np.sqrt(np.sum(np.square(err, out=err)) * a.x_grid.dx * a.dy))
    if not np.isfinite(l2_error):  # a NaN or an infinite error makes the sum one too
        raise ValueError(f"|a - b|, or its L2 sum, is not finite in the region |x| <= "
                         f"{region[0]}, |y| <= {region[1]}")

    return ComparisonReport(
        sup_error=sup_error,
        l2_error=l2_error,
        region=tuple(region),
        trace_a=trace_a,
        trace_b=trace_b,
        diagonal_mismatch=float(np.max(np.abs(a.diagonal - f0.values))),
        hermiticity_defect=float(np.max(defects)),
        resampled=resampled,
    )

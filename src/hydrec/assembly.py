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

:func:`compare` reads both lattices only inside its region, one block of
rows at a time, and holds one region-sized array, the errors ``|a - b|``.
Its reference need hold only the region's rows, with its diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .numerics import GridField, SpatialGrid, _row_blocks
from .simulator import DensityMatrixGrid, _filled_lattice, _offdiagonal_axis

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
        survives on the diagonal).  ``values`` is the order-by-order sum of
        the outer products ``f_n z_n`` bit for bit, filled one block of rows
        at a time; a block where f_1 .. f_N are all 0 is written as f_0
        plus the zero row, without running the sum.
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

    def fill(out, blk, cols):  # cols: every column, as the lattice holds every row
        f_blk = f[:, blk]
        if not f_blk[1:].any():  # f_1 .. f_N all ±0.0: the sum is f_0 plus the zero row
            np.add(f_blk[0, :, None], row, out=out)
            return
        # the y >= 0 half is summed y-major, so that each multiply and add runs along x;
        # from +0.0, orders in sequence, so a -0.0 moment gives +0.0 (a start from the
        # n = 0 term would keep -0.0)
        acc = np.zeros((z.shape[1], f_blk.shape[1]), dtype=complex)
        term = np.empty_like(acc)
        for f_n, z_n in zip(f_blk, z):
            acc += np.multiply(f_n, z_n[:, None], out=term)
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
        lattice = _filled_lattice(moments.grid, y, slice(0, f.shape[1]), fill)
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
        values=lattice,
        term_peaks=term_peaks,
        trust_radius=float(trusted.max()) if trusted.size else 0.0,
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

    ``a`` holds every row of its x grid.  ``b`` must lie on that grid and
    hold the region's rows: all rows, or a row window (``b.rows``) that
    covers them.  It is interpolated linearly in y onto ``a``'s y lattice
    when the two differ (recorded in the report).  Traces come from
    trapezoidal quadrature along the diagonals, ``b``'s being its
    ``diagonal`` (the y = 0 column of its whole lattice); the diagonal
    mismatch is measured against ``f0``, one field on ``a``'s x grid.

    Both lattices are read only inside the region, one block of rows at a
    time, and ``b`` is resampled there block by block: the one region-sized
    array is ``|a - b|``, so the report is bitwise the one from
    whole-lattice copies of the region, and the same for a window of ``b``
    as for its whole lattice.  The same sweep takes ``a``'s Hermiticity
    defect over the region, column j against column M-1-j.  Errors that are
    not finite, or whose L2 sum is not, raise ``ValueError`` naming the region.
    """
    if f0.values.ndim != 1 or f0.grid != a.x_grid:
        raise ValueError(f"f0 must be one field on {a.x_grid}, not {f0.values.shape} on {f0.grid}")
    if b.x_grid != a.x_grid:
        raise ValueError(f"the reference must lie on the compared x grid {a.x_grid}, not {b.x_grid}")
    if a.rows != slice(0, a.x_grid.n_points):
        raise ValueError(f"the compared lattice holds only rows {a.rows.start}..{a.rows.stop - 1}")
    rows, cols = _region_slices(a.x_grid, a.y, region)
    if not b.rows.start <= rows.start < rows.stop <= b.rows.stop:
        raise ValueError(
            f"the reference holds rows {b.rows.start}..{b.rows.stop - 1}, which miss rows of the "
            f"region |x| <= {region[0]}, |y| <= {region[1]} (rows {rows.start}..{rows.stop - 1})"
        )
    resampled = not np.array_equal(a.y, b.y)
    diag_a = a.values[:, a.y.size // 2]
    trace_a = float(np.trapezoid(diag_a.real, dx=a.x_grid.dx))
    trace_b = float(np.trapezoid(b.diagonal.real, dx=a.x_grid.dx))

    start = rows.start - b.rows.start  # the region's first row in b
    a_in, y_in = a.values[rows, cols], a.y[cols]
    a_mirror = a.values[rows, ::-1][:, cols]  # column M-1-j of each region column j
    b_in = b.values[start : start + rows.stop - rows.start]
    err = np.empty(a_in.shape)
    defects = []
    for blk in _row_blocks(len(err), a_in.itemsize * y_in.size):
        b_blk = _resample_onto(b_in[blk], b.y, y_in) if resampled else b_in[blk, cols]
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
        diagonal_mismatch=float(np.max(np.abs(diag_a - f0.values))),
        hermiticity_defect=float(np.max(defects)),
        resampled=resampled,
    )

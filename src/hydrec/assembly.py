"""Taylor assembly of the density matrix from a moment set, plus diagnostics.

The degree-N truncation in the off-diagonal variable is

    rho_N(x, y) = sum_{n=0}^{N} f_n(x) / n! * (2 i y / hbar)^n,

accumulated by the running-term recurrence ``z_n = z_{n-1} * (2 i y / hbar) / n``
so that no explicit large factorial is formed.  Real moments make the real
part of the sum carry only even orders and the imaginary part only odd
orders, which :func:`real_imag_split` exposes directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .numerics import GridField
from .reconstruction import MomentField
from .simulator import DensityMatrixGrid

__all__ = [
    "TaylorReconstruction",
    "ComparisonReport",
    "assemble",
    "real_imag_split",
    "hbar_rescaling_check",
    "compare",
]

#: A running term whose magnitude passes this bound is reported as overflowing.
TERM_MAGNITUDE_LIMIT = 1e300


@dataclass(frozen=True)
class TaylorReconstruction:
    """Truncated off-diagonal Taylor polynomial of the density matrix."""

    order_max: int
    moments: tuple
    hbar: float
    values: DensityMatrixGrid
    #: max |f_n (2iy/hbar)^n / n!| over the y lattice, per order
    term_peaks: np.ndarray = field(repr=False)

    @property
    def y(self) -> np.ndarray:
        return self.values.y

    def trust_radius(self, threshold: float = 1e-6) -> float:
        """Largest |y| where the last two terms stay below ``threshold * max|rho_N|``.

        A heuristic convergence indicator: beyond this radius the truncation
        is no longer driving terms to zero.  A real state's odd moments are
        identically zero, so at odd N the last term alone says nothing.
        """
        if self.order_max == 0:
            return float(np.max(np.abs(self.y)))
        y = self.y
        tail = np.zeros(y.shape)
        for n in (self.order_max - 1, self.order_max):
            scale = float(np.max(np.abs(self.moments[n].field.values)))
            z = np.abs(2.0 * y / self.hbar) ** n
            log_fact = float(np.sum(np.log(np.arange(1, n + 1))))
            tail = np.maximum(tail, scale * z * np.exp(-log_fact))
        limit = threshold * float(np.max(np.abs(self.values.values)))
        ok = np.abs(y)[tail < limit]
        return float(ok.max()) if ok.size else 0.0


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


def _validated_moments(moments) -> list[MomentField]:
    ms = list(moments)
    if not ms:
        raise ValueError("need at least the order-0 moment")
    for n, m in enumerate(ms):
        if m.order != n:
            raise ValueError(f"moment orders must be contiguous from 0; slot {n} holds {m.order}")
        if m.field.grid != ms[0].field.grid:
            raise ValueError("all moments must share one spatial grid")
        if m.time != ms[0].time:
            raise ValueError("all moments must share one time")
    return ms


def assemble(moments, y: np.ndarray, hbar: float) -> TaylorReconstruction:
    """Build rho_N(x, y) from moments f_0 .. f_N.

    Parameters
    ----------
    moments : sequence of MomentField
        Contiguous orders 0..N on one grid at one time.
    y : array
        Off-diagonal lattice (uniform, symmetric, containing 0).
    hbar : float
        Sets the off-diagonal length scale.

    Returns
    -------
    TaylorReconstruction
        With ``values[x, y=0]`` equal to f_0 exactly (only the n = 0 term
        survives on the diagonal).
    """
    ms = _validated_moments(moments)
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    y = np.asarray(y, dtype=float)
    grid = ms[0].field.grid
    n_x, n_y = grid.n_points, y.size

    ratio = 2j * y / hbar
    z = np.ones(n_y, dtype=complex)
    values = np.zeros((n_x, n_y), dtype=complex)
    values += np.outer(ms[0].field.values, z)
    peaks = [float(np.max(np.abs(ms[0].field.values)))]
    with np.errstate(over="ignore", invalid="ignore"):  # reported per order below
        for n in range(1, len(ms)):
            z = z * ratio / n
            term = np.outer(ms[n].field.values, z)
            peak = float(np.max(np.abs(term)))
            if not np.isfinite(peak) or peak > TERM_MAGNITUDE_LIMIT:
                warnings.warn(
                    f"order-{n} term reaches magnitude {peak:.3e}; the expansion has "
                    "left the floating-point range on this lattice",
                    UserWarning,
                    stacklevel=2,
                )
            peaks.append(peak)
            values += term
    return TaylorReconstruction(
        order_max=len(ms) - 1,
        moments=tuple(ms),
        hbar=float(hbar),
        values=DensityMatrixGrid(grid, y, values),
        term_peaks=np.asarray(peaks),
    )


def real_imag_split(rec: TaylorReconstruction) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the even-order (real) and odd-order (imaginary) sums separately.

    Returns the two real arrays whose combination ``real + 1j * imag``
    reproduces the assembled values to machine precision.
    """
    y = rec.y
    hbar = rec.hbar
    grid_n = rec.values.x_grid.n_points
    real_part = np.zeros((grid_n, y.size))
    imag_part = np.zeros((grid_n, y.size))
    u = 2.0 * y / hbar
    z = np.ones(y.size)
    for n, moment in enumerate(rec.moments):
        if n > 0:
            z = z * u / n
        sign = (-1.0) ** (n // 2)
        target = real_part if n % 2 == 0 else imag_part
        target += sign * np.outer(moment.field.values, z)
    return real_part, imag_part


def hbar_rescaling_check(
    moments, y: np.ndarray, hbar: float, scale: float, tolerance: float = 1e-12
) -> bool:
    """Verify that changing hbar only rescales the off-diagonal variable.

    Assembling with ``(y, hbar)`` and with ``(scale * y, scale * hbar)`` must
    agree pointwise (index to index, the lattice point ``scale * y`` standing
    for ``y``): the expansion depends on y and hbar through ``y / hbar`` only.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    a = assemble(moments, y, hbar)
    b = assemble(moments, scale * np.asarray(y, dtype=float), scale * hbar)
    num = float(np.max(np.abs(a.values.values - b.values.values)))
    den = float(np.max(np.abs(a.values.values)))
    return num <= tolerance * den


def _resample_onto(b: DensityMatrixGrid, a: DensityMatrixGrid) -> np.ndarray:
    """Bilinear resample of b's values onto a's lattice."""
    bx = b.x_grid.points
    ax = a.x_grid.points
    if bx[-1] < ax[0] or ax[-1] < bx[0] or b.y[-1] < a.y[0] or a.y[-1] < b.y[0]:
        raise ValueError("lattices are disjoint; nothing to compare")
    interp_re = RegularGridInterpolator(
        (bx, b.y), b.values.real, bounds_error=False, fill_value=0.0
    )
    interp_im = RegularGridInterpolator(
        (bx, b.y), b.values.imag, bounds_error=False, fill_value=0.0
    )
    xx, yy = np.meshgrid(ax, a.y, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    vals = interp_re(pts) + 1j * interp_im(pts)
    return vals.reshape(a.values.shape)


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
    diagonal.
    """
    same = (
        a.x_grid == b.x_grid
        and a.y.size == b.y.size
        and np.array_equal(a.y, b.y)
    )
    if same:
        b_vals = b.values
        resampled = False
    else:
        b_vals = _resample_onto(b, a)
        resampled = True

    if region is None:
        region = (float("inf"), float("inf"))
    x_max, y_max = region
    x = a.x_grid.points
    mask_x = np.abs(x) <= x_max
    mask_y = np.abs(a.y) <= y_max
    if not (mask_x.any() and mask_y.any()):
        raise ValueError("comparison region contains no lattice points")
    diff = (a.values - b_vals)[np.ix_(mask_x, mask_y)]
    sup_error = float(np.max(np.abs(diff)))
    l2_error = float(
        np.sqrt(np.sum(np.abs(diff) ** 2) * a.x_grid.dx * a.dy)
    )

    j0 = int(np.argmin(np.abs(a.y)))
    diag_a = a.values[:, j0]
    diag_b = b_vals[:, j0]
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

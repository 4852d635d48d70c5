"""Ground-truth generation and independent oracles.

Provides split-operator wave-packet propagation for synthesizing measured
position densities, exact density matrices in rotated ``(x, y)`` coordinates
(values at ``<x+y| rho |x-y>``), the phase-space quasi-probability transform,
and momentum-moment oracles, including closed forms for Gaussian and
two-component superposition (cat) states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import GridField, PhysicalConstants, SpatialGrid
from .numerics import _check_numbers, _read_only_array, _row_blocks

__all__ = [
    "SimulationQualityError",
    "GridCoverageWarning",
    "WaveFunction",
    "CatStateParams",
    "DensityMatrixGrid",
    "WignerGrid",
    "make_cat_state",
    "gaussian_packet",
    "cat_state_norm",
    "cat_state_density_matrix",
    "cat_state_moment",
    "gaussian_packet_moment",
    "probability_density",
    "propagate",
    "exact_density_matrix",
    "offdiagonal_lattice",
    "wigner_transform",
    "oracle_moment_set",
]

#: Per-step relative norm drift that flags an inadequate grid or time step.
NORM_DRIFT_TOLERANCE = 1e-10
#: Relative edge amplitude that flags periodic wrap-around.
WRAP_TOLERANCE = 1e-8
#: Relative level below which a quasi-probability column counts as decayed.
P_DECAY_THRESHOLD = 1e-12


class SimulationQualityError(RuntimeError):
    """Propagation left its validity envelope (norm drift or wrap-around)."""


class GridCoverageWarning(UserWarning):
    """A lattice does not comfortably cover the structure it must resolve."""


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a spatial grid; the norm is carried, not forced."""

    grid: SpatialGrid
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = _read_only_array(self.amplitudes, complex, (self.grid.n_points,), finite=True)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        """Squared L2 norm, integral of |psi|^2 over the grid."""
        return float(np.trapezoid(np.abs(self.amplitudes) ** 2, dx=self.grid.dx))


@dataclass(frozen=True)
class CatStateParams:
    """Width and wavenumber of the two-component superposition state."""

    sigma: float = 1.0 / np.sqrt(2.0)
    k0: float = 2.0 * np.sqrt(2.0)

    def __post_init__(self):
        _check_numbers(self)
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not np.isfinite(self.k0):
            raise ValueError("k0 must be finite")


def _offdiagonal_axis(y) -> np.ndarray:
    """A read-only y lattice: odd, ascending, uniform, symmetric; ``y[y.size // 2]`` is 0."""
    y = _read_only_array(y, float)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise ValueError("y lattice must be one-dimensional with an odd count >= 3")
    dy = np.diff(y)
    # a spacing carries the rounding of the points it separates, up to eps * max|y|
    if not (dy[0] > 0 and np.allclose(dy, dy[0], rtol=1e-12, atol=1e-12 * abs(y[0]))):
        raise ValueError("y lattice must be ascending and uniform")
    if not np.allclose(y, -y[::-1], rtol=0.0, atol=1e-12 * max(abs(y[0]), 1.0)):
        raise ValueError("y lattice must be symmetric about 0")
    return y


@dataclass(frozen=True)
class DensityMatrixGrid:
    """rho(x+y, x-y) sampled on a rectangular (x, y) lattice.

    ``y`` is the off-diagonal variable; it must be odd, ascending, uniform and
    symmetric about zero so that the centre column ``y.size // 2`` is the
    probability density and the Hermiticity relation pairs lattice points exactly.
    """

    x_grid: SpatialGrid
    y: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        y = _offdiagonal_axis(self.y)
        # not checked for finiteness: a high-order assembly may overflow (assemble warns)
        values = _read_only_array(self.values, complex, (self.x_grid.n_points, y.size))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "values", values)

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    def hermiticity_defect(self) -> float:
        """sup |rho(x, y) - conj(rho(x, -y))| over the lattice.

        Columns j and M-1-j differ by an exact sign flip, so only the columns
        j <= M//2 are read, in blocks of rows.  ``np.max`` keeps a NaN.
        """
        half = self.y.size // 2 + 1
        peaks = []
        for blk in _row_blocks(self.x_grid.n_points, self.values.itemsize * self.y.size):
            block = self.values[blk]
            peaks.append(np.max(np.abs(block[:, :half] - np.conj(block[:, ::-1][:, :half]))))
        return float(np.max(peaks))


@dataclass(frozen=True)
class WignerGrid:
    """Real quasi-probability values on an (x, p) lattice."""

    x_grid: SpatialGrid
    p: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = _read_only_array(self.p, float)
        values = _read_only_array(self.values, float, (self.x_grid.n_points, p.size))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", values)

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])


def offdiagonal_lattice(y_max: float, n_points: int) -> np.ndarray:
    """Symmetric uniform y lattice containing an exact zero.

    ``n_points`` must be odd; the lattice is built as integer multiples of the
    spacing so that index symmetry holds bitwise.
    """
    if n_points % 2 == 0 or n_points < 3:
        raise ValueError(f"need an odd lattice with >= 3 points, got {n_points}")
    half = n_points // 2
    dy = y_max / half
    if not 0 < dy * half < np.inf:  # dy * half is the largest |y|
        raise ValueError(f"y_max = {y_max} gives no finite lattice with a nonzero spacing")
    return dy * np.arange(-half, half + 1)


def make_cat_state(params: CatStateParams, grid: SpatialGrid) -> WaveFunction:
    """Unnormalized superposition of two counter-propagating Gaussians.

    Amplitudes are ``exp(-(x / 2 sigma)^2) * 2 cos(k0 x)``.  The grid must
    extend past 4 sigma on both sides (truncation would corrupt the oracles
    built from this state); less than 6 sigma of padding draws a warning.
    """
    span = min(-grid.x_min, grid.x_max)
    if span < 4.0 * params.sigma:
        raise ValueError(
            f"grid spans only {span:.3g} < 4 sigma = {4 * params.sigma:.3g}; "
            "the superposition state would be truncated"
        )
    if span < 6.0 * params.sigma:
        warnings.warn(
            f"grid spans {span:.3g} < 6 sigma = {6 * params.sigma:.3g}; "
            "oracle accuracy may degrade",
            GridCoverageWarning,
            stacklevel=2,
        )
    x = grid.points
    amp = np.exp(-((x / (2.0 * params.sigma)) ** 2)) * 2.0 * np.cos(params.k0 * x)
    return WaveFunction(grid, amp.astype(complex))


def gaussian_packet(
    grid: SpatialGrid,
    sigma: float,
    center: float = 0.0,
    momentum: float = 0.0,
    hbar: float = 1.0,
) -> WaveFunction:
    """Normalized Gaussian wave packet ``exp(-(x-c)^2 / 4 sigma^2 + i p x / hbar)``.

    ``sigma`` is the position standard deviation of |psi|^2.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = grid.points
    amp = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * x / hbar)
    return WaveFunction(grid, amp * (2.0 * np.pi * sigma**2) ** -0.25)


def cat_state_norm(params: CatStateParams) -> float:
    """Closed-form squared norm 2 sigma sqrt(2 pi) (1 + exp(-2 k0^2 sigma^2))."""
    s, k0 = params.sigma, params.k0
    return 2.0 * s * np.sqrt(2.0 * np.pi) * (1.0 + np.exp(-2.0 * k0**2 * s**2))


def cat_state_density_matrix(
    params: CatStateParams, grid: SpatialGrid, y: np.ndarray
) -> DensityMatrixGrid:
    """Closed-form rho(x+y, x-y) of the unnormalized superposition state.

    ``2 exp(-(x^2+y^2)/2 sigma^2) (cos 2 k0 x + cos 2 k0 y)``; real.
    """
    s, k0 = params.sigma, params.k0
    xx, yy = grid.points[:, None], np.asarray(y, float)[None, :]
    vals = 2.0 * np.exp(-(xx**2 + yy**2) / (2.0 * s**2)) * (
        np.cos(2.0 * k0 * xx) + np.cos(2.0 * k0 * yy)
    )
    vals = vals.astype(complex)
    vals.setflags(write=False)
    return DensityMatrixGrid(grid, y, vals)


def cat_state_moment(
    params: CatStateParams, order: int, x: np.ndarray, hbar: float = 1.0
) -> np.ndarray:
    """Analytic momentum moment of the unnormalized superposition state at t=0.

    Derived by differentiating the closed-form density matrix in the
    off-diagonal variable at y = 0.  Odd orders vanish because the density
    matrix is real; even orders reduce to sign-uniform finite sums, so the
    evaluation stays accurate to machine precision up to high order.
    """
    x = np.asarray(x, dtype=float)
    if order < 0:
        raise ValueError("order must be >= 0")
    if order % 2 == 1:
        return np.zeros_like(x)
    s, k0 = params.sigma, params.k0
    m = order // 2
    a = 1.0 / (2.0 * s**2)
    # |d^(2m) exp(-a y^2)|_0 = (2m)!/m! a^m with sign (-1)^m; the sign cancels
    # against (hbar/2i)^(2m), leaving positive-sum arithmetic throughout.
    g_n = factorial(2 * m) / factorial(m) * a**m
    c_n = sum(
        comb(order, 2 * l)
        * factorial(2 * l)
        / factorial(l)
        * a**l
        * (2.0 * k0) ** (order - 2 * l)
        for l in range(m + 1)
    )
    envelope = 2.0 * np.exp(-(x**2) / (2.0 * s**2))
    return (hbar / 2.0) ** order * envelope * (np.cos(2.0 * k0 * x) * g_n + c_n)


def gaussian_packet_moment(
    order: int,
    x: np.ndarray,
    sigma: float,
    center: float = 0.0,
    momentum: float = 0.0,
    hbar: float = 1.0,
) -> np.ndarray:
    """Analytic momentum moment of a (possibly boosted) normalized Gaussian packet.

    ``f_n = f_0 * sum_l C(n, 2l) (2l)!/l! (hbar^2 a / 4)^l p^(n-2l)`` with
    ``a = 1 / 2 sigma^2``; all terms are positive, so the sum is stable.
    """
    x = np.asarray(x, dtype=float)
    a = 1.0 / (2.0 * sigma**2)
    f0 = np.exp(-((x - center) ** 2) * a) / (sigma * np.sqrt(2.0 * np.pi))
    s = sum(
        comb(order, 2 * l)
        * factorial(2 * l)
        / factorial(l)
        * (hbar**2 * a / 4.0) ** l
        * momentum ** (order - 2 * l)
        for l in range(order // 2 + 1)
    )
    return f0 * s


def probability_density(psi: WaveFunction) -> GridField:
    """|psi(x)|^2 on the wavefunction grid."""
    return GridField(psi.grid, np.abs(psi.amplitudes) ** 2)


def propagate(
    psi: WaveFunction,
    model,
    constants: PhysicalConstants,
    dt: float,
    steps: int,
    t_start: float = 0.0,
) -> WaveFunction:
    """Second-order split-operator evolution under V(x, t).

    Each step applies half a kinetic step in momentum space, a full potential
    step with V evaluated at the step midpoint time, and another half kinetic
    step.  Negative ``dt`` propagates backward in time.

    Raises
    ------
    ValueError
        If the model carries a ``mass`` that differs from ``constants.mass``.
    SimulationQualityError
        If the per-step norm drift exceeds ``1e-10`` relative, or the edge
        amplitude exceeds ``1e-8`` of the peak (periodic wrap-around).
    """
    from .potentials import check_mass, potential_value

    check_mass(model, constants.mass)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return psi
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    grid = psi.grid
    x = grid.points
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    half_kinetic = np.exp(-1j * constants.hbar * k**2 * dt / (4.0 * constants.mass))
    amp = np.array(psi.amplitudes, dtype=complex)
    norm_ref = float(np.sum(np.abs(amp) ** 2))
    t = t_start
    for _ in range(steps):
        amp = np.fft.ifft(half_kinetic * np.fft.fft(amp))
        v = potential_value(model, x, t + 0.5 * dt)
        amp *= np.exp(-1j * v * dt / constants.hbar)
        amp = np.fft.ifft(half_kinetic * np.fft.fft(amp))
        t += dt
        magnitude = np.abs(amp)  # shared by the norm and wrap-around checks
        norm_now = float(np.sum(magnitude**2))
        if abs(norm_now - norm_ref) > NORM_DRIFT_TOLERANCE * norm_ref:
            raise SimulationQualityError(
                f"norm drifted by {abs(norm_now - norm_ref) / norm_ref:.3e} in one step "
                "(relative); the grid or time step is inadequate"
            )
        norm_ref = norm_now
        peak = float(np.max(magnitude))
        edge = max(abs(amp[0]), abs(amp[-1]))
        if peak > 0 and edge > WRAP_TOLERANCE * peak:
            raise SimulationQualityError(
                f"edge amplitude {edge:.3e} exceeds {WRAP_TOLERANCE:.0e} of peak "
                f"{peak:.3e}; the packet is wrapping around the periodic grid"
            )
    return WaveFunction(grid, amp)


def exact_density_matrix(psi: WaveFunction, y=None) -> DensityMatrixGrid:
    """rho(x+y, x-y) = psi(x+y) conj(psi(x-y)) on an (x, y) lattice.

    With the default lattice (``y`` at integer multiples of the grid spacing,
    spanning half the grid), the shifted samples are exact.  Arbitrary ``y``
    lattices fall back to linear interpolation of the amplitudes, which is
    flagged.  Evaluations past the grid edge use zero (and are flagged when
    the wavefunction has not decayed there).
    """
    grid, amp = psi.grid, psi.amplitudes
    n, dx = grid.n_points, grid.dx
    half = (n - 1) // 2
    y = _offdiagonal_axis(dx * np.arange(-half, half + 1) if y is None else y)

    peak = float(np.max(np.abs(amp)))
    edge = max(abs(amp[0]), abs(amp[-1]))
    if peak > 0 and edge > WRAP_TOLERANCE * peak:
        warnings.warn(
            "wavefunction has not decayed at the grid edge; off-grid evaluations "
            "are zero-filled and will bias the density matrix",
            GridCoverageWarning,
            stacklevel=2,
        )

    shifts = np.rint(y / dx).astype(int)
    # a lattice within rounding of y = 0 has no whole-step stride: it is interpolated
    if shifts[1] != shifts[0] and np.allclose(y / dx, shifts, rtol=0.0, atol=1e-9):
        # windows[i, k] is padded[i + k], so column j below is amp shifted by shifts[j]
        reach = int(shifts[-1])  # the shifts run from -reach to reach
        padded = np.zeros(n + 2 * reach, dtype=complex)
        padded[reach : reach + n] = amp
        plus = sliding_window_view(padded, 2 * reach + 1)[:n, :: shifts[1] - shifts[0]]
        minus = plus[:, ::-1]  # the lattice is symmetric, so shifts[-1 - j] == -shifts[j]
    else:
        warnings.warn(
            "y lattice is not commensurate with the grid spacing; amplitudes are "
            "interpolated linearly",
            GridCoverageWarning,
            stacklevel=2,
        )
        x = grid.points
        plus, minus = (
            np.interp(t, x, amp.real, left=0.0, right=0.0)
            + 1j * np.interp(t, x, amp.imag, left=0.0, right=0.0)
            for t in (x[:, None] + y, x[:, None] - y)
        )
    # into a C-ordered buffer: a strided window's conjugate may come out Fortran-ordered
    values = np.conjugate(minus, out=np.empty((n, y.size), dtype=complex))
    # plus first: numpy's fused complex multiply rounds differently with the operands swapped
    np.multiply(plus, values, out=values)
    values.setflags(write=False)
    return DensityMatrixGrid(grid, y, values)


def wigner_transform(rho: DensityMatrixGrid, constants: PhysicalConstants) -> WignerGrid:
    """Quasi-probability distribution from the rotated density matrix.

    ``W(x, p) = (1 / pi hbar) * integral dy exp(-2 i p y / hbar) rho(x+y, x-y)``
    evaluated as a discrete Fourier sum over the y lattice.  The momentum
    lattice is the conjugate (Nyquist) lattice of the y lattice: ``M`` points
    spaced ``pi hbar / (M dy)``.  A relative imaginary residue above ``1e-8``
    is flagged; the real part is returned.
    """
    hbar = constants.hbar
    vals = rho.values
    m = rho.y.size
    dy = rho.dy
    c = m // 2  # the index of y = 0 and of p = 0
    j = np.arange(m)
    # 2 p_k y_j / hbar = 2 pi (k - c)(j - c) / M with p_k = (k - c) dp
    phase_j = np.exp(2j * np.pi * c * j / m)
    pref_k = np.exp(2j * np.pi * j * c / m) * np.exp(-2j * np.pi * c * c / m)
    pref = (dy / (np.pi * hbar)) * pref_k[None, :]
    out = np.empty(vals.shape)
    peaks, imag_peaks = [], []
    for blk in _row_blocks(vals.shape[0], vals.itemsize * m):
        # one block buffer, transformed in place; pref first: the multiply rounds by operand order
        w = vals[blk] * phase_j[None, :]
        np.fft.fft(w, axis=1, out=w)
        np.multiply(pref, w, out=w)
        peaks.append(np.max(np.abs(w)))
        imag_peaks.append(np.max(np.abs(w.imag)))
        out[blk] = w.real
    out.setflags(write=False)  # WignerGrid adopts it
    dp = np.pi * hbar / (m * dy)
    p = (np.arange(m) - c) * dp

    # np.max, not max(): a NaN block peak must propagate as it does over the whole lattice
    scale = float(np.max(peaks))
    residue = float(np.max(imag_peaks)) / scale if scale > 0 else 0.0
    if residue > 1e-8:
        warnings.warn(
            f"quasi-probability has relative imaginary residue {residue:.3e}; "
            "the input density matrix is not Hermitian on this lattice",
            GridCoverageWarning,
            stacklevel=2,
        )
    return WignerGrid(rho.x_grid, p, out)


def _decayed_p_window(w: WignerGrid, threshold: float) -> slice:
    # max |W| per column without an |W| lattice; a NaN still propagates
    colmax = np.maximum(np.max(w.values, axis=0), -np.min(w.values, axis=0))
    peak = colmax.max()
    if not np.isfinite(peak):
        raise ValueError("quasi-probability distribution holds non-finite values")
    if peak == 0.0:
        return slice(0, w.p.size)
    idx = np.nonzero(colmax > threshold * peak)[0]
    lo = max(int(idx[0]) - 1, 0)
    hi = min(int(idx[-1]) + 1, w.p.size - 1)
    return slice(lo, hi + 1)


def _as_wigner(state, constants: PhysicalConstants) -> WignerGrid:
    if isinstance(state, WignerGrid):
        return state
    if isinstance(state, DensityMatrixGrid):
        return wigner_transform(state, constants)
    if isinstance(state, WaveFunction):
        return wigner_transform(exact_density_matrix(state), constants)
    raise TypeError(f"expected WaveFunction, DensityMatrixGrid or WignerGrid, got {type(state)}")


def oracle_moment_set(state, orders, constants: PhysicalConstants) -> list[GridField]:
    """Momentum moments ``integral p^n W(x, p) dp`` for several orders at once.

    The quadrature runs over the momentum window on which the distribution has
    decayed to ``1e-12`` of its peak; outside that window the numerical
    distribution is float noise, which the ``p^n`` weight would otherwise
    amplify into the result.  A warning reports when the weighted integrand
    has not decayed at the window edge.
    """
    w = _as_wigner(state, constants)
    window = _decayed_p_window(w, P_DECAY_THRESHOLD)
    p_win = w.p[window]
    vals_win = w.values[:, window]
    dp = w.dp
    out = []
    for order in orders:
        if order < 0:
            raise ValueError("moment order must be >= 0")
        integrand = p_win[None, :] ** order * vals_win
        peak = float(np.max(np.abs(integrand)))
        edge = float(max(np.max(np.abs(integrand[:, 0])), np.max(np.abs(integrand[:, -1]))))
        if peak > 0 and edge > 1e-10 * peak:
            warnings.warn(
                f"p^{order}-weighted integrand has edge amplitude {edge:.3e} "
                f"({edge / peak:.1e} of peak); extend the momentum lattice",
                GridCoverageWarning,
                stacklevel=2,
            )
        out.append(GridField(w.x_grid, np.trapezoid(integrand, dx=dp, axis=1)))
    return out

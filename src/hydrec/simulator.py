"""Ground-truth generation and independent oracles.

Provides split-operator wave-packet propagation and the walk across the time
nodes that synthesizes the measured position densities, exact density
matrices in rotated ``(x, y)`` coordinates (values at ``<x+y| rho |x-y>``),
the phase-space quasi-probability transform, and momentum-moment oracles,
including closed forms for Gaussian and two-component superposition (cat) states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import GridField, PhysicalConstants, SpatialGrid, TimeNodes
from .numerics import _check_numbers, _is_number, _read_only_array, _row_blocks

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
    "sample_densities",
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
#: Internal step of :func:`sample_densities` when no substep count is given.
MAX_INTERNAL_STEP = 1e-3


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

    Each step is a half kinetic step in momentum space, a full potential step
    with V evaluated at the step midpoint time, and another half kinetic step.
    Consecutive half kinetic steps are merged (Strang): one half step opens
    the run, each step then kicks and takes a full kinetic step, and the last
    step closes with a half step, so ``steps`` steps cost ``steps + 1`` FFT
    pairs.  Negative ``dt`` propagates backward in time.  The steps work in
    place on one set of buffers; the potential factor ``exp(-i V dt / hbar)``
    is built from ``cos`` and ``sin`` of the phase and recomputed only when V
    differs from the previous step's, so a static potential costs one per call.

    The norm and edge guards run after each kick, where the state equals the
    end of that step up to unitary factors, and once more on the returned state.

    Raises
    ------
    TypeError
        If ``steps`` is not an integer.
    ValueError
        If ``dt`` or ``t_start`` is not finite, or the model carries a ``mass``
        that differs from ``constants.mass``.
    SimulationQualityError
        If the per-step norm drift exceeds ``1e-10`` relative, or the edge
        amplitude exceeds ``1e-8`` of the peak (periodic wrap-around).
    """
    from .potentials import check_mass, potential_value

    for name, value in (("dt", dt), ("t_start", t_start)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not _is_number(steps, integer=True):
        raise TypeError(f"steps must be an integer, got {steps!r}")
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
    # its own exponential: half_kinetic**2 rounds differently
    kinetic = np.exp(-1j * constants.hbar * k**2 * dt / (2.0 * constants.mass))
    amp = np.array(psi.amplitudes, dtype=complex)
    kick = np.empty_like(amp)
    v_kick = None  # the V that ``kick`` was computed from
    magnitude = np.empty(grid.n_points)  # shared by the norm and wrap-around checks
    norm_ref = float(np.sum(np.abs(amp) ** 2))
    t = t_start
    _half_kinetic_step(amp, half_kinetic)
    for step in range(steps):
        v = potential_value(model, x, t + 0.5 * dt)
        if v_kick is None or not np.array_equal(v, v_kick):
            # numpy divides a complex by hbar as a product with 1 / hbar; the same
            # rounding keeps the kick bitwise equal to exp(-1j * v * dt / hbar)
            phase = -v * dt * (1.0 / constants.hbar)
            np.cos(phase, out=kick.real)
            np.sin(phase, out=kick.imag)
            v_kick = v
        amp *= kick
        t += dt
        norm_ref = _checked_norm(amp, magnitude, norm_ref)
        _half_kinetic_step(amp, half_kinetic if step == steps - 1 else kinetic)
    _checked_norm(amp, magnitude, norm_ref)
    return WaveFunction(grid, amp)


def _walk_steps(nodes: TimeNodes, substeps: int | None) -> tuple[int, int]:
    """The step counts of :func:`sample_densities`: of the lead-in to t_0, and of each interval."""
    if substeps is not None and not (_is_number(substeps, integer=True) and substeps >= 1):
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    h = MAX_INTERNAL_STEP if substeps is None else nodes.dt / substeps
    steps = max(8, int(np.ceil(nodes.dt / h))) if substeps is None else substeps
    lead_in = 0 if nodes.t_0 == 0.0 else max(8, int(np.ceil(abs(nodes.t_0) / h)))
    return lead_in, steps


def sample_densities(
    psi: WaveFunction, model, constants: PhysicalConstants, nodes: TimeNodes, substeps=None
) -> tuple[list[GridField], list[WaveFunction]]:
    """The ``m + 1`` densities and states at the nodes of a state prepared at t = 0.

    The walk propagates to ``t_0`` (backward when it is negative), then node
    to node, with the internal step ``h = MAX_INTERNAL_STEP``, or
    ``nodes.dt / substeps`` when ``substeps`` is given.  The lead-in takes
    ``max(8, ceil(|t_0| / h))`` steps (none at ``t_0 == 0``); each interval
    takes ``max(8, ceil(dt / h))`` steps, or exactly ``substeps``: the same
    count every interval, so that solver error is smooth in time.  A
    ``substeps`` that is not an integer >= 1 raises ``ValueError`` before any step.
    """
    lead_in, steps = _walk_steps(nodes, substeps)
    if lead_in:
        psi = propagate(psi, model, constants, nodes.t_0 / lead_in, lead_in, t_start=0.0)
    psis = [psi]
    for j in range(nodes.m):
        t_start = nodes.t_0 + j * nodes.dt
        psis.append(propagate(psis[-1], model, constants, nodes.dt / steps, steps, t_start=t_start))
    return [probability_density(p) for p in psis], psis


def _checked_norm(amp: np.ndarray, magnitude: np.ndarray, norm_ref: float) -> float:
    """The squared norm of ``amp``, after the norm-drift and wrap-around guards pass."""
    np.abs(amp, out=magnitude)
    peak = float(np.max(magnitude))
    edge = float(max(magnitude[0], magnitude[-1]))
    norm_now = float(np.sum(np.square(magnitude, out=magnitude)))
    if abs(norm_now - norm_ref) > NORM_DRIFT_TOLERANCE * norm_ref:
        raise SimulationQualityError(
            f"norm drifted by {abs(norm_now - norm_ref) / norm_ref:.3e} in one step "
            "(relative); the grid or time step is inadequate"
        )
    if peak > 0 and edge > WRAP_TOLERANCE * peak:
        raise SimulationQualityError(
            f"edge amplitude {edge:.3e} exceeds {WRAP_TOLERANCE:.0e} of peak "
            f"{peak:.3e}; the packet is wrapping around the periodic grid"
        )
    return norm_now


def _half_kinetic_step(amp: np.ndarray, half_kinetic: np.ndarray) -> None:
    """``amp`` through momentum space and back, in place, times ``half_kinetic`` there."""
    np.fft.fft(amp, out=amp)
    # half_kinetic first: the complex multiply rounds by operand order
    np.multiply(half_kinetic, amp, out=amp)
    np.fft.ifft(amp, out=amp)


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
    spaced ``pi hbar / (M dy)``.  W is real because rho is Hermitian, so only
    the Hermitian part ``(rho(x, y) + conj(rho(x, -y))) / 2`` on ``y >= 0`` is
    transformed, as a half-spectrum FFT; for any input this is the real part
    of the full transform.  A relative anti-Hermitian part
    ``max |rho(x, y) - conj(rho(x, -y))| / max |rho|`` above ``1e-8`` is
    flagged.  A NaN in a row of rho gives a NaN row of W, unless it lies only
    in the imaginary part at y = 0, which the transform drops as it drops
    every imaginary part there.
    """
    vals = rho.values
    m = rho.y.size
    c = m // 2  # the index of y = 0 and of p = 0
    # 2 p_k y_j / hbar = 2 pi (k - c)(j - c) / M with p_k = (k - c) dp: an M-point DFT in j - c
    scale = rho.dy / (np.pi * constants.hbar)
    out = np.empty(vals.shape)
    peaks, anti_peaks = [], []
    for blk in _row_blocks(vals.shape[0], vals.itemsize * m):
        upper, lower = vals[blk, c:], vals[blk, c::-1]  # y >= 0 and its mirror -y
        mirrored = np.conj(lower)
        peaks.append(np.maximum(np.max(np.abs(upper)), np.max(np.abs(lower))))
        anti_peaks.append(np.max(np.abs(upper - mirrored)))
        hermitian = np.add(upper, mirrored, out=mirrored)
        hermitian *= 0.5
        w = np.fft.hfft(hermitian, n=m, axis=1)  # p = 0 first, negative p last
        np.multiply(w[:, : c + 1], scale, out=out[blk, c:])
        np.multiply(w[:, c + 1 :], scale, out=out[blk, :c])
    out.setflags(write=False)  # WignerGrid adopts it
    dp = np.pi * constants.hbar / (m * rho.dy)
    p = (np.arange(m) - c) * dp

    # np.max, not max(): a NaN block peak must propagate as it does over the whole lattice
    peak = float(np.max(peaks))
    defect = float(np.max(anti_peaks)) / peak if peak > 0 else 0.0
    if defect > 1e-8:
        warnings.warn(
            f"density matrix has relative anti-Hermitian part {defect:.3e}; it is not "
            "Hermitian on this lattice, and W is the real part of its transform",
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

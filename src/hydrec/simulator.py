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
from .numerics import _check_numbers, _is_number, _read_only_array, _row_blocks, _support_window

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
    """Propagation left its validity envelope (norm drift, wrap-around or a non-finite state)."""


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


def _row_window(rows, n_points: int) -> slice:
    """``rows`` as ``slice(start, stop)``, a non-empty run of rows of ``0 .. n_points - 1``;
    None is every row."""
    if rows is None:
        return slice(0, n_points)
    inside = isinstance(rows, slice) and max(abs(rows.start or 0), abs(rows.stop or 0)) <= n_points
    run = range(n_points)[rows] if inside else None
    if run is None or run.step != 1 or not run:
        raise ValueError(
            f"rows must be a non-empty slice of consecutive rows of 0..{n_points - 1}, got {rows!r}"
        )
    return slice(run.start, run.stop)


@dataclass(frozen=True)
class DensityMatrixGrid:
    """rho(x+y, x-y) sampled on a rectangular (x, y) lattice.

    ``y`` is the off-diagonal variable; it must be odd, ascending, uniform and
    symmetric about zero so that the centre column ``y.size // 2`` is the
    probability density and the Hermiticity relation pairs lattice points exactly.

    ``values`` holds the x-grid rows ``rows``, every row by default; a row
    window holds grid row i at ``values[i - rows.start]``.  ``diagonal`` is
    the centre column of the whole lattice, rho(x, x) on every grid row: a
    view of ``values`` when they hold every row, and given with a window.
    """

    x_grid: SpatialGrid
    y: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    rows: slice | None = None
    diagonal: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        y = _offdiagonal_axis(self.y)
        rows = _row_window(self.rows, self.x_grid.n_points)
        # not checked for finiteness: a high-order assembly may overflow (assemble warns)
        values = _read_only_array(self.values, complex, (rows.stop - rows.start, y.size))
        if self.diagonal is not None:
            diagonal = _read_only_array(self.diagonal, complex, (self.x_grid.n_points,))
        elif rows == slice(0, self.x_grid.n_points):
            diagonal = values[:, y.size // 2]
        else:
            raise ValueError(f"a window of rows {rows.start}..{rows.stop - 1} needs the diagonal "
                             "of the whole lattice")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "diagonal", diagonal)

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    def hermiticity_defect(self) -> float:
        """sup |rho(x, y) - conj(rho(x, -y))| over the lattice.

        Columns j and M-1-j differ by an exact sign flip, so only the columns
        j <= M//2 are read, in blocks of rows.  ``np.max`` keeps a NaN.
        """
        blocks = _row_blocks(len(self.values), self.values.itemsize * self.y.size)
        return float(np.max([_hermiticity_defect(self.values[blk]) for blk in blocks]))


def _hermiticity_defect(block: np.ndarray) -> float:
    """sup |rho(x, y) - conj(rho(x, -y))| over ``block``, rows of a whole y lattice; only the
    columns j <= M//2 are read.  ``np.max`` keeps a NaN."""
    half = block.shape[1] // 2 + 1
    return np.max(np.abs(block[:, :half] - np.conj(block[:, ::-1][:, :half])))


def _filled_lattice(grid: SpatialGrid, y: np.ndarray, window: slice, fill) -> DensityMatrixGrid:
    """The lattice of the grid rows ``window``, filled one block of rows at a time.

    ``fill(out, blk, cols)`` writes the grid rows ``blk`` of the columns
    ``cols`` into ``out``.  A row window also gets the centre column of
    every grid row, filled the same way, as its diagonal.
    """
    values = np.empty((window.stop - window.start, y.size), dtype=complex)
    for blk in _row_blocks(window.stop, values.itemsize * y.size, window.start):
        fill(values[blk.start - window.start : blk.stop - window.start], blk, slice(None))
    values.setflags(write=False)  # DensityMatrixGrid adopts it
    if window == slice(0, grid.n_points):
        return DensityMatrixGrid(grid, y, values)
    centre, diagonal = slice(y.size // 2, y.size // 2 + 1), np.empty(grid.n_points, dtype=complex)
    for blk in _row_blocks(grid.n_points, diagonal.itemsize):
        fill(diagonal[blk, None], blk, centre)
    diagonal.setflags(write=False)
    return DensityMatrixGrid(grid, y, values, window, diagonal)


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
    named = {"sigma": sigma, "center": center, "momentum": momentum, "hbar": hbar}
    for name, value in named.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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
    params: CatStateParams, grid: SpatialGrid, y: np.ndarray, rows: slice | None = None
) -> DensityMatrixGrid:
    """Closed-form rho(x+y, x-y) of the unnormalized superposition state.

    ``2 exp(-(x^2+y^2)/2 sigma^2) (cos 2 k0 x + cos 2 k0 y)``; real.  The
    complex lattice is filled one block of rows at a time.  With ``rows``, a
    slice of consecutive grid rows, only those rows are filled, each bitwise
    the row of the whole lattice, and the window carries the whole lattice's
    centre column as its diagonal.
    """
    s, k0 = params.sigma, params.k0
    y = _offdiagonal_axis(y)
    y2, cos_y = y**2, np.cos(2.0 * k0 * y)

    def fill(out, blk, cols):
        xx = grid.points[blk, None]
        envelope = np.exp(-(xx**2 + y2[cols]) / (2.0 * s**2))
        out[:] = 2.0 * envelope * (np.cos(2.0 * k0 * xx) + cos_y[cols])

    return _filled_lattice(grid, y, _row_window(rows, grid.n_points), fill)


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
    c_n = _gaussian_moment_sum(order, a, 2.0 * k0)
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
    return f0 * _gaussian_moment_sum(order, hbar**2 * a / 4.0, momentum)


def _gaussian_moment_sum(order: int, a: float, q: float) -> float:
    """``sum_l C(n, 2l) (2l)!/l! a^l q^(n-2l)`` over ascending ``l``: a Gaussian's
    order-n moment over its f_0, with ``q`` the momentum (the cat's 2 k0 for its cross term)."""
    return sum(
        comb(order, 2 * l) * factorial(2 * l) / factorial(l) * a**l * q ** (order - 2 * l)
        for l in range(order // 2 + 1)
    )


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
    is built from ``cos`` and ``sin`` of the phase, once per call when the
    model's coefficients do not depend on t (its V is then the same at every
    step, bit for bit), and at every step otherwise.

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
        If the state is not finite, the norm drift per step exceeds ``1e-10``
        relative, or the edge amplitude ``1e-8`` of the peak (wrap-around).
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
    static = model._time_independent
    magnitude = np.empty(grid.n_points)  # shared by the norm and wrap-around checks
    norm_ref = float(np.sum(np.abs(amp) ** 2))
    t = t_start
    _half_kinetic_step(amp, half_kinetic)
    for step in range(steps):
        # a V or a kick that is not finite makes the state so: refused by _checked_norm below
        if step == 0 or not static:
            with np.errstate(over="ignore", invalid="ignore"):
                v = potential_value(model, x, t + 0.5 * dt)
                # numpy divides a complex by hbar as a product with 1 / hbar; the same
                # rounding keeps the kick bitwise equal to exp(-1j * v * dt / hbar)
                phase = -v * dt * (1.0 / constants.hbar)
                np.cos(phase, out=kick.real)
                np.sin(phase, out=kick.imag)
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
) -> tuple[np.ndarray, list[WaveFunction]]:
    """The densities and states at the ``m + 1`` nodes of a state prepared at t = 0.

    The densities are one read-only ``(m+1, n_points)`` array, row j at node
    j; the states are a list.  The walk propagates to ``t_0`` (backward when
    it is negative), then node to node, with the internal step
    ``h = MAX_INTERNAL_STEP``, or ``nodes.dt / substeps`` when ``substeps`` is
    given.  The lead-in takes ``max(8, ceil(|t_0| / h))`` steps (none at
    ``t_0 == 0``); each interval takes ``max(8, ceil(dt / h))`` steps, or
    exactly ``substeps``: the same count every interval, so that solver error
    is smooth in time.  A ``substeps`` that is not an integer >= 1 raises
    ``ValueError`` before any step.
    """
    lead_in, steps = _walk_steps(nodes, substeps)
    if lead_in:
        psi = propagate(psi, model, constants, nodes.t_0 / lead_in, lead_in, t_start=0.0)
    psis = [psi]
    for j in range(nodes.m):
        t_start = nodes.t_0 + j * nodes.dt
        psis.append(propagate(psis[-1], model, constants, nodes.dt / steps, steps, t_start=t_start))
    densities = np.abs(np.stack([p.amplitudes for p in psis])) ** 2
    densities.setflags(write=False)
    return densities, psis


def _checked_norm(amp: np.ndarray, magnitude: np.ndarray, norm_ref: float) -> float:
    """The squared norm of ``amp``, after the norm-drift and wrap-around guards pass."""
    np.abs(amp, out=magnitude)
    peak = float(np.max(magnitude))
    edge = float(max(magnitude[0], magnitude[-1]))
    norm_now = float(np.sum(np.square(magnitude, out=magnitude)))
    if not np.isfinite(norm_now):  # a NaN norm would pass the drift test below
        raise SimulationQualityError(f"the state is not finite after a step (norm {norm_now})")
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


def exact_density_matrix(psi: WaveFunction, y=None, rows: slice | None = None) -> DensityMatrixGrid:
    """rho(x+y, x-y) = psi(x+y) conj(psi(x-y)) on an (x, y) lattice.

    With the default lattice (``y`` at integer multiples of the grid spacing,
    spanning half the grid), the shifted samples are exact.  Arbitrary ``y``
    lattices fall back to linear interpolation of the amplitudes, which is
    flagged.  Either way the lattice is filled one block of rows at a time.
    Evaluations past the grid edge use zero (and are flagged when the
    wavefunction has not decayed there).

    With ``rows``, a slice of consecutive grid rows, only those rows are
    filled, each bitwise the row of the whole lattice, and the window carries
    the whole lattice's centre column, psi(x) conj(psi(x)), as its diagonal.
    """
    grid, amp = psi.grid, psi.amplitudes
    n, dx = grid.n_points, grid.dx
    half = (n - 1) // 2
    y = _offdiagonal_axis(dx * np.arange(-half, half + 1) if y is None else y)
    window = _row_window(rows, n)

    peak = float(np.max(np.abs(amp)))
    edge = max(abs(amp[0]), abs(amp[-1]))
    if peak > 0 and edge > WRAP_TOLERANCE * peak:
        warnings.warn(
            "wavefunction has not decayed at the grid edge; off-grid evaluations "
            "are zero-filled and will bias the density matrix",
            GridCoverageWarning,
            stacklevel=2,
        )

    shifts = np.rint(y / dx)
    # a whole nonzero reach, cast only then: a lattice within rounding of y = 0 has none, and
    # past 2**53 steps every float is whole, so the test tells nothing there
    if 0 < shifts[-1] < 2**53 and np.allclose(y / dx, shifts, rtol=0.0, atol=1e-9):
        # windows[i, k] is padded[i + k], so column j below is amp shifted by shifts[j]
        reach = int(shifts[-1])  # the shifts run from -reach to reach
        padded = np.zeros(n + 2 * reach, dtype=complex)
        padded[reach : reach + n] = amp
        plus = sliding_window_view(padded, 2 * reach + 1)[:n, :: int(shifts[1] - shifts[0])]

        def shifted(blk, sign, cols):
            # the lattice is symmetric, so shifts[-1 - j] == -shifts[j]: psi(x-y) is plus reversed
            return plus[blk, ::sign][:, cols]

    else:
        warnings.warn(
            "y lattice is not commensurate with the grid spacing; amplitudes are "
            "interpolated linearly",
            GridCoverageWarning,
            stacklevel=2,
        )
        x = grid.points
        re, im = np.ascontiguousarray(amp.real), np.ascontiguousarray(amp.imag)

        def shifted(blk, sign, cols):
            # each part interpolated linearly on its own, zero past the grid; the real part is
            # added in place, which is re + 1j * im bit for bit, with one temporary fewer
            t = x[blk, None] + y[cols] if sign > 0 else x[blk, None] - y[cols]
            z = 1j * np.interp(t, x, im, left=0.0, right=0.0)
            z += np.interp(t, x, re, left=0.0, right=0.0)
            return z

    def fill(out, blk, cols):
        # into a C-ordered buffer: a strided window's conjugate may come out Fortran-ordered
        np.conjugate(shifted(blk, -1, cols), out=out)
        # plus first: numpy's fused complex multiply rounds differently with operands swapped
        np.multiply(shifted(blk, 1, cols), out, out=out)

    return _filled_lattice(grid, y, window, fill)


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
        upper, mirrored = vals[blk, c:], np.conj(vals[blk, c::-1])  # y >= 0 and conj at -y
        peaks.append(np.max(np.abs(vals[blk])))
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
    has not decayed at the window edge, read from max |W| per p column: for a finite
    weight, ``|p^n| max |W|`` is the column's largest ``|p^n W|`` bit for bit.
    """
    w = _as_wigner(state, constants)
    colmax = np.maximum(np.max(w.values, axis=0), -np.min(w.values, axis=0))  # NaN propagates
    if not np.isfinite(colmax.max()):
        raise ValueError("quasi-probability distribution holds non-finite values")
    window = _support_window(colmax, P_DECAY_THRESHOLD)
    p_win, colmax, vals_win = w.p[window], colmax[window], w.values[:, window]
    out = []
    for order in orders:
        if order < 0:
            raise ValueError("moment order must be >= 0")
        weight = p_win[None, :] ** order
        column_peaks = np.abs(weight[0]) * colmax
        peak = float(np.max(column_peaks))
        edge = float(max(column_peaks[0], column_peaks[-1]))
        if peak > 0 and edge > 1e-10 * peak:
            warnings.warn(
                f"p^{order}-weighted integrand has edge amplitude {edge:.3e} "
                f"({edge / peak:.1e} of peak); extend the momentum lattice",
                GridCoverageWarning,
                stacklevel=2,
            )
        out.append(GridField(w.x_grid, np.trapezoid(weight * vals_win, dx=w.dp, axis=1)))
    return out

import tracemalloc
import warnings
from math import comb, factorial

import numpy as np
import pytest

from hydrec.assembly import ComparisonReport, TaylorReconstruction, _axis_weights, assemble
from hydrec.numerics import PhysicalConstants
from hydrec.simulator import GridCoverageWarning

CONSTANTS = PhysicalConstants()


def split_operator_reference(psi, model, dt, steps, t_start=0.0, constants=CONSTANTS):
    """The unmerged split-operator loop written out with fresh temporaries at every step.

    Half kinetic step, the potential factor at the step midpoint (recomputed
    at every step), half kinetic step; no quality checks.  Returns the
    amplitudes.  Below 16384 points numpy does not elide the temporary of
    ``half_kinetic * fft(amp)``, so the product is taken in that operand order.
    """
    from hydrec.potentials import potential_value

    grid = psi.grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    half_kinetic = np.exp(-1j * constants.hbar * k**2 * dt / (4.0 * constants.mass))
    amp = np.array(psi.amplitudes, dtype=complex)
    t = t_start
    for _ in range(steps):
        amp = np.fft.ifft(half_kinetic * np.fft.fft(amp))
        v = potential_value(model, grid.points, t + 0.5 * dt)
        amp *= np.exp(-1j * v * dt / constants.hbar)
        amp = np.fft.ifft(half_kinetic * np.fft.fft(amp))
        t += dt
    return amp


def merged_split_operator_reference(psi, model, dt, steps, t_start=0.0, constants=CONSTANTS):
    """The Strang-merged split-operator loop with fresh temporaries at every step.

    A half kinetic step, then per step the potential factor at the step
    midpoint (``exp(-i V dt / hbar)``, recomputed at every step) and a full
    kinetic step, except for a half kinetic step on the last; no quality
    checks.  Returns the amplitudes.  The kinetic factors are multiplied from
    the left, as in :func:`split_operator_reference`.
    """
    from hydrec.potentials import potential_value

    grid = psi.grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    half_kinetic = np.exp(-1j * constants.hbar * k**2 * dt / (4.0 * constants.mass))
    kinetic = np.exp(-1j * constants.hbar * k**2 * dt / (2.0 * constants.mass))
    amp = np.fft.ifft(half_kinetic * np.fft.fft(np.array(psi.amplitudes, dtype=complex)))
    t = t_start
    for step in range(steps):
        v = potential_value(model, grid.points, t + 0.5 * dt)
        amp *= np.exp(-1j * v * dt / constants.hbar)
        t += dt
        factor = half_kinetic if step == steps - 1 else kinetic
        amp = np.fft.ifft(factor * np.fft.fft(amp))
    return amp


def full_spectrum_wigner(rho, constants=CONSTANTS):
    """The complex Wigner transform of every row: phase factors, an M-point FFT, a prefactor.

    ``(dy / pi hbar) sum_j exp(-2 pi i (k - c)(j - c) / M) rho[:, j]`` with ``c = M // 2``;
    its real part is W for any lattice, its imaginary part vanishes for a Hermitian one.
    """
    m, c = rho.y.size, rho.y.size // 2
    j = np.arange(m)
    phase = np.exp(2j * np.pi * c * j / m)
    pref = np.exp(2j * np.pi * j * c / m) * np.exp(-2j * np.pi * c * c / m)
    transformed = np.fft.fft(rho.values * phase[None, :], axis=1)
    return (rho.dy / (np.pi * constants.hbar)) * pref[None, :] * transformed


def one_shot_resample(b, y):
    """Linear resample of b onto the y lattice ``y`` in one expression of whole-lattice terms."""
    j, ty = _axis_weights(b.y, y)
    vals = b.values[:, j] * (1 - ty) + b.values[:, j + 1] * ty
    vals[:, (y < b.y[0]) | (y > b.y[-1])] = 0.0
    return vals


def whole_lattice_compare(a, b, region, f0):
    """``compare`` as whole-lattice expressions: the reference is resampled onto every
    point of ``a``'s lattice, and the region is copied out of both by fancy indexing
    before it is subtracted.  Arguments are not checked."""
    resampled = not np.array_equal(a.y, b.y)
    b_vals = one_shot_resample(b, a.y) if resampled else b.values

    x_max, y_max = region
    in_x, in_y = np.abs(a.x_grid.points) <= x_max, np.abs(a.y) <= y_max
    ix = np.ix_(in_x, in_y)
    err = np.abs(a.values[ix] - b_vals[ix])  # cropped first: only the region is subtracted
    # each region column j against column M-1-j
    mirror = a.values[np.ix_(in_x, a.y.size - 1 - np.flatnonzero(in_y))]
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
        hermiticity_defect=float(np.max(np.abs(a.values[ix] - np.conj(mirror)))),
        resampled=resampled,
    )


def per_term_cat_moment(params, order, x, hbar=1.0):
    """``cat_state_moment`` with its cross-term sum written out term by term."""
    x = np.asarray(x, dtype=float)
    if order % 2 == 1:
        return np.zeros_like(x)
    s, k0 = params.sigma, params.k0
    m = order // 2
    a = 1.0 / (2.0 * s**2)
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


def per_term_gaussian_moment(order, x, sigma, center=0.0, momentum=0.0, hbar=1.0):
    """``gaussian_packet_moment`` with its sum written out term by term."""
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


def traced_peak(call):
    """``call()`` and the most bytes it held allocated at once (tracemalloc)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def assert_bytes_equal(actual, expected):
    """Assert two arrays hold the same bytes.

    A mismatch names the first differing index and says whether every
    difference is only the sign of a zero (``-0.0 == 0.0`` but their bytes differ).
    """
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    words = [a.reshape(-1).view(np.uint8).reshape(a.size, a.itemsize) for a in (actual, expected)]
    differs = np.any(words[0] != words[1], axis=1)
    if not differs.any():
        return
    first = np.unravel_index(np.argmax(differs), actual.shape)
    # equal values with different bytes can only be zeros of opposite sign
    zero_signs = bool(np.all(actual.reshape(-1)[differs] == expected.reshape(-1)[differs]))
    raise AssertionError(
        f"{np.count_nonzero(differs)} of {actual.size} entries differ "
        f"{'only in the sign of a zero' if zero_signs else 'in value'}; "
        f"first at {tuple(int(k) for k in first)}: "
        f"{actual[first].item()!r} != {expected[first].item()!r}"
    )


def derivative_stencil(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for a derivative on arbitrary point offsets.

    Solves the moment conditions ``sum_i w_i * s_i**k / k! = delta(k, order)``
    for ``k = 0 .. len(offsets)-1`` (Fornberg, Math. Comp. 51, 1988); the
    excess stencil length sets the approximation order.
    """
    s = np.asarray(offsets, dtype=float)
    if order >= s.size:
        raise ValueError("stencil too short for requested derivative order")
    rhs = np.zeros(s.size)
    rhs[order] = 1.0
    powers = s[None, :] ** np.arange(s.size)[:, None]
    factorials = np.cumprod(np.concatenate(([1.0], np.arange(1.0, s.size))))
    return np.linalg.solve(powers / factorials[:, None], rhs)


def real_imag_split(rec: TaylorReconstruction) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the even-order (real) and odd-order (imaginary) sums separately.

    Returns the two real arrays whose combination ``real + 1j * imag``
    reproduces the assembled values to machine precision.
    """
    y = rec.values.y
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


def cat_momentum_resolution_ok(params, constants, dy: float) -> bool:
    """Rule of thumb: the y spacing must resolve the cat's momentum content.

    Requires ``hbar / (2 dy) >= 4 (k0 hbar + hbar / sigma)``; a failing
    spacing draws a :class:`GridCoverageWarning` and returns False.
    """
    hbar = constants.hbar
    need = 4.0 * (params.k0 * hbar + hbar / params.sigma)
    have = hbar / (2.0 * dy)
    if have < need:
        warnings.warn(
            f"y spacing {dy:.3e} resolves momenta only to {have:.3g} < {need:.3g}; "
            "superposition-state oracles will alias",
            GridCoverageWarning,
            stacklevel=2,
        )
        return False
    return True


@pytest.fixture(scope="session")
def constants():
    return CONSTANTS

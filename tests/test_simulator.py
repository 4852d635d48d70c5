import warnings

import numpy as np
import pytest

from conftest import assert_bytes_equal, cat_momentum_resolution_ok, derivative_stencil, traced_peak
from hydrec.numerics import LATTICE_BLOCK_BYTES, PhysicalConstants, SpatialGrid
from hydrec.potentials import (
    free_potential,
    harmonic_potential,
    paul_trap_potential,
    quartic_potential,
)
from hydrec.simulator import (
    CatStateParams,
    DensityMatrixGrid,
    GridCoverageWarning,
    SimulationQualityError,
    WaveFunction,
    WignerGrid,
    cat_state_density_matrix,
    cat_state_moment,
    cat_state_norm,
    exact_density_matrix,
    gaussian_packet,
    gaussian_packet_moment,
    make_cat_state,
    offdiagonal_lattice,
    oracle_moment_set,
    probability_density,
    propagate,
    wigner_transform,
)

CONSTANTS = PhysicalConstants()
CAT = CatStateParams()


@pytest.fixture(scope="module")
def cat_grid():
    return SpatialGrid(-10.0, 10.0, 1601)  # odd: x = 0 and y = 0.5 on-lattice


@pytest.fixture(scope="module")
def cat_psi(cat_grid):
    return make_cat_state(CAT, cat_grid)


def test_cat_amplitude_at_origin(cat_psi, cat_grid):
    i0 = cat_grid.n_points // 2
    assert cat_grid.points[i0] == 0.0
    assert cat_psi.amplitudes[i0] == pytest.approx(2.0)


def test_cat_amplitude_at_cosine_zero(cat_grid):
    x = cat_grid.points
    amp = make_cat_state(CAT, cat_grid).amplitudes
    # amplitude envelope * cos(k0 x): interpolate the analytic zero
    x_zero = np.pi / (2.0 * CAT.k0)
    val = np.interp(x_zero, x, amp.real)
    assert abs(val) < 1e-3 * np.max(np.abs(amp))


def test_cat_norm_closed_form(cat_psi):
    expected = 2.0 * CAT.sigma * np.sqrt(2.0 * np.pi) * (1.0 + np.exp(-2.0 * CAT.k0**2 * CAT.sigma**2))
    assert cat_state_norm(CAT) == pytest.approx(expected, rel=1e-14)
    assert cat_psi.norm == pytest.approx(expected, rel=1e-9)


def test_cat_grid_rejections():
    with pytest.raises(ValueError):
        make_cat_state(CAT, SpatialGrid(-2.0, 2.0, 64))  # < 4 sigma
    with pytest.warns(GridCoverageWarning):
        make_cat_state(CAT, SpatialGrid(-3.5, 3.5, 64))  # between 4 and 6 sigma


@pytest.mark.parametrize("sigma, k0", [(True, 2.8), ("0.7", 2.8), (0.7, None)])
def test_cat_state_params_reject_a_non_number(sigma, k0):
    with pytest.raises(TypeError, match="must be a number"):
        CatStateParams(sigma=sigma, k0=k0)


def test_density_matrix_from_cat(cat_psi, cat_grid):
    rho = exact_density_matrix(cat_psi)
    i0 = cat_grid.n_points // 2
    j0 = rho.y.size // 2
    assert rho.y[j0] == 0.0
    assert rho.values[i0, j0] == pytest.approx(4.0, rel=1e-12)
    # diagonal is the probability density
    f0 = probability_density(cat_psi)
    assert np.allclose(rho.values[:, j0].real, f0.values, rtol=0, atol=1e-12)
    assert np.max(np.abs(rho.values[:, j0].imag)) < 1e-14
    # closed-form spot check at (x=0, y=0.5)
    j = j0 + int(round(0.5 / cat_grid.dx))
    expected = 2.0 * np.exp(-(0.5**2) / (2.0 * CAT.sigma**2)) * (
        1.0 + np.cos(2.0 * CAT.k0 * 0.5)
    )
    assert rho.y[j] == pytest.approx(0.5, abs=1e-12)
    assert rho.values[i0, j].real == pytest.approx(expected, rel=1e-9)


def test_density_matrix_hermiticity(cat_psi):
    rho = exact_density_matrix(cat_psi)
    scale = np.max(np.abs(rho.values))
    assert rho.hermiticity_defect() < 1e-12 * scale


def test_density_matrix_matches_closed_form(cat_psi, cat_grid):
    rho = exact_density_matrix(cat_psi)
    closed = cat_state_density_matrix(CAT, cat_grid, rho.y)
    assert np.max(np.abs(rho.values - closed.values)) < 1e-12


def test_density_matrix_incommensurate_lattice_interpolates(cat_psi):
    y = offdiagonal_lattice(0.4999, 21)  # not a multiple of dx
    with pytest.warns(GridCoverageWarning):
        rho = exact_density_matrix(cat_psi, y=y)
    closed = cat_state_density_matrix(CAT, cat_psi.grid, y)
    assert np.max(np.abs(rho.values - closed.values)) < 1e-4  # linear interp accuracy


def test_a_lattice_within_rounding_of_zero_is_interpolated():
    # every shift rounds to 0 grid steps, so there is no whole-step stride to gather with
    grid = SpatialGrid(-5.0, 5.0, 101)
    psi = gaussian_packet(grid, 0.5)
    with pytest.warns(GridCoverageWarning, match="not commensurate"):
        rho = exact_density_matrix(psi, y=np.array([-1e-12, 0.0, 1e-12]))
    density = np.abs(psi.amplitudes[:, None]) ** 2
    assert rho.values.shape == (101, 3)
    assert np.max(np.abs(rho.values - density)) <= 1e-10 * np.max(density)


def test_propagate_zero_steps_is_identity(cat_psi):
    out = propagate(cat_psi, free_potential(), CONSTANTS, dt=0.1, steps=0)
    assert out is cat_psi


def test_propagate_free_gaussian_spreading():
    sigma = 0.7
    grid = SpatialGrid(-16.0, 16.0, 2048)
    psi = gaussian_packet(grid, sigma)
    t = 0.5
    steps = 500
    out = propagate(psi, free_potential(), CONSTANTS, dt=t / steps, steps=steps)
    f = probability_density(out).values
    x = grid.points
    norm = np.trapezoid(f, x)
    mean = np.trapezoid(x * f, x) / norm
    var = np.trapezoid((x - mean) ** 2 * f, x) / norm
    expected = sigma**2 + (CONSTANTS.hbar * t / (2.0 * CONSTANTS.mass * sigma)) ** 2
    assert var == pytest.approx(expected, rel=1e-6)
    assert out.norm == pytest.approx(psi.norm, rel=1e-9)


def test_propagate_coherent_center_follows_classical_path():
    omega, x0 = 1.0, 1.0
    model = harmonic_potential(omega=omega, mass=CONSTANTS.mass)
    sigma = np.sqrt(CONSTANTS.hbar / (2.0 * CONSTANTS.mass * omega))
    grid = SpatialGrid(-12.0, 12.0, 1024)
    psi = gaussian_packet(grid, sigma, center=x0)
    period = 2.0 * np.pi / omega
    x = grid.points
    state = psi
    t_done = 0.0
    for frac in (0.25, 0.5, 1.0):
        target = frac * period
        steps = int(np.ceil((target - t_done) / 5e-4))
        state = propagate(state, model, CONSTANTS, (target - t_done) / steps, steps, t_start=t_done)
        f = probability_density(state).values
        center = np.trapezoid(x * f, x) / np.trapezoid(f, x)
        assert abs(center - x0 * np.cos(omega * target)) < 1e-6
        t_done = target


def test_propagate_norm_conservation_all_potentials():
    grid = SpatialGrid(-12.0, 12.0, 512)
    psi = gaussian_packet(grid, 0.8, center=0.5)
    for model in (
        free_potential(),
        harmonic_potential(omega=1.0),
        quartic_potential(c2=0.1, c4=0.05),
        paul_trap_potential(a=1.0, b=0.3, big_omega=4.0),
    ):
        out = propagate(psi, model, CONSTANTS, dt=1e-3, steps=200)
        assert out.norm == pytest.approx(psi.norm, rel=1e-10)


def test_propagate_detects_wraparound():
    grid = SpatialGrid(-4.0, 4.0, 256)
    psi = gaussian_packet(grid, 0.5, momentum=5.0)
    with pytest.raises(SimulationQualityError, match="wrap"):
        propagate(psi, free_potential(), CONSTANTS, dt=1e-3, steps=800)


def test_wigner_gaussian_closed_form():
    sigma = 0.8
    grid = SpatialGrid(-12.0, 12.0, 1537)
    psi = gaussian_packet(grid, sigma)
    w = wigner_transform(exact_density_matrix(psi), CONSTANTS)
    x = grid.points
    hbar = CONSTANTS.hbar
    xx, pp = np.meshgrid(x, w.p, indexing="ij")
    exact = (1.0 / (np.pi * hbar)) * np.exp(-(xx**2) / (2 * sigma**2)) * np.exp(
        -2.0 * sigma**2 * pp**2 / hbar**2
    )
    central = (np.abs(xx) <= 2 * sigma) & (np.abs(pp) <= hbar / sigma)
    rel = np.abs(w.values - exact)[central] / exact[central]
    assert rel.max() < 1e-6


def test_wigner_marginals(cat_psi):
    rho = exact_density_matrix(cat_psi)
    w = wigner_transform(rho, CONSTANTS)
    f0 = probability_density(cat_psi).values
    marginal = np.trapezoid(w.values, dx=w.dp, axis=1)
    assert np.max(np.abs(marginal - f0)) < 1e-8 * np.max(f0)
    total = np.trapezoid(marginal, dx=cat_psi.grid.dx)
    assert total == pytest.approx(cat_psi.norm, rel=1e-8)


def test_wigner_cat_interference_is_negative(cat_psi):
    w = wigner_transform(exact_density_matrix(cat_psi), CONSTANTS)
    x = cat_psi.grid.points
    near_origin = np.abs(x) <= 0.5
    assert w.values[near_origin].min() < -0.1 * w.values.max()


def test_wigner_flags_non_hermitian_input():
    grid = SpatialGrid(-4.0, 4.0, 64)
    y = offdiagonal_lattice(1.0, 17)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(64, 17)) + 1j * rng.normal(size=(64, 17))
    rho = DensityMatrixGrid(grid, y, values)
    with pytest.warns(GridCoverageWarning, match="imaginary residue"):
        wigner_transform(rho, CONSTANTS)


def test_oracle_moment_zero_is_density(cat_psi):
    f0 = probability_density(cat_psi).values
    m0 = oracle_moment_set(cat_psi, [0], CONSTANTS)[0].values
    assert np.max(np.abs(m0 - f0)) < 1e-8 * np.max(f0)


def test_oracle_first_moment_vanishes_for_cat(cat_psi):
    f1 = oracle_moment_set(cat_psi, [1], CONSTANTS)[0].values
    f0 = probability_density(cat_psi).values
    momentum_scale = CONSTANTS.hbar * CAT.k0
    assert np.max(np.abs(f1)) < 1e-10 * np.max(f0) * momentum_scale


def test_oracle_second_moment_matches_symbolic(cat_psi, cat_grid):
    f2 = oracle_moment_set(cat_psi, [2], CONSTANTS)[0].values
    symbolic = cat_state_moment(CAT, 2, cat_grid.points, hbar=CONSTANTS.hbar)
    i0 = cat_grid.n_points // 2
    assert symbolic[i0] == pytest.approx(18.0, rel=1e-12)
    assert f2[i0] == pytest.approx(18.0, rel=1e-5)
    central = np.abs(cat_grid.points) <= 3.0
    rel = np.linalg.norm((f2 - symbolic)[central]) / np.linalg.norm(symbolic[central])
    assert rel < 1e-5


def test_cat_symbolic_moment_formula():
    x = np.array([0.0])
    # f2 = (hbar^2/2) e^{-x^2/2s^2} [(cos 2 k0 x + 1)/s^2 + 4 k0^2]
    s, k0 = CAT.sigma, CAT.k0
    expected = 0.5 * ((1.0 + 1.0) / s**2 + 4.0 * k0**2)
    assert cat_state_moment(CAT, 2, x)[0] == pytest.approx(expected, rel=1e-14)
    assert np.array_equal(cat_state_moment(CAT, 5, np.linspace(-1, 1, 5)), np.zeros(5))


def test_gaussian_packet_moments_match_oracle():
    grid = SpatialGrid(-14.0, 14.0, 2049)
    sigma, k = 0.9, 1.5
    psi = gaussian_packet(grid, sigma, momentum=k * CONSTANTS.hbar)
    # the p^6 integrand reaches the edge of the momentum lattice
    with pytest.warns(GridCoverageWarning, match="p\\^6"):
        oracles = oracle_moment_set(psi, range(7), CONSTANTS)
    for n in range(7):
        analytic = gaussian_packet_moment(
            n, grid.points, sigma, momentum=k * CONSTANTS.hbar, hbar=CONSTANTS.hbar
        )
        rel = np.linalg.norm(oracles[n].values - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-8, f"order {n}: {rel}"


def test_gaussian_packet_first_moment_identity():
    x = np.linspace(-3, 3, 41)
    f0 = gaussian_packet_moment(0, x, 0.8, momentum=1.2)
    f1 = gaussian_packet_moment(1, x, 0.8, momentum=1.2)
    assert np.allclose(f1, 1.2 * f0, rtol=1e-14)


def test_derivative_consistency_of_density_matrix():
    # n-th y-derivative of rho at y=0, times (hbar/2i)^n, recovers the moment
    grid = SpatialGrid(-14.0, 14.0, 2049)
    sigma, k = 0.9, 1.5
    psi = gaussian_packet(grid, sigma, momentum=k)
    rho = exact_density_matrix(psi)
    j0 = rho.y.size // 2
    dy = rho.dy
    oracles = oracle_moment_set(psi, range(5), CONSTANTS)
    central = np.abs(grid.points) <= 2.0
    for n in range(1, 5):
        half = (n + 7) // 2  # order-6 accurate stencil
        offsets = dy * np.arange(-half, half + 1)
        wts = derivative_stencil(offsets, n)
        deriv = rho.values[:, j0 - half : j0 + half + 1] @ wts
        recovered = np.real((CONSTANTS.hbar / 2j) ** n * deriv)
        target = oracles[n].values
        rel = np.linalg.norm((recovered - target)[central]) / np.linalg.norm(target[central])
        assert rel < 1e-5, f"order {n}: {rel}"


def test_oracle_warns_when_weighted_integrand_not_decayed(cat_psi):
    # a short y lattice gives a momentum window too narrow for p^8 weighting
    rho = exact_density_matrix(cat_psi, y=cat_psi.grid.dx * np.arange(-40, 41))
    with pytest.warns(GridCoverageWarning):
        oracle_moment_set(rho, [8], CONSTANTS)[0]


def test_cat_momentum_resolution_rule():
    fine = CONSTANTS.hbar / (8.0 * (CAT.k0 * CONSTANTS.hbar + CONSTANTS.hbar / CAT.sigma)) * 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cat_momentum_resolution_ok(CAT, CONSTANTS, fine)
    with pytest.warns(GridCoverageWarning):
        assert not cat_momentum_resolution_ok(CAT, CONSTANTS, 10.0 * fine)


def per_column_density_matrix(psi, y):
    """psi(x+y) conj(psi(x-y)), one y column at a time: a gather on a commensurate
    lattice, linear interpolation of both parts otherwise, zero past the grid."""
    amp, x, dx = psi.amplitudes, psi.grid.points, psi.grid.dx
    n = amp.size
    commensurate = np.allclose(y / dx, np.rint(y / dx), rtol=0.0, atol=1e-9)

    def at(targets, shift):
        if commensurate:
            idx = np.arange(n) + shift
            return np.where((idx >= 0) & (idx < n), amp[np.clip(idx, 0, n - 1)], 0.0)
        re = np.interp(targets, x, amp.real, left=0.0, right=0.0)
        return re + 1j * np.interp(targets, x, amp.imag, left=0.0, right=0.0)

    out = np.empty((n, y.size), dtype=complex)
    for j, yj in enumerate(y):
        s = int(np.rint(yj / dx))
        out[:, j] = np.multiply(at(x + yj, s), np.conj(at(x - yj, -s)))
    return out


@pytest.mark.parametrize(
    "n_points, y_steps",
    [
        (15, None),  # default lattice, odd point count
        (16, None),  # default lattice, even point count
        (16, 2 * np.arange(-5, 6)),  # two cells per step
        (16, 3 * np.arange(-7, 8)),  # three cells per step, shifts past the grid edge
        (16, np.arange(-1, 2)),  # the smallest lattice, three points
        (17, np.arange(-20, 21)),  # one cell per step, past the edge on both sides
        (16, 0.37 * np.arange(-6, 7)),  # not commensurate: interpolated
    ],
)
def test_exact_density_matrix_equals_the_per_column_product_bitwise(n_points, y_steps):
    grid = SpatialGrid(-2.0, 2.0, n_points)
    rng = np.random.default_rng(n_points)
    psi = WaveFunction(grid, rng.normal(size=n_points) + 1j * rng.normal(size=n_points))
    y = None if y_steps is None else grid.dx * y_steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridCoverageWarning)  # undecayed random amplitudes
        rho = exact_density_matrix(psi, y)
    reference = per_column_density_matrix(psi, rho.y)
    assert rho.values.tobytes() == reference.tobytes()
    if y_steps is None:
        half = (n_points - 1) // 2
        assert np.array_equal(rho.y, grid.dx * np.arange(-half, half + 1))


@pytest.mark.parametrize(
    "y",
    [
        [0.1],
        [],
        [[-0.1, 0.0, 0.1]],
        [-0.3, -0.1, 0.0, 0.1, 0.3],
        [-0.1, 0.0, 0.1, 0.2],
        [0.0, 0.0],
        [-0.1, 0.1],  # even: no y = 0 column
        [-0.3, -0.1, 0.1, 0.3],
        [0.1, 0.0, -0.1],  # descending
        [0.0, 0.1, 0.2],  # odd and uniform, but not symmetric about 0
    ],
)
def test_exact_density_matrix_rejects_a_lattice_as_density_matrix_grid_does(cat_psi, y):
    y = np.asarray(y, dtype=float)
    with pytest.raises(ValueError) as rejected:
        DensityMatrixGrid(cat_psi.grid, y, np.zeros((cat_psi.grid.n_points, y.size)))
    with pytest.raises(ValueError) as raised:
        exact_density_matrix(cat_psi, y)
    assert str(raised.value) == str(rejected.value)
    assert "y lattice" in str(raised.value)


def frozen(array):
    array.setflags(write=False)
    return array


def test_density_matrix_grid_adopts_a_frozen_owned_array():
    grid, y = SpatialGrid(-1.0, 1.0, 9), offdiagonal_lattice(0.5, 5)
    v = frozen(np.ones((9, 5), dtype=complex))
    assert DensityMatrixGrid(grid, y, v).values is v


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.ones((9, 5), dtype=complex),  # writeable
        lambda: frozen(np.ones(45, dtype=complex).reshape(9, 5)),  # a view
        lambda: frozen(np.ones((9, 5), dtype=complex, order="F")),  # not C-ordered
        lambda: frozen(np.ones((9, 5))),  # another dtype
    ],
)
def test_density_matrix_grid_copies_any_other_array(make):
    grid, y = SpatialGrid(-1.0, 1.0, 9), offdiagonal_lattice(0.5, 5)
    v = make()
    writeable = v.flags.writeable
    values = DensityMatrixGrid(grid, y, v).values
    assert not np.shares_memory(values, v)
    assert not values.flags.writeable and values.flags.c_contiguous
    assert v.flags.writeable == writeable  # the caller's array is left as it was
    assert np.array_equal(values, v)


def full_lattice_hermiticity_defect(values):
    return float(np.max(np.abs(values - np.conj(values[:, ::-1]))))


# three row blocks, the last one short, of a lattice with 7 or 9 columns
BLOCKS_OF_7 = 2 * (LATTICE_BLOCK_BYTES // (16 * 7)) + 37


@pytest.mark.parametrize("n_y", [7, 9])
@pytest.mark.parametrize("n_x", [9, BLOCKS_OF_7])
def test_hermiticity_defect_equals_the_full_lattice_formula_bitwise(n_x, n_y):
    grid = SpatialGrid(-1.0, 1.0, n_x)
    y = offdiagonal_lattice(0.1 * (n_y // 2), n_y)
    rng = np.random.default_rng(n_x + n_y)
    values = rng.normal(size=(n_x, n_y)) + 1j * rng.normal(size=(n_x, n_y))
    rho = DensityMatrixGrid(grid, y, values)
    assert rho.hermiticity_defect() == full_lattice_hermiticity_defect(values)
    # a Hermitian lattice plus one perturbed entry in the last column of the last block
    hermitian = values + np.conj(values[:, ::-1])
    hermitian[-1, -1] += 1e-3
    defect = DensityMatrixGrid(grid, y, hermitian).hermiticity_defect()
    assert defect == full_lattice_hermiticity_defect(hermitian) > 0.0


@pytest.mark.parametrize(
    "row, column, value",
    [(-1, -1, np.nan), (3, 0, np.nan), (-1, 5, np.inf), (0, 3, complex(np.inf, 0.0))],
)
def test_hermiticity_defect_is_not_finite_on_a_non_finite_lattice(row, column, value):
    grid = SpatialGrid(-1.0, 1.0, BLOCKS_OF_7)
    values = np.ones((grid.n_points, 7), dtype=complex)
    values[row, column] = value
    rho = DensityMatrixGrid(grid, offdiagonal_lattice(0.3, 7), values)
    with np.errstate(invalid="ignore"):  # inf - inf on the y = 0 column
        defect = rho.hermiticity_defect()
        reference = full_lattice_hermiticity_defect(values)
    assert np.array_equal(defect, reference, equal_nan=True)
    assert not np.isfinite(defect)
    if np.isnan(value) or column == 3:
        assert np.isnan(defect)


LATTICE_SHAPE = (16384, 101)


def test_exact_density_matrix_holds_its_lattice_once():
    grid = SpatialGrid(-20.0, 20.0, LATTICE_SHAPE[0])
    psi = make_cat_state(CAT, grid)
    y = grid.dx * np.arange(-50, 51)
    rho, peak = traced_peak(lambda: exact_density_matrix(psi, y))
    assert rho.values.shape == LATTICE_SHAPE
    assert peak <= 1.1 * rho.values.nbytes


def test_hermiticity_defect_reads_the_lattice_in_blocks():
    grid = SpatialGrid(-20.0, 20.0, LATTICE_SHAPE[0])
    rho = exact_density_matrix(make_cat_state(CAT, grid), grid.dx * np.arange(-50, 51))
    defect, peak = traced_peak(rho.hermiticity_defect)
    assert defect == full_lattice_hermiticity_defect(rho.values)
    assert peak <= 0.2 * rho.values.nbytes


def test_wigner_transform_equals_the_out_of_place_transform_bitwise():
    grid = SpatialGrid(-8.0, 8.0, 257)
    rng = np.random.default_rng(5)
    envelope = np.exp(-grid.points**2) * (1.0 + 0.3 * rng.normal(size=257))
    psi = WaveFunction(grid, envelope * np.exp(2j * np.pi * rng.uniform(size=257)))
    rho = exact_density_matrix(psi, offdiagonal_lattice(40 * grid.dx, 81))
    m, c = rho.y.size, rho.y.size // 2
    j = np.arange(m)
    phase = np.exp(2j * np.pi * c * j / m)
    pref = np.exp(2j * np.pi * j * c / m) * np.exp(-2j * np.pi * c * c / m)
    transformed = np.fft.fft(rho.values * phase[None, :], axis=1)
    reference = (rho.dy / (np.pi * CONSTANTS.hbar)) * pref[None, :] * transformed
    assert wigner_transform(rho, CONSTANTS).values.tobytes() == reference.real.tobytes()


def out_of_place_wigner(rho):
    """The whole-lattice transform: its real part and the residue ``wigner_transform`` flags."""
    m, c = rho.y.size, rho.y.size // 2
    j = np.arange(m)
    phase = np.exp(2j * np.pi * c * j / m)
    pref = np.exp(2j * np.pi * j * c / m) * np.exp(-2j * np.pi * c * c / m)
    transformed = np.fft.fft(rho.values * phase[None, :], axis=1)
    w = (rho.dy / (np.pi * CONSTANTS.hbar)) * pref[None, :] * transformed
    scale = np.max(np.abs(w))
    return w.real, np.max(np.abs(w.imag)) / scale if scale > 0 else 0.0


@pytest.mark.parametrize("row", [None, 0, -1])  # no NaN, a NaN in the first or the last block
@pytest.mark.parametrize("hermitian", [True, False])
def test_wigner_transform_of_a_nan_lattice_matches_the_whole_lattice_transform(row, hermitian):
    n_y = 81
    n_x = 2 * (LATTICE_BLOCK_BYTES // (16 * n_y)) + 37  # three row blocks, the last one short
    grid = SpatialGrid(-8.0, 8.0, n_x)
    y = offdiagonal_lattice(40 * grid.dx, n_y)
    rng = np.random.default_rng(n_x)
    values = rng.normal(size=(n_x, n_y)) + 1j * rng.normal(size=(n_x, n_y))
    if hermitian:
        values += np.conj(values[:, ::-1])
    if row is not None:
        values[row, 7] = np.nan
    rho = DensityMatrixGrid(grid, y, values)
    reference, residue = out_of_place_wigner(rho)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = wigner_transform(rho, CONSTANTS)
    assert_bytes_equal(w.values, reference)  # NaN rows included
    # a NaN anywhere makes the whole-lattice scale NaN, which flags nothing
    assert len(caught) == (residue > 1e-8) == (row is None and not hermitian)
    if caught:
        assert caught[0].category is GridCoverageWarning
        assert f"residue {residue:.3e}" in str(caught[0].message)


def nan_lattice():
    values = np.ones((64, 21), dtype=complex)
    values[17, 4] = np.nan
    return DensityMatrixGrid(SpatialGrid(-1.0, 1.0, 64), offdiagonal_lattice(1.0, 21), values)


def inf_distribution():
    values = np.ones((64, 21))
    values[5, 9] = np.inf
    return WignerGrid(SpatialGrid(-1.0, 1.0, 64), np.linspace(-1.0, 1.0, 21), values)


@pytest.mark.parametrize("make", [nan_lattice, inf_distribution])
def test_oracle_moment_set_rejects_a_non_finite_distribution(make):
    with pytest.raises(ValueError, match="quasi-probability distribution holds non-finite"):
        oracle_moment_set(make(), range(3), CONSTANTS)


@pytest.fixture(scope="module")
def packet_wigner_input():
    grid = SpatialGrid(-16.0, 16.0, 1024)
    return exact_density_matrix(gaussian_packet(grid, 1.5, center=0.5, momentum=1.0))


def test_wigner_transform_holds_its_result_and_one_block(packet_wigner_input):
    rho = packet_wigner_input
    w, peak = traced_peak(lambda: wigner_transform(rho, CONSTANTS))
    assert w.values.shape == (1024, 1023)
    assert peak <= 0.75 * rho.values.nbytes


def test_oracle_moment_set_holds_no_lattice_of_the_distribution(packet_wigner_input):
    w = wigner_transform(packet_wigner_input, CONSTANTS)
    moments, peak = traced_peak(lambda: oracle_moment_set(w, range(5), CONSTANTS))
    assert len(moments) == 5
    assert peak <= 0.25 * w.values.nbytes

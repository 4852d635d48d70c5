import warnings

import numpy as np
import pytest

from hydrec.numerics import PhysicalConstants, SpatialGrid, derivative_stencil
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
    cat_momentum_resolution_ok,
    cat_state_density_matrix,
    cat_state_moment,
    cat_state_norm,
    exact_density_matrix,
    gaussian_packet,
    gaussian_packet_moment,
    make_cat_state,
    offdiagonal_lattice,
    oracle_moment_set,
    oracle_moments,
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
    m0 = oracle_moments(cat_psi, 0, CONSTANTS).values
    assert np.max(np.abs(m0 - f0)) < 1e-8 * np.max(f0)


def test_oracle_first_moment_vanishes_for_cat(cat_psi):
    f1 = oracle_moments(cat_psi, 1, CONSTANTS).values
    f0 = probability_density(cat_psi).values
    momentum_scale = CONSTANTS.hbar * CAT.k0
    assert np.max(np.abs(f1)) < 1e-10 * np.max(f0) * momentum_scale


def test_oracle_second_moment_matches_symbolic(cat_psi, cat_grid):
    f2 = oracle_moments(cat_psi, 2, CONSTANTS).values
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
        oracle_moments(rho, 8, CONSTANTS)


def test_cat_momentum_resolution_rule():
    fine = CONSTANTS.hbar / (8.0 * (CAT.k0 * CONSTANTS.hbar + CONSTANTS.hbar / CAT.sigma)) * 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cat_momentum_resolution_ok(CAT, CONSTANTS, fine)
    with pytest.warns(GridCoverageWarning):
        assert not cat_momentum_resolution_ok(CAT, CONSTANTS, 10.0 * fine)

import re
import warnings

import numpy as np
import pytest

from conftest import (
    assert_bytes_equal,
    cat_momentum_resolution_ok,
    derivative_stencil,
    full_spectrum_wigner,
    merged_split_operator_reference,
    per_term_cat_moment,
    per_term_gaussian_moment,
    split_operator_reference,
    traced_peak,
)
from hydrec.numerics import LATTICE_BLOCK_BYTES, PhysicalConstants, SpatialGrid, TimeNodes
from hydrec.numerics import _support_window
from hydrec.potentials import (
    free_potential,
    harmonic_potential,
    paul_trap_potential,
    polynomial_potential,
    potential_value,
    quartic_potential,
)
from hydrec.simulator import (
    P_DECAY_THRESHOLD,
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
    sample_densities,
    wigner_transform,
)

CONSTANTS = PhysicalConstants()
CAT = CatStateParams()


def squared_norm(psi):
    """The integral of |psi|^2 over the grid, by the trapezoid rule."""
    return float(np.trapezoid(probability_density(psi).values, dx=psi.grid.dx))


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
    assert squared_norm(cat_psi) == pytest.approx(expected, rel=1e-9)


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


def test_a_lattice_past_the_integer_range_is_interpolated_with_no_cast_warning(cat_psi):
    # 1e80 / dx grid steps is a whole float, but no integer: no cast may be tried
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = exact_density_matrix(cat_psi, offdiagonal_lattice(1e80, 3))
    assert [w.category for w in caught] == [GridCoverageWarning]
    assert "not commensurate" in str(caught[0].message)
    assert not rho.values[:, [0, 2]].any()  # both shifts lie far past the grid


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
    assert squared_norm(out) == pytest.approx(squared_norm(psi), rel=1e-9)


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
        assert squared_norm(out) == pytest.approx(squared_norm(psi), rel=1e-10)


def test_propagate_detects_wraparound():
    grid = SpatialGrid(-4.0, 4.0, 256)
    psi = gaussian_packet(grid, 0.5, momentum=5.0)
    with pytest.raises(SimulationQualityError, match="wrap"):
        propagate(psi, free_potential(), CONSTANTS, dt=1e-3, steps=800)


def test_propagate_refuses_a_state_that_is_not_finite_after_the_first_kick(monkeypatch):
    # V = 1e307 x^2 overflows on the grid, so the first kick leaves the state NaN, and a
    # NaN norm drift compares False with any tolerance
    grid = SpatialGrid(-10.0, 10.0, 256)
    calls = []
    monkeypatch.setattr(
        "hydrec.potentials.potential_value", lambda *a: calls.append(a) or potential_value(*a)
    )
    model = polynomial_potential([[0.0], [0.0], [1e307]])
    with np.errstate(all="ignore"), pytest.raises(SimulationQualityError, match="not finite"):
        propagate(gaussian_packet(grid, 1.0), model, CONSTANTS, dt=1e-3, steps=10)
    assert len(calls) == 1


def test_propagate_refuses_an_overflowing_potential_without_a_runtime_warning():
    # every RuntimeWarning is an error under the test configuration: V and the kick overflow
    # without one, and the state they leave is refused
    grid = SpatialGrid(-10.0, 10.0, 256)
    model = polynomial_potential([[0.0], [0.0], [1e307]])
    with pytest.raises(SimulationQualityError, match=r"^the state is not finite after a step"):
        propagate(gaussian_packet(grid, 1.0), model, CONSTANTS, dt=1e-3, steps=10)


def assert_walk_equals(records, psis, expected_psis):
    assert len(records) == len(psis) == len(expected_psis)
    for record, psi, expected in zip(records, psis, expected_psis):
        assert_bytes_equal(psi.amplitudes, expected.amplitudes)
        assert_bytes_equal(record, np.abs(expected.amplitudes) ** 2)


def test_sample_densities_by_default_is_the_walk_simulate_took():
    # the README quartic dataset: cat state, 1024 points, 13 nodes from t_0 = 0.09
    model = quartic_potential(c2=0.5, c4=0.1)
    grid = SpatialGrid(-10.0, 10.0, 1024)
    nodes = TimeNodes(0.09, 0.005, 13)
    psi = make_cat_state(CAT, grid)
    records, psis = sample_densities(psi, model, CONSTANTS, nodes)
    # steps of at most 1e-3: 90 to t_0, then 8 per node interval
    n0, sub = max(8, int(np.ceil(abs(nodes.t_0) / 1e-3))), max(8, int(np.ceil(nodes.dt / 1e-3)))
    expected = [propagate(psi, model, CONSTANTS, nodes.t_0 / n0, n0, t_start=0.0)]
    for j in range(nodes.m):
        t_start = nodes.t_0 + j * nodes.dt
        step = nodes.dt / sub
        expected.append(propagate(expected[-1], model, CONSTANTS, step, sub, t_start=t_start))
    assert (n0, sub) == (90, 8)
    assert_walk_equals(records, psis, expected)


@pytest.mark.parametrize(
    "model, nodes, substeps",
    [
        (harmonic_potential(0.5), TimeNodes(0.14, 0.04, 9), 40),  # demos/03
        (free_potential(), TimeNodes(-0.005, 0.005, 3), 8),  # a lead-in backward in time
        (paul_trap_potential(a=1.0, b=0.4, big_omega=3.0), TimeNodes(0.0, 0.01, 3), 20),
    ],
)
def test_sample_densities_with_substeps_steps_dt_over_substeps_from_t_0(model, nodes, substeps):
    grid = SpatialGrid(-14.0, 14.0, 512)
    psi = gaussian_packet(grid, 1.0, center=0.3, momentum=0.8)
    records, psis = sample_densities(psi, model, CONSTANTS, nodes, substeps=substeps)
    expected = [psi]
    if nodes.t_0 != 0.0:
        n0 = max(8, int(np.ceil(abs(nodes.t_0) / (nodes.dt / substeps))))
        expected = [propagate(psi, model, CONSTANTS, nodes.t_0 / n0, n0, t_start=0.0)]
    for j in range(nodes.m):
        t_start = nodes.t_0 + j * nodes.dt
        step = nodes.dt / substeps
        expected.append(propagate(expected[-1], model, CONSTANTS, step, substeps, t_start=t_start))
    assert_walk_equals(records, psis, expected)


def test_sample_densities_returns_one_read_only_density_matrix():
    grid = SpatialGrid(-14.0, 14.0, 512)
    nodes = TimeNodes(0.05, 0.01, 4)
    psi = gaussian_packet(grid, 1.0, center=0.3, momentum=0.8)
    densities, psis = sample_densities(psi, harmonic_potential(0.5), CONSTANTS, nodes, 8)
    assert type(densities) is np.ndarray and densities.shape == (4, 512)
    assert not densities.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        densities[0, 0] = 1.0
    for row, state in zip(densities, psis, strict=True):
        assert_bytes_equal(row, probability_density(state).values)


@pytest.mark.parametrize("substeps", [0, -3, 2.5, True])
def test_sample_densities_rejects_a_substep_count_before_any_step(monkeypatch, substeps):
    import hydrec.simulator as simulator

    monkeypatch.setattr(simulator, "propagate", lambda *a, **k: pytest.fail("propagated"))
    psi = gaussian_packet(SpatialGrid(-8.0, 8.0, 64), 1.0)
    with pytest.raises(ValueError, match="substeps must be an integer >= 1"):
        sample_densities(psi, free_potential(), CONSTANTS, TimeNodes(0.1, 0.01, 3), substeps)


PROPAGATION_CASES = pytest.mark.parametrize(
    "n_points, model, steps",
    [
        (2048, harmonic_potential(0.5), 460),
        (1024, quartic_potential(c2=0.1, c4=0.05), 300),
        (256, paul_trap_potential(a=1.0, b=0.3, big_omega=4.0), 120),  # V changes every step
    ],
)


@PROPAGATION_CASES
def test_propagate_equals_the_step_by_step_loop_bitwise(n_points, model, steps):
    grid = SpatialGrid(-12.0, 12.0, n_points)
    psi = gaussian_packet(grid, 0.8, center=0.5, momentum=0.7)
    out = propagate(psi, model, CONSTANTS, 1e-3, steps, t_start=0.3)
    expected = merged_split_operator_reference(psi, model, 1e-3, steps, 0.3)
    assert_bytes_equal(out.amplitudes, expected)


@PROPAGATION_CASES
def test_propagate_agrees_with_the_unmerged_loop(n_points, model, steps):
    # merging the half kinetic steps changes only the rounding
    grid = SpatialGrid(-12.0, 12.0, n_points)
    psi = gaussian_packet(grid, 0.8, center=0.5, momentum=0.7)
    out = propagate(psi, model, CONSTANTS, 1e-3, steps, t_start=0.3).amplitudes
    unmerged = split_operator_reference(psi, model, 1e-3, steps, 0.3)
    assert np.max(np.abs(out - unmerged)) <= 1e-13 * np.max(np.abs(out))


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_propagate_takes_one_fft_pair_per_step_plus_one(monkeypatch, steps):
    calls = {"fft": 0, "ifft": 0}

    def counted(name):
        transform = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        return wrapper

    psi = gaussian_packet(SpatialGrid(-12.0, 12.0, 256), 0.8)
    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    propagate(psi, harmonic_potential(1.0), CONSTANTS, 1e-3, steps)
    assert calls == {"fft": steps + 1, "ifft": steps + 1}


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_propagate_kick_equals_the_complex_exponential_bitwise(hbar):
    # the reference kicks with exp(-1j * v * dt / hbar); propagate builds it from cos and sin
    constants = PhysicalConstants(hbar=hbar)
    model = paul_trap_potential(a=1.0, b=0.3, big_omega=4.0)
    psi = gaussian_packet(SpatialGrid(-12.0, 12.0, 4096), 0.8, center=0.5, hbar=hbar)
    out = propagate(psi, model, constants, 2e-3, 40, t_start=0.1)
    expected = merged_split_operator_reference(psi, model, 2e-3, 40, 0.1, constants)
    assert_bytes_equal(out.amplitudes, expected)


@pytest.mark.parametrize(
    "model, static",
    [
        (free_potential(), True),
        (harmonic_potential(0.5), True),
        (quartic_potential(c2=0.1, c4=0.05), True),
        # t < 0 below, so each zero coefficient of an odd power of t adds -0.0
        (polynomial_potential([[-0.0, 0.0, -0.0], [0.0], [0.5, 0.0, 0.0, 0.0]]), True),
        (paul_trap_potential(a=1.0, b=0.0, big_omega=40.0), True),
        (paul_trap_potential(a=-0.0, b=0.0, big_omega=40.0), True),  # a + 0 cos is ±0.0
        (paul_trap_potential(a=1.0, b=0.3, big_omega=0.0), True),
        (paul_trap_potential(a=1.0, b=0.3, big_omega=40.0), False),
        (polynomial_potential([[0.0], [0.0], [0.5, 0.0, 0.2]]), False),
    ],
    ids=["free", "harmonic", "quartic", "polynomial zero in t", "paul b=0", "paul a=-0 b=0",
         "paul omega=0", "paul driven", "polynomial in t"],
)
def test_propagate_evaluates_a_time_independent_potential_once_per_call(
    monkeypatch, model, static
):
    import hydrec.potentials as potentials

    calls = []

    def counted(*args):
        calls.append(args[2])
        return potential_value(*args)

    monkeypatch.setattr(potentials, "potential_value", counted)
    psi = gaussian_packet(SpatialGrid(-12.0, 12.0, 512), 0.8, center=0.5, momentum=0.7)
    out = propagate(psi, model, CONSTANTS, 1e-3, 50, t_start=-0.3)
    assert len(calls) == (1 if static else 50)
    monkeypatch.undo()
    expected = merged_split_operator_reference(psi, model, 1e-3, 50, -0.3)
    assert_bytes_equal(out.amplitudes, expected)


@pytest.mark.parametrize("steps", [2.5, 3.0, True, "3", None])
def test_propagate_rejects_a_steps_that_is_not_an_integer(steps):
    psi = gaussian_packet(SpatialGrid(-8.0, 8.0, 128), 0.8)
    message = f"^steps must be an integer, got {re.escape(repr(steps))}$"
    with pytest.raises(TypeError, match=message):
        propagate(psi, harmonic_potential(1.0), CONSTANTS, 1e-3, steps)


def test_propagate_takes_a_numpy_integer_steps():
    psi = gaussian_packet(SpatialGrid(-8.0, 8.0, 128), 0.8)
    model = harmonic_potential(1.0)
    out = propagate(psi, model, CONSTANTS, 1e-3, np.int64(3))
    assert_bytes_equal(out.amplitudes, propagate(psi, model, CONSTANTS, 1e-3, 3).amplitudes)


@pytest.mark.parametrize(
    "dt, t_start, name",
    [(np.nan, 0.0, "dt"), (np.inf, 0.0, "dt"), (-np.inf, 0.0, "dt"), (1e-3, np.nan, "t_start")],
)
def test_propagate_rejects_a_non_finite_time(dt, t_start, name):
    psi = gaussian_packet(SpatialGrid(-8.0, 8.0, 128), 0.8)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        propagate(psi, harmonic_potential(1.0), CONSTANTS, dt, 10, t_start=t_start)


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
    assert total == pytest.approx(squared_norm(cat_psi), rel=1e-8)


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
    with pytest.warns(GridCoverageWarning, match="anti-Hermitian part"):
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


@pytest.mark.parametrize(
    "params, sigma, center, momentum, hbar",
    [(CAT, 0.9, 0.0, 1.5, 1.0), (CatStateParams(1.3, -0.7), 0.35, -0.4, -2.2, 0.37)],
)
def test_both_closed_forms_equal_their_per_term_sums_bitwise(
    params, sigma, center, momentum, hbar
):
    # the cat's cross term and the Gaussian's factor are one sum in two parameterisations
    x = np.linspace(-4.0, 4.0, 81)
    for n in range(41):
        assert_bytes_equal(
            cat_state_moment(params, n, x, hbar=hbar), per_term_cat_moment(params, n, x, hbar)
        )
        assert_bytes_equal(
            gaussian_packet_moment(n, x, sigma, center, momentum, hbar),
            per_term_gaussian_moment(n, x, sigma, center, momentum, hbar),
        )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["sigma", "center", "momentum", "hbar"])
def test_gaussian_packet_rejects_a_parameter_that_is_not_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        gaussian_packet(SpatialGrid(-8.0, 8.0, 64), **{"sigma": 1.0, name: value})


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
        (3000, 0.37 * np.arange(-6, 7)),  # interpolated in three row blocks, the last one short
        (3000, 3 * np.arange(-7, 8)),  # whole steps in several row blocks, the last one short
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


def test_exact_density_matrix_interpolates_one_block_of_rows_at_a_time():
    grid = SpatialGrid(-20.0, 20.0, LATTICE_SHAPE[0])
    psi = make_cat_state(CAT, grid)
    y = 0.37 * grid.dx * np.arange(-50, 51)
    with pytest.warns(GridCoverageWarning, match="not commensurate"):
        rho, peak = traced_peak(lambda: exact_density_matrix(psi, y))
    assert rho.values.shape == LATTICE_SHAPE
    assert peak <= 1.1 * rho.values.nbytes + 4 * LATTICE_BLOCK_BYTES


def test_cat_state_density_matrix_holds_its_lattice_once():
    grid = SpatialGrid(-20.0, 20.0, LATTICE_SHAPE[0])
    rho, peak = traced_peak(
        lambda: cat_state_density_matrix(CAT, grid, 0.37 * grid.dx * np.arange(-50, 51))
    )
    assert rho.values.shape == LATTICE_SHAPE
    assert peak <= 1.1 * rho.values.nbytes + 4 * LATTICE_BLOCK_BYTES


def whole_lattice_cat_density_matrix(params, x, y):
    """The closed form of ``cat_state_density_matrix`` on the whole (x, y) lattice at once."""
    s, k0 = params.sigma, params.k0
    xx, yy = x[:, None], y[None, :]
    vals = 2.0 * np.exp(-(xx**2 + yy**2) / (2.0 * s**2)) * (
        np.cos(2.0 * k0 * xx) + np.cos(2.0 * k0 * yy)
    )
    return vals.astype(complex)


@pytest.mark.parametrize("n_x", [9, BLOCKS_OF_7])
def test_cat_state_density_matrix_equals_the_whole_lattice_formula_bitwise(n_x):
    grid, y = SpatialGrid(-8.0, 8.0, n_x), offdiagonal_lattice(2.1, 7)
    rho = cat_state_density_matrix(CAT, grid, y)
    assert_bytes_equal(rho.values, whole_lattice_cat_density_matrix(CAT, grid.points, y))
    assert not rho.values.flags.writeable


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
    reference, _ = out_of_place_wigner(rho)
    assert wigner_transform(rho, CONSTANTS).values.tobytes() == reference.tobytes()


def out_of_place_wigner(rho):
    """The half-spectrum transform of the whole lattice, and the defect it flags."""
    m, c = rho.y.size, rho.y.size // 2
    upper, lower = rho.values[:, c:], rho.values[:, c::-1]
    w = np.fft.hfft((upper + np.conj(lower)) / 2, n=m, axis=1)  # p = 0 in column 0
    w = np.roll(w, c, axis=1) * (rho.dy / (np.pi * CONSTANTS.hbar))
    peak = np.max(np.abs(rho.values))
    return w, np.max(np.abs(upper - np.conj(lower))) / peak if peak > 0 else 0.0


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
    reference, defect = out_of_place_wigner(rho)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = wigner_transform(rho, CONSTANTS)
    assert_bytes_equal(w.values, reference)  # NaN rows included
    # a NaN anywhere makes the whole-lattice scale NaN, which flags nothing
    assert len(caught) == (defect > 1e-8) == (row is None and not hermitian)
    if caught:
        assert caught[0].category is GridCoverageWarning
        assert f"part {defect:.3e}" in str(caught[0].message)


def random_hermitian_lattice():
    grid, y = SpatialGrid(-4.0, 4.0, 96), offdiagonal_lattice(1.0, 41)
    rng = np.random.default_rng(11)
    values = rng.normal(size=(96, 41)) + 1j * rng.normal(size=(96, 41))
    return DensityMatrixGrid(grid, y, values + np.conj(values[:, ::-1]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: exact_density_matrix(
            gaussian_packet(SpatialGrid(-12.0, 12.0, 512), 0.9, center=0.4, momentum=1.3)
        ),
        lambda: cat_state_density_matrix(
            CAT, SpatialGrid(-8.0, 8.0, 401), offdiagonal_lattice(6.0, 481)
        ),
        random_hermitian_lattice,
    ],
    ids=["gaussian", "cat", "random-hermitian"],
)
def test_wigner_transform_agrees_with_the_full_spectrum_transform(make):
    rho = make()
    reference = full_spectrum_wigner(rho)
    w = wigner_transform(rho, CONSTANTS)
    peak = np.max(np.abs(reference))
    assert np.max(np.abs(reference.imag)) <= 1e-12 * peak  # the input is Hermitian
    assert np.max(np.abs(w.values - reference.real)) <= 1e-12 * peak


def test_wigner_transform_of_a_non_hermitian_lattice_is_the_real_part():
    grid, y = SpatialGrid(-4.0, 4.0, 96), offdiagonal_lattice(1.0, 41)
    rng = np.random.default_rng(12)
    rho = DensityMatrixGrid(grid, y, rng.normal(size=(96, 41)) + 1j * rng.normal(size=(96, 41)))
    reference = full_spectrum_wigner(rho)
    with pytest.warns(GridCoverageWarning, match="anti-Hermitian part"):
        w = wigner_transform(rho, CONSTANTS)
    assert np.max(np.abs(reference.imag)) > 0.1 * np.max(np.abs(reference.real))
    assert np.max(np.abs(w.values - reference.real)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("column", [7, 33])  # y < 0 and y > 0 on a 41-point lattice
def test_a_nan_on_either_side_of_y_zero_gives_a_nan_row(column):
    values = np.array(random_hermitian_lattice().values)
    values[20, column] = np.nan
    rho = DensityMatrixGrid(SpatialGrid(-4.0, 4.0, 96), offdiagonal_lattice(1.0, 41), values)
    w = wigner_transform(rho, CONSTANTS)
    assert np.isnan(w.values[20]).all()
    assert np.isfinite(np.delete(w.values, 20, axis=0)).all()
    with pytest.raises(ValueError, match="quasi-probability distribution holds non-finite"):
        oracle_moment_set(w, range(3), CONSTANTS)


def swept_oracle_moment_set(w, orders):
    """The momentum moments of ``w`` with each order's peak and edges swept from its
    ``p^n``-weighted integrand, and the same warnings."""
    window = _support_window(np.max(np.abs(w.values), axis=0), P_DECAY_THRESHOLD)
    out = []
    for order in orders:
        integrand = w.p[window][None, :] ** order * w.values[:, window]
        peak = float(np.max(np.abs(integrand)))
        edge = float(max(np.max(np.abs(integrand[:, 0])), np.max(np.abs(integrand[:, -1]))))
        if peak > 0 and edge > 1e-10 * peak:
            warnings.warn(
                f"p^{order}-weighted integrand has edge amplitude {edge:.3e} "
                f"({edge / peak:.1e} of peak); extend the momentum lattice",
                GridCoverageWarning,
            )
        out.append(np.trapezoid(integrand, dx=w.dp, axis=1))
    return out


def random_distribution():
    """Signed values of every magnitude on a momentum lattice that has not decayed at all."""
    rng = np.random.default_rng(11)
    values = rng.normal(size=(48, 33)) * 10.0 ** rng.integers(-20, 5, size=(48, 33))
    return WignerGrid(SpatialGrid(-2.0, 2.0, 48), np.linspace(-3.0, 3.0, 33), values)


@pytest.mark.parametrize(
    "make",
    [
        lambda: wigner_transform(
            exact_density_matrix(gaussian_packet(SpatialGrid(-16.0, 16.0, 512), 1.0, 1.0, 1.5)),
            CONSTANTS,
        ),
        lambda: wigner_transform(
            exact_density_matrix(make_cat_state(CAT, SpatialGrid(-8.0, 8.0, 400))), CONSTANTS
        ),
        random_distribution,
    ],
    ids=["coherent", "cat", "random"],
)
def test_oracle_moment_set_equals_the_swept_integrands_bitwise(make):
    w = make()
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        fields = oracle_moment_set(w, range(13), CONSTANTS)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        expected = swept_oracle_moment_set(w, range(13))
    assert want, "no order warns: the case does not reach the edge test"
    assert [(x.category, str(x.message)) for x in got] == [
        (x.category, str(x.message)) for x in want
    ]
    for field, values in zip(fields, expected, strict=True):
        assert_bytes_equal(field.values, values)


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


ROW_WINDOWS = {
    # name: (grid points, y in grid cells, or None for the default lattice, grid rows)
    "whole steps, at the left edge": (64, 3 * np.arange(-7, 8), slice(0, 9)),
    "whole steps, at the right edge": (64, 3 * np.arange(-7, 8), slice(50, 64)),
    "whole steps, one row": (64, np.arange(-20, 21), slice(31, 32)),
    "the default lattice": (65, None, slice(10, 40)),
    # blocks of 1260 rows from row 100: the last is short, and no block starts where one
    # of the whole lattice's does
    "interpolated, a short last block": (3000, 0.37 * np.arange(-6, 7), slice(100, 2900)),
    "interpolated, one row at the edge": (3000, 0.37 * np.arange(-6, 7), slice(2999, 3000)),
    # blocks of 1092 rows from row 500, none starting where one of the whole lattice's does
    "whole steps, from inside a block": (3000, 3 * np.arange(-7, 8), slice(500, 2700)),
}


@pytest.mark.parametrize("case", ROW_WINDOWS)
def test_a_row_window_of_exact_density_matrix_is_those_rows_of_the_lattice_bitwise(case):
    n_points, y_steps, rows = ROW_WINDOWS[case]
    grid = SpatialGrid(-2.0, 2.0, n_points)
    rng = np.random.default_rng(n_points)
    # undecayed random amplitudes: windows at an edge reach into the zero padding
    psi = WaveFunction(grid, rng.normal(size=n_points) + 1j * rng.normal(size=n_points))
    y = None if y_steps is None else grid.dx * y_steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridCoverageWarning)
        whole = exact_density_matrix(psi, y)
        window = exact_density_matrix(psi, y, rows)
    assert window.rows == rows and whole.rows == slice(0, n_points)
    assert_bytes_equal(window.values, whole.values[rows])
    assert_bytes_equal(window.diagonal, whole.values[:, whole.y.size // 2])
    assert_bytes_equal(window.y, whole.y)


@pytest.mark.parametrize(
    "rows", [slice(0, 5), slice(BLOCKS_OF_7 - 40, None), slice(400, 401), slice(3, -2)]
)
def test_a_row_window_of_cat_state_density_matrix_is_those_rows_bitwise(rows):
    grid, y = SpatialGrid(-8.0, 8.0, BLOCKS_OF_7), offdiagonal_lattice(2.1, 7)
    whole = cat_state_density_matrix(CAT, grid, y)
    window = cat_state_density_matrix(CAT, grid, y, rows)
    assert window.rows == slice(*rows.indices(BLOCKS_OF_7)[:2])
    assert_bytes_equal(window.values, whole.values[rows])
    assert_bytes_equal(window.diagonal, whole.values[:, 3])


@pytest.mark.parametrize(
    "rows",
    [slice(5, 5), slice(0, 9, 2), slice(9, 0, -1), slice(20, 30), slice(10, 30), 3, [1, 2]],
    ids=["empty", "strided", "reversed", "past the grid", "running past the grid", "an index",
         "a list"],
)
def test_a_row_window_must_be_a_run_of_grid_rows(rows):
    grid, y = SpatialGrid(-8.0, 8.0, 16), offdiagonal_lattice(2.1, 7)
    with pytest.raises(ValueError, match=r"^rows must be a non-empty slice of consecutive rows"):
        cat_state_density_matrix(CAT, grid, y, rows)
    with pytest.raises(ValueError, match=r"^rows must be a non-empty slice"):
        exact_density_matrix(make_cat_state(CAT, SpatialGrid(-8.0, 8.0, 16)), y, rows)


def test_a_row_window_needs_the_diagonal_of_the_whole_lattice():
    grid, y = SpatialGrid(-1.0, 1.0, 9), offdiagonal_lattice(0.5, 5)
    with pytest.raises(ValueError, match=r"^a window of rows 2\.\.4 needs the diagonal"):
        DensityMatrixGrid(grid, y, np.ones((3, 5)), slice(2, 5))
    rho = DensityMatrixGrid(grid, y, np.ones((3, 5)), slice(2, 5), np.arange(9.0))
    assert rho.rows == slice(2, 5) and not rho.diagonal.flags.writeable
    assert_bytes_equal(rho.diagonal, np.arange(9.0).astype(complex))

import warnings

import numpy as np
import pytest

import hydrec.reconstruction as reconstruction_module
from hydrec.assembly import assemble
from hydrec.numerics import (
    DecayAssumptionWarning,
    GridField,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    cumulative_integral,
)
from hydrec.potentials import (
    check_mass,
    free_potential,
    harmonic_potential,
    paul_trap_potential,
    quartic_potential,
)
from hydrec.reconstruction import (
    InsufficientTimeSamplesError,
    build_pyramid,
    reconstruct_current,
)
from hydrec.simulator import (
    gaussian_packet,
    gaussian_packet_moment,
    offdiagonal_lattice,
    oracle_moment_set,
    propagate,
    sample_densities,
)

CONSTANTS = PhysicalConstants()


def test_rejects_insufficient_time_samples():
    grid = SpatialGrid(-8.0, 8.0, 64)
    nodes = TimeNodes(0.0, 0.01, 3)
    records = [GridField(grid, np.exp(-grid.points**2))] * 3
    with pytest.raises(InsufficientTimeSamplesError, match="time samples"):
        build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=3)


def test_rejects_a_record_on_another_grid():
    grid, other = SpatialGrid(-10.0, 10.0, 256), SpatialGrid(-20.0, 20.0, 256)
    nodes = TimeNodes(0.0, 0.01, 3)
    records = [GridField(other, np.exp(-other.points**2))] * 3
    with pytest.raises(ValueError) as raised:
        build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=2)
    assert repr(grid) in str(raised.value) and repr(other) in str(raised.value)


def test_order_zero_is_passthrough():
    grid = SpatialGrid(-8.0, 8.0, 64)
    nodes = TimeNodes(0.0, 0.01, 3)
    rows = [np.exp(-((grid.points - 0.1 * j) ** 2)) for j in range(3)]
    records = [GridField(grid, r) for r in rows]
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=0)
    assert pyramid.order_max == 0
    central = pyramid.central_slice()
    assert central.values.shape == (1, 64)
    assert np.array_equal(central.values[0], rows[1])


def test_current_vanishes_at_free_gaussian_waist():
    # symmetric spreading has zero current at the waist
    grid = SpatialGrid(-12.0, 12.0, 1024)
    nodes = TimeNodes(-0.01, 0.01, 3)  # central node exactly at t = 0
    psi0 = gaussian_packet(grid, 1.0)
    records, _ = sample_densities(psi0, free_potential(), CONSTANTS, nodes, substeps=20)
    f1 = reconstruct_current(records, grid, nodes, CONSTANTS)
    f0_scale = np.max(records[1].values)
    momentum_scale = CONSTANTS.hbar / 1.0  # width-limited momentum spread
    assert np.max(np.abs(f1.values)) < 1e-9 * f0_scale * momentum_scale


def test_current_vanishes_for_stationary_state():
    omega = 1.0
    grid = SpatialGrid(-12.0, 12.0, 512)
    sigma = np.sqrt(CONSTANTS.hbar / (2.0 * CONSTANTS.mass * omega))
    psi0 = gaussian_packet(grid, sigma)  # harmonic ground state
    nodes = TimeNodes(0.0, 0.02, 3)
    records, _ = sample_densities(psi0, harmonic_potential(omega), CONSTANTS, nodes, substeps=20)
    f1 = reconstruct_current(records, grid, nodes, CONSTANTS)
    assert np.max(np.abs(f1.values)) < 1e-8 * np.max(records[0].values)


def test_current_of_boosted_packet():
    # f1 = hbar k0 f0 for a plane-wave-boosted Gaussian at its waist
    grid = SpatialGrid(-14.0, 14.0, 2048)
    k0 = 1.5
    psi0 = gaussian_packet(grid, 1.0, momentum=k0 * CONSTANTS.hbar)
    nodes = TimeNodes(-0.005, 0.005, 3)
    records, _ = sample_densities(psi0, free_potential(), CONSTANTS, nodes, substeps=20)
    f1 = reconstruct_current(records, grid, nodes, CONSTANTS)
    expected = CONSTANTS.hbar * k0 * records[1].values
    rel = np.linalg.norm(f1.values - expected) / np.linalg.norm(expected)
    assert rel < 1e-4


def test_time_reversed_records_flip_current_sign():
    grid = SpatialGrid(-14.0, 14.0, 1024)
    psi0 = gaussian_packet(grid, 1.0, momentum=1.0)
    nodes = TimeNodes(0.0, 0.01, 5)
    records, _ = sample_densities(psi0, free_potential(), CONSTANTS, nodes, substeps=20)
    forward = reconstruct_current(records, grid, nodes, CONSTANTS)
    backward = reconstruct_current(records[::-1], grid, nodes, CONSTANTS)
    scale = np.max(np.abs(forward.values))
    assert np.max(np.abs(backward.values + forward.values)) < 1e-12 * scale


def test_free_model_equals_zero_frequency_harmonic_bitwise():
    grid = SpatialGrid(-12.0, 12.0, 512)
    psi0 = gaussian_packet(grid, 1.0, momentum=0.8)
    nodes = TimeNodes(0.0, 0.01, 5)
    records, _ = sample_densities(psi0, free_potential(), CONSTANTS, nodes, substeps=20)
    # the top levels carry an amplified rounding residue at the grid edges
    with pytest.warns(DecayAssumptionWarning):
        a = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=4)
    with pytest.warns(DecayAssumptionWarning):
        b = build_pyramid(
            records, grid, nodes, harmonic_potential(omega=0.0), CONSTANTS, order_max=4
        )
    for n in range(5):
        assert np.array_equal(a.levels[n], b.levels[n])


def test_pyramid_is_linear_in_the_state():
    grid = SpatialGrid(-14.0, 14.0, 1024)
    nodes = TimeNodes(0.0, 0.01, 4)
    model = harmonic_potential(omega=1.0)
    rec_a, _ = sample_densities(
        gaussian_packet(grid, 1.0, center=0.6), model, CONSTANTS, nodes, substeps=20
    )
    rec_b, _ = sample_densities(
        gaussian_packet(grid, 0.7, center=-0.9), model, CONSTANTS, nodes, substeps=20
    )
    mixed = [GridField(grid, a.values + b.values) for a, b in zip(rec_a, rec_b)]
    with pytest.warns(DecayAssumptionWarning):  # edge residue, see below
        pa = build_pyramid(rec_a, grid, nodes, model, CONSTANTS, order_max=3)
        pb = build_pyramid(rec_b, grid, nodes, model, CONSTANTS, order_max=3)
        pm = build_pyramid(mixed, grid, nodes, model, CONSTANTS, order_max=3)
    support = np.abs(grid.points) <= 5.0
    for n in range(4):
        combined = pa.levels[n] + pb.levels[n]
        scale = np.max(np.abs(combined))
        # compare where the packets live: past their support the levels hold
        # only the near-cancelling edge residue of the cumulative integrals,
        # whose roundoff differs between summation orders and is amplified
        # by every differentiation level
        diff = np.max(np.abs((pm.levels[n] - combined)[:, support]))
        assert diff < 1e-6 * scale


# the growing synthetic records do not conserve probability, so f_1 does not
# decay at the right edge
@pytest.mark.filterwarnings("ignore::hydrec.numerics.DecayAssumptionWarning")
def test_potential_derivative_demand_is_bounded(monkeypatch):
    seen = []
    from hydrec.potentials import potential_derivative as real_derivative

    def spy(model, order, x, t):
        seen.append(order)
        return real_derivative(model, order, x, t)

    monkeypatch.setattr(reconstruction_module, "potential_derivative", spy)
    grid = SpatialGrid(-10.0, 10.0, 256)
    nodes = TimeNodes(0.0, 0.02, 6)
    records = [GridField(grid, np.exp(-grid.points**2) * (1 + 0.01 * j)) for j in range(6)]
    build_pyramid(records, grid, nodes, quartic_potential(c4=0.1), CONSTANTS, order_max=5)
    assert seen, "force terms should have been evaluated"
    assert max(seen) == 2 * ((5 - 2) // 2) + 1


def test_model_mass_must_match_the_particle_mass():
    grid = SpatialGrid(-8.0, 8.0, 64)
    nodes = TimeNodes(0.0, 0.01, 3)
    records = [np.exp(-grid.points**2)] * 3
    heavy = PhysicalConstants(mass=2.0)
    build_pyramid(records, grid, nodes, free_potential(), heavy, order_max=1)
    for model in (harmonic_potential(1.0), paul_trap_potential(1.0, 0.5, 3.0)):
        with pytest.raises(ValueError, match="particle mass is 2.0"):
            build_pyramid(records, grid, nodes, model, heavy, order_max=1)
        with pytest.raises(ValueError, match="particle mass is 2.0"):
            propagate(gaussian_packet(grid, 1.0), model, heavy, 0.01, 1)
    # an agreeing mass, or a model without one, passes
    build_pyramid(records, grid, nodes, harmonic_potential(1.0, mass=2.0), heavy, order_max=1)
    check_mass(quartic_potential(c4=1.0), 2.0)


def test_harmonic_coherent_first_moment_against_oracle():
    # five nodes spaced at 1/200 of the oscillator period
    omega = 1.0
    model = harmonic_potential(omega=omega)
    grid = SpatialGrid(-14.0, 14.0, 1024)
    sigma = np.sqrt(CONSTANTS.hbar / (2.0 * CONSTANTS.mass * omega))
    psi0 = gaussian_packet(grid, sigma, center=1.0)
    dt = 2.0 * np.pi / omega / 200.0
    nodes = TimeNodes(0.3 - 2 * dt, dt, 5)
    records, psis = sample_densities(psi0, model, CONSTANTS, nodes, substeps=20)
    pyramid = build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=1)
    f1 = pyramid.levels[1][nodes.central_index]
    oracle = oracle_moment_set(psis[nodes.central_index], [1], CONSTANTS)[0].values
    rel = np.linalg.norm(f1 - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-2


def test_smoothing_hook_runs_and_preserves_clean_data():
    grid = SpatialGrid(-10.0, 10.0, 512)
    nodes = TimeNodes(0.0, 0.01, 3)
    rows = [np.exp(-grid.points**2) * (1 + 0.05 * j) for j in range(3)]
    records = [GridField(grid, r) for r in rows]
    plain = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=1)
    smoothed = build_pyramid(
        records, grid, nodes, free_potential(), CONSTANTS, order_max=1, smoothing=(7, 3)
    )
    scale = np.max(np.abs(plain.levels[1]))
    # Gaussians are locally cubic to high accuracy at this resolution
    assert np.max(np.abs(plain.levels[1] - smoothed.levels[1])) < 1e-4 * scale


def test_many_nodes_warning():
    grid = SpatialGrid(-10.0, 10.0, 256)
    nodes = TimeNodes(0.0, 0.01, 14)
    records = [GridField(grid, np.exp(-grid.points**2) * (1 + 0.01 * j)) for j in range(14)]
    # the growing synthetic records do not conserve probability, so f_1 does
    # not decay at the right edge
    with pytest.warns(UserWarning, match="nodes"), pytest.warns(DecayAssumptionWarning):
        build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=2)


def test_time_dependent_trap_pipeline():
    # the drive enters the force terms through per-node potential derivatives
    from hydrec.simulator import oracle_moment_set

    model = paul_trap_potential(a=1.0, b=0.4, big_omega=3.0)
    grid = SpatialGrid(-14.0, 14.0, 1024)
    nodes = TimeNodes(0.05, 0.01, 3)
    records, psis = sample_densities(
        gaussian_packet(grid, 0.8, center=0.7), model, CONSTANTS, nodes, substeps=20
    )
    pyramid = build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=2)
    oracles = oracle_moment_set(psis[1], range(3), CONSTANTS)
    for n in (1, 2):
        rel = np.linalg.norm(pyramid.levels[n][1] - oracles[n].values) / np.linalg.norm(
            oracles[n].values
        )
        assert rel < 1e-2, f"order {n}: {rel}"


def test_levels_stay_real():
    grid = SpatialGrid(-12.0, 12.0, 512)
    nodes = TimeNodes(0.0, 0.01, 4)
    model = harmonic_potential(omega=1.0)
    records, _ = sample_densities(
        gaussian_packet(grid, 1.0, center=0.5), model, CONSTANTS, nodes, substeps=20
    )
    with pytest.warns(DecayAssumptionWarning):  # edge residue of the top levels
        pyramid = build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=3)
    for level in pyramid.levels:
        assert level.dtype.kind == "f"
        assert np.all(np.isfinite(level))


def test_moment_units_sanity_second_moment_positive_mass_density():
    # for a boosted packet, f2 ~ (p^2 + spread) f0 > 0
    grid = SpatialGrid(-14.0, 14.0, 1024)
    psi0 = gaussian_packet(grid, 1.0, momentum=1.0)
    nodes = TimeNodes(-0.01, 0.01, 3)
    records, _ = sample_densities(psi0, free_potential(), CONSTANTS, nodes, substeps=20)
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=2)
    f2 = pyramid.levels[2][nodes.central_index]
    analytic = gaussian_packet_moment(2, grid.points, 1.0, momentum=1.0)
    rel = np.linalg.norm(f2 - analytic) / np.linalg.norm(analytic)
    assert rel < 1e-3


def test_pyramid_levels_and_term_peaks_are_read_only():
    grid = SpatialGrid(-8.0, 8.0, 64)
    nodes = TimeNodes(0.0, 0.01, 3)
    records = [np.exp(-((grid.points - 0.1 * j) ** 2)) for j in range(3)]
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=1)
    for level in pyramid.levels:
        with pytest.raises(ValueError, match="read-only"):
            level[0, 0] = 1.0
    rec = assemble(pyramid.central_slice(), offdiagonal_lattice(0.5, 11), CONSTANTS.hbar)
    with pytest.raises(ValueError, match="read-only"):
        rec.term_peaks[0] = 1.0


def test_central_slice_and_the_assembled_f0_are_the_central_pyramid_rows_bitwise():
    # the benchmark assembles pyramid.central_slice() and reads rec.moments[0].field as f_0
    grid = SpatialGrid(-8.0, 8.0, 64)
    nodes = TimeNodes(0.0, 0.01, 5)
    records = [np.exp(-((grid.points - 0.1 * j) ** 2)) for j in range(5)]
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=2)
    c = nodes.central_index
    moments = pyramid.central_slice()
    assert moments.grid == grid and moments.values.shape == (3, 64)
    for n, level in enumerate(pyramid.levels):
        assert moments.values[n].tobytes() == level[c].tobytes()
    rec = assemble(moments, offdiagonal_lattice(0.5, 11), CONSTANTS.hbar)
    assert [m.order for m in rec.moments] == [0, 1, 2]
    assert rec.moments[0].field.values.tobytes() == pyramid.levels[0][c].tobytes()
    current = reconstruct_current(records, grid, nodes, CONSTANTS)
    assert current.grid == grid
    assert current.values.tobytes() == pyramid.levels[1][c].tobytes()


@pytest.mark.parametrize(
    "model, order_max, calls",
    [
        (free_potential(), 4, 4),
        (free_potential(), 12, 12),
        # level n integrates f_n, and from n = 1 on also V' f_(n-1)
        (paul_trap_potential(1.0, 0.5, 6.28), 12, 23),
    ],
)
def test_one_cumulative_integral_call_per_integrand(monkeypatch, model, order_max, calls):
    # the benchmark's tracer times the recursion's integrals through this name
    shapes = []

    def counting(values, dx):
        shapes.append(np.shape(values))
        return cumulative_integral(values, dx)

    monkeypatch.setattr(reconstruction_module, "cumulative_integral", counting)
    grid = SpatialGrid(-8.0, 8.0, 64)
    nodes = TimeNodes(0.0, 0.01, 13)
    records = [np.exp(-((grid.points - 0.01 * j) ** 2)) for j in range(13)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DecayAssumptionWarning)
        build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=order_max)
    assert shapes == [(13, 64)] * calls  # one whole level per call

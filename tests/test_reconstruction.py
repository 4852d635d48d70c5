import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    polynomial_potential,
    potential_derivative,
    quartic_potential,
)
from hydrec.reconstruction import InsufficientTimeSamplesError, build_pyramid
from hydrec.simulator import (
    CatStateParams,
    gaussian_packet,
    gaussian_packet_moment,
    make_cat_state,
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
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=1)
    f1 = pyramid.levels[1, nodes.central_index]
    f0_scale = np.max(records[1])
    momentum_scale = CONSTANTS.hbar / 1.0  # width-limited momentum spread
    assert np.max(np.abs(f1)) < 1e-9 * f0_scale * momentum_scale


def test_current_vanishes_for_stationary_state():
    omega = 1.0
    grid = SpatialGrid(-12.0, 12.0, 512)
    sigma = np.sqrt(CONSTANTS.hbar / (2.0 * CONSTANTS.mass * omega))
    psi0 = gaussian_packet(grid, sigma)  # harmonic ground state
    nodes = TimeNodes(0.0, 0.02, 3)
    records, _ = sample_densities(psi0, harmonic_potential(omega), CONSTANTS, nodes, substeps=20)
    # order 1 needs no potential
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=1)
    f1 = pyramid.levels[1, nodes.central_index]
    assert np.max(np.abs(f1)) < 1e-8 * np.max(records[0])


def test_current_of_boosted_packet():
    # f1 = hbar k0 f0 for a plane-wave-boosted Gaussian at its waist
    grid = SpatialGrid(-14.0, 14.0, 2048)
    k0 = 1.5
    psi0 = gaussian_packet(grid, 1.0, momentum=k0 * CONSTANTS.hbar)
    nodes = TimeNodes(-0.005, 0.005, 3)
    records, _ = sample_densities(psi0, free_potential(), CONSTANTS, nodes, substeps=20)
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=1)
    f1 = pyramid.levels[1, nodes.central_index]
    expected = CONSTANTS.hbar * k0 * records[1]
    rel = np.linalg.norm(f1 - expected) / np.linalg.norm(expected)
    assert rel < 1e-4


def test_time_reversed_records_flip_current_sign():
    grid = SpatialGrid(-14.0, 14.0, 1024)
    psi0 = gaussian_packet(grid, 1.0, momentum=1.0)
    nodes = TimeNodes(0.0, 0.01, 5)
    records, _ = sample_densities(psi0, free_potential(), CONSTANTS, nodes, substeps=20)
    forward, backward = (
        build_pyramid(r, grid, nodes, free_potential(), CONSTANTS, 1).levels[1, nodes.central_index]
        for r in (records, records[::-1])
    )
    scale = np.max(np.abs(forward))
    assert np.max(np.abs(backward + forward)) < 1e-12 * scale


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
    mixed = rec_a + rec_b
    with pytest.warns(DecayAssumptionWarning):  # edge residue, see below
        pa = build_pyramid(rec_a, grid, nodes, model, CONSTANTS, order_max=3)
        pb = build_pyramid(rec_b, grid, nodes, model, CONSTANTS, order_max=3)
        pm = build_pyramid(mixed, grid, nodes, model, CONSTANTS, order_max=3)
    # compare where all three pyramids ran: past a packet's own window its
    # levels are 0, while the mixed pyramid's wider window carries that
    # packet's near-cancelling residue of the running integrals, whose
    # roundoff is amplified by every differentiation level
    shared = slice(
        max(p.window.start for p in (pa, pb, pm)), min(p.window.stop for p in (pa, pb, pm))
    )
    assert shared.stop - shared.start > grid.n_points // 4
    for n in range(4):
        combined = pa.levels[n] + pb.levels[n]
        scale = np.max(np.abs(combined))
        diff = np.max(np.abs((pm.levels[n] - combined)[:, shared]))
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


def test_levels_are_one_read_only_order_node_x_array():
    grid = SpatialGrid(-14.0, 14.0, 512)
    nodes = TimeNodes(0.05, 0.01, 4)
    model = quartic_potential(c2=0.5, c4=0.1)
    psi = gaussian_packet(grid, 1.0, center=0.5)
    records, _ = sample_densities(psi, model, CONSTANTS, nodes, substeps=20)
    pyramid = build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=2)
    levels = pyramid.levels
    assert type(levels) is np.ndarray and levels.shape == (3, 4, 512)
    assert not levels.flags.writeable and pyramid.order_max == 2
    assert levels[0].tobytes() == records.tobytes()
    c = nodes.central_index
    assert pyramid.central_slice().values.tobytes() == levels[:, c].tobytes()


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
    current = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=1)
    assert current.grid == grid
    assert current.levels[1, c].tobytes() == pyramid.levels[1][c].tobytes()


def test_central_slice_takes_only_an_integer_node_in_range():
    grid = SpatialGrid(-8.0, 8.0, 256)
    nodes = TimeNodes(0.0, 0.01, 5)
    records = [np.exp(-((grid.points - 0.1 * j) ** 2)) for j in range(5)]
    pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=2)
    levels = pyramid.levels
    for node in (0, np.int64(4), np.uint8(2)):
        assert pyramid.central_slice(node).values.tobytes() == levels[:, int(node)].tobytes()
    for node in (-1, 5, np.int64(-5)):
        with pytest.raises(ValueError, match=rf"^node {node} outside 0\.\.4$"):
            pyramid.central_slice(node)
    for node in (True, np.True_, 2.0, "2", [2], slice(0, 2)):
        with pytest.raises(TypeError, match=r"^node must be an integer in 0\.\.4, got "):
            pyramid.central_slice(node)


@pytest.mark.parametrize(
    "model, order_max",
    [
        (free_potential(), 4),
        (free_potential(), 12),
        # the force terms join the time derivative in one integrand per level
        (paul_trap_potential(1.0, 0.5, 6.28), 12),
        (quartic_potential(c2=0.5, c4=0.1), 12),
    ],
)
def test_one_cumulative_integral_call_per_level(monkeypatch, model, order_max):
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
        pyramid = build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=order_max)
    # the drifting exp(-x^2) passes 1e-14 of its peak on 45 columns (|x| < 5.7),
    # and the window adds one on each side
    assert pyramid.window == slice(9, 56)
    assert shapes == [(13, 47)] * order_max  # one whole level of the window per call


@pytest.mark.parametrize(
    "model, orders",
    [
        (free_potential(), []),
        (paul_trap_potential(1.0, 0.5, 6.28), [1]),
        (quartic_potential(c2=0.5, c4=0.1), [1, 3]),
        (polynomial_potential([[0], [0, 0.2], [0.5], [0], [0, 0.1], [0.01]]), [1, 3, 5]),
    ],
)
def test_one_potential_derivative_call_per_odd_force_order(monkeypatch, model, orders):
    # the force table takes every node in one call: the benchmark's tracer counts these calls
    calls = []

    def counting(model, order, x, t):
        calls.append((order, np.shape(x), np.shape(t)))
        return potential_derivative(model, order, x, t)

    monkeypatch.setattr(reconstruction_module, "potential_derivative", counting)
    grid = SpatialGrid(-8.0, 8.0, 64)
    nodes = TimeNodes(0.0, 0.01, 13)
    records = [np.exp(-((grid.points - 0.01 * j) ** 2)) for j in range(13)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DecayAssumptionWarning)
        build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=12)
    assert calls == [(order, (47,), (13,)) for order in orders]  # the window's 47 columns


def test_one_decay_warning_per_pyramid_naming_the_lowest_order():
    # growing records do not conserve probability, so f_1 is the lowest order left
    # hot at the edges
    grid = SpatialGrid(-10.0, 10.0, 256)
    nodes = TimeNodes(0.0, 0.02, 6)
    records = [np.exp(-grid.points**2) * (1 + 0.01 * j) for j in range(6)]
    with pytest.warns(DecayAssumptionWarning) as record:
        build_pyramid(records, grid, nodes, quartic_potential(c4=0.1), CONSTANTS, order_max=5)
    assert len(record) == 1
    assert str(record[0].message).startswith("f_1 has edge amplitude ")
    assert record[0].filename == __file__
    # with f_0 hot as well, the warning names f_0
    records[0] = records[0] + 1e-3
    with pytest.warns(DecayAssumptionWarning, match=r"^f_0 has edge amplitude ") as record:
        build_pyramid(records, grid, nodes, quartic_potential(c4=0.1), CONSTANTS, order_max=5)
    assert len(record) == 1


@pytest.fixture(scope="module")
def cat_around_t_0():
    """The README cat state at the nodes -0.02, 0, 0.02, sampled as ``simulate`` samples it."""
    grid = SpatialGrid(-10.0, 10.0, 1001)
    nodes = TimeNodes(-0.02, 0.02, 3)
    records, _ = sample_densities(
        make_cat_state(CatStateParams(), grid), free_potential(), CONSTANTS, nodes
    )
    return records, grid, nodes


def test_a_vanishing_odd_order_draws_no_decay_warning(cat_around_t_0):
    # f_1 of a real state vanishes at t = 0: at the central node it is rounding alone, whose
    # edge stands at 0.99 of that node's own peak, but at about 1e-11 of f_1's peak over the nodes
    records, grid, nodes = cat_around_t_0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pyramid = build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=2)
    f1 = pyramid.window_levels[1]
    assert 0.0 < np.max(np.abs(f1[1])) < 1e-9 * np.max(np.abs(f1))


def test_an_order_hot_at_one_node_still_warns(cat_around_t_0):
    records, grid, nodes = cat_around_t_0
    records = records.copy()
    records[2, [0, -1]] += 1e-6 * records.max()  # a density that has not decayed at node 2 only
    with pytest.warns(DecayAssumptionWarning, match=r"^f_0 has edge amplitude .* at node 2;"):
        build_pyramid(records, grid, nodes, free_potential(), CONSTANTS, order_max=2)


def test_high_orders_hold_no_plateau_past_the_support():
    # the benchmark's oracle_validation case: a coherent state in a harmonic
    # trap stays a Gaussian of width sigma on the classical orbit.  Running
    # integrals from the left grid edge carried each level's residual total
    # across the empty grid as a plateau, and the next level integrated it
    # into a ramp: all-x errors of 5.1e-3 / 0.52 / 5.7 of the order's peak at
    # n = 6 / 7 / 8.  On the support window they read 4.0e-4 / 4.2e-2 / 4.6e-2;
    # the bounds are 2.2-2.5x those.
    omega, center, momentum = 0.5, 0.3, 0.8
    model = harmonic_potential(omega)
    grid = SpatialGrid(-16.0, 16.0, 2048)
    sigma = np.sqrt(CONSTANTS.hbar / (2.0 * CONSTANTS.mass * omega))
    nodes = TimeNodes(0.3 - 4 * 0.04, 0.04, 9)
    psi = gaussian_packet(grid, sigma, center=center, momentum=momentum)
    records, _ = sample_densities(psi, model, CONSTANTS, nodes, substeps=40)
    with pytest.warns(DecayAssumptionWarning):  # orders 7 and 8 are noise-amplified
        pyramid = build_pyramid(records, grid, nodes, model, CONSTANTS, order_max=8)
    t, c = nodes.central_time, nodes.central_index
    center_t = center * np.cos(omega * t) + momentum / (CONSTANTS.mass * omega) * np.sin(omega * t)
    momentum_t = momentum * np.cos(omega * t) - CONSTANTS.mass * omega * center * np.sin(omega * t)
    for n, bound in ((6, 1e-3), (7, 0.1), (8, 0.1)):
        exact = gaussian_packet_moment(n, grid.points, sigma, center=center_t, momentum=momentum_t)
        error = np.max(np.abs(pyramid.levels[n][c] - exact)) / np.max(np.abs(exact))
        assert error < bound, f"order {n}: {error:.2e}"
    assert pyramid.window == slice(536, 1581)  # 1045 of 2048 columns


PYRAMID_DIGEST = """if True:
    import hashlib, warnings
    import numpy as np
    from hydrec.numerics import PhysicalConstants, SpatialGrid, TimeNodes
    from hydrec.potentials import quartic_potential
    from hydrec.reconstruction import build_pyramid

    grid, nodes = SpatialGrid(-20.0, 20.0, 20001), TimeNodes(0.0, 5e-3, 13)
    records = np.random.default_rng(3).uniform(0.5, 1.0, size=(13, grid.n_points))
    warnings.simplefilter("ignore")  # records that never decay
    pyramid = build_pyramid(records, grid, nodes, quartic_potential(0.5, 0.1), PhysicalConstants(), 12)
    assert pyramid.window_levels.shape == (13, 13, 20001)
    print(hashlib.blake2b(pyramid.window_levels.tobytes(), digest_size=8).hexdigest())
"""


def test_the_pyramid_does_not_depend_on_the_blas_thread_count():
    # 13 nodes by 20001 columns: wide enough for OpenBLAS to split one whole-window product
    # between two threads, which changes its bits at this width (not at 16384)
    src = str(Path(reconstruction_module.__file__).parents[1])
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = {}
    for threads in ("1", None, "2"):
        env = base if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", PYRAMID_DIGEST], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        digests[threads] = proc.stdout.strip()
    assert digests[None] == digests["1"] == digests["2"], digests

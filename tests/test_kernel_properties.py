"""Property tests: the array-level recursion against a per-row reference.

The reference below is the row-by-row form of the recursion step: each level
is one running integral of one combined integrand, the time derivative plus
every force term, built node by node with one public ``potential_derivative``
call per (order, node), for every odd order, zero or not, and integrated with
one ``scipy.integrate.cumulative_trapezoid`` call per row.  It runs on the
support window, found column by column, and pads with zeros.  The library
integrates one whole ``(m+1, window width)`` array per level and skips
derivatives above the potential's degree; the two must agree bitwise.
The y resample of ``compare``, which keeps the reference's x grid, is checked
against scipy's ``RegularGridInterpolator`` to one ulp, and every lattice
``offdiagonal_lattice`` builds against the y-lattice rule of ``DensityMatrixGrid``.
"""

import json
import pickle
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import RegularGridInterpolator

from hydrec.assembly import _resample_onto
from hydrec.numerics import (
    DecayAssumptionWarning,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    differentiation_matrix,
)
from hydrec.potentials import (
    PotentialModel,
    free_potential,
    harmonic_potential,
    model_from_dict,
    model_to_dict,
    paul_trap_potential,
    polynomial_potential,
    potential_derivative,
    quartic_potential,
    x_coefficients,
)
from hydrec.reconstruction import build_pyramid
from hydrec.simulator import DensityMatrixGrid, offdiagonal_lattice

coefficient = st.floats(-2.0, 2.0, allow_nan=False)
positive = st.floats(0.5, 2.0)


def reference_window(base):
    """The columns where some row of ``base`` exceeds 1e-14 of its peak, plus one each side."""
    n_x = base.shape[1]
    peak = np.max(np.abs(base))
    live = [i for i in range(n_x) if np.max(np.abs(base[:, i])) > 1e-14 * peak]
    if not live:
        return slice(0, n_x)
    return slice(max(live[0] - 1, 0), min(live[-1] + 2, n_x))


def reference_levels(base, grid, nodes, model, constants, order_max, window):
    """Levels 0..order_max from ``base`` on ``window``, one node and one row at a time.

    Levels 1..order_max are zero outside ``window``.
    """
    mass, hbar = constants.mass, constants.hbar
    diff = differentiation_matrix(nodes) if order_max else None
    x = grid.points[window]
    levels = [np.ascontiguousarray(base[:, window])]
    for n in range(order_max):
        integrand = diff @ levels[n]
        for k in range((n + 1) // 2):
            coef = (-1.0) ** k * (hbar / 2.0) ** (2 * k) * comb(n, 2 * k + 1)
            lower = levels[n - 2 * k - 1]
            for j, t in enumerate(nodes.points):
                dv = potential_derivative(model, 2 * k + 1, x, float(t))
                integrand[j] += coef * dv * lower[j]
        levels.append(
            np.stack([-mass * cumulative_trapezoid(row, dx=grid.dx, initial=0.0) for row in integrand])
        )
    padded = [base]
    for level in levels[1:]:
        full = np.zeros_like(base)
        full[:, window] = level
        padded.append(full)
    return padded


def drifting_packets(grid, nodes, packets):
    """Records of Gaussian packets ``(amp, width, center, speed)``, one row per node."""
    x, t = grid.points, nodes.points[:, None]
    return sum(a * np.exp(-(((x - c - v * t) / w) ** 2)) for a, w, c, v in packets)


@st.composite
def time_polynomials(draw):
    degree = draw(st.integers(0, 5))
    rows = [draw(st.lists(coefficient, min_size=1, max_size=3)) for _ in range(degree + 1)]
    return polynomial_potential(rows)


@st.composite
def paul_traps(draw, mass):
    a, b, big_omega = draw(positive), draw(coefficient), draw(st.floats(0.5, 8.0))
    return paul_trap_potential(a, b, big_omega, mass=mass)


@st.composite
def cases(draw):
    constants = PhysicalConstants(hbar=draw(positive), mass=draw(positive))
    model = draw(st.one_of(time_polynomials(), paul_traps(mass=constants.mass)))
    m_plus_1 = draw(st.integers(2, 13))
    nodes = TimeNodes(draw(st.floats(-0.5, 0.5)), draw(st.floats(1e-3, 5e-2)), m_plus_1)
    grid = SpatialGrid(-8.0, 8.0, draw(st.integers(32, 256)))
    # a few drifting Gaussian packets: a density that decays at both edges
    packet = st.tuples(positive, st.floats(0.4, 1.0), st.floats(-1.5, 1.5), st.floats(-1.0, 1.0))
    records = drifting_packets(grid, nodes, draw(st.lists(packet, min_size=1, max_size=3)))
    order_max = draw(st.integers(0, nodes.m))
    return records, grid, nodes, model, constants, order_max


#: a quartic potential at order 6: the (hbar/2)^2 term of the third derivative
#: of V enters levels 4..6
QUARTIC_GRID, QUARTIC_NODES = SpatialGrid(-8.0, 8.0, 128), TimeNodes(0.0, 0.02, 7)
QUARTIC_CASE = (
    drifting_packets(QUARTIC_GRID, QUARTIC_NODES, [(1.0, 0.7, 0.4, 0.5), (0.6, 0.9, -1.0, -0.3)]),
    QUARTIC_GRID,
    QUARTIC_NODES,
    quartic_potential(c2=0.5, c4=0.3),
    PhysicalConstants(hbar=1.3, mass=0.8),
    6,
)


def build_quietly(records, grid, nodes, model, constants, order_max):
    with warnings.catch_warnings():
        # the top levels carry a rounding residue at the window's edges
        warnings.simplefilter("ignore", DecayAssumptionWarning)
        return build_pyramid(list(records), grid, nodes, model, constants, order_max)


@settings(max_examples=60, deadline=None)
@given(cases())
@example(QUARTIC_CASE)
def test_pyramid_matches_per_row_recursion(case):
    records, grid, nodes, model, constants, order_max = case
    pyramid = build_quietly(*case)
    base = pyramid.levels[0]
    assert np.array_equal(base, records)
    window = reference_window(base)
    assert pyramid.window == window
    expected = reference_levels(base, grid, nodes, model, constants, order_max, window)
    assert len(pyramid.levels) == order_max + 1
    for n, (got, want) in enumerate(zip(pyramid.levels, expected)):
        assert np.array_equal(got, want), f"level {n}"


def test_noisy_records_run_on_the_whole_grid_bitwise():
    # additive noise keeps every column above the support threshold, so the
    # pyramid of the noise alone is the unwindowed recursion's
    records, grid, nodes, model, constants, order_max = QUARTIC_CASE
    noisy = records + 1e-6 * np.random.default_rng(0).normal(size=records.shape)
    pyramid = build_quietly(noisy, grid, nodes, model, constants, order_max)
    assert pyramid.window == slice(0, grid.n_points)
    expected = reference_levels(noisy, grid, nodes, model, constants, order_max, slice(None))
    for n, (got, want) in enumerate(zip(pyramid.levels, expected)):
        assert np.array_equal(got, want), f"level {n}"


def test_all_zero_records_give_zero_levels_and_no_warning():
    _, grid, nodes, model, constants, order_max = QUARTIC_CASE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pyramid = build_pyramid(
            np.zeros((nodes.m_plus_1, grid.n_points)), grid, nodes, model, constants, order_max
        )
    assert pyramid.window == slice(0, grid.n_points)
    assert not np.any(pyramid.levels)


models = st.one_of(
    st.just(free_potential()),
    st.builds(harmonic_potential, coefficient, positive),
    st.builds(quartic_potential, coefficient, coefficient),
    time_polynomials(),
    st.builds(paul_trap_potential, positive, coefficient, positive, positive),
)


@settings(max_examples=100, deadline=None)
@given(models, st.floats(-3.0, 3.0))
def test_model_identity_and_round_trip(model, t):
    record = model_to_dict(model)
    again = model_from_dict(json.loads(json.dumps(record)))
    assert again == model and hash(again) == hash(model)
    assert pickle.loads(pickle.dumps(model)) == model
    assert model_to_dict(again) == record
    assert {model: 1}[again] == 1
    assert np.array_equal(x_coefficients(again, t), x_coefficients(model, t))
    if model.kind == "polynomial":
        assert record["params"]["coeffs"] == [list(row) for row in model.params["coeffs"]]


@settings(max_examples=100, deadline=None)
@given(time_polynomials(), st.floats(-3.0, 3.0), st.integers(1, 6))
def test_coefficients_match_the_per_term_sums(model, t, order):
    # c_k(t) as a running Python sum, and the derivative as a falling factorial
    rows = model.params["coeffs"]
    c = np.array([sum(float(a) * t**j for j, a in enumerate(row)) for row in rows])
    assert np.array_equal(x_coefficients(model, t), c)
    x = np.linspace(-2.0, 2.0, 9)
    if order >= c.size:
        want = np.zeros_like(x)
    else:
        d = c[order:].copy()
        k = np.arange(d.size)
        for i in range(order):
            d *= k + order - i
        want = np.polynomial.polynomial.polyval(x, d)
    assert np.array_equal(potential_derivative(model, order, x, t), want)


def test_models_differing_in_params_are_unequal():
    a = paul_trap_potential(1.0, 0.5, 6.0)
    assert a != paul_trap_potential(1.0, 0.5, 6.5)
    assert a == PotentialModel("paul_trap", {"a": 1.0, "b": 0.5, "big_omega": 6.0, "mass": 1.0})
    with pytest.raises(TypeError):
        a.params["a"] = 2.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, exclude_min=True, allow_infinity=False), st.integers(1, 50_000))
def test_every_offdiagonal_lattice_is_accepted_with_an_exact_zero_centre(y_max, half):
    try:
        y = offdiagonal_lattice(y_max, 2 * half + 1)
    except ValueError as rejected:  # only a zero spacing or an overflowing lattice
        assert not 0 < (y_max / half) * half < np.inf, rejected
        return
    rho = DensityMatrixGrid(SpatialGrid(-1.0, 1.0, 8), y, np.zeros((8, y.size)))
    assert np.array_equal(rho.y, y)
    assert rho.y[half] == 0.0


grids = st.builds(SpatialGrid, st.floats(-8.0, -0.5), st.floats(0.5, 8.0), st.integers(8, 40))
#: any two of them overlap around y = 0
y_lattices = st.builds(
    lambda y_max, half: offdiagonal_lattice(y_max, 2 * half + 1), st.floats(0.1, 3.0), st.integers(1, 15)
)


@settings(max_examples=100, deadline=None)
@given(grids, y_lattices, y_lattices, st.integers(0, 2**32 - 1))
def test_resample_matches_regular_grid_interpolator(b_grid, b_y, a_y, seed):
    rng = np.random.default_rng(seed)
    shape = (b_grid.n_points, b_y.size)
    b = DensityMatrixGrid(b_grid, b_y, rng.normal(size=shape) + 1j * rng.normal(size=shape))

    xx, yy = np.meshgrid(b_grid.points, a_y, indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    reference = [
        RegularGridInterpolator(
            (b_grid.points, b_y), part, bounds_error=False, fill_value=0.0
        )(points).reshape(xx.shape)
        for part in (b.values.real, b.values.imag)
    ]
    ours = _resample_onto(b.values, b.y, a_y)
    for mine, ref in zip((ours.real, ours.imag), reference):
        assert np.all(np.abs(mine - ref) <= np.spacing(np.abs(ref)))

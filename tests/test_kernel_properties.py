"""Property tests: the array-level recursion against a per-row reference.

The reference below is the row-by-row form of the recursion step: one
``scipy.integrate.cumulative_trapezoid`` call per row and one public
``potential_derivative`` call per (order, node), for every odd order, zero or
not.  The library integrates whole ``(m+1, n_x)`` arrays at once and skips
derivatives above the potential's degree; the two must agree bitwise.
The bilinear resample of ``compare`` is checked the same way against scipy's
``RegularGridInterpolator``, and every lattice ``offdiagonal_lattice`` builds
against the y-lattice rule of ``DensityMatrixGrid``.
"""

import json
import pickle
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
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
    smooth_local_poly,
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


def reference_levels(base, grid, nodes, model, constants, order_max):
    """Levels 0..order_max from ``base``, one row and one node at a time."""
    mass, hbar = constants.mass, constants.hbar
    diff = differentiation_matrix(nodes) if order_max else None
    levels = [base]
    for n in range(order_max):
        cumulative = np.stack(
            [cumulative_trapezoid(row, dx=grid.dx, initial=0.0) for row in levels[n]]
        )
        out = -mass * (diff @ cumulative)
        for k in range((n - 1) // 2 + 1) if n >= 1 else []:
            coef = mass * (-1.0) ** k * (hbar / 2.0) ** (2 * k) * comb(n, 2 * k + 1)
            lower = levels[n - 2 * k - 1]
            for j, t in enumerate(nodes.points):
                dv = potential_derivative(model, 2 * k + 1, grid.points, float(t))
                out[j] -= coef * cumulative_trapezoid(dv * lower[j], dx=grid.dx, initial=0.0)
        levels.append(out)
    return levels


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
    x, t = grid.points, nodes.points[:, None]
    records = np.zeros((m_plus_1, grid.n_points))
    for _ in range(draw(st.integers(1, 3))):
        amp, width = draw(positive), draw(st.floats(0.4, 1.0))
        center, speed = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.0, 1.0))
        records += amp * np.exp(-(((x - center - speed * t) / width) ** 2))
    order_max = draw(st.integers(0, nodes.m))
    smoothing = draw(st.sampled_from([None, (3, 1), (5, 2), (7, 3), (9, 3), (11, 4), (15, 2)]))
    return records, grid, nodes, model, constants, order_max, smoothing


@settings(max_examples=60, deadline=None)
@given(cases())
def test_pyramid_matches_per_row_recursion(case):
    records, grid, nodes, model, constants, order_max, smoothing = case
    with warnings.catch_warnings():
        # the top levels carry a rounding residue at the grid edges
        warnings.simplefilter("ignore", DecayAssumptionWarning)
        pyramid = build_pyramid(
            list(records), grid, nodes, model, constants, order_max, smoothing=smoothing
        )
    base = pyramid.levels[0]
    if smoothing is None:
        assert np.array_equal(base, records)
    else:
        # one filter call over the whole record matrix; its end-window
        # least-squares fits may round differently from row-by-row calls
        rows = np.stack([smooth_local_poly(r, *smoothing) for r in records])
        assert np.allclose(base, rows, rtol=0.0, atol=1e-13 * np.max(np.abs(rows)))
    expected = reference_levels(base, grid, nodes, model, constants, order_max)
    assert len(pyramid.levels) == order_max + 1
    for n, (got, want) in enumerate(zip(pyramid.levels, expected)):
        assert np.array_equal(got, want), f"level {n}"


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


@st.composite
def lattices(draw):
    """A random uniform (x, y) lattice; any two of them overlap around the origin."""
    grid = SpatialGrid(draw(st.floats(-8.0, -0.5)), draw(st.floats(0.5, 8.0)), draw(st.integers(8, 40)))
    y = offdiagonal_lattice(draw(st.floats(0.1, 3.0)), 2 * draw(st.integers(1, 15)) + 1)
    return grid, y


@settings(max_examples=100, deadline=None)
@given(lattices(), lattices(), st.booleans(), st.integers(0, 2**32 - 1))
def test_resample_matches_regular_grid_interpolator(source, target, shared_x, seed):
    rng = np.random.default_rng(seed)
    b_grid, b_y = source
    a_grid, a_y = (b_grid, target[1]) if shared_x else target
    shape = (b_grid.n_points, b_y.size)
    b = DensityMatrixGrid(b_grid, b_y, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    a = DensityMatrixGrid(a_grid, a_y, np.zeros((a_grid.n_points, a_y.size)))

    xx, yy = np.meshgrid(a_grid.points, a_y, indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    reference = [
        RegularGridInterpolator(
            (b_grid.points, b_y), part, bounds_error=False, fill_value=0.0
        )(points).reshape(xx.shape)
        for part in (b.values.real, b.values.imag)
    ]
    ours = _resample_onto(b, a)
    for mine, ref in zip((ours.real, ours.imag), reference):
        assert np.all(np.abs(mine - ref) <= np.spacing(np.abs(ref)))

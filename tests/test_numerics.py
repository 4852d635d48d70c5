import warnings

import numpy as np
import pytest

from conftest import derivative_stencil
from hydrec.numerics import (
    GridField,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    cumulative_integral,
    differentiation_matrix,
)

# Integral of exp(-x^2) * 2 * (cos(4*sqrt(2)*x) + 1) over [-8, 8], computed
# with adaptive quadrature (scipy.integrate.quad, abserr ~ 3e-9) before the
# build; agrees with the closed form 2*sigma*sqrt(2*pi)*(1+exp(-2*k0^2*sigma^2))
# at sigma = 1/sqrt(2), k0 = 2*sqrt(2).
CAT_DENSITY_INTEGRAL = 3.546096885864354


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(1.0, -1.0, 64)
    with pytest.raises(ValueError):
        SpatialGrid(0.0, 1.0, 4)
    g = SpatialGrid(-2.0, 2.0, 9)
    assert g.dx == pytest.approx(0.5)
    assert np.allclose(np.diff(g.points), g.dx)


def test_time_nodes():
    with pytest.raises(ValueError):
        TimeNodes(0.0, -0.1, 3)
    nodes = TimeNodes(0.5, 0.1, 5)
    assert nodes.m == 4
    assert nodes.central_index == 2
    assert nodes.central_time == pytest.approx(0.7)
    assert np.allclose(nodes.points, [0.5, 0.6, 0.7, 0.8, 0.9])


def test_grid_field_checks():
    g = SpatialGrid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        GridField(g, np.ones(15))
    with pytest.raises(ValueError):
        GridField(g, np.full(16, np.nan))
    f = GridField(g, np.ones(16))
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # read-only


def test_grid_field_takes_a_leading_axis():
    # one field per row, as assemble takes the moments f_0 .. f_N
    g = SpatialGrid(0.0, 1.0, 16)
    rows = np.arange(48.0).reshape(3, 16)
    f = GridField(g, rows)
    assert f.values.shape == (3, 16) and np.array_equal(f.values, rows)
    with pytest.raises(ValueError, match="read-only"):
        f.values[1, 0] = 2.0
    for values in (np.ones((3, 17)), np.array(1.0)):
        with pytest.raises(ValueError, match="does not lie on"):
            GridField(g, values)
    bad = rows.copy()
    bad[2, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        GridField(g, bad)


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(mass=0.0)
    c = PhysicalConstants()
    assert c.hbar == 1.0 and c.mass == 1.0


def test_cumulative_integral_zero():
    g = SpatialGrid(-3.0, 4.0, 50)
    out = cumulative_integral(np.zeros(50), g.dx)
    assert np.array_equal(out, np.zeros(50))


def test_cumulative_integral_constant_exact():
    g = SpatialGrid(0.0, 1.0, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel does not check decay: build_pyramid does
        out = cumulative_integral(np.ones(101), g.dx)
    assert np.max(np.abs(out - g.points)) < 5e-15
    assert out[0] == 0.0


def test_cumulative_integral_cat_density_norm():
    g = SpatialGrid(-8.0, 8.0, 1024)
    x = g.points
    k0 = 2.0 * np.sqrt(2.0)
    f = np.exp(-x**2 / (2.0 * 0.5)) * 2.0 * (np.cos(2.0 * k0 * x) + 1.0)
    out = cumulative_integral(f, g.dx)
    assert abs(out[-1] - CAT_DENSITY_INTEGRAL) < 1e-8


def test_cumulative_integral_linearity():
    rng = np.random.default_rng(42)
    g = SpatialGrid(-1.0, 1.0, 200)
    taper = np.exp(-25.0 * g.points**2)  # keep edges decayed
    f = rng.normal(size=200) * taper
    h = rng.normal(size=200) * taper
    a, b = 2.5, -1.25
    combined = cumulative_integral(a * f + b * h, g.dx)
    separate = a * cumulative_integral(f, g.dx) + b * cumulative_integral(h, g.dx)
    scale = np.max(np.abs(separate))
    assert np.max(np.abs(combined - separate)) < 1e-14 * scale


def test_cumulative_integral_edge_warning():
    # none, hot edges included: build_pyramid checks the decay of what it integrates
    g = SpatialGrid(-1.0, 1.0, 64)
    hot = np.exp(-g.points**2)  # ~0.37 at the edges
    cold = np.exp(-60.0 * g.points**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field in (hot, cold, np.stack([cold, hot])):
            cumulative_integral(field, g.dx)


def test_cumulative_integral_integrates_3d_input_row_by_row():
    g = SpatialGrid(-1.0, 1.0, 64)
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(2, 3, 64)) * np.exp(-60.0 * g.points**2)
    stack[1, 2] = np.exp(-g.points**2)  # one row that has not decayed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = cumulative_integral(stack, g.dx)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(out[i, j], cumulative_integral(stack[i, j], g.dx))


def test_differentiation_matrix_two_point():
    h = 0.25
    d = differentiation_matrix(TimeNodes(0.0, h, 2))
    assert np.allclose(d, [[-1.0 / h, 1.0 / h], [-1.0 / h, 1.0 / h]], rtol=1e-13)


def test_differentiation_matrix_central_row():
    h = 0.1
    d = differentiation_matrix(TimeNodes(0.0, h, 3))
    assert np.allclose(d[1], [-1.0 / (2 * h), 0.0, 1.0 / (2 * h)], atol=1e-12 / h)


def test_differentiation_matrix_quartic_monomial():
    h = 0.3
    nodes = TimeNodes(0.0, h, 5)
    t = nodes.points
    d = differentiation_matrix(nodes)
    result = d @ t**4
    exact = 4.0 * t**3
    assert np.max(np.abs(result - exact)) < 1e-12 * np.max(np.abs(exact))


def test_differentiation_matrix_annihilates_constants():
    for m in (1, 3, 8):
        nodes = TimeNodes(-0.4, 0.05, m + 1)
        d = differentiation_matrix(nodes)
        assert np.max(np.abs(d.sum(axis=1))) < 1e-12 / nodes.dt


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_differentiation_matrix_monomial_exactness(m):
    nodes = TimeNodes(0.0, 0.01, m + 1)
    t = nodes.points
    d = differentiation_matrix(nodes)
    for k in range(m + 1):
        result = d @ t**k
        exact = k * t ** (k - 1) if k > 0 else np.zeros_like(t)
        scale = max(np.max(np.abs(exact)), 1.0)
        assert np.max(np.abs(result - exact)) < 1e-10 * scale


def test_derivative_stencil_central_difference():
    h = 0.2
    w = derivative_stencil(np.array([-h, 0.0, h]), 1)
    assert np.allclose(w, [-1.0 / (2 * h), 0.0, 1.0 / (2 * h)], atol=1e-12)
    w2 = derivative_stencil(np.array([-h, 0.0, h]), 2)
    assert np.allclose(w2, [1.0 / h**2, -2.0 / h**2, 1.0 / h**2], rtol=1e-10)

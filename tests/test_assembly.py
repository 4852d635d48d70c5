import math

import numpy as np
import pytest

from hydrec.assembly import assemble, compare, hbar_rescaling_check, real_imag_split
from hydrec.numerics import GridField, SpatialGrid, derivative_stencil
from hydrec.reconstruction import MomentField
from hydrec.simulator import (
    CatStateParams,
    DensityMatrixGrid,
    cat_state_density_matrix,
    cat_state_moment,
    gaussian_packet_moment,
    offdiagonal_lattice,
)

CAT = CatStateParams()
HBAR = 1.0


def cat_moment_fields(grid, n_max, hbar=HBAR):
    x = grid.points
    return [
        MomentField(order=n, time_node=0, time=0.0,
                    field=GridField(grid, cat_state_moment(CAT, n, x, hbar=hbar)))
        for n in range(n_max + 1)
    ]


def boosted_moment_fields(grid, n_max, sigma=0.8, momentum=1.2, hbar=HBAR):
    x = grid.points
    return [
        MomentField(order=n, time_node=0, time=0.0,
                    field=GridField(grid, gaussian_packet_moment(
                        n, x, sigma, momentum=momentum, hbar=hbar)))
        for n in range(n_max + 1)
    ]


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(-6.0, 6.0, 241)


@pytest.fixture(scope="module")
def y_lattice():
    return offdiagonal_lattice(1.5, 201)


def test_order_zero_is_constant_in_y(grid, y_lattice):
    fields = cat_moment_fields(grid, 0)
    rec = assemble(fields, y_lattice, HBAR)
    for j in range(y_lattice.size):
        assert np.array_equal(rec.values.values[:, j].real, fields[0].field.values)
    assert np.all(rec.values.values.imag == 0.0)


def test_diagonal_exactness(grid, y_lattice):
    fields = cat_moment_fields(grid, 12)
    rec = assemble(fields, y_lattice, HBAR)
    j0 = y_lattice.size // 2
    assert y_lattice[j0] == 0.0
    assert np.array_equal(rec.values.values[:, j0].real, fields[0].field.values)
    assert np.all(rec.values.values[:, j0].imag == 0.0)


def test_hermiticity_by_construction(grid, y_lattice):
    rng = np.random.default_rng(11)
    fields = [
        MomentField(order=n, time_node=0, time=0.0,
                    field=GridField(grid, rng.normal(size=grid.n_points)))
        for n in range(8)
    ]
    rec = assemble(fields, y_lattice, HBAR)
    scale = np.max(np.abs(rec.values.values))
    assert rec.values.hermiticity_defect() < 1e-14 * scale


def test_split_recombines_to_assembled_values(grid, y_lattice):
    rng = np.random.default_rng(5)
    fields = [
        MomentField(order=n, time_node=0, time=0.0,
                    field=GridField(grid, rng.normal(size=grid.n_points)))
        for n in range(9)
    ]
    rec = assemble(fields, y_lattice, HBAR)
    re, im = real_imag_split(rec)
    scale = np.max(np.abs(rec.values.values))
    assert np.max(np.abs(re + 1j * im - rec.values.values)) < 1e-14 * scale


def test_odd_moments_zero_gives_real_polynomial(grid, y_lattice):
    fields = cat_moment_fields(grid, 14)  # odd cat moments vanish identically
    rec = assemble(fields, y_lattice, HBAR)
    re, im = real_imag_split(rec)
    assert np.all(im == 0.0)
    assert np.all(rec.values.values.imag == 0.0)


def test_even_moments_zero_gives_imaginary_polynomial(grid, y_lattice):
    rng = np.random.default_rng(9)
    fields = []
    for n in range(7):
        values = np.zeros(grid.n_points) if n % 2 == 0 else rng.normal(size=grid.n_points)
        fields.append(MomentField(order=n, time_node=0, time=0.0,
                                  field=GridField(grid, values)))
    rec = assemble(fields, y_lattice, HBAR)
    re, im = real_imag_split(rec)
    assert np.all(re == 0.0)
    assert np.max(np.abs(rec.values.values.real)) == 0.0


def test_running_term_matches_direct_factorial_sum(grid):
    y = offdiagonal_lattice(1.0, 41)
    fields = cat_moment_fields(grid, 20)
    rec = assemble(fields, y, HBAR)
    direct = np.zeros((grid.n_points, y.size), dtype=complex)
    for n, f in enumerate(fields):
        direct += np.outer(f.field.values, (2j * y / HBAR) ** n) / math.factorial(n)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(rec.values.values - direct)) < 1e-13 * scale


@pytest.mark.parametrize("scale", [1.0, 2.0, 0.5])
def test_hbar_rescaling_identity(grid, y_lattice, scale):
    fields = cat_moment_fields(grid, 10)
    assert hbar_rescaling_check(fields, y_lattice, HBAR, scale)


def test_hbar_rescaling_identity_high_order(grid, y_lattice):
    fields = cat_moment_fields(grid, 36)
    assert hbar_rescaling_check(fields, y_lattice, HBAR, 0.5)


def test_moment_roundtrip_through_offdiagonal_derivatives(grid):
    # order-n y-derivative of rho_N at y=0, times (hbar/2i)^n, recovers f_n
    y = offdiagonal_lattice(1.5, 301)
    dy = y[1] - y[0]
    fields = boosted_moment_fields(grid, 12)
    rec = assemble(fields, y, HBAR)
    j0 = y.size // 2
    central = np.abs(grid.points) <= 3.0
    for n in range(1, 5):
        half = (n + 7) // 2
        wts = derivative_stencil(dy * np.arange(-half, half + 1), n)
        deriv = rec.values.values[:, j0 - half : j0 + half + 1] @ wts
        recovered = np.real((HBAR / 2j) ** n * deriv)
        target = fields[n].field.values
        rel = np.linalg.norm((recovered - target)[central]) / np.linalg.norm(target[central])
        assert rel < 1e-6, f"order {n}: {rel}"


def test_term_overflow_is_flagged(grid):
    fields = boosted_moment_fields(grid, 2)
    huge_y = offdiagonal_lattice(1e160, 11)
    with pytest.warns(UserWarning, match="floating-point range"):
        assemble(fields, huge_y, HBAR)


def test_trust_radius_grows_with_order(grid, y_lattice):
    rec10 = assemble(cat_moment_fields(grid, 10), y_lattice, HBAR)
    rec36 = assemble(cat_moment_fields(grid, 36), y_lattice, HBAR)
    assert 0.0 < rec10.trust_radius() < rec36.trust_radius() <= 1.5


@pytest.mark.parametrize("order", [9, 10, 11, 12, 20, 21, 35, 36])
def test_trust_radius_bounds_the_error(order, y_lattice):
    # real states have identically zero odd moments, so at odd N the last
    # term alone says nothing; the radius must hold at odd and even N alike
    grid = SpatialGrid(-6.0, 6.0, 481)
    rec = assemble(cat_moment_fields(grid, order), y_lattice, HBAR)
    exact = cat_state_density_matrix(CAT, grid, y_lattice).values
    radius = rec.trust_radius()
    inside = np.abs(y_lattice) <= radius
    assert 0.0 < radius < 1.5
    err = np.max(np.abs(rec.values.values - exact)[:, inside])
    assert err <= 1e-4 * np.max(np.abs(exact))


def test_compare_identical_is_zero(grid, y_lattice):
    rec = assemble(cat_moment_fields(grid, 10), y_lattice, HBAR)
    report = compare(rec.values, rec.values)
    assert report.sup_error == 0.0
    assert report.l2_error == 0.0
    assert report.diagonal_mismatch == 0.0
    assert report.trace_a == pytest.approx(report.trace_b)


def test_compare_constant_offset(grid, y_lattice):
    rec = assemble(cat_moment_fields(grid, 10), y_lattice, HBAR)
    eps = 3e-4
    shifted = DensityMatrixGrid(grid, y_lattice, rec.values.values + eps)
    report = compare(shifted, rec.values, region=(3.0, 1.0))
    assert report.sup_error == pytest.approx(eps, rel=1e-9)


def test_compare_against_closed_form_reference(grid, y_lattice):
    rec = assemble(cat_moment_fields(grid, 36), y_lattice, HBAR)
    exact = cat_state_density_matrix(CAT, grid, y_lattice)
    report = compare(rec.values, exact, region=(3.0, 1.0), f0=rec.moments[0].field)
    assert report.sup_error < 1e-6  # truncation is tiny inside |y| <= 1
    assert report.diagonal_mismatch == 0.0
    assert report.hermiticity_defect < 1e-12


def test_compare_resamples_other_lattices(grid):
    y_a = offdiagonal_lattice(1.0, 101)
    rec_a = assemble(cat_moment_fields(grid, 16), y_a, HBAR)
    fine_grid = SpatialGrid(-6.05, 6.05, 1921)  # not nested in grid
    y_b = offdiagonal_lattice(1.2, 481)
    exact_b = cat_state_density_matrix(CAT, fine_grid, y_b)
    report = compare(rec_a.values, exact_b, region=(2.0, 0.5))
    assert report.resampled
    # truncation at N=16 is negligible here; the residual is bilinear
    # interpolation error of the oscillatory reference
    assert report.sup_error < 5e-3


def test_compare_rejects_disjoint_lattices(grid):
    y = offdiagonal_lattice(1.0, 51)
    rec = assemble(cat_moment_fields(grid, 4), y, HBAR)
    far_grid = SpatialGrid(100.0, 112.0, 241)
    other = cat_state_density_matrix(CAT, far_grid, y)
    with pytest.raises(ValueError, match="disjoint"):
        compare(rec.values, other)


def test_assemble_validates_moment_sequence(grid, y_lattice):
    fields = cat_moment_fields(grid, 4)
    with pytest.raises(ValueError, match="contiguous"):
        assemble([fields[0], fields[2]], y_lattice, HBAR)
    with pytest.raises(ValueError, match="at least"):
        assemble([], y_lattice, HBAR)

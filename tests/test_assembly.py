import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    assert_bytes_equal,
    derivative_stencil,
    hbar_rescaling_check,
    real_imag_split,
    traced_peak,
)
from hydrec import assembly
from hydrec.assembly import _axis_weights, _resample_onto, _taylor_terms, assemble, compare
from hydrec.cli import main, read_dataset
from hydrec.numerics import LATTICE_BLOCK_BYTES, DecayAssumptionWarning, GridField, SpatialGrid
from hydrec.reconstruction import build_pyramid
from hydrec.simulator import (
    CatStateParams,
    DensityMatrixGrid,
    WaveFunction,
    cat_state_density_matrix,
    cat_state_moment,
    exact_density_matrix,
    gaussian_packet_moment,
    offdiagonal_lattice,
)

CAT = CatStateParams()
HBAR = 1.0


def cat_moments(grid, n_max, hbar=HBAR):
    """f_0 .. f_n_max of the default cat state, row n holding f_n."""
    x = grid.points
    return GridField(grid, [cat_state_moment(CAT, n, x, hbar=hbar) for n in range(n_max + 1)])


def boosted_moments(grid, n_max, sigma=0.8, momentum=1.2, hbar=HBAR):
    x = grid.points
    return GridField(grid, [
        gaussian_packet_moment(n, x, sigma, momentum=momentum, hbar=hbar)
        for n in range(n_max + 1)
    ])


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(-6.0, 6.0, 241)


@pytest.fixture(scope="module")
def y_lattice():
    return offdiagonal_lattice(1.5, 201)


def test_order_zero_is_constant_in_y(grid, y_lattice):
    moments = cat_moments(grid, 0)
    rec = assemble(moments, y_lattice, HBAR)
    for j in range(y_lattice.size):
        assert np.array_equal(rec.values.values[:, j].real, moments.values[0])
    assert np.all(rec.values.values.imag == 0.0)


def test_diagonal_exactness(grid, y_lattice):
    moments = cat_moments(grid, 12)
    rec = assemble(moments, y_lattice, HBAR)
    j0 = y_lattice.size // 2
    assert y_lattice[j0] == 0.0
    assert np.array_equal(rec.values.values[:, j0].real, moments.values[0])
    assert np.all(rec.values.values[:, j0].imag == 0.0)


def test_hermiticity_by_construction(grid, y_lattice):
    rng = np.random.default_rng(11)
    rec = assemble(GridField(grid, rng.normal(size=(8, grid.n_points))), y_lattice, HBAR)
    scale = np.max(np.abs(rec.values.values))
    assert rec.values.hermiticity_defect() < 1e-14 * scale


def test_split_recombines_to_assembled_values(grid, y_lattice):
    rng = np.random.default_rng(5)
    rec = assemble(GridField(grid, rng.normal(size=(9, grid.n_points))), y_lattice, HBAR)
    re, im = real_imag_split(rec)
    scale = np.max(np.abs(rec.values.values))
    assert np.max(np.abs(re + 1j * im - rec.values.values)) < 1e-14 * scale


def test_odd_moments_zero_gives_real_polynomial(grid, y_lattice):
    moments = cat_moments(grid, 14)  # odd cat moments vanish identically
    rec = assemble(moments, y_lattice, HBAR)
    re, im = real_imag_split(rec)
    assert np.all(im == 0.0)
    assert np.all(rec.values.values.imag == 0.0)


def test_even_moments_zero_gives_imaginary_polynomial(grid, y_lattice):
    rng = np.random.default_rng(9)
    values = np.zeros((7, grid.n_points))
    values[1::2] = rng.normal(size=(3, grid.n_points))
    rec = assemble(GridField(grid, values), y_lattice, HBAR)
    re, im = real_imag_split(rec)
    assert np.all(re == 0.0)
    assert np.max(np.abs(rec.values.values.real)) == 0.0


def test_running_term_matches_direct_factorial_sum(grid):
    y = offdiagonal_lattice(1.0, 41)
    moments = cat_moments(grid, 20)
    rec = assemble(moments, y, HBAR)
    direct = np.zeros((grid.n_points, y.size), dtype=complex)
    for n, f_n in enumerate(moments.values):
        direct += np.outer(f_n, (2j * y / HBAR) ** n) / math.factorial(n)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(rec.values.values - direct)) < 1e-13 * scale


@pytest.mark.parametrize("scale", [1.0, 2.0, 0.5])
def test_hbar_rescaling_identity(grid, y_lattice, scale):
    assert hbar_rescaling_check(cat_moments(grid, 10), y_lattice, HBAR, scale)


def test_hbar_rescaling_identity_high_order(grid, y_lattice):
    assert hbar_rescaling_check(cat_moments(grid, 36), y_lattice, HBAR, 0.5)


def test_moment_roundtrip_through_offdiagonal_derivatives(grid):
    # order-n y-derivative of rho_N at y=0, times (hbar/2i)^n, recovers f_n
    y = offdiagonal_lattice(1.5, 301)
    dy = y[1] - y[0]
    moments = boosted_moments(grid, 12)
    rec = assemble(moments, y, HBAR)
    j0 = y.size // 2
    central = np.abs(grid.points) <= 3.0
    for n in range(1, 5):
        half = (n + 7) // 2
        wts = derivative_stencil(dy * np.arange(-half, half + 1), n)
        deriv = rec.values.values[:, j0 - half : j0 + half + 1] @ wts
        recovered = np.real((HBAR / 2j) ** n * deriv)
        target = moments.values[n]
        rel = np.linalg.norm((recovered - target)[central]) / np.linalg.norm(target[central])
        assert rel < 1e-6, f"order {n}: {rel}"


def test_term_overflow_is_flagged(grid):
    huge_y = offdiagonal_lattice(1e160, 11)
    with pytest.warns(UserWarning, match="floating-point range"):
        assemble(boosted_moments(grid, 2), huge_y, HBAR)


def test_trust_radius_grows_with_order(grid, y_lattice):
    rec10 = assemble(cat_moments(grid, 10), y_lattice, HBAR)
    rec36 = assemble(cat_moments(grid, 36), y_lattice, HBAR)
    assert 0.0 < rec10.trust_radius < rec36.trust_radius <= 1.5


@pytest.mark.parametrize("order", [9, 10, 11, 12, 20, 21, 35, 36])
def test_trust_radius_bounds_the_error(order, y_lattice):
    # real states have identically zero odd moments, so at odd N the last
    # term alone says nothing; the radius must hold at odd and even N alike
    grid = SpatialGrid(-6.0, 6.0, 481)
    rec = assemble(cat_moments(grid, order), y_lattice, HBAR)
    exact = cat_state_density_matrix(CAT, grid, y_lattice).values
    radius = rec.trust_radius
    inside = np.abs(y_lattice) <= radius
    assert 0.0 < radius < 1.5
    err = np.max(np.abs(rec.values.values - exact)[:, inside])
    assert err <= 1e-4 * np.max(np.abs(exact))


@pytest.fixture(scope="module")
def quartic_pipeline(tmp_path_factory):
    """The README pipeline in a quartic trap: 13 records, stored psi, order-12 pyramid."""
    out = tmp_path_factory.mktemp("quartic")
    assert main([
        "simulate", "--state", "cat", "--grid=-10,10,1024", "--times", "0.09,0.005,12",
        "--potential", "quartic:c2=0.5,c4=0.1", "--store-psi", "--out", str(out),
    ]) == 0
    data = read_dataset(out / "dataset.json")
    grid, nodes = data["grid"], data["nodes"]
    with pytest.warns(DecayAssumptionWarning):
        pyramid = build_pyramid(
            data["records"], grid, nodes, data["model"], data["constants"], order_max=12
        )
    y = grid.dx * np.arange(-76, 77)  # whole grid steps: the stored psi is shifted exactly
    psi = WaveFunction(grid, data["psis"][nodes.central_index])
    return pyramid.central_slice(), y, exact_density_matrix(psi, y=y).values


@pytest.mark.parametrize("order", range(0, 13, 2))
def test_trust_radius_bounds_the_quartic_pipeline_error(order, quartic_pipeline):
    moments, y, exact = quartic_pipeline
    rec = assemble(GridField(moments.grid, moments.values[: order + 1]), y, HBAR)
    inside = np.abs(y) <= rec.trust_radius
    central = np.abs(rec.values.x_grid.points) <= 3.0
    err = np.max(np.abs(rec.values.values - exact)[np.ix_(central, inside)])
    assert err <= 1e-2 * np.max(moments.values[0])


def test_compare_identical_is_zero(grid, y_lattice):
    rec = assemble(cat_moments(grid, 10), y_lattice, HBAR)
    report = compare(rec.values, rec.values)
    assert report.sup_error == 0.0
    assert report.l2_error == 0.0
    assert report.diagonal_mismatch == 0.0
    assert report.trace_a == pytest.approx(report.trace_b)


def test_compare_constant_offset(grid, y_lattice):
    rec = assemble(cat_moments(grid, 10), y_lattice, HBAR)
    eps = 3e-4
    shifted = DensityMatrixGrid(grid, y_lattice, rec.values.values + eps)
    report = compare(shifted, rec.values, region=(3.0, 1.0))
    assert report.sup_error == pytest.approx(eps, rel=1e-9)


def test_compare_against_closed_form_reference(grid, y_lattice):
    rec = assemble(cat_moments(grid, 36), y_lattice, HBAR)
    exact = cat_state_density_matrix(CAT, grid, y_lattice)
    report = compare(rec.values, exact, region=(3.0, 1.0), f0=rec.moments[0].field)
    assert report.sup_error < 1e-6  # truncation is tiny inside |y| <= 1
    assert report.diagonal_mismatch == 0.0
    assert report.hermiticity_defect < 1e-12


def test_compare_resamples_other_lattices(grid):
    y_a = offdiagonal_lattice(1.0, 101)
    rec_a = assemble(cat_moments(grid, 16), y_a, HBAR)
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
    rec = assemble(cat_moments(grid, 4), y, HBAR)
    far_grid = SpatialGrid(100.0, 112.0, 241)
    other = cat_state_density_matrix(CAT, far_grid, y)
    with pytest.raises(ValueError, match="disjoint"):
        compare(rec.values, other)


def test_compare_rejects_an_f0_on_another_grid(grid, y_lattice):
    rec = assemble(cat_moments(grid, 2), y_lattice, HBAR)
    other = SpatialGrid(-12.0, 12.0, 241)
    with pytest.raises(ValueError) as raised:
        compare(rec.values, rec.values, f0=GridField(other, rec.moments[0].field.values))
    assert repr(other) in str(raised.value) and repr(grid) in str(raised.value)


def test_assemble_rejects_an_even_lattice(grid):
    with pytest.raises(ValueError, match="odd count"):
        assemble(cat_moments(grid, 2), 0.1 * (np.arange(8) - 3.5), HBAR)


def test_assemble_checks_the_lattice_before_the_sweep(grid, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the Taylor table was built for a lattice that is rejected")

    monkeypatch.setattr(assembly, "_taylor_terms", no_sweep)
    message = "^y lattice must be one-dimensional with an odd count >= 3$"
    with pytest.raises(ValueError, match=message):
        assemble(cat_moments(grid, 2), offdiagonal_lattice(1.0, 101)[:-1], HBAR)


@pytest.mark.parametrize("hbar", [np.nan, np.inf, 0.0, -1.0])
def test_assemble_rejects_an_hbar_that_is_not_positive_and_finite(grid, y_lattice, hbar):
    with pytest.raises(ValueError, match=f"^hbar must be positive and finite, got {hbar}$"):
        assemble(cat_moments(grid, 2), y_lattice, hbar)


def test_assemble_validates_moment_sequence(grid, y_lattice):
    moments = cat_moments(grid, 4)
    for values in (moments.values[0], moments.values[None], np.empty((0, grid.n_points))):
        # one field, a stack of matrices, and a matrix without f_0
        with pytest.raises(ValueError, match=r"one \(N\+1, n_points\) matrix holding f_0"):
            assemble(GridField(grid, values), y_lattice, HBAR)


def test_compare_rejects_a_stack_of_fields_as_f0(grid, y_lattice):
    # a 2-D f0 would broadcast against the diagonal instead of failing
    rec = assemble(cat_moments(grid, 2), y_lattice, HBAR)
    f0 = GridField(grid, np.stack([rec.moments[0].field.values] * 2))
    with pytest.raises(ValueError, match="f0 must be one field"):
        compare(rec.values, rec.values, f0=f0)


def sequential_assembly(f, y, hbar):
    """The order-by-order sum of np.outer terms, and max|term| per order."""
    ratio = 2j * y / hbar
    z = np.ones(y.size, dtype=complex)
    values = np.zeros((f.shape[1], y.size), dtype=complex)
    peaks = []
    for n, f_n in enumerate(f):
        if n > 0:
            z = z * ratio / n
        term = np.outer(f_n, z)
        values += term
        peaks.append(float(np.max(np.abs(term))))
    return values, np.array(peaks)


@pytest.mark.parametrize("order", [0, 1, 12, 36])
def test_assemble_and_term_peaks_equal_the_sequential_outer_sum_bitwise(order):
    grid = SpatialGrid(-3.0, 3.0, 97)
    y = offdiagonal_lattice(1.5, 41)
    moments = GridField(grid, np.random.default_rng(order).normal(size=(order + 1, 97)))
    rec = assemble(moments, y, 0.7)
    values, peaks = sequential_assembly(moments.values, y, 0.7)
    assert rec.values.values.tobytes() == values.tobytes()
    assert rec.term_peaks.tobytes() == peaks.tobytes()


def test_assemble_holds_its_lattice_once():
    grid = SpatialGrid(-20.0, 20.0, 16384)
    moments = GridField(grid, np.random.default_rng(12).normal(size=(13, 16384)))
    y = grid.dx * np.arange(-50, 51)
    rec, peak = traced_peak(lambda: assemble(moments, y, HBAR))
    assert rec.values.values.shape == (16384, 101)
    assert peak <= 1.15 * rec.values.values.nbytes


def einsum_assembly(f, y, hbar):
    """The whole-lattice contraction ``sum_n f_n(x) z_n(y)`` over the running-term table."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("nx,ny->xy", f, _taylor_terms(y, hbar, len(f) - 1))


def signed_zero_moments(rng, n_x, order):
    f = rng.normal(size=(order + 1, n_x))
    f[:, ::5] = 0.0
    f[:, 1::5] = -0.0  # a column of -0.0 moments, as the recursion's -mass * (...) can give
    f[rng.random(size=f.shape) < 0.1] *= -0.0
    return f


def huge_moments(rng, n_x, order):
    f = rng.normal(size=(order + 1, n_x))
    f[order // 2, ::7] = np.finfo(float).max  # a finite moment whose terms overflow to inf
    return f


ASSEMBLY_CASES = {
    # name: (moments, order, y_max, overflows)
    "signed zeros": (signed_zero_moments, 12, 1.5, False),
    "an inf term": (huge_moments, 12, 1.5, True),
    "an overflowing y lattice": (signed_zero_moments, 36, 1e10, True),
    "order 0": (signed_zero_moments, 0, 1.5, False),
}


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_assemble_equals_the_einsum_contraction_bitwise(case):
    make, order, y_max, overflows = ASSEMBLY_CASES[case]
    n_y = 41
    n_x = 2 * (LATTICE_BLOCK_BYTES // (16 * n_y)) + 37  # three row blocks, the last one short
    grid = SpatialGrid(-3.0, 3.0, n_x)
    y = offdiagonal_lattice(y_max, n_y)
    f = make(np.random.default_rng(order), n_x, order)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = assemble(GridField(grid, f), y, 0.7)
    assert bool(caught) == overflows
    assert_bytes_equal(rec.values.values, einsum_assembly(f, y, 0.7))


@st.composite
def moment_matrices(draw):
    """Real f_0 .. f_N, N = 0..14, some rows all zero, magnitudes up to 1e300."""
    order = draw(st.integers(0, 14))
    shape = (order + 1, draw(st.integers(8, 24)))
    f = draw(arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)))
    f[draw(st.lists(st.integers(0, order), max_size=order + 1))] = 0.0
    return f


@settings(max_examples=80, deadline=None)
@given(
    f=moment_matrices(),
    n_y=st.integers(1, 20).map(lambda k: 2 * k + 1),
    y_max=st.sampled_from([0.1, 1.5, 40.0, 1e20, 1e150]),  # the last two overflow at N >= 2
    hbar=st.sampled_from([1e-3, 0.7, 1.0]),
)
def test_assemble_writes_the_y_below_0_half_as_the_mirror_of_the_upper_half(f, n_y, y_max, hbar):
    y = offdiagonal_lattice(y_max, n_y)
    c = n_y // 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an overflowing order, reported and kept
        rec = assemble(GridField(SpatialGrid(-1.0, 1.0, f.shape[1]), f), y, hbar)
    values = rec.values.values
    upper = values[:, :c:-1]  # columns M-1 .. c+1
    mirrored = np.empty_like(upper)
    mirrored.real = upper.real
    mirrored.imag = 0.0 - upper.imag
    assert np.array_equal(values[:, :c].view(np.uint64), mirrored.view(np.uint64))
    assert np.array_equal(values[:, c].real, f[0]) and not values[:, c].imag.any()
    # and the mirror is the order-by-order sum at y < 0, bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        direct = sequential_assembly(f, y, hbar)[0]
    assert_bytes_equal(values, direct)


def one_shot_resample(b, a):
    """Bilinear resample of b onto a's lattice in one expression of whole-lattice terms."""
    ax = a.x_grid.points
    bx = b.x_grid.points
    i, tx = _axis_weights(bx, ax)
    j, ty = _axis_weights(b.y, a.y)
    v = b.values
    vals = (
        v[np.ix_(i, j)] * np.outer(1 - tx, 1 - ty)
        + v[np.ix_(i, j + 1)] * np.outer(1 - tx, ty)
        + v[np.ix_(i + 1, j)] * np.outer(tx, 1 - ty)
        + v[np.ix_(i + 1, j + 1)] * np.outer(tx, ty)
    )
    outside_x = (ax < bx[0]) | (ax > bx[-1])
    outside_y = (a.y < b.y[0]) | (a.y > b.y[-1])
    vals[np.logical_or.outer(outside_x, outside_y)] = 0.0
    return vals


def test_resample_equals_the_one_shot_expression_and_holds_one_block():
    rng = np.random.default_rng(3)
    b_grid = SpatialGrid(-5.0, 5.0, 1001)
    b_y = b_grid.dx * np.arange(-80, 81)
    b_values = rng.normal(size=(1001, 161)) + 1j * rng.normal(size=(1001, 161))
    b = DensityMatrixGrid(b_grid, b_y, b_values)
    # a's lattice reaches past b's in x and in y, so some points fall outside
    a_grid = SpatialGrid(-6.0, 6.0, 8192)
    a = DensityMatrixGrid(a_grid, offdiagonal_lattice(1.0, 101), np.zeros((8192, 101)))
    resampled, peak = traced_peak(lambda: _resample_onto(b, a))
    assert_bytes_equal(resampled, one_shot_resample(b, a))
    assert peak <= 1.5 * resampled.nbytes

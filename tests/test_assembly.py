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
    one_shot_resample,
    real_imag_split,
    traced_peak,
    whole_lattice_compare,
)
from hydrec import assembly
from hydrec.assembly import _region_slices, _resample_onto, _taylor_terms, assemble, compare
from hydrec.cli import main, read_dataset
from hydrec.numerics import (
    LATTICE_BLOCK_BYTES,
    DecayAssumptionWarning,
    GridField,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
)
from hydrec.potentials import harmonic_potential
from hydrec.reconstruction import build_pyramid
from hydrec.simulator import (
    CatStateParams,
    DensityMatrixGrid,
    GridCoverageWarning,
    WaveFunction,
    cat_state_density_matrix,
    cat_state_moment,
    exact_density_matrix,
    gaussian_packet,
    gaussian_packet_moment,
    make_cat_state,
    offdiagonal_lattice,
    sample_densities,
)

CAT = CatStateParams()
CONSTANTS = PhysicalConstants()
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
    with pytest.warns(UserWarning, match="floating-point range") as record:
        assemble(boosted_moments(grid, 2), huge_y, HBAR)
    assert {w.filename for w in record} == {__file__}  # the caller's line


def test_a_lattice_where_2y_over_hbar_overflows_warns_only_per_order(grid):
    # 2y/hbar itself leaves the floating-point range; no numpy RuntimeWarning escapes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = assemble(boosted_moments(grid, 2), offdiagonal_lattice(1e308, 3), HBAR)
    assert [str(w.message).split()[0] for w in caught] == ["order-1", "order-2"]
    assert all(w.category is UserWarning for w in caught)
    # 0 * inf in the complex product gives z_n a NaN part; the magnitude still reads inf
    assert all("reaches magnitude inf;" in str(w.message) for w in caught)
    assert np.isinf(rec.term_peaks[1:]).all()
    assert np.array_equal(rec.values.values[:, 1].real, rec.moments[0].field.values)


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
    report = compare(rec.values, rec.values, (np.inf, np.inf), rec.moments[0].field)
    assert report.sup_error == 0.0
    assert report.l2_error == 0.0
    assert report.diagonal_mismatch == 0.0
    assert report.trace_a == pytest.approx(report.trace_b)


def test_compare_constant_offset(grid, y_lattice):
    rec = assemble(cat_moments(grid, 10), y_lattice, HBAR)
    eps = 3e-4
    shifted = DensityMatrixGrid(grid, y_lattice, rec.values.values + eps)
    report = compare(shifted, rec.values, (3.0, 1.0), rec.moments[0].field)
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
    y_b = offdiagonal_lattice(1.2, 481)  # not nested in y_a
    exact_b = cat_state_density_matrix(CAT, grid, y_b)
    report = compare(rec_a.values, exact_b, (2.0, 0.5), rec_a.moments[0].field)
    assert report.resampled
    # truncation at N=16 is negligible here; the residual is linear
    # interpolation error in y of the oscillatory reference
    assert report.sup_error < 5e-3


def test_compare_rejects_a_reference_on_another_x_grid(grid):
    y = offdiagonal_lattice(1.0, 51)
    rec = assemble(cat_moments(grid, 4), y, HBAR)
    other_grid = SpatialGrid(-6.05, 6.05, 1921)
    other = cat_state_density_matrix(CAT, other_grid, y)
    with pytest.raises(ValueError) as raised:
        compare(rec.values, other, (3.0, 1.0), rec.moments[0].field)
    assert repr(other_grid) in str(raised.value) and repr(grid) in str(raised.value)


def test_compare_rejects_an_f0_on_another_grid(grid, y_lattice):
    rec = assemble(cat_moments(grid, 2), y_lattice, HBAR)
    other = SpatialGrid(-12.0, 12.0, 241)
    with pytest.raises(ValueError) as raised:
        compare(rec.values, rec.values, (3.0, 1.0), GridField(other, rec.moments[0].field.values))
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
        compare(rec.values, rec.values, (3.0, 1.0), f0)


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


def margin_moments(rng, n_x, order, left=150, right=420):
    """Signed-zero moments with f_1 .. f_N zero on ``left`` and ``right`` edge rows, as past
    a pyramid's support window; f_0 there is tiny, -0.0, 0.0 or negative."""
    f = signed_zero_moments(rng, n_x, order)
    for margin in (slice(0, left), slice(n_x - right, n_x)):
        f[1:, margin] = np.where(rng.random(size=f[1:, margin].shape) < 0.5, 0.0, -0.0)
        f[0, margin] = rng.choice([5e-324, 1e-300, -0.0, 0.0, -1.0], size=f[0, margin].shape)
    return f


def wide_margin_moments(rng, n_x, order):
    """Zero margins whose left one passes the first row block of the 41-column lattice."""
    return margin_moments(rng, n_x, order, left=LATTICE_BLOCK_BYTES // (16 * 41) + 50, right=100)


def pyramid_moments(rng, n_x, order):
    """The central slice of a real pyramid: its support window ends short of both grid
    edges, so f_1 .. f_N are 0 on both margins."""
    grid, nodes = SpatialGrid(-12.0, 12.0, n_x), TimeNodes(0.05, 0.01, order + 1)
    psi = gaussian_packet(grid, 0.8, center=0.5, momentum=1.0)
    records, _ = sample_densities(psi, harmonic_potential(1.0), CONSTANTS, nodes)
    pyramid = build_pyramid(records, grid, nodes, harmonic_potential(1.0), CONSTANTS, order)
    assert 0 < pyramid.window.start and pyramid.window.stop < n_x
    return pyramid.central_slice().values


ASSEMBLY_CASES = {
    # name: (moments, order, y_max, overflows)
    "signed zeros": (signed_zero_moments, 12, 1.5, False),
    "an inf term": (huge_moments, 12, 1.5, True),
    "an overflowing y lattice": (signed_zero_moments, 36, 1e10, True),
    "order 0": (signed_zero_moments, 0, 1.5, False),
    # f_1 .. f_N zero on margins: only the rows between run the Taylor sum
    "zero margins": (margin_moments, 12, 1.5, False),
    "zero margins on an overflowing y lattice": (margin_moments, 36, 1e10, True),  # NaN there
    "one zero margin": (lambda rng, n_x, n: margin_moments(rng, n_x, n, right=0), 12, 1.5, False),
    "every higher row zero": (
        lambda rng, n_x, n: margin_moments(rng, n_x, n, left=n_x, right=0), 4, 1.5, False
    ),
    "a pyramid's central slice": (pyramid_moments, 2, 1.5, False),
    # the first row block lies wholly past the support and the second straddles it
    "a margin wider than a row block": (wide_margin_moments, 12, 1.5, False),
    "a margin wider than a row block on an overflowing y lattice": (
        wide_margin_moments, 36, 1e10, True
    ),
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
    """Real f_0 .. f_N, N = 0..14, some rows all zero, magnitudes up to 1e300; f_1 .. f_N
    are 0.0 on a left and -0.0 on a right margin of columns, each possibly empty."""
    order = draw(st.integers(0, 14))
    shape = (order + 1, draw(st.integers(8, 24)))
    f = draw(arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)))
    f[draw(st.lists(st.integers(0, order), max_size=order + 1))] = 0.0
    f[1:, : draw(st.integers(0, shape[1]))] = 0.0
    f[1:, shape[1] - draw(st.integers(0, shape[1])) :] = -0.0
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


def test_resample_equals_the_one_shot_expression_and_holds_one_block():
    rng = np.random.default_rng(3)
    grid = SpatialGrid(-6.0, 6.0, 8192)
    b_y = 0.01 * np.arange(-80, 81)
    b_values = rng.normal(size=(8192, 161)) + 1j * rng.normal(size=(8192, 161))
    b = DensityMatrixGrid(grid, b_y, b_values)
    # a's y lattice reaches past b's, so some points fall outside
    y = offdiagonal_lattice(1.0, 101)
    resampled, peak = traced_peak(lambda: _resample_onto(b.values, b.y, y))
    assert_bytes_equal(resampled, one_shot_resample(b, y))
    assert peak <= 1.5 * resampled.nbytes


def random_lattice(rng, grid, y):
    """A complex lattice with independent entries, neither Hermitian nor smooth."""
    shape = (grid.n_points, y.size)
    return DensityMatrixGrid(grid, y, rng.normal(size=shape) + 1j * rng.normal(size=shape))


COMPARE_REGIONS = {
    # name: (x_max, y_max) on a grid over [-6, 6] and a y lattice over [-1, 1]
    "inside": (2.0, 0.5),
    "the grid edge": (6.0, 0.5),
    "the whole lattice": (np.inf, np.inf),
    "one row": (0.004, 0.5),  # dx = 0.012: only x = 0
    "one column": (2.0, 0.0),  # only y = 0
    "one point": (0.004, 0.0),
}


@pytest.mark.parametrize("resampled", [False, True], ids=["native", "resampled"])
@pytest.mark.parametrize("region", COMPARE_REGIONS)
def test_compare_equals_the_whole_lattice_comparison_bitwise(region, resampled):
    rng = np.random.default_rng(17)
    grid = SpatialGrid(-6.0, 6.0, 1001)  # the regions at the grid edge span 2 and 3 row blocks
    a = random_lattice(rng, grid, offdiagonal_lattice(1.0, 41))
    # a's y lattice reaches past b's, so some of its points fall outside
    b = random_lattice(rng, grid, 0.0093 * np.arange(-90, 91) if resampled else a.y)
    f0 = GridField(grid, a.values[:, 20].real + 1e-3 * rng.normal(size=grid.n_points))
    report = compare(a, b, COMPARE_REGIONS[region], f0)
    assert report.resampled == resampled
    assert repr(report) == repr(whole_lattice_compare(a, b, COMPARE_REGIONS[region], f0))


@pytest.mark.parametrize("resampled", [False, True], ids=["native", "resampled"])
def test_compare_holds_only_the_region_errors_and_a_few_blocks(resampled):
    rng = np.random.default_rng(4)
    grid = SpatialGrid(-20.0, 20.0, 16384)
    y = grid.dx * np.arange(-50, 51)
    a = random_lattice(rng, grid, y)
    b = random_lattice(rng, grid, 1.01 * y if resampled else y)
    region = (10.0, 40 * grid.dx)
    f0 = GridField(grid, a.values[:, 50].real)
    report, peak = traced_peak(lambda: compare(a, b, region, f0))
    assert report.resampled == resampled
    # |a - b| over the region, plus one block of rows of a, of b, of the resample and of
    # their difference: well below one region-sized complex copy (16 bytes a point)
    region_float_bytes = np.count_nonzero(np.abs(grid.points) <= 10.0) * 81 * 8
    assert peak <= region_float_bytes + 6 * LATTICE_BLOCK_BYTES


def region_references(kind, grid, y, rows):
    """The whole reference of ``kind`` on ``y`` and its windows of grid ``rows``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridCoverageWarning)  # an interpolated stored psi
        if kind == "stored psi":
            psi = make_cat_state(CAT, grid)
            return exact_density_matrix(psi, y), [exact_density_matrix(psi, y, r) for r in rows]
        return cat_state_density_matrix(CAT, grid, y), [
            cat_state_density_matrix(CAT, grid, y, r) for r in rows
        ]


@pytest.mark.parametrize("resampled", [False, True], ids=["same y", "resampled"])
@pytest.mark.parametrize("kind", ["stored psi", "closed form"])
def test_compare_with_a_row_window_reports_bitwise_what_the_whole_reference_does(kind, resampled):
    grid = SpatialGrid(-6.0, 6.0, 1001)  # dx = 0.012
    y_a = offdiagonal_lattice(0.6, 41)  # dy = 0.03: the stored psi is interpolated
    y_b = grid.dx * np.arange(-60, 61) if resampled else y_a  # whole steps, past y_a
    a = assemble(cat_moments(grid, 12), y_a, HBAR).values
    region = (2.0, 0.5)
    rows = _region_slices(grid, y_a, region)[0]
    windows = [rows, slice(rows.start - 3, rows.stop + 5), slice(0, rows.stop)]
    whole, parts = region_references(kind, grid, y_b, windows)
    f0 = GridField(grid, cat_moments(grid, 0).values[0])
    expected = compare(a, whole, region, f0)
    assert expected.resampled == resampled
    for part in parts:
        assert repr(compare(a, part, region, f0)) == repr(expected)


@pytest.mark.parametrize("miss", ["first", "last"])
def test_compare_refuses_a_row_window_that_misses_a_region_row(miss):
    grid = SpatialGrid(-6.0, 6.0, 1001)
    y = offdiagonal_lattice(0.6, 41)
    a = assemble(cat_moments(grid, 2), y, HBAR).values
    rows = _region_slices(grid, y, (2.0, 0.5))[0]  # rows 334..666
    window = slice(rows.start + 1, rows.stop) if miss == "first" else slice(rows.start, rows.stop - 1)
    b = cat_state_density_matrix(CAT, grid, y, window)
    message = (
        rf"^the reference holds rows {window.start}\.\.{window.stop - 1}, which miss rows of "
        rf"the region \|x\| <= 2\.0, \|y\| <= 0\.5 \(rows 334\.\.666\)$"
    )
    with pytest.raises(ValueError, match=message):
        compare(a, b, (2.0, 0.5), GridField(grid, cat_moments(grid, 0).values[0]))


@pytest.mark.parametrize("peak", [1e200, np.finfo(float).max], ids=["finite", "overflowed"])
def test_compare_refuses_errors_whose_l2_sum_is_not_finite(grid, y_lattice, peak):
    # f_2 = 1e200 gives finite errors whose squares overflow; finfo.max overflows rho_N itself
    f = cat_moments(grid, 2).values.copy()
    f[2, 120] = peak  # at x = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the overflowed order, reported
        a = assemble(GridField(grid, f), y_lattice, HBAR).values
    b = cat_state_density_matrix(CAT, grid, y_lattice)
    message = r"^\|a - b\|, or its L2 sum, is not finite in the region \|x\| <= 3\.0, \|y\| <= 1\.0"
    with pytest.raises(ValueError, match=message):
        compare(a, b, (3.0, 1.0), GridField(grid, f[0]))


WINDOW_CASES = {
    # name: (moments, order, y_max); the margins are rows 0..149 and 415..834
    "zero margins": (margin_moments, 12, 1.5),
    "zero margins on an overflowing y lattice": (margin_moments, 36, 1e10),  # NaN there
    "a margin wider than a row block": (wide_margin_moments, 12, 1.5),
}
WINDOWS = {
    "inside the support": slice(200, 400),
    "past the support": slice(3, 140),  # the f_0-plus-zero-row path only
    "across a margin": slice(100, 700),
    "one row": slice(834, 835),
    "every row": slice(0, 835),
}


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("case", WINDOW_CASES)
def test_assemble_on_a_row_window_holds_the_whole_lattice_rows_bitwise(case, window):
    make, order, y_max = WINDOW_CASES[case]
    n_x = 2 * (LATTICE_BLOCK_BYTES // (16 * 41)) + 37  # 835: three row blocks, the last short
    grid, y = SpatialGrid(-3.0, 3.0, n_x), offdiagonal_lattice(y_max, 41)
    moments = GridField(grid, make(np.random.default_rng(order), n_x, order))
    rows = WINDOWS[window]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an overflowing order, reported
        whole, part = assemble(moments, y, 0.7), assemble(moments, y, 0.7, rows)
    assert part.values.rows == rows
    assert_bytes_equal(part.values.values, whole.values.values[rows])
    assert_bytes_equal(part.values.diagonal, whole.values.diagonal)
    assert_bytes_equal(part.term_peaks, whole.term_peaks)
    assert part.trust_radius == whole.trust_radius
    if y_max > 1.5:
        assert np.isnan(whole.values.values).any()


def test_assemble_refuses_a_row_window_that_is_not_a_run_of_grid_rows():
    grid = SpatialGrid(-3.0, 3.0, 101)
    for rows in (slice(200, 300), slice(90, 120), slice(0, 10, 2), slice(5, 5), 3):
        with pytest.raises(ValueError, match=r"^rows must be a non-empty slice"):
            assemble(cat_moments(grid, 2), offdiagonal_lattice(0.6, 21), HBAR, rows)


@pytest.mark.parametrize("resampled", [False, True], ids=["same y", "resampled"])
def test_compare_with_a_row_window_of_the_compared_lattice_reports_what_the_whole_does(
    resampled,
):
    grid = SpatialGrid(-6.0, 6.0, 1001)
    y_a = offdiagonal_lattice(0.6, 41)
    y_b = grid.dx * np.arange(-60, 61) if resampled else y_a
    region = (2.0, 0.5)
    rows = _region_slices(grid, y_a, region)[0]
    moments = cat_moments(grid, 12)
    whole = assemble(moments, y_a, HBAR).values
    f0 = GridField(grid, moments.values[0])
    references = [cat_state_density_matrix(CAT, grid, y_b, r) for r in (None, rows)]
    for b in references:
        expected = compare(whole, b, region, f0)
        assert expected.resampled == resampled
        for window in (rows, slice(rows.start - 3, rows.stop + 5), slice(0, rows.stop)):
            report = compare(assemble(moments, y_a, HBAR, window).values, b, region, f0)
            assert report == expected
            assert repr(report) == repr(expected)


@pytest.mark.parametrize("miss", ["first", "last"])
def test_compare_refuses_a_compared_row_window_that_misses_a_region_row(miss):
    grid = SpatialGrid(-6.0, 6.0, 1001)
    y = offdiagonal_lattice(0.6, 41)
    rows = _region_slices(grid, y, (2.0, 0.5))[0]  # rows 334..666
    window = slice(rows.start + 1, rows.stop) if miss == "first" else slice(rows.start, rows.stop - 1)
    a = assemble(cat_moments(grid, 2), y, HBAR, window).values
    b = cat_state_density_matrix(CAT, grid, y)
    message = (
        rf"^the compared lattice holds rows {window.start}\.\.{window.stop - 1}, which miss rows "
        rf"of the region \|x\| <= 2\.0, \|y\| <= 0\.5 \(rows 334\.\.666\)$"
    )
    with pytest.raises(ValueError, match=message):
        compare(a, b, (2.0, 0.5), GridField(grid, cat_moments(grid, 0).values[0]))

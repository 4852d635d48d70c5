import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from conftest import assert_bytes_equal
from hydrec.numerics import SpatialGrid, TimeNodes
from hydrec.potentials import (
    PotentialModel,
    free_potential,
    harmonic_potential,
    model_from_dict,
    model_to_dict,
    paul_trap_potential,
    polynomial_potential,
    potential_derivative,
    potential_value,
    quartic_potential,
    x_coefficients,
)


def test_free_is_zero():
    m = free_potential()
    assert potential_value(m, 3.7, 12.0) == 0.0
    assert float(potential_derivative(m, 1, 3.7, 12.0)) == 0.0


def test_harmonic_value():
    m = harmonic_potential(omega=1.0, mass=1.0)
    assert potential_value(m, 2.0, 0.0) == pytest.approx(2.0)


def test_paul_trap_value():
    m = paul_trap_potential(a=1.0, b=0.5, big_omega=2.0 * np.pi, mass=1.0)
    assert potential_value(m, 1.0, 0.0) == pytest.approx(0.75)


def test_harmonic_derivatives():
    mu, omega = 1.3, 0.9
    m = harmonic_potential(omega=omega, mass=mu)
    x = 1.7
    assert float(potential_derivative(m, 1, x, 0.0)) == pytest.approx(mu * omega**2 * x)
    assert float(potential_derivative(m, 3, x, 0.0)) == 0.0


def test_quartic_fourth_derivative():
    lam = 0.4
    m = quartic_potential(c2=0.0, c4=lam)
    for x in (-2.0, 0.0, 5.0):
        assert float(potential_derivative(m, 4, x, 1.0)) == pytest.approx(24.0 * lam)
    assert float(potential_derivative(m, 5, 1.0, 0.0)) == 0.0


def test_cubic_polynomial_third_derivative():
    m = polynomial_potential([[0.0], [0.0], [0.0], [1.0]])  # V = x^3
    for x in (-1.0, 0.0, 2.5):
        assert float(potential_derivative(m, 3, x, 0.0)) == pytest.approx(6.0)


def test_time_dependent_polynomial():
    # V = (1 + 0.5 t) x^2
    m = polynomial_potential([[0.0], [0.0], [1.0, 0.5]])
    assert potential_value(m, 2.0, 2.0) == pytest.approx(8.0)
    assert float(potential_derivative(m, 2, 0.0, 4.0)) == pytest.approx(6.0)


ALL_MODELS = [
    harmonic_potential(omega=0.8, mass=1.1),
    quartic_potential(c2=0.3, c4=0.2),
    polynomial_potential([[0.1], [0.0, 0.2], [0.5], [0.0], [0.05]]),
    paul_trap_potential(a=1.2, b=0.4, big_omega=3.0, mass=0.9),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_first_derivative_matches_finite_difference(model):
    h = 1e-4
    x = np.linspace(-2.0, 2.0, 9)
    for t in (0.0, 0.37):
        exact = potential_derivative(model, 1, x, t)
        fd = (potential_value(model, x + h, t) - potential_value(model, x - h, t)) / (2 * h)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(fd - exact)) < 1e-6 * max(scale, 1e-12)


def test_free_first_derivative_finite_difference():
    m = free_potential()
    h = 1e-4
    x = np.linspace(-2.0, 2.0, 9)
    fd = (potential_value(m, x + h, 0.0) - potential_value(m, x - h, 0.0)) / (2 * h)
    assert np.max(np.abs(fd)) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_derivatives_beyond_degree_are_exactly_zero(model):
    order = model.degree + 1 if model.kind != "paul_trap" else 3
    x = np.linspace(-3.0, 3.0, 7)
    for extra in range(3):
        d = potential_derivative(model, order + extra, x, 0.21)
        assert np.array_equal(np.asarray(d), np.zeros(7))


def test_paul_trap_reduces_to_harmonic_at_zero_drive():
    a = 1.44
    trap = paul_trap_potential(a=a, b=0.0, big_omega=5.0, mass=1.3)
    osc = harmonic_potential(omega=np.sqrt(a), mass=1.3)
    x = np.linspace(-2.0, 2.0, 11)
    for t in (0.0, 0.7, 2.3):
        assert np.allclose(potential_value(trap, x, t), potential_value(osc, x, t), rtol=1e-14)
        for order in (1, 2, 3, 4, 5):
            assert np.allclose(
                potential_derivative(trap, order, x, t),
                potential_derivative(osc, order, x, t),
                rtol=1e-14,
                atol=0.0,
            )


def test_serialization_round_trip():
    for model in ALL_MODELS + [free_potential()]:
        again = model_from_dict(model_to_dict(model))
        assert again == model
        x = np.linspace(-1.0, 1.0, 9)
        assert np.array_equal(potential_value(again, x, 0.5), potential_value(model, x, 0.5))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "coulomb", "params": {}})


def test_parameters_follow_the_kind_table():
    with pytest.raises(ValueError, match="quartic potential takes no parameter 'c6'"):
        PotentialModel("quartic", {"c2": 0.5, "c6": 1.0})
    with pytest.raises(ValueError, match="harmonic potential needs parameter 'omega'"):
        PotentialModel("harmonic", {"mass": 1.0})
    for kind, params in [
        ("quartic", {"c2": None}),  # JSON null
        ("harmonic", {"omega": float("nan")}),
        ("paul_trap", {"a": 1.0, "b": 0.5, "big_omega": float("nan")}),
    ]:
        with pytest.raises(ValueError, match="finite"):
            PotentialModel(kind, params)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("quartic", {"c2": True, "c4": 0.5}),
        ("quartic", {"c2": 1.0, "c4": "0.5"}),
        ("harmonic", {"omega": "1"}),
        ("harmonic", {"omega": 1.0, "mass": False}),
        ("paul_trap", {"a": 1.0, "b": [0.5], "big_omega": 6.0}),
        ("polynomial", {"coeffs": [[0.0], [0.0], [True]]}),
        ("polynomial", {"coeffs": [[0.0], ["1"]]}),
        ("polynomial", {"coeffs": [0.0, 1.0]}),
        ("polynomial", {"coeffs": "01"}),
    ],
)
def test_parameters_must_be_real_numbers(kind, params):
    with pytest.raises(ValueError, match=f"{kind} potential '.*' must be"):
        PotentialModel(kind, params)


def test_numpy_numbers_are_real_numbers():
    model = PotentialModel("polynomial", {"coeffs": np.array([[0.0], [0.0], [2.0]])})
    assert model == polynomial_potential([[0], [0], [2]])
    assert harmonic_potential(np.float64(2.0), mass=np.int64(1)).coeffs == ((0.0,), (0.0,), (2.0,))


def test_a_model_fills_its_own_defaults():
    assert PotentialModel("harmonic", {"omega": 1.0}) == harmonic_potential(1.0)
    assert PotentialModel("quartic", {"c2": 0.5}) == quartic_potential(0.5)
    assert dict(PotentialModel("quartic").params) == {"c2": 0.0, "c4": 0.0}
    assert PotentialModel("paul_trap", {"a": 1, "b": 0.5, "big_omega": 6}).params["mass"] == 1.0


@pytest.mark.parametrize(
    "model",
    [
        free_potential(),
        harmonic_potential(omega=1.3, mass=0.7),
        quartic_potential(c2=0.5, c4=0.1),
        # powers of t up to t^4, where numpy's SIMD pow and libm's pow can differ in the last bit
        polynomial_potential([[0.1, 0.2, 0.3], [0, 1.1, 0, 0.3], [0.5, 0.1], [0, 0, 0, 0, 1.7]]),
        paul_trap_potential(a=1.0, b=0.5, big_omega=6.28),
    ],
    ids=lambda m: m.kind,
)
@pytest.mark.parametrize("nodes", [TimeNodes(0.09, 0.005, 13), TimeNodes(-1.37, 0.71, 9)])
def test_an_array_of_times_gives_the_per_time_stack_bitwise(model, nodes):
    # the result has shape t.shape + x.shape, entry by entry the scalar call's
    x = SpatialGrid(-8.0, 8.0, 301).points
    per_time = [potential_value(model, x, float(t)) for t in nodes.points]
    assert_bytes_equal(potential_value(model, x, nodes.points), np.stack(per_time))
    for order in range(1, model.degree + 3):
        per_time = [potential_derivative(model, order, x, float(t)) for t in nodes.points]
        assert_bytes_equal(potential_derivative(model, order, x, nodes.points), np.stack(per_time))


ONE_OF_EACH_KIND = [
    free_potential(),
    harmonic_potential(omega=1.3, mass=0.7),
    quartic_potential(c2=0.5, c4=0.1),
    polynomial_potential([[0.1, -0.3], [1.1], [0.0, 0.2, 0.05], [-0.7, 0.3], [0.01]]),
    paul_trap_potential(a=0.3, b=0.8, big_omega=2.1),
]


@pytest.mark.parametrize("model", ONE_OF_EACH_KIND, ids=lambda m: m.kind)
@pytest.mark.parametrize("x", [-2.5, np.linspace(-10.0, 10.0, 101)], ids=["scalar x", "array x"])
@pytest.mark.parametrize("t", [0.41, np.linspace(-1.0, 1.0, 13)], ids=["scalar t", "array t"])
def test_values_and_derivatives_are_numpy_polynomial_s_bitwise(model, x, t):
    c = x_coefficients(model, t)
    pairs = [(potential_value(model, x, t), polyval(x, c))]
    pairs += [(potential_derivative(model, n, x, t), polyval(x, polyder(c, n))) for n in range(1, 7)]
    for ours, theirs in pairs:
        assert type(ours) is type(theirs)
        assert_bytes_equal(ours, theirs)

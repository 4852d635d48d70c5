"""Potential models V(x, t) with exact spatial derivatives of any order.

Every built-in model is polynomial in x (with possibly time-dependent
coefficients), so the derivative ladder required by the moment recursion is
exact and terminates: derivatives beyond the polynomial degree are
identically zero.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import zip_longest
from types import MappingProxyType

import numpy as np

from .numerics import _is_number

__all__ = [
    "PotentialModel",
    "free_potential",
    "harmonic_potential",
    "quartic_potential",
    "polynomial_potential",
    "paul_trap_potential",
    "potential_value",
    "potential_derivative",
]

#: Per kind, the parameters it takes and their defaults; None marks a required one.
PARAMETERS = {
    "free": {},
    "harmonic": {"omega": None, "mass": 1.0},
    "quartic": {"c2": 0.0, "c4": 0.0},
    "polynomial": {"coeffs": None},
    "paul_trap": {"a": None, "b": None, "big_omega": None, "mass": 1.0},
}
KINDS = tuple(PARAMETERS)
# Per kind, the rows ``coeffs[k]`` of x^k (see PotentialModel) from the params.
_ROWS = {
    "free": lambda p: [[0]],
    "harmonic": lambda p: [[0], [0], [0.5 * float(p["mass"]) * float(p["omega"]) ** 2]],
    "quartic": lambda p: [[0], [0], [p["c2"]], [0], [p["c4"]]],
    "polynomial": lambda p: p["coeffs"],
    "paul_trap": lambda p: [[0], [0], [0.5 * float(p["mass"])]],
}


def check_parameters(kind: str, keys) -> None:
    """Reject an unknown kind, a parameter the kind does not take, or a missing one."""
    if kind not in PARAMETERS:
        raise ValueError(f"unknown potential kind {kind!r}; expected one of {KINDS}")
    table = PARAMETERS[kind]
    for key in keys:
        if key not in table:
            takes = ", ".join(table) or "none"
            raise ValueError(f"{kind} potential takes no parameter {key!r} (it takes: {takes})")
    for key, default in table.items():
        if default is None and key not in keys:
            raise ValueError(f"{kind} potential needs parameter {key!r}")


def _real_rows(rows) -> bool:
    """True for a tuple of tuples of real numbers; bools and numeric strings are not."""
    return isinstance(rows, tuple) and all(
        isinstance(row, tuple) and all(map(_is_number, row)) for row in rows
    )


def _nested(value, kind):
    if isinstance(value, (list, tuple, np.ndarray)):
        return kind(_nested(v, kind) for v in value)
    return value


@dataclass(frozen=True)
class PotentialModel:
    """Tagged potential description; ``params`` is stored read-only, defaults filled in.

    ``V(x, t) = sum_k (sum_j coeffs[k][j] * basis_j(t)) * x**k`` with the time
    basis ``t**j``, except the Paul trap's single ``a + b cos(big_omega t)``.
    The zero-padded ``coeffs`` follow from ``params`` and stand in for it in the hash.
    """

    kind: str
    params: Mapping = field(default_factory=dict, hash=False)
    coeffs: tuple = field(init=False, repr=False, compare=False, hash=True)

    def __post_init__(self):
        given = {k: _nested(v, tuple) for k, v in dict(self.params).items()}
        check_parameters(self.kind, given)
        defaults = {k: d for k, d in PARAMETERS[self.kind].items() if d is not None}
        params = MappingProxyType(defaults | given)
        for key, value in params.items():
            if not _real_rows(value if key == "coeffs" else ((value,),)):
                what = "rows of finite real numbers" if key == "coeffs" else "a finite real number"
                got = self.params[key]
                raise ValueError(f"{self.kind} potential {key!r} must be {what}, got {got!r}")
        rows = _ROWS[self.kind](params)
        if not rows:
            raise ValueError(f"{self.kind} potential needs at least one coefficient row")
        padded = np.array(list(zip_longest(*rows, fillvalue=0.0)), dtype=float).T
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", tuple(map(tuple, padded.tolist())))
        if not np.all(np.isfinite(x_coefficients(self, 0.0))):
            raise ValueError(f"{self.kind} potential parameters must be finite numbers")

    def __reduce__(self):  # a mappingproxy does not pickle
        return PotentialModel, (self.kind, dict(self.params))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def _time_independent(self) -> bool:
        """True when V(x, t) is bitwise the same at every t: each 0 * t**j or 0 * cos adds ±0.0."""
        if self.kind == "paul_trap":
            return self.params["b"] == 0 or self.params["big_omega"] == 0
        return not any(any(row[1:]) for row in self.coeffs)


def x_coefficients(model: PotentialModel, t) -> np.ndarray:
    """Coefficients c_k(t) of x^k, lowest power first; row k holds c_k at each time in ``t``."""
    if model.kind == "paul_trap":
        p = model.params
        basis = [float(p["a"]) + float(p["b"]) * np.cos(float(p["big_omega"]) * t)]
    else:
        # libm's pow, as a float's t**j; an array's t**j may take a SIMD pow off in the last bit
        basis = [np.float_power(t, j) for j in range(len(model.coeffs[0]))]
    c = np.zeros((len(model.coeffs),) + np.shape(t))
    for column, b in zip(np.transpose(model.coeffs), basis):
        c += np.multiply.outer(column, b)
    return c


def _horner(x, c: np.ndarray):
    """The polynomial with coefficient rows ``c`` (lowest power first) at every ``x``, in the
    operations and order of numpy.polynomial's ``polyval(x, c)``: bitwise its values."""
    x = np.asarray(x)
    c = c.reshape(c.shape + (1,) * x.ndim)
    value = c[-1] + x * 0
    for row in c[-2::-1]:
        value = row + value * x
    return value


def potential_value(model: PotentialModel, x, t):
    """Evaluate V(x, t), of shape ``t.shape + x.shape``; ``x`` and ``t`` may be arrays."""
    return _horner(x, x_coefficients(model, t))


def potential_derivative(model: PotentialModel, order: int, x, t):
    """Exact d^order V / dx^order at (x, t), shape ``t.shape + x.shape``; 0 past the degree.

    The coefficients are differentiated one order at a time, row k - 1 becoming
    ``k * c_k``, as numpy.polynomial's ``polyder`` does: bitwise its values.
    """
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    c = x_coefficients(model, t)
    if order >= len(c):
        return _horner(x, c[:1] * 0)
    for _ in range(order):
        c = np.arange(1.0, len(c)).reshape((-1,) + (1,) * (c.ndim - 1)) * c[1:]
    return _horner(x, c)


def check_mass(model: PotentialModel, mass: float) -> None:
    """Reject a model whose own ``mass`` parameter differs from the particle mass."""
    own = float(model.params.get("mass", mass))
    if own != mass:
        raise ValueError(f"{model.kind} potential has mass {own}, but the particle mass is {mass}")


def free_potential() -> PotentialModel:
    return PotentialModel("free")


def harmonic_potential(omega: float, mass: float = 1.0) -> PotentialModel:
    """V = mass * omega^2 * x^2 / 2."""
    return PotentialModel("harmonic", {"omega": omega, "mass": mass})


def quartic_potential(c2: float = 0.0, c4: float = 0.0) -> PotentialModel:
    """V = c2 * x^2 + c4 * x^4."""
    return PotentialModel("quartic", {"c2": c2, "c4": c4})


def polynomial_potential(coeffs) -> PotentialModel:
    """V with per-order time-polynomial coefficients.

    ``coeffs[k][j]`` multiplies ``t**j * x**k``; pass ``[[0], [0], [0], [1]]``
    for V = x^3.
    """
    return PotentialModel("polynomial", {"coeffs": [list(row) for row in coeffs]})


def paul_trap_potential(a: float, b: float, big_omega: float, mass: float = 1.0) -> PotentialModel:
    """V = mass/2 * (a + b*cos(big_omega * t)) * x^2."""
    return PotentialModel("paul_trap", {"a": a, "b": b, "big_omega": big_omega, "mass": mass})


def model_to_dict(model: PotentialModel) -> dict:
    """Serializable {kind, params} record."""
    return {"kind": model.kind, "params": {k: _nested(v, list) for k, v in model.params.items()}}


def model_from_dict(record: dict) -> PotentialModel:
    return PotentialModel(str(record["kind"]), record["params"])

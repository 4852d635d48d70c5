import tracemalloc
import warnings

import numpy as np
import pytest

from hydrec.assembly import TaylorReconstruction, assemble
from hydrec.numerics import PhysicalConstants
from hydrec.simulator import GridCoverageWarning, probability_density, propagate

CONSTANTS = PhysicalConstants()


def propagate_through_nodes(psi0, model, nodes, substeps, constants=CONSTANTS):
    """Walk a state (prepared at t = 0) across the time nodes.

    Propagation reaches t_0 first (backward if needed), then advances node to
    node with a fixed substep count so that solver error is smooth in time.
    Returns the density records and the wavefunctions at every node.
    """
    psi = psi0
    if nodes.t_0 != 0.0:
        n0 = max(8, int(np.ceil(abs(nodes.t_0) / (nodes.dt / substeps))))
        psi = propagate(psi, model, constants, nodes.t_0 / n0, n0, t_start=0.0)
    records, psis = [probability_density(psi)], [psi]
    for j in range(nodes.m):
        psi = propagate(
            psi, model, constants, nodes.dt / substeps, substeps,
            t_start=nodes.t_0 + j * nodes.dt,
        )
        records.append(probability_density(psi))
        psis.append(psi)
    return records, psis


def traced_peak(call):
    """``call()`` and the most bytes it held allocated at once (tracemalloc)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def assert_bytes_equal(actual, expected):
    """Assert two arrays hold the same bytes.

    A mismatch names the first differing index and says whether every
    difference is only the sign of a zero (``-0.0 == 0.0`` but their bytes differ).
    """
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    words = [a.reshape(-1).view(np.uint8).reshape(a.size, a.itemsize) for a in (actual, expected)]
    differs = np.any(words[0] != words[1], axis=1)
    if not differs.any():
        return
    first = np.unravel_index(np.argmax(differs), actual.shape)
    # equal values with different bytes can only be zeros of opposite sign
    zero_signs = bool(np.all(actual.reshape(-1)[differs] == expected.reshape(-1)[differs]))
    raise AssertionError(
        f"{np.count_nonzero(differs)} of {actual.size} entries differ "
        f"{'only in the sign of a zero' if zero_signs else 'in value'}; "
        f"first at {tuple(int(k) for k in first)}: "
        f"{actual[first].item()!r} != {expected[first].item()!r}"
    )


def derivative_stencil(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for a derivative on arbitrary point offsets.

    Solves the moment conditions ``sum_i w_i * s_i**k / k! = delta(k, order)``
    for ``k = 0 .. len(offsets)-1`` (Fornberg, Math. Comp. 51, 1988); the
    excess stencil length sets the approximation order.
    """
    s = np.asarray(offsets, dtype=float)
    if order >= s.size:
        raise ValueError("stencil too short for requested derivative order")
    rhs = np.zeros(s.size)
    rhs[order] = 1.0
    powers = s[None, :] ** np.arange(s.size)[:, None]
    factorials = np.cumprod(np.concatenate(([1.0], np.arange(1.0, s.size))))
    return np.linalg.solve(powers / factorials[:, None], rhs)


def real_imag_split(rec: TaylorReconstruction) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the even-order (real) and odd-order (imaginary) sums separately.

    Returns the two real arrays whose combination ``real + 1j * imag``
    reproduces the assembled values to machine precision.
    """
    y = rec.y
    hbar = rec.hbar
    grid_n = rec.values.x_grid.n_points
    real_part = np.zeros((grid_n, y.size))
    imag_part = np.zeros((grid_n, y.size))
    u = 2.0 * y / hbar
    z = np.ones(y.size)
    for n, moment in enumerate(rec.moments):
        if n > 0:
            z = z * u / n
        sign = (-1.0) ** (n // 2)
        target = real_part if n % 2 == 0 else imag_part
        target += sign * np.outer(moment.field.values, z)
    return real_part, imag_part


def hbar_rescaling_check(
    moments, y: np.ndarray, hbar: float, scale: float, tolerance: float = 1e-12
) -> bool:
    """Verify that changing hbar only rescales the off-diagonal variable.

    Assembling with ``(y, hbar)`` and with ``(scale * y, scale * hbar)`` must
    agree pointwise (index to index, the lattice point ``scale * y`` standing
    for ``y``): the expansion depends on y and hbar through ``y / hbar`` only.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    a = assemble(moments, y, hbar)
    b = assemble(moments, scale * np.asarray(y, dtype=float), scale * hbar)
    num = float(np.max(np.abs(a.values.values - b.values.values)))
    den = float(np.max(np.abs(a.values.values)))
    return num <= tolerance * den


def cat_momentum_resolution_ok(params, constants, dy: float) -> bool:
    """Rule of thumb: the y spacing must resolve the cat's momentum content.

    Requires ``hbar / (2 dy) >= 4 (k0 hbar + hbar / sigma)``; a failing
    spacing draws a :class:`GridCoverageWarning` and returns False.
    """
    hbar = constants.hbar
    need = 4.0 * (params.k0 * hbar + hbar / params.sigma)
    have = hbar / (2.0 * dy)
    if have < need:
        warnings.warn(
            f"y spacing {dy:.3e} resolves momenta only to {have:.3g} < {need:.3g}; "
            "superposition-state oracles will alias",
            GridCoverageWarning,
            stacklevel=2,
        )
        return False
    return True


@pytest.fixture(scope="session")
def constants():
    return CONSTANTS

#!/usr/bin/env python3
"""Probability current from position densities alone.

The lowest rung of the moment recursion: the current density f_1 is (minus
the mass times) the time derivative of the cumulative position probability,
so three density snapshots suffice to measure it.  For a Gaussian packet
boosted to momentum hbar*k0 the current must equal hbar*k0 * f_0, and the
continuity identity d/dt f_0 + (1/m) d/dx f_1 = 0 closes the loop.
``reconstruct_current`` returns f_1 at the central node as a ``GridField``.

Run:  python demos/02_current_from_densities.py
"""

import numpy as np

from hydrec import (
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    differentiation_matrix,
    free_potential,
    gaussian_packet,
    reconstruct_current,
    sample_densities,
)

constants = PhysicalConstants()
grid = SpatialGrid(-14.0, 14.0, 2048)
k0 = 1.5
nodes = TimeNodes(-0.005, 0.005, 3)  # three snapshots straddling t = 0

print(f"boosted Gaussian, momentum hbar*k0 = {k0}")
psi = gaussian_packet(grid, 1.0, momentum=k0 * constants.hbar)
records, _ = sample_densities(psi, free_potential(), constants, nodes, substeps=8)

current = reconstruct_current(records, grid, nodes, constants)
expected = constants.hbar * k0 * records[1].values
rel = np.linalg.norm(current.values - expected) / np.linalg.norm(expected)
print(f"relative L2 deviation of f_1 from hbar*k0*f_0: {rel:.2e}")

# continuity residual, with the time derivative from the same node stencil
d = differentiation_matrix(nodes)
density_rate = (d @ np.stack([r.values for r in records]))[1]
divergence = np.gradient(current.values, grid.dx)
residual = density_rate + divergence / constants.mass
ratio = np.linalg.norm(residual) / np.linalg.norm(density_rate)
print(f"continuity residual / |density rate|: {ratio:.2e}")

print("\ncross-check: time-reversing the snapshots flips the current's sign")
reversed_current = reconstruct_current(records[::-1], grid, nodes, constants)
flip = np.max(np.abs(reversed_current.values + current.values))
print(f"max |f_1(reversed) + f_1| = {flip:.2e}")

#!/usr/bin/env python3
"""Probability current from position densities alone.

The lowest rung of the moment recursion: the current density f_1 is (minus
the mass times) the time derivative of the cumulative position probability,
so three density snapshots suffice to measure it.  For a Gaussian packet
boosted to momentum hbar*k0 the current must equal hbar*k0 * f_0, and the
continuity identity d/dt f_0 + (1/m) d/dx f_1 = 0 closes the loop.
``sample_densities`` returns the snapshots as one ``(3, n_points)`` matrix,
and f_1 is ``levels[1, 1]`` of ``build_pyramid``'s order-1 pyramid: order 1
at the central node, which needs no potential.

Run:  python demos/02_current_from_densities.py
"""

import numpy as np

from hydrec import (
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    build_pyramid,
    differentiation_matrix,
    free_potential,
    gaussian_packet,
    sample_densities,
)

constants = PhysicalConstants()
grid = SpatialGrid(-14.0, 14.0, 2048)
k0 = 1.5
nodes = TimeNodes(-0.005, 0.005, 3)  # three snapshots straddling t = 0

print(f"boosted Gaussian, momentum hbar*k0 = {k0}")
psi = gaussian_packet(grid, 1.0, momentum=k0 * constants.hbar)
records, _ = sample_densities(psi, free_potential(), constants, nodes, substeps=8)


def current(records):
    """f_1 at the central node."""
    return build_pyramid(records, grid, nodes, free_potential(), constants, 1).levels[1, 1]


f1 = current(records)
expected = constants.hbar * k0 * records[1]
rel = np.linalg.norm(f1 - expected) / np.linalg.norm(expected)
print(f"relative L2 deviation of f_1 from hbar*k0*f_0: {rel:.2e}")

# continuity residual, with the time derivative from the same node stencil
d = differentiation_matrix(nodes)
density_rate = (d @ records)[1]
divergence = np.gradient(f1, grid.dx)
residual = density_rate + divergence / constants.mass
ratio = np.linalg.norm(residual) / np.linalg.norm(density_rate)
print(f"continuity residual / |density rate|: {ratio:.2e}")

print("\ncross-check: time-reversing the snapshots flips the current's sign")
flip = np.max(np.abs(current(records[::-1]) + f1))
print(f"max |f_1(reversed) + f_1| = {flip:.2e}")

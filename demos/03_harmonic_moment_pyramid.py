#!/usr/bin/env python3
"""Full moment pyramid for a coherent state in a harmonic trap.

Nine density snapshots determine the momentum moments up to order eight.
Each recursion level adds one time differentiation and, through the trap's
force, one cumulative force integral; the reconstruction is compared against
a phase-space oracle computed from the stored wavefunction (density matrix ->
quasi-probability transform -> momentum integrals).

Run:  python demos/03_harmonic_moment_pyramid.py
"""

import numpy as np

from hydrec import (
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    build_pyramid,
    gaussian_packet,
    harmonic_potential,
    oracle_moment_set,
    probability_density,
    propagate,
)

constants = PhysicalConstants()
omega = 0.5
model = harmonic_potential(omega)
grid = SpatialGrid(-16.0, 16.0, 2048)
sigma = np.sqrt(constants.hbar / (2.0 * constants.mass * omega))
center, momentum = 0.3, 0.8
nodes = TimeNodes(0.3 - 4 * 0.04, 0.04, 9)

print(f"coherent state in a trap: omega = {omega}, displacement = {center}, "
      f"boost = {momentum}")
print(f"sampling f_0 at {nodes.m_plus_1} times, dt = {nodes.dt}")

psi = gaussian_packet(grid, sigma, center=center, momentum=momentum)
sub = 40
n0 = max(8, int(np.ceil(abs(nodes.t_0) / (nodes.dt / sub))))
psi = propagate(psi, model, constants, nodes.t_0 / n0, n0)
records, psis = [probability_density(psi)], [psi]
for j in range(nodes.m):
    psi = propagate(psi, model, constants, nodes.dt / sub, sub,
                    t_start=nodes.t_0 + j * nodes.dt)
    records.append(probability_density(psi))
    psis.append(psi)

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # high levels flag their edge plateaus
    pyramid = build_pyramid(records, grid, nodes, model, constants, order_max=8)
    central = nodes.central_index
    oracles = oracle_moment_set(psis[central], range(9), constants)

support = np.abs(grid.points) <= np.hypot(center, momentum / omega) + 4 * sigma
print(f"\ncentral time {pyramid.nodes.central_time:.3f}; comparison on the packet support")
print(f"{'order':>6} {'rel L2 vs oracle':>18}")
for n in range(1, 9):
    rel = np.linalg.norm((pyramid.levels[n][central] - oracles[n].values)[support])
    rel /= np.linalg.norm(oracles[n].values[support])
    print(f"{n:>6} {rel:>18.2e}")

print(
    "\nErrors grow with the number of nested time differentiations; order 8"
    "\nconsumes all nine samples, the most the node count can support."
)

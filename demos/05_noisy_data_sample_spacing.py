#!/usr/bin/env python3
"""Detector noise and the time spacing of the density samples.

This script injects additive Gaussian noise into three density records of a
boosted Gaussian packet (as the simulate command does at the measurement
boundary, clipped at zero) and reconstructs the current f_1 for a range of
node spacings dt.  The relative L2 error of f_1 against the closed form splits
exactly into two parts, because the recursion is linear in the records:

  * truncation: the pyramid of the clean records, whose collocation time
    derivative errs like dt^2;
  * noise: the pyramid of the noisy records minus that of the clean ones,
    which the time derivative divides by dt.

The same noise draw is used at every dt, so the table isolates the spacing.

Run:  python demos/05_noisy_data_sample_spacing.py
"""

import warnings

import numpy as np

from hydrec import (
    DecayAssumptionWarning,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    build_pyramid,
    free_potential,
    gaussian_packet,
    gaussian_packet_moment,
    sample_densities,
)

constants = PhysicalConstants()
grid = SpatialGrid(-14.0, 14.0, 2048)
k0 = 1.5
noise_level = 2e-4
psi = gaussian_packet(grid, 1.0, momentum=k0)
truth = gaussian_packet_moment(1, grid.points, 1.0, momentum=k0)
scale = np.linalg.norm(truth)


def current(records, nodes):
    pyramid = build_pyramid(records, grid, nodes, free_potential(), constants, order_max=1)
    return pyramid.levels[1][nodes.central_index]


totals = {}
print(f"f_1 from 3 density records with additive Gaussian noise, sigma = {noise_level}")
print(f"{'dt':>6} {'truncation':>12} {'noise':>12} {'total':>12}   (rel L2 error of f_1)")
with warnings.catch_warnings():
    # clipped noise leaves a nonzero floor at the grid edges, which the
    # half-line-integral diagnostic correctly flags
    warnings.simplefilter("ignore", DecayAssumptionWarning)
    for dt in (0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32):
        nodes = TimeNodes(-dt, dt, 3)
        clean, _ = sample_densities(psi, free_potential(), constants, nodes, substeps=16)
        rng = np.random.default_rng(2024)
        noisy = np.clip(clean + rng.normal(0.0, noise_level, clean.shape), 0.0, None)
        f1_clean, f1_noisy = current(clean, nodes), current(noisy, nodes)
        truncation = np.linalg.norm(f1_clean - truth) / scale
        noise = np.linalg.norm(f1_noisy - f1_clean) / scale
        total = totals[dt] = np.linalg.norm(f1_noisy - truth) / scale
        print(f"{dt:>6} {truncation:>12.2e} {noise:>12.2e} {total:>12.2e}")
print(f"\nsmallest total at dt = {min(totals, key=totals.get)}")

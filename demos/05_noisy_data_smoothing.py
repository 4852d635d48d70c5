#!/usr/bin/env python3
"""Detector noise, the smoothing pathway, and where each one matters.

This script injects additive Gaussian noise into the density records (as the
simulate command does at the measurement boundary) and looks at two things:

  * local least-squares smoothing of f_0 -- applied before the recursion,
    never to intermediate moments -- restores the density itself;
  * the reconstructed current is largely insensitive to that smoothing,
    because the recursion integrates over x before differentiating in time,
    and integration already averages pointwise noise away.  What the time
    derivative amplifies is the low-frequency part of the noise, which any
    local polynomial filter passes through.  The real lever on moment noise
    is the choice of time samples, not spatial filtering.

Run:  python demos/05_noisy_data_smoothing.py
"""

import warnings

import numpy as np

from hydrec import (
    DecayAssumptionWarning,
    GridField,
    PhysicalConstants,
    SpatialGrid,
    TimeNodes,
    build_pyramid,
    free_potential,
    gaussian_packet,
    gaussian_packet_moment,
    sample_densities,
    smooth_local_poly,
)

constants = PhysicalConstants()
grid = SpatialGrid(-14.0, 14.0, 2048)
k0 = 1.5
nodes = TimeNodes(-0.02, 0.02, 3)
noise_level = 2e-4
rng = np.random.default_rng(2024)

psi = gaussian_packet(grid, 1.0, momentum=k0)
densities, _ = sample_densities(psi, free_potential(), constants, nodes, substeps=16)
clean = [f.values for f in densities]

noisy = [
    GridField(grid, np.clip(c + rng.normal(0.0, noise_level, c.shape), 0.0, None))
    for c in clean
]

print(f"additive Gaussian noise on f_0, sigma = {noise_level}\n")
print("--- the density itself ---")
rms_noisy = np.sqrt(np.mean((noisy[1].values - clean[1]) ** 2))
smoothed = smooth_local_poly(noisy[1].values, window=21, degree=3)
rms_smooth = np.sqrt(np.mean((smoothed - clean[1]) ** 2))
print(f"rms error of f_0:  raw {rms_noisy:.2e}  ->  smoothed (21, 3) {rms_smooth:.2e}")

truth = gaussian_packet_moment(1, grid.points, 1.0, momentum=k0)


def current_error(records, smoothing):
    pyramid = build_pyramid(records, grid, nodes, free_potential(), constants,
                            order_max=1, smoothing=smoothing)
    f1 = pyramid.levels[1][nodes.central_index]
    return np.linalg.norm(f1 - truth) / np.linalg.norm(truth)


print("\n--- the reconstructed current ---")
with warnings.catch_warnings():
    # clipped noise leaves a nonzero floor at the grid edges, which the
    # half-line-integral diagnostic correctly flags
    warnings.simplefilter("ignore", DecayAssumptionWarning)
    print(f"{'pipeline':<28} {'rel L2 error of f_1':>20}")
    rows = [
        ("clean records", [GridField(grid, c) for c in clean], None),
        ("noisy, no smoothing", noisy, None),
        ("noisy, window=21 deg=3", noisy, (21, 3)),
    ]
    for label, records, smoothing in rows:
        print(f"{label:<28} {current_error(records, smoothing):>20.2e}")

print(
    "\nSmoothing cleans the density but hardly moves the current: the noise"
    "\nthat survives the cumulative integral is exactly the low-frequency part"
    "\na local polynomial fit preserves.  Wider time spacing (or more nodes)"
    "\nis what suppresses it."
)

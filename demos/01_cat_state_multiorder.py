#!/usr/bin/env python3
"""Reconstruct a cat state's density matrix at increasing Taylor orders.

The two-component superposition state has an oscillatory density matrix whose
off-diagonal structure is recovered further and further from the diagonal as
more moment orders (equivalently, more observation times) are included.  This
script assembles the order-10, 20 and 36 reconstructions from the analytic
moment oracle and reports how the error against the closed-form density
matrix shrinks, plus each reconstruction's trust radius.  The moments are one
matrix, row n holding f_n; order N assembles its first N + 1 rows.

Run:  python demos/01_cat_state_multiorder.py
"""

import numpy as np

from hydrec import (
    CatStateParams,
    GridField,
    SpatialGrid,
    assemble,
    cat_state_density_matrix,
    cat_state_moment,
    compare,
    offdiagonal_lattice,
)

params = CatStateParams()  # sigma = 1/sqrt(2), k0 = 2*sqrt(2)
hbar = 1.0
grid = SpatialGrid(-6.0, 6.0, 481)
y = offdiagonal_lattice(1.5, 201)

print(f"cat state: sigma = {params.sigma:.4f}, k0 = {params.k0:.4f}, hbar = {hbar}")
print("building analytic moments f_0 .. f_36 ...")
moments = np.array([cat_state_moment(params, n, grid.points, hbar=hbar) for n in range(37)])

exact = cat_state_density_matrix(params, grid, y)

print(f"\n{'order':>6} {'sup |Re rho_N - Re rho|':>26} {'trust radius':>14}")
recs = {}
for order in (10, 20, 36):
    rec = assemble(GridField(grid, moments[: order + 1]), y, hbar)
    recs[order] = rec
    # the cat's odd moments are exactly 0, so |rho_N - rho| is |Re rho_N - Re rho|
    err = compare(rec.values, exact, (3.0, 1.5), GridField(grid, moments[0])).sup_error
    print(f"{order:>6} {err:>26.3e} {rec.trust_radius:>14.3f}")

print(
    "\nThe order-36 polynomial needs the position density at 37 times; within"
    "\nits trust radius it is visually indistinguishable from the exact matrix"
    "\n(max value 4, worst deviation above)."
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 4, figsize=(16, 3.6), sharey=True)
    extent = [y[0], y[-1], grid.x_min, grid.x_max]
    for ax, (label, vals) in zip(
        axes,
        [("exact", exact.values.real)]
        + [(f"N={n}", recs[n].values.values.real) for n in (10, 20, 36)],
    ):
        im = ax.imshow(np.clip(vals, -4, 4), extent=extent, aspect="auto",
                       origin="lower", cmap="RdBu_r", vmin=-4, vmax=4)
        ax.set_title(label)
        ax.set_xlabel("y")
        ax.set_ylim(-3, 3)
    axes[0].set_ylabel("x")
    fig.colorbar(im, ax=axes, shrink=0.85)
    fig.savefig("cat_state_multiorder.png", dpi=120)
    print("wrote cat_state_multiorder.png")
except ImportError:
    print("matplotlib not available; skipping the surface plot")

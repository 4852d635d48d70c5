#!/usr/bin/env python3
"""The persistent pipeline: simulate -> reconstruct -> assemble -> compare on disk.

Everything the library does is also scriptable through the `hydrec` command;
datasets and moment sets live as JSON manifests plus checksummed binary
payloads, so lab pipelines can swap in measured densities for the simulated
ones.  This script drives the README's command-line quick start in a
scratch directory: samples 0.02 apart keep f_4 decayed at the grid edges, and
151 y points on [-1.5, 1.5] make dy = dx = 0.02, so the stored-psi reference
is exact and no step prints a warning.

Run:  python demos/04_cli_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from hydrec.cli import main

scratch = Path(tempfile.mkdtemp(prefix="hydrec_demo_"))
ds = scratch / "dataset"
mo = scratch / "moments"
rho = scratch / "rho"
cmp_dir = scratch / "comparison"
demo = scratch / "figure"

steps = [
    ["simulate", "--state", "cat", "--grid=-10,10,1001", "--times", "0.09,0.02,4",
     "--potential", "free", "--store-psi", "--out", str(ds)],
    ["reconstruct", str(ds / "dataset.json"), "--order", "4", "--out", str(mo)],
    ["assemble", str(mo / "moments.json"), "--y-max", "1.5", "--n-y", "151", "--out", str(rho)],
    # an order-4 polynomial only retrieves a narrow band around the diagonal,
    # so compare within it
    ["compare", str(mo / "moments.json"), "--reference", "stored-psi",
     "--dataset", str(ds / "dataset.json"), "--y-max", "1.5", "--n-y", "151",
     "--region-x", "3", "--region-y", "0.1", "--out", str(cmp_dir)],
    ["demo-cat", "--orders", "10,20,36", "--out", str(demo)],
]

for argv in steps:
    print("\n$ hydrec " + " ".join(argv))
    status = main(argv)
    assert status == 0, f"exit status {status}"

report = json.loads((cmp_dir / "report_N4.json").read_text())
print("\ncomparison report (order-4 reconstruction vs stored wavefunction):")
for key in ("sup_error", "l2_error", "hermiticity_defect", "diagonal_mismatch"):
    print(f"  {key:20s} {report[key]:.3e}")

print(f"\ndensity grid  {rho / 'rho_N4.bin'}")
print(f"report        {cmp_dir / 'report_N4.json'}")
print(f"all artifacts under {scratch}")
print("dataset manifest keys:",
      ", ".join(sorted(json.loads((ds / 'dataset.json').read_text()))))

"""Seeded workload inputs for the hydrec benchmark (standard library only).

A seed selects one of ``VARIANTS`` fixed perturbations of the nominal state
(``seed % VARIANTS``); variant 0 is the nominal state.  The reconstruction
errors each variant must reproduce are recorded in ``expected.json``, so the
correctness gate is exact to a stated tolerance for every seed.  The program
under test only ever receives the generated flags or arrays.
"""

from __future__ import annotations

import math
import random

VARIANTS = 16
#: Relative half-width of the parameter perturbations.
PERTURBATION = 0.05

CAT_SIGMA = 1.0 / math.sqrt(2.0)
CAT_K0 = 2.0 * math.sqrt(2.0)
COHERENT_CENTER = 0.3
COHERENT_MOMENTUM = 0.8

WORKLOADS = ("cli_pipeline", "reconstruct_large", "oracle_validation")
SIZES = ("full", "smoke")


def variant(seed: int) -> int:
    return seed % VARIANTS


def _factors(seed: int, salt: int) -> tuple[float, float]:
    v = variant(seed)
    if v == 0:
        return 1.0, 1.0
    rng = random.Random(1000 * salt + v)
    return (
        1.0 + rng.uniform(-PERTURBATION, PERTURBATION),
        1.0 + rng.uniform(-PERTURBATION, PERTURBATION),
    )


def cat_params(seed: int) -> dict:
    """Cat-state width and wavenumber, each within +-5% of the defaults."""
    fs, fk = _factors(seed, 1)
    return {"sigma": CAT_SIGMA * fs, "k0": CAT_K0 * fk}


def coherent_params(seed: int) -> dict:
    """Coherent-state displacement and boost, each within +-5% of demos/03."""
    fc, fp = _factors(seed, 2)
    return {"center": COHERENT_CENTER * fc, "momentum": COHERENT_MOMENTUM * fp}


def params(workload: str, seed: int) -> dict:
    if workload == "oracle_validation":
        return coherent_params(seed)
    return cat_params(seed)


# Verb order of one cli_pipeline pass; the first four are the README pipeline.
CLI_VERBS = ("simulate", "reconstruct", "assemble", "compare", "demo_cat")
PIPELINE_VERBS = CLI_VERBS[:4]

_CLI_SIZES = {
    "full": {
        "grid": "-10,10,1024", "times": "0.09,0.005,12", "order": "12", "n_y": "201",
        "demo": [],
    },
    "smoke": {
        "grid": "-10,10,256", "times": "0.09,0.005,4", "order": "4", "n_y": "21",
        "demo": ["--orders", "10,20", "--grid=-6,6,121", "--n-y", "21"],
    },
}


def cli_order(size: str) -> int:
    return int(_CLI_SIZES[size]["order"])


def cli_argvs(seed: int, size: str, workdir: str) -> dict:
    """``hydrec`` argument lists of one cli_pipeline pass, keyed by verb."""
    s = _CLI_SIZES[size]
    p = cat_params(seed)
    ds, mo = f"{workdir}/dataset", f"{workdir}/moments"
    return {
        "simulate": [
            "simulate", "--state", "cat", f"--grid={s['grid']}", "--times", s["times"],
            "--potential", "quartic:c2=0.5,c4=0.1", "--store-psi",
            "--sigma", repr(p["sigma"]), "--k0", repr(p["k0"]), "--out", ds,
        ],
        "reconstruct": ["reconstruct", f"{ds}/dataset.json", "--order", s["order"], "--out", mo],
        "assemble": [
            "assemble", f"{mo}/moments.json", "--y-max", "1.5", "--n-y", s["n_y"],
            "--out", f"{workdir}/rho",
        ],
        "compare": [
            "compare", f"{mo}/moments.json", "--reference", "stored-psi",
            "--dataset", f"{ds}/dataset.json", "--y-max", "1.5", "--n-y", s["n_y"],
            "--region-y", "0.1", "--out", f"{workdir}/comparison",
        ],
        "demo_cat": ["demo-cat", *s["demo"], "--out", f"{workdir}/figure"],
    }

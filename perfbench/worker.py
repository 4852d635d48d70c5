"""In-process side of the hydrec benchmark.

Runs the library workloads (and, for the traced run, the CLI verbs through
``hydrec.cli.main``) in one process, checks every pass, and reports to the
runner as JSON lines on stdout: ``{"event": "ready"}`` once set-up (imports,
inputs and one warm-up pass) is done, then one ``{"event": "result", ...}``.
The runner starts it; ``python3 perfbench/worker.py --record`` instead prints
the reconstruction errors of every input variant for ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hydrec  # noqa: E402
import hydrec.cli as cli  # noqa: E402
from hydrec import assembly, potentials, reconstruction, simulator  # noqa: E402
from hydrec.numerics import PhysicalConstants, SpatialGrid, TimeNodes  # noqa: E402

import inputs  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

if Path(hydrec.__file__).resolve().parent != ROOT / "src" / "hydrec":
    raise ImportError(f"benchmark must run hydrec from {ROOT / 'src'}, got {hydrec.__file__}")

SPEC = json.loads((HERE / "spec.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
EXPECTED_WARNINGS = ("DecayAssumptionWarning", "GridCoverageWarning")
OUT = ROOT / "perfbench" / "out"
C = PhysicalConstants()


def _close(name: str, value: float, want: float, rtol: float) -> tuple[str, bool, str]:
    ok = math.isfinite(value) and abs(value - want) <= rtol * abs(want)
    return name, ok, f"{value!r} vs recorded {want!r} (rtol {rtol:g})"


RECORDING = False


def _recorded(workload: str, seed: int, size: str) -> dict | None:
    """Recorded values for this seed's variant; None at smoke size or while recording."""
    if size != "full" or RECORDING:
        return None
    return EXPECTED[workload][str(inputs.variant(seed))]


# ---------------------------------------------------------------------------
# library workloads: one pass = the stages in order, then the checks
# ---------------------------------------------------------------------------


class _Library:
    stages: tuple[str, ...]

    @property
    def pipeline(self) -> tuple[str, ...]:
        return self.stages

    def run(self, stage: str, s: dict) -> None:
        getattr(self, stage)(s)

    def cleanup(self, s: dict) -> None:
        pass

    def _simulate(self, psi, model, nodes, sub0, sub):
        """Density records and wavefunctions at every node, as the CLI makes them."""
        psi = simulator.propagate(psi, model, C, nodes.t_0 / sub0, sub0)
        records, psis = [simulator.probability_density(psi)], [psi]
        for j in range(nodes.m):
            psi = simulator.propagate(psi, model, C, nodes.dt / sub, sub, t_start=nodes.t_0 + j * nodes.dt)
            records.append(simulator.probability_density(psi))
            psis.append(psi)
        return records, psis


class ReconstructLarge(_Library):
    """Cat state in a Paul trap on 65536 points; the numerical modules dominate."""

    stages = ("simulate", "reconstruct", "assemble", "compare")
    SIZES = {"full": (65536, 13, 12), "smoke": (4096, 5, 4)}

    def __init__(self, seed: int, size: str):
        n, m_plus_1, self.order = self.SIZES[size]
        self.params = inputs.cat_params(seed)
        self.recorded = _recorded("reconstruct_large", seed, size)
        self.grid = SpatialGrid(-20.0, 20.0, n)
        self.nodes = TimeNodes(0.09, 5e-3, m_plus_1)
        self.model = potentials.paul_trap_potential(1.0, 0.5, 6.28)
        # dy = dx: the exact reference needs no interpolation.  Past |y| ~ 0.02
        # the order-12 term carries the recursion's amplified rounding noise,
        # so the error there is not reproducible across summation orders.
        self.y = simulator.offdiagonal_lattice(50 * self.grid.dx, 101)
        self.region = (3.0, 0.02)

    def simulate(self, s):
        psi = simulator.make_cat_state(simulator.CatStateParams(**self.params), self.grid)
        s["records"], s["psis"] = self._simulate(psi, self.model, self.nodes, 90, 8)

    def reconstruct(self, s):
        s["pyramid"] = reconstruction.build_pyramid(
            s["records"], self.grid, self.nodes, self.model, C, order_max=self.order
        )

    def assemble(self, s):
        s["rec"] = assembly.assemble(s["pyramid"].central_slice(), self.y, C.hbar)

    def compare(self, s):
        exact = simulator.exact_density_matrix(s["psis"][self.nodes.central_index], self.y)
        s["report"] = assembly.compare(s["rec"].values, exact, region=self.region, f0=s["rec"].moments[0].field)

    def values(self, s) -> dict:
        return {"sup_error": s["report"].sup_error}

    def check(self, s) -> list:
        r = s["report"]
        scale = float(np.max(np.abs(s["rec"].moments[0].field.values)))
        out = [
            ("exact reference needs no resampling", not r.resampled, f"resampled={r.resampled}"),
            ("diagonal equals f0", r.diagonal_mismatch <= 1e-12 * scale, f"{r.diagonal_mismatch:.3e}"),
            ("Hermitian", r.hermiticity_defect <= 1e-12 * scale, f"{r.hermiticity_defect:.3e}"),
            ("traces agree", abs(r.trace_a - r.trace_b) <= 1e-9 * abs(r.trace_b), f"{r.trace_a!r} / {r.trace_b!r}"),
        ]
        if self.recorded:
            out.append(_close("sup_error", r.sup_error, self.recorded["sup_error"], SPEC["rtol"]["reconstruct_large"]["sup_error"]))
        return out


class OracleValidation(_Library):
    """Coherent state in a harmonic trap, scored against the Wigner oracle (demos/03)."""

    stages = ("simulate", "reconstruct", "oracle", "assemble", "compare")
    SIZES = {"full": (2048, 9, 8), "smoke": (512, 5, 4)}
    OMEGA = 0.5

    def __init__(self, seed: int, size: str):
        n, m_plus_1, self.order = self.SIZES[size]
        self.params = inputs.coherent_params(seed)
        self.recorded = _recorded("oracle_validation", seed, size)
        self.grid = SpatialGrid(-16.0, 16.0, n)
        half = m_plus_1 // 2
        self.nodes = TimeNodes(0.3 - half * 0.04, 0.04, m_plus_1)
        self.model = potentials.harmonic_potential(self.OMEGA)
        self.sigma = math.sqrt(C.hbar / (2.0 * C.mass * self.OMEGA))
        self.y = simulator.offdiagonal_lattice(1.0, 101)
        self.region = (3.0, 1.0)
        reach = math.hypot(self.params["center"], self.params["momentum"] / self.OMEGA)
        self.support = np.abs(self.grid.points) <= reach + 4 * self.sigma

    def simulate(self, s):
        psi = simulator.gaussian_packet(self.grid, self.sigma, **self.params)
        sub = 40
        sub0 = max(8, math.ceil(abs(self.nodes.t_0) / (self.nodes.dt / sub)))
        s["records"], s["psis"] = self._simulate(psi, self.model, self.nodes, sub0, sub)

    def reconstruct(self, s):
        s["pyramid"] = reconstruction.build_pyramid(
            s["records"], self.grid, self.nodes, self.model, C, order_max=self.order
        )

    def oracle(self, s):
        s["exact"] = simulator.exact_density_matrix(s["psis"][self.nodes.central_index])
        wigner = simulator.wigner_transform(s["exact"], C)
        s["oracles"] = simulator.oracle_moment_set(wigner, range(self.order + 1), C)

    def assemble(self, s):
        s["rec"] = assembly.assemble(s["pyramid"].central_slice(), self.y, C.hbar)

    def compare(self, s):
        s["report"] = assembly.compare(s["rec"].values, s["exact"], region=self.region, f0=s["rec"].moments[0].field)

    def _rel_l2(self, s) -> list[float]:
        c = self.nodes.central_index
        out = []
        for n in range(1, self.order + 1):
            ref = s["oracles"][n].values[self.support]
            got = s["pyramid"].levels[n][c][self.support]
            out.append(float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
        return out

    def values(self, s) -> dict:
        rel = self._rel_l2(s)
        return {"sup_error": s["report"].sup_error, "oracle_rel_l2": max(rel), "rel_l2_by_order": rel}

    def check(self, s) -> list:
        r = s["report"]
        rel = self._rel_l2(s)
        tol = SPEC["rtol"]["oracle_validation"]
        ceiling = tol["oracle_ceiling"]
        out = [
            ("native-lattice reference is resampled", r.resampled, f"resampled={r.resampled}"),
            (f"every order within {ceiling} of the oracle", all(0 <= e <= ceiling for e in rel), repr(rel)),
        ]
        if self.recorded:
            out.append(_close("sup_error", r.sup_error, self.recorded["sup_error"], tol["sup_error"]))
            # Higher orders carry amplified rounding noise (see spec.json).
            for n in range(1, tol["reproducible_orders"] + 1):
                want = self.recorded["rel_l2_by_order"][n - 1]
                out.append(_close(f"order-{n} error vs oracle", rel[n - 1], want, tol["low_orders"]))
        return out


# ---------------------------------------------------------------------------
# CLI workload: argument lists from inputs.py, checks shared with the runner
# ---------------------------------------------------------------------------


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_cli_pass(workdir: Path, seed: int, size: str) -> tuple[list, dict]:
    """Checks and result values of one finished cli_pipeline pass in ``workdir``."""
    recorded = _recorded("cli_pipeline", seed, size)
    order = inputs.cli_order(size)
    out, values = [], {}

    def attempt(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a check that raises has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((name, bool(ok), detail))

    def dataset():
        d = cli.read_dataset(workdir / "dataset" / "dataset.json")
        return d["records"].shape == (d["nodes"].m_plus_1, d["grid"].n_points) and "psis" in d, "re-read"

    def moments():
        m = cli.read_moment_set(workdir / "moments" / "moments.json")
        return len(m["moments"]) == order + 1, f"{len(m['moments'])} orders"

    def density_grid():
        meta = json.loads((workdir / "rho" / f"rho_N{order}.json").read_text())
        n = meta["grid"]["n_points"] * meta["y"]["n_points"] * 16
        size_ok = (workdir / "rho" / meta["data_path"]).stat().st_size == n
        return size_ok and (workdir / "rho" / f"rho_N{order}.dat").exists(), "payload size"

    def report():
        r = json.loads((workdir / "comparison" / f"report_N{order}.json").read_text())
        values["sup_error"] = r["sup_error"]
        ok = not r["resampled"] and r["diagonal_mismatch"] == 0.0 and r["hermiticity_defect"] <= 1e-12
        if recorded:
            _, close, detail = _close("sup_error", r["sup_error"], recorded["sup_error"], SPEC["rtol"]["cli_pipeline"]["sup_error"])
            return ok and close, detail
        return ok, f"sup_error {r['sup_error']!r}"

    def demo_table():
        summary = json.loads((workdir / "figure" / "demo_summary.json").read_text())
        rows = summary["orders"]
        errs = [row["sup_error_real"] for row in rows]
        values["demo_sup_error_N36"] = errs[-1]
        ok = all(a > b for a, b in zip(errs, errs[1:]))
        if size == "full":
            want = SPEC["demo_table"]
            ok = ok and [row["order"] for row in rows] == [int(k) for k in want]
            ok = ok and all(abs(e - w) <= SPEC["rtol"]["cli_pipeline"]["demo_table"] * w for e, w in zip(errs, want.values()))
        return ok, repr(errs)

    attempt("dataset re-reads with verified checksum", dataset)
    attempt("moment set re-reads with verified checksum", moments)
    attempt("density grid written", density_grid)
    attempt("compare report", report)
    attempt("demo table", demo_table)
    return out, values


class CliInProcess:
    """The cli_pipeline pass through ``hydrec.cli.main(argv)``, for the traced run."""

    stages = inputs.CLI_VERBS
    pipeline = inputs.PIPELINE_VERBS

    def __init__(self, seed: int, size: str):
        self.seed, self.size = seed, size
        self.params = inputs.cat_params(seed)

    def run(self, verb: str, s: dict) -> None:
        if "workdir" not in s:
            s["workdir"] = OUT / f"work-{os.getpid()}-{time.monotonic_ns()}"
        rc = cli.main(inputs.cli_argvs(self.seed, self.size, str(s["workdir"]))[verb])
        if rc != 0:
            raise RuntimeError(f"hydrec {verb} exited {rc}")

    def values(self, s) -> dict:
        return {"output_mb": dir_bytes(s["workdir"]) / 1e6}

    def check(self, s) -> list:
        return check_cli_pass(s["workdir"], self.seed, self.size)[0]

    def cleanup(self, s):
        if "workdir" in s:
            shutil.rmtree(s["workdir"], ignore_errors=True)


WORKLOADS = {"reconstruct_large": ReconstructLarge, "oracle_validation": OracleValidation, "cli_pipeline": CliInProcess}


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------


def pass_record(stages, pipeline, times: dict, errors: list, warns: dict, check) -> dict:
    """Bookkeeping of one pass: its stages count as operations, then, if they
    all ran, each check from ``check() -> (checks, values)`` does too."""
    record = {
        "stages": times,
        "pipeline_s": sum(times.get(s, 0.0) for s in pipeline),
        "values": {},
        "warnings": warns,
        "attempted": len(stages),
        "failed": len(stages) - len(times),
        "errors": list(errors),
    }
    checks = None
    if not errors:
        try:
            checks, record["values"] = check()
        except Exception as exc:  # noqa: BLE001 - a check that raises has failed
            record["errors"].append(f"checks raised {type(exc).__name__}: {exc}")
    if checks is None:  # unchecked output counts as one failed check
        record["attempted"] += 1
        record["failed"] += 1
        return record
    unexpected = {k: v for k, v in warns.items() if k not in EXPECTED_WARNINGS}
    checks.append(("only expected warnings", not unexpected, repr(unexpected)))
    record["attempted"] += len(checks)
    record["failed"] += sum(1 for _, ok, _ in checks if not ok)
    record["errors"] += [f"check {name}: {detail}" for name, ok, detail in checks if not ok]
    return record


def run_pass(wl, tracer: Tracer | None = None, pass_id: int = 0) -> dict:
    """One pass: timed stages (traced if a tracer is given), then the checks."""
    state, times, errors = {}, {}, []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.pass_id = pass_id
            tracer.install()
        try:
            for stage in wl.stages:
                t = time.perf_counter()
                try:
                    wl.run(stage, state)
                except Exception as exc:  # noqa: BLE001 - a failed stage fails the pass
                    errors.append(f"{stage}: {type(exc).__name__}: {exc}")
                    break
                times[stage] = time.perf_counter() - t
        finally:
            if tracer is not None:
                tracer.uninstall()
    warns = dict(Counter(w.category.__name__ for w in caught))
    try:
        return pass_record(wl.stages, wl.pipeline, times, errors, warns, lambda: (wl.check(state), wl.values(state)))
    finally:
        wl.cleanup(state)


def measure(wl, budget: float, trace: bool, spans_path: str | None) -> dict:
    passes, layers = [], []
    tracer = Tracer() if trace else None
    start, last, i = time.perf_counter(), 0.0, 0
    # Start a pass while it would end less than half a pass past the budget.
    # Traced runs alternate untraced and traced passes, at least one of each,
    # so that the tracing overhead is measured on the same process state.
    while time.perf_counter() - start + 0.5 * last < budget or (trace and i < 2):
        traced = trace and i % 2 == 1
        t = time.perf_counter()
        p = run_pass(wl, tracer if traced else None, pass_id=i)
        last = time.perf_counter() - t
        p["traced"] = traced
        if traced:
            layer = layer_metrics([s for s in tracer.spans if s.pass_id == i])
            layer["numerics.decay_warnings"] = p["warnings"].get("DecayAssumptionWarning", 0)
            layer["cli.output_mb"] = p["values"].get("output_mb", 0.0)
            layers.append(layer)
        passes.append(p)
        i += 1
    if tracer is not None and spans_path:
        Path(spans_path).write_text(json.dumps({"missing": tracer.missing, "spans": tracer.dump()}))
    return {"passes": passes, "layers": layers}


# ---------------------------------------------------------------------------
# recording the reference values
# ---------------------------------------------------------------------------


def record() -> dict:
    """Reconstruction errors of every variant, from the current program."""
    global RECORDING
    RECORDING = True
    out = {}
    for name in ("reconstruct_large", "oracle_validation"):
        out[name] = {}
        for v in range(inputs.VARIANTS):
            p = run_pass(WORKLOADS[name](v, "full"))
            if p["failed"]:
                raise SystemExit(f"{name} variant {v}: {p['errors']}")
            out[name][str(v)] = p["values"]
    out["cli_pipeline"] = {}
    for v in range(inputs.VARIANTS):
        workdir = OUT / f"record-{os.getpid()}"
        argvs = inputs.cli_argvs(v, "full", str(workdir))
        for verb in ("simulate", "reconstruct", "compare"):
            if cli.main(argvs[verb]) != 0:
                raise SystemExit(f"cli_pipeline variant {v}: {verb} failed")
        report = json.loads((workdir / "comparison" / f"report_N{inputs.cli_order('full')}.json").read_text())
        out["cli_pipeline"][str(v)] = {"sup_error": report["sup_error"]}
        shutil.rmtree(workdir)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=inputs.SIZES, default="full")
    p.add_argument("--budget", type=float, default=10.0, help="seconds of timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="file for the traced spans")
    p.add_argument("--record", action="store_true", help="print expected.json contents and exit")
    args = p.parse_args(argv)

    proto = sys.stdout
    sys.stdout = open(os.devnull, "w")  # the CLI prints artifact paths
    OUT.mkdir(parents=True, exist_ok=True)
    if args.record:
        print(json.dumps(record(), indent=1, sort_keys=True), file=proto)
        return 0
    if args.workload is None:
        p.error("--workload is required")

    wl = WORKLOADS[args.workload](args.seed, args.size)
    warm = run_pass(wl)
    print(json.dumps({"event": "ready"}), file=proto, flush=True)
    result = measure(wl, args.budget, bool(args.trace), args.spans)
    result["warmup"] = warm
    result["event"] = "result"
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

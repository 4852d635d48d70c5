#!/usr/bin/env python3
"""hydrec benchmark: run one workload, check its outputs, print every metric.

    python3 perfbench/run.py --workload cli_pipeline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  Workloads and metrics are listed in
BENCHMARK.json; ``perfbench/README.md`` explains them.  With ``--trace 0`` the
run is untraced and reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics from spans recorded at the module boundaries.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(per-pass samples, quartiles, checks, environment) is appended to
``perfbench/out/results.jsonl`` or to ``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from stats import summary  # noqa: E402

OUT = HERE / "out"
SPEC = json.loads((HERE / "spec.json").read_text())
#: Thread-count settings the benchmark removes from every process it starts,
#: so that library defaults (demo-cat's pool, BLAS) are what gets measured.
SCRUBBED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "HYDREC_THREADS")
#: Set-up is measured once per process; the library workloads split their
#: timed passes over this many worker processes and report the median set-up.
SETUPS = 3
IMPORT_PAIRS = 3
#: Hard limit on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
T0 = time.monotonic()


class RunFailure(Exception):
    """The run could not measure anything (not a failed check)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def remaining() -> float:
    return RUN_LIMIT_S - (time.monotonic() - T0)


def timed(cmd: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=max(remaining(), 1.0),
    )
    return time.perf_counter() - t, proc


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest resident set of any waited-for child
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu() -> dict:
    info = {"model": None, "caches": []}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            info["caches"].append(f"L{level} {kind} {size}")
    except OSError:
        pass
    return info


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
        "variant": inputs.variant(seed),
        "thread_settings_inherited": {k: os.environ.get(k) for k in SCRUBBED},
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the messages of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.warnings: Counter = Counter()

    def add_pass(self, p: dict) -> None:
        self.attempted += p["attempted"]
        self.failed += p["failed"]
        self.errors += p["errors"]
        self.warnings.update(p["warnings"])

    def op(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


def probe_setup(env: dict, tally: Tally, code: str) -> float:
    seconds, proc = timed([sys.executable, "-c", code], env)
    tally.op(proc.returncode == 0, f"python -c {code!r} exited {proc.returncode}: {proc.stderr[-500:]}")
    return seconds


def cli_pass(seed: int, size: str, env: dict) -> dict:
    """One cli_pipeline pass, each verb in its own interpreter, then its checks."""
    import worker  # imports hydrec: only the checks run in this process

    workdir = OUT / f"work-{os.getpid()}-{time.monotonic_ns()}"
    argvs = inputs.cli_argvs(seed, size, str(workdir))
    times, errors, warns = {}, [], Counter()
    try:
        for verb in inputs.CLI_VERBS:
            seconds, proc = timed([sys.executable, "-m", "hydrec.cli", *argvs[verb]], env)
            warns.update(re.findall(r": (\w+Warning): ", proc.stderr))
            if proc.returncode != 0:
                errors.append(f"hydrec {verb} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
                break
            times[verb] = seconds

        def check():
            checks, values = worker.check_cli_pass(workdir, seed, size)
            values["output_mb"] = worker.dir_bytes(workdir) / 1e6
            return checks, values

        return worker.pass_record(inputs.CLI_VERBS, inputs.PIPELINE_VERBS, times, errors, dict(warns), check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def spawn_worker(args, budget: float, trace: int, env: dict, spans: Path | None = None) -> tuple[float, dict]:
    """Start a worker; returns (set-up seconds from spawn to ready, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--budget", repr(budget), "--trace", str(trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(remaining(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    lines = [ready, *rest.splitlines()]
    events = [json.loads(line) for line in lines if line.startswith("{")]
    if proc.returncode != 0 or [e["event"] for e in events] != ["ready", "result"]:
        raise RunFailure(f"worker exited {proc.returncode} (see stderr)")
    return setup, events[1]


def _stage_samples(passes: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        if p["failed"]:
            continue
        samples.setdefault("pipeline_s", []).append(p["pipeline_s"])
        for stage, seconds in p["stages"].items():
            # a stage's metric is "<stage>_s"; demo_cat_s and oracle_s exist
            # on one workload each, so they go to the result file only
            samples.setdefault(f"{stage}_s", []).append(seconds)
        for name, value in p["values"].items():
            if isinstance(value, (int, float)):
                samples.setdefault(name, []).append(value)
    return samples


def measure_untraced(args, env: dict, tally: Tally) -> dict[str, list[float]]:
    """Samples of every end-to-end metric (and of the result-file extras)."""
    if args.workload == "cli_pipeline":
        # A verb's set-up is its interpreter start and `import hydrec.cli`.
        setups = [probe_setup(env, tally, "import hydrec.cli") for _ in range(SETUPS)]
        passes, start, last = [], time.perf_counter(), 0.0
        # Start a pass while it would end less than half a pass past the budget.
        while time.perf_counter() - start + 0.5 * last < args.seconds and remaining() > 0:
            t = time.perf_counter()
            passes.append(cli_pass(args.seed, args.size, env))
            last = time.perf_counter() - t
    else:
        setups, passes = [], []
        for _ in range(SETUPS):
            setup, result = spawn_worker(args, args.seconds / SETUPS, 0, env)
            setups.append(setup)
            tally.add_pass(result["warmup"])
            passes += result["passes"]
    for p in passes:
        tally.add_pass(p)
    samples = _stage_samples(passes)
    samples["setup_s"] = setups
    samples["peak_rss_mb"] = [peak_rss_mb()]
    return samples


def measure_traced(args, env: dict, tally: Tally) -> dict[str, list[float]]:
    """Samples of every per-layer metric, from one traced worker."""
    bare, loaded = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(probe_setup(env, tally, "pass"))
        loaded.append(probe_setup(env, tally, "import hydrec"))
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    _, result = spawn_worker(args, args.seconds, 1, env, spans)
    tally.add_pass(result["warmup"])
    for p in result["passes"]:
        tally.add_pass(p)
    samples: dict[str, list[float]] = {}
    for layer in result["layers"]:
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)
    ok = [p for p in result["passes"] if not p["failed"]]
    traced = [p["pipeline_s"] for p in ok if p["traced"]]
    untraced = [p["pipeline_s"] for p in ok if not p["traced"]]
    if traced and untraced:
        samples["trace_overhead_s"] = [summary(traced)["median"] - summary(untraced)["median"]]
        samples["pipeline_traced_s"], samples["pipeline_untraced_s"] = traced, untraced
    samples["import.hydrec_s"] = [summary(loaded)["median"] - summary(bare)["median"]]
    return samples


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args) -> int:
    bench = load_benchmark()
    declared = bench["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    tally = Tally()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "size": args.size, "params": inputs.params(args.workload, args.seed),
        "env": environment(args.seed), "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        samples = (measure_traced if args.trace else measure_untraced)(args, env, tally)
    except Exception as exc:  # noqa: BLE001 - report the failure in the result line
        tally.op(False, f"run aborted: {type(exc).__name__}: {exc}")
        samples = {}

    units = {m["name"]: m["unit"] for m in declared}
    metrics, extras = {}, {}
    for name, values in samples.items():
        stats = summary(values)
        entry = {"value": stats["median"], **stats, "samples": values}
        if name in units:
            metrics[name] = {"unit": units[name], **entry}
        else:
            extras[name] = entry
    missing = [n for n in units if n not in metrics]
    tally.op(not missing, f"metrics not measured: {missing}")
    correct = tally.failed == 0

    record.update(
        correct=correct, attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
        warnings=dict(tally.warnings), metrics=metrics, extras=extras,
    )
    results = Path(args.results) if args.results else OUT / "results.jsonl"
    with open(results, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for message in tally.errors:
        print(f"FAILED {message}")
    for name in units:
        m = metrics.get(name)
        if m:
            print(f"{name:44s} {m['value']:.6g} {m['unit']}  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    for name, m in sorted(extras.items()):
        print(f"{name:44s} {m['value']:.6g}  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}] (result file only)")
    print(f"ops_failed {tally.failed}/{tally.attempted}; warnings {dict(tally.warnings)}")
    line = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


def smoke() -> int:
    """Run every workload at reduced size, traced and untraced, and check that
    each declared metric is emitted with its declared unit."""
    bench = load_benchmark()
    problems = []
    targets = set(SPEC["per_layer_targets"])
    declared_layers = {m["name"] for m in bench["per_layer"]}
    if targets != declared_layers:
        problems.append(f"spec.json per_layer_targets differ from BENCHMARK.json: {sorted(targets ^ declared_layers)}")
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "0",
                "--seconds", "1", "--trace", str(trace), "--size", "smoke",
                "--results", str(OUT / "smoke.jsonl"),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S)
            tag = f"{w['name']} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{tag}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            got = {n: m.get("unit") for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"] or proc.returncode != 0:
                problems.append(f"{tag}: not correct: {proc.stdout.strip().splitlines()[:-1]}")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} ops, {result['failed']} failed")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hydrec benchmark runner")
    p.add_argument("--workload", choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=SPEC["default_seed"])
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=inputs.SIZES, default="full", help="smoke: reduced inputs")
    p.add_argument("--results", default=None, help="JSON-lines file the run record is appended to")
    p.add_argument("--smoke", action="store_true", help="check every workload emits every metric")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hydrec" / "__init__.py").is_file():
        print(f"run.py: no hydrec sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())

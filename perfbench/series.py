#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/series.py --workload reconstruct_large --seeds 1-10
    python3 perfbench/series.py --workload cli_pipeline --seeds 1-10 \\
        --checkout PARENT_DIR --checkout CHANGE_DIR

Each run appends its record to ``<results-dir>/<label>.jsonl``.  For every
end-to-end metric the spread is the interquartile distance of the runs'
values as a share of their median, next to the metric's bound.  With two
checkouts the sides alternate which runs first for each seed, and the row-by-
row diff of the two result files is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import diff  # noqa: E402
from stats import spread, summary  # noqa: E402


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="run one workload over several seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--checkout", action="append", default=None, help="repository checkout (at most two)")
    p.add_argument("--results-dir", default=None)
    args = p.parse_args(argv)

    checkouts = [Path(c).resolve() for c in (args.checkout or [HERE.parent])]
    if len(checkouts) > 2:
        p.error("at most two checkouts")
    bench = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    out_dir = Path(args.results_dir or HERE / "out" / f"series-{time.strftime('%Y%m%d-%H%M%S')}").resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = ["parent", "change"] if len(checkouts) == 2 else ["runs"]

    for i, seed in enumerate(seeds(args.seeds)):
        order = list(range(len(checkouts)))
        if i % 2:
            order.reverse()
        for k in order:
            cmd = [
                sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(args.trace),
                "--results", str(out_dir / f"{labels[k]}.jsonl"),
            ]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=checkouts[k], capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{labels[k]} seed {seed}: exit {proc.returncode} in {time.perf_counter() - t:.1f} s: {last[:160]}", flush=True)

    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    for label in labels:
        runs = [json.loads(line) for line in (out_dir / f"{label}.jsonl").read_text().splitlines()]
        runs = [r for r in runs if r["workload"] == args.workload and r["trace"] == args.trace]
        print(f"\n{label}: {len(runs)} runs, {sum(r['failed'] for r in runs)} failed ops")
        for name, meta in declared.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            s, bound = summary(values), meta.get("bound")
            flag = "" if bound is None else ("ok" if spread(values) < bound / 3 else "WIDE")
            print(
                f"  {name:44s} median {s['median']:.6g} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] "
                f"n={s['n']} spread {spread(values):.3f}" + ("" if bound is None else f" bound {bound} {flag}")
            )
    if len(labels) == 2:
        print()
        print("\n".join(diff.rows(str(out_dir / "parent.jsonl"), str(out_dir / "change.jsonl"), bench)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

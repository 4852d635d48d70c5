#!/usr/bin/env python3
"""Row-by-row comparison of two benchmark result files.

    python3 perfbench/diff.py PARENT.jsonl CHANGE.jsonl

Each file holds run records appended by ``run.py`` (one JSON object per
line).  Runs are grouped by (workload, trace); the i-th parent run is paired
with the i-th change run in seed order.  One row is printed per (workload,
metric) with each side's median, quartiles and run count, the pairs the
change won, and a verdict:

* ``improved``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound (per-layer metrics have none: the mirror of ``improved``);
* ``unresolved``: the parent's own spread is wider than the bound, unless
  every change run is better than every parent run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import summary  # noqa: E402


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    groups = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            groups[(r["workload"], r["trace"])].append(r)
    for runs in groups.values():
        runs.sort(key=lambda r: (r["seed"], r["started"]))
    return groups


def verdict(parent: list[float], change: list[float], lower_better: bool, bound: float | None) -> tuple[str, int, int]:
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    ps, cs = summary(parent), summary(change)
    iqr = ps["q3"] - ps["q1"]
    gain = sign * (ps["median"] - cs["median"])  # > 0: change is better
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", wins, len(pairs)
    if bound is None:
        worse = pairs and losses >= 0.9 * len(pairs) and -gain > iqr
        return ("worse" if worse else "unchanged"), wins, len(pairs)
    base = abs(ps["median"]) or 1.0
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    every_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if iqr / base > bound and not every_better:
        return ("worse" if every_worse and -gain / base > bound else "unresolved"), wins, len(pairs)
    if -gain / base > bound:
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def rows(parent_path: str, change_path: str, bench: dict) -> list[str]:
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    out = [
        f"{'workload':18s} {'tr':>2s} {'metric':44s} {'unit':5s} "
        f"{'parent median [q1, q3] n':>36s} {'change median [q1, q3] n':>36s} {'delta':>8s} {'won':>6s}  verdict"
    ]
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        names = []
        for r in p_runs + c_runs:
            names += [n for n in [*r["metrics"], *r.get("extras", {})] if n not in names]
        for name in names:
            pv = [r["metrics"].get(name, r.get("extras", {}).get(name, {})).get("value") for r in p_runs]
            cv = [r["metrics"].get(name, r.get("extras", {}).get(name, {})).get("value") for r in c_runs]
            pv, cv = [v for v in pv if v is not None], [v for v in cv if v is not None]
            if not pv or not cv:
                continue
            meta = declared.get(name, {})
            unit = meta.get("unit") or p_runs[0]["metrics"].get(name, {}).get("unit", "")
            v, won, n = verdict(pv, cv, meta.get("better", "lower") == "lower", meta.get("bound"))
            ps, cs = summary(pv), summary(cv)
            delta = (cs["median"] - ps["median"]) / abs(ps["median"]) if ps["median"] else float("nan")
            out.append(
                f"{key[0]:18s} {key[1]:>2d} {name:44s} {unit:5s} "
                f"{ps['median']:>11.5g} [{ps['q1']:.4g}, {ps['q3']:.4g}] {ps['n']:>2d} "
                f"{cs['median']:>11.5g} [{cs['q1']:.4g}, {cs['q3']:.4g}] {cs['n']:>2d} "
                f"{delta:>+8.1%} {won:>2d}/{n:<3d}  {v}{'' if name in declared else ' (result file only)'}"
            )
        for label, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            out.append(f"{key[0]:18s} {key[1]:>2d} ops_failed ({label}) {failed}/{attempted}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two benchmark result files row by row")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = p.parse_args(argv)
    bench = json.loads(Path(args.benchmark).read_text())
    print("\n".join(rows(args.parent, args.change, bench)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

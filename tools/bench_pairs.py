"""Paired benchmark runs of two checkouts, written as a BENCH_<n>.json record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \\
        --pairs N --out BENCH_<n>.json [--parent-name NAME] [--change-name NAME]

DIR is a source checkout (``git archive`` output will do). Each checkout's
own ``perfbench/run.py`` runs with ``--trace 0`` for the ``run_seconds``
of the change's ``BENCHMARK.json``, one process at a time: pair i runs both
sides on seed i, the parent first in even pairs and the change first in odd
ones, so that a slow spell of the host lands on both sides alike.

For every end-to-end metric that ``BENCHMARK.json`` declares, the record
holds each side's median and quartiles, the change's relative difference,
the pairs each side won (ties count for neither) and whether the change
meets the gain rule: it wins at least nine tenths of all pairs run, fails
no more runs than the parent, and its median is better than the parent's
by more than the parent's interquartile range. Every run's values are kept
too. A run that fails, or whose checks fail, is counted; its pair is left
out of the medians and quartiles and counts as won by neither side.
Workloads already in the output file are kept, so one file gathers several
invocations.

Standard library only, like ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One ``perfbench/run.py`` run in ``root``: metric name -> value, or
    None when it failed or its checks did."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], failed: dict, declared: list[dict]) -> dict:
    """Per-metric statistics over the pairs in which both sides ran; the
    gain rule counts every pair run, and refuses a change that fails more
    runs than the parent."""
    pairs = [r for r in runs if all(r[side] is not None for side in SIDES)]
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r[side][name] for r in pairs] for side in SIDES}
        if len(pairs) < 2:
            out[name] = {"unit": metric["unit"], "pairs": len(pairs)}
            continue
        stats = {side: quartiles(values[side]) for side in SIDES}
        sign = -1 if lower else 1
        won = {side: sum(sign * (r[side][name] - r[other][name]) > 0 for r in pairs)
               for side, other in zip(SIDES, reversed(SIDES))}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gain = sign * (change - parent)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": stats["parent"], "change": stats["change"],
            "change_vs_parent": (change - parent) / parent if parent else None,
            "change_won": won["change"], "parent_won": won["parent"],
            "pairs": len(pairs),
            "gain_rule_met": (won["change"] >= 0.9 * len(runs)
                              and failed["change"] <= failed["parent"]
                              and gain > stats["parent"]["q3"] - stats["parent"]["q1"]),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paired benchmark runs of two checkouts")
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent-name", default="parent")
    ap.add_argument("--change-name", default="change")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    roots = {"parent": args.parent, "change": args.change}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"--{side} {root} has no perfbench/run.py")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs = []
    for seed in range(args.pairs):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(roots[side], args.workload, seed, seconds)
        runs.append(run)
        print(json.dumps(run), file=sys.stderr, flush=True)

    failed = {side: sum(r[side] is None for r in runs) for side in SIDES}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({"parent": args.parent_name, "change": args.change_name,
                   "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                            "python": platform.python_version()}})
    record.setdefault("workloads", {})[args.workload] = {
        "seconds": seconds,
        "pairs_run": len(runs),
        "failed_runs": failed,
        "metrics": summarize(runs, failed, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

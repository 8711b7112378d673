"""Harness self-test: a short mode of every workload, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run exits 0 with a correct result, that every metric
named in BENCHMARK.json is printed with its unit (end-to-end metrics
untraced, per-layer metrics traced), and that the attempted and failed
counts add up to the operations the run reports. Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             + proc.stdout[-2000:])
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload: str, trace: int, spec: dict) -> list[str]:
    summary, result = run(workload, trace)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"not correct: {summary.get('failed_checks')}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int)):
        errors.append("attempted/failed are not whole numbers")
    elif attempted < 1 or not 0 <= failed <= attempted:
        errors.append(f"attempted {attempted}, failed {failed}")
    elif attempted != sum(summary["ops"].values()):
        errors.append(f"attempted {attempted} != sum of ops {summary['ops']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    printed = result.get("metrics", {})
    if set(printed) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} - set(printed)
        extra = set(printed) - {m["name"] for m in wanted}
        errors.append(f"metrics missing {sorted(missing)}, extra {sorted(extra)}")
    for m in wanted:
        got = printed.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{m['name']}: end-to-end value {value} is not positive")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check(w["name"], trace, spec)
            print(f"{w['name']:<20} trace={trace}  {'ok' if not found else 'FAIL'}",
                  flush=True)
            errors += found
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

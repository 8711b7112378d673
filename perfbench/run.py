"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The library is imported from
``src/``; nothing is installed. Inputs are generated from the seed into
``.perfbench/work/`` and removed afterwards; the last result of each
workload (and the traced run's spans) is kept in ``.perfbench/results/``.

With ``--trace 0`` one process runs as many whole rounds of the workload
as fit in S seconds and the end-to-end metrics are printed. With
``--trace 1`` one untraced round and one traced round run in two fresh
processes; the traced one times every layer from outside, and the two
must produce bitwise-equal histories and checkpoints. The last line of
standard output is the JSON result.

This file uses the standard library only, so that the measuring processes
start from a clean slate and their peak memory is their own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lora-tiny-aug", "full-tiny-plain", "lora-base-xdomain")
DEADLINE_S = 170.0
# One BLAS thread: on a shared 2-CPU host, two threads make every GEMM wait
# for the slower CPU, and run-to-run spread doubles on the tiny workloads.
BLAS_THREADS = 1
UNITS = {"setup_s": "s", "train_img_per_s": "img/s", "step_ms_p50": "ms",
         "eval_img_per_s": "img/s", "peak_rss_mb": "MB", "wall_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def call(args: list[str], deadline: float) -> str:
    """Run workload.py with ``args``; returns its stdout, raises on failure."""
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload.py {args[0]} exited with {proc.returncode}")
    return proc.stdout


def measure(common: list[str], deadline: float, *extra: str) -> dict:
    return json.loads(call(["measure", *common, *extra], deadline).splitlines()[-1])


def ops_counts(results: list[dict]) -> tuple[int, dict]:
    ops: dict[str, int] = {}
    for r in results:
        for k, v in r["ops"].items():
            ops[k] = ops.get(k, 0) + v
    return sum(ops.values()), ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="convlora benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="a few-second version of the workload (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "convlora" / "__init__.py").is_file():
        print(f"error: no convlora sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work)] + (["--short"] if args.short else [])
    try:
        call(["prepare", *common], deadline)
        if args.trace:
            plain = measure(common, deadline, "--rounds", "1")
            traced = measure(common, deadline, "--rounds", "1", "--trace")
            shutil.copy(work / "spans.tsv", results_dir / f"{args.workload}.spans.tsv")
            runs = [plain, traced]
        else:
            runs = [measure(common, deadline, "--seconds", str(args.seconds))]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [c for r in runs for c in r["failed_checks"]]
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (traced["detail"]["wall_s_per_round"][0]
                                      - plain["detail"]["wall_s_per_round"][0])
        if traced["fingerprint"] != plain["fingerprint"]:
            problems.append("traced history or checkpoints differ from untraced")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
        print("self time by span (s):")
        for name, own in list(traced["self_times"].items())[:30]:
            print(f"  {own:10.4f}  {name}")
    else:
        metrics = {name: {"value": runs[0]["metrics"][name], "unit": unit}
                   for name, unit in UNITS.items()}
    attempted, ops = ops_counts(runs)
    summary = {"workload": args.workload, "seed": args.seed, "ops": ops,
               "checks_run": sum(r["checks_run"] for r in runs),
               "failed_checks": problems, **runs[-1]["detail"]}
    print(json.dumps(summary))
    result = {"correct": not problems, "attempted": attempted, "failed": 0,
              "metrics": metrics}
    (results_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

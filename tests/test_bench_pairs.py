"""tools/bench_pairs.py on two stand-in checkouts whose perfbench/run.py
prints made-up metrics."""

import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# setup_s is 1 + seed / 100 at the parent and half that at the change;
# peak_rss_mb is 50 on both sides; the change fails on seed 2 of workload w1
RUN_PY = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open({log!r}, "a") as log:
    log.write(f"{side} {{seed}} {{args['--seconds']}}\\n")
if {side!r} == "change" and seed == 2 and args["--workload"] == "w1":
    sys.exit(1)
setup = (1 + seed / 100) * (0.5 if {side!r} == "change" else 1.0)
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
    "setup_s": {{"value": setup, "unit": "s"}},
    "peak_rss_mb": {{"value": 50.0, "unit": "MB"}}}}}}))
"""
BENCHMARK = {"run_seconds": 7, "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]}


@pytest.fixture
def checkouts(tmp_path):
    log = tmp_path / "runs.log"
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            RUN_PY.format(log=str(log), side=side))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return tmp_path, log


def test_alternates_the_first_side_and_summarizes_complete_pairs(checkouts):
    root, log = checkouts
    out = root / "BENCH.json"
    argv = ["--parent", str(root / "parent"), "--change", str(root / "change"),
            "--pairs", "5", "--out", str(out), "--change-name", "abc"]
    assert bench_pairs.main([*argv, "--workload", "w1"]) == 0
    assert log.read_text().splitlines() == [
        "parent 0 7", "change 0 7", "change 1 7", "parent 1 7", "parent 2 7",
        "change 2 7", "change 3 7", "parent 3 7", "parent 4 7", "change 4 7"]
    assert bench_pairs.main([*argv, "--workload", "w2"]) == 0

    record = json.loads(out.read_text())
    assert record["parent"] == "parent" and record["change"] == "abc"
    assert sorted(record["workloads"]) == ["w1", "w2"]
    w1 = record["workloads"]["w1"]
    assert w1["pairs_run"] == 5 and w1["failed_runs"] == {"parent": 0, "change": 1}
    setup, rss = w1["metrics"]["setup_s"], w1["metrics"]["peak_rss_mb"]
    # seeds 0, 1, 3 and 4: the parent's median is 1.02
    assert setup["pairs"] == 4 and setup["change_won"] == 4 and setup["parent_won"] == 0
    assert setup["parent"]["median"] == pytest.approx(1.02)
    assert setup["change_vs_parent"] == pytest.approx(-0.5)
    # 4 wins of the 5 pairs run, and one failure more than the parent
    assert setup["gain_rule_met"] is False
    assert rss["change_won"] == rss["parent_won"] == 0 and rss["gain_rule_met"] is False
    w2 = record["workloads"]["w2"]
    assert w2["seconds"] == 7 and [r["seed"] for r in w2["runs"]] == list(range(5))
    assert w2["failed_runs"] == {"parent": 0, "change": 0}
    setup = w2["metrics"]["setup_s"]
    assert setup["pairs"] == 5 and setup["change_won"] == 5
    assert setup["gain_rule_met"] is True

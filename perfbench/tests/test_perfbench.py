"""Self-tests of the benchmark harness.

Run from the repository root (about five minutes):

    python3 -m pytest perfbench/tests -q

Traced counts must repeat exactly for one seed, a held-out seed must run
clean with the same metric names, BENCHMARK.json must list exactly what the
harness prints, and a directory without the program must fail fast.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TIME_UNITS = {"s", "1/s"}
SEED, HELD_OUT_SEED = 7, 90210

sys.path.insert(0, str(BENCH_DIR))
import run as harness  # noqa: E402


def bench(workload, seed, trace, seconds=1, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert WORKLOADS == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(harness.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_held_out_seed_runs_clean(workload):
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    first, second = (result(bench(workload, SEED, 1)) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == names
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] not in TIME_UNITS}
    again = {k: v["value"] for k, v in second["metrics"].items()
             if v["unit"] not in TIME_UNITS}
    assert counts == again
    assert counts["trace.spans"] > 0

    held_out = result(bench(workload, HELD_OUT_SEED, 1))
    assert held_out["correct"] and held_out["failed"] == 0
    assert set(held_out["metrics"]) == names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res = result(bench(workload, HELD_OUT_SEED, 0))
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= harness.MIN_ITEMS
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_directory_without_program_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke tests: the experiment scripts and the benchmark run end to end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wsikv.workload import BENCH_CSV_HEADER, CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_contention_sweep_emits_one_row_per_run():
    out = run_script("contention_sweep.py", "--txns", "200", "--seeds", "1", "--clients", "2")
    assert out[0] == CSV_HEADER + ",seed"
    assert len(out) == 1 + 3 * 2  # three distributions x two policies x one seed
    assert all(len(row.split(",")) == len(out[0].split(",")) for row in out[1:])


def test_oracle_saturation_emits_one_row_per_client_count_and_policy():
    out = run_script("oracle_saturation.py", "--requests", "200", "--max-clients", "2")
    assert out[0] == BENCH_CSV_HEADER
    assert [row.split(",")[:2] for row in out[1:]] == [
        ["si", "1"], ["wsi", "1"], ["si", "2"], ["wsi", "2"],
    ]


@pytest.mark.slow
def test_benchmark_runs_traced_and_reports_every_declared_metric(tmp_path):
    # The traced benchmark wraps store and oracle methods by name, so a
    # renamed or removed method shows up here rather than in a benchmark run.
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert len(results) == len(declared["workloads"])
    for result in results:
        assert result["correct"] is True
        missing = {m["name"] for m in declared["per_layer"]} - set(result["metrics"])
        assert not missing

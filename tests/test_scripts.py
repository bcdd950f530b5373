"""Smoke tests: the experiment scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

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

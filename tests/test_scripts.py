"""Smoke tests: the experiment scripts and the benchmark run end to end."""

import importlib.util
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


def test_op_costs_prints_the_cost_of_each_operation():
    out = run_script("op_costs.py", "--rows", "20", "--number", "50", "--repeat", "2")
    assert out[0] == "op,ns_per_op"
    rows = [row.split(",") for row in out[1:]]
    assert [op for op, _ in rows] == [
        "begin",
        "durable_begin",
        "durable_begin_in_process",
        "read",
        "read_in_writer",
        "write",
        "read_only_commit",
        "durable_read_only_commit",
        "write5_commit",
    ]
    assert all(float(ns) > 0 for _, ns in rows)


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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = [
    {"name": "txn_per_s", "better": "higher", "bound": 0.24},
    {"name": "read_p50_us", "better": "lower", "bound": 0.24},
]


def test_bench_pairs_summary_applies_the_claim_rule_and_the_bounds():
    summarize = load_bench_pairs().summarize
    base = [{"txn_per_s": 100.0 + i, "read_p50_us": 1.0} for i in range(10)]  # IQR 5.5
    # nine wins of ten and a median gain of 10: the claim holds
    change = [{"txn_per_s": 110.0 + i, "read_p50_us": 1.2} for i in range(10)]
    change[3]["txn_per_s"] = 50.0
    s = summarize(base, change, DECLARED)
    tps = s["txn_per_s"]
    assert (tps["wins"], tps["pairs"], tps["claim_holds"], tps["worse_than_bound"]) == (9, 10, True, False)
    assert tps["base"] == {"q1": 101.75, "median": 104.5, "q3": 107.25}
    assert tps["change"]["median"] == 114.5 and tps["ratio"] == 114.5 / 104.5
    # a latency 20 % up is no win and inside its 24 % bound; 30 % up is beyond it
    p50 = s["read_p50_us"]
    assert (p50["wins"], p50["claim_holds"], p50["worse_than_bound"]) == (0, False, False)
    for c in change:
        c["read_p50_us"] = 1.3
    assert summarize(base, change, DECLARED)["read_p50_us"]["worse_than_bound"]


def test_bench_pairs_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_base_spread():
    summarize = load_bench_pairs().summarize
    base = [{"txn_per_s": 100.0 + i, "read_p50_us": 2.0 - 0.1 * i} for i in range(10)]
    # every pair won, but the median gains 3 against a base IQR of 5.5
    change = [{"txn_per_s": 103.0 + i, "read_p50_us": 1.0 - 0.01 * i} for i in range(10)]
    s = summarize(base, change, DECLARED)
    assert s["txn_per_s"]["wins"] == 10 and not s["txn_per_s"]["claim_holds"]
    # lower is better: every pair won and the median fell by 0.595, beyond the base IQR of 0.55
    assert s["read_p50_us"]["wins"] == 10 and s["read_p50_us"]["claim_holds"]
    # eight wins of ten fail however large the gain
    change = [{"txn_per_s": 200.0 + i, "read_p50_us": 1.0} for i in range(10)]
    change[0]["txn_per_s"] = change[1]["txn_per_s"] = 0.0
    s = summarize(base, change, DECLARED)
    assert s["txn_per_s"]["wins"] == 8 and not s["txn_per_s"]["claim_holds"]
    assert not s["txn_per_s"]["worse_than_bound"]


def test_bench_pairs_claim_must_also_beat_the_a_a_ratio():
    summarize = load_bench_pairs().summarize
    base = [{"txn_per_s": 100.0 + i, "read_p50_us": 2.0 - 0.1 * i} for i in range(10)]
    # txn_per_s: ratio 114.5 / 104.5, about 1.096; read_p50_us: ratio 0.955 / 1.55, about 0.616
    change = [{"txn_per_s": 110.0 + i, "read_p50_us": 1.0 - 0.01 * i} for i in range(10)]
    assert all(s["claim_holds"] and "aa_ratio" not in s for s in summarize(base, change, DECLARED).values())
    # an A/A that drifted further than the change gained refuses the claim
    s = summarize(base, change, DECLARED, {"txn_per_s": 1.10, "read_p50_us": 0.6})
    assert (s["txn_per_s"]["aa_ratio"], s["read_p50_us"]["aa_ratio"]) == (1.10, 0.6)
    assert not s["txn_per_s"]["claim_holds"] and not s["read_p50_us"]["claim_holds"]
    # one it beats leaves the claim standing; a metric the A/A lacks is judged as before
    s = summarize(base, change, DECLARED, {"txn_per_s": 1.09})
    assert s["txn_per_s"]["claim_holds"] and s["read_p50_us"]["claim_holds"]
    assert "aa_ratio" not in s["read_p50_us"]


def test_bench_pairs_reads_the_a_a_stored_in_the_out_file(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"correct": True, "failed": 0, "metrics": {m["name"]: {"value": 1.0} for m in declared}}

    def fake_run(cmd, cwd, **kwargs):  # every run reads 1.0 on every metric
        out = f'machine: {{"nproc": 2}}\n{json.dumps(result)}\n'
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda into: None)
    monkeypatch.setattr(bench_pairs, "subprocess", type("Stub", (), {"run": staticmethod(fake_run)}))
    out = tmp_path / "bench.json"
    aa = {"base": "0" * 40, "summary": {"txn_per_s": {"ratio": 0.98}}}
    out.write_text(json.dumps({"aa": {"w": aa, "other": {}}, "workloads": {}}))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", "--workload", "w", "--pairs", "2",
                                      "--seconds", "1", "--seed-start", "1", "--out", str(out)])
    assert bench_pairs.main() == 0
    doc = json.loads(out.read_text())
    assert doc["aa"]["w"] == aa  # kept as it was
    summary = doc["workloads"]["w"]["summary"]
    assert summary["txn_per_s"]["aa_ratio"] == 0.98
    assert "aa_ratio" not in summary["commit_p50_us"]


def test_bench_pairs_counts_library_lines_like_wc(tmp_path):
    src_lines = load_bench_pairs().src_lines
    lib = tmp_path / "src" / "wsikv"
    lib.mkdir(parents=True)
    (lib / "a.py").write_text("one\ntwo\n")
    (lib / "b.py").write_text("three\nno newline at the end")  # wc -l counts newlines
    (lib / "notes.txt").write_text("not\ncounted\n")
    (lib / "sub").mkdir()
    (lib / "sub" / "c.py").write_text("outside the glob\n")
    assert src_lines(tmp_path) == 3


def test_bench_pairs_copies_the_tracked_files_of_the_working_tree_as_they_stand(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run([*git, "init", "-q"], check=True)
    for name, text in (("kept.py", "committed\n"), ("pkg/edited.py", "committed\n"), ("deleted.py", "x\n")):
        (repo / name).write_text(text)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "init"], check=True)
    (repo / "pkg" / "edited.py").write_text("edited, not committed\n")
    (repo / "deleted.py").unlink()
    (repo / "untracked.py").write_text("never added\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    into = tmp_path / "copy"
    bench_pairs.export_worktree(into)
    assert sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file()) == ["kept.py", "pkg/edited.py"]
    assert (into / "pkg" / "edited.py").read_text() == "edited, not committed\n"


def test_bench_pairs_alternates_the_sides_and_stores_every_run(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"correct": True, "failed": 0, "metrics": {m["name"]: {"value": 1.0} for m in declared}}
    runs = []

    def fake_run(cmd, cwd, **kwargs):  # stands in for one perfbench run
        runs.append(Path(cwd))
        out = f'machine: {{"nproc": 2}}\n{json.dumps(result)}\n'
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda into: None)
    monkeypatch.setattr(bench_pairs, "subprocess", type("Stub", (), {"run": staticmethod(fake_run)}))
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", "--workload", "w", "--pairs", "3",
                                      "--seconds", "1", "--seed-start", "1", "--out", str(out)])
    assert bench_pairs.main() == 0
    # the base tree runs first in even pairs, the working tree first in odd ones
    assert [tree.name for tree in runs] == ["base", "change", "change", "base", "base", "change"]
    # neither side runs in the repository: the working tree is a copy too
    assert bench_pairs.ROOT not in {tree.parent for tree in runs}
    assert len({tree.parent for tree in runs}) == 1
    doc = json.loads(out.read_text())["workloads"]["w"]
    assert doc["first"] == ["base", "change", "base"] and doc["seeds"] == [1, 2, 3]
    assert len(doc["base_runs"]) == len(doc["change_runs"]) == 3

#!/usr/bin/env python3
"""Run the benchmark in pairs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD --workload latest-mixed \\
        --pairs 10 --seconds 10 --seed-start 1 --out BENCH.json

Neither side runs in the repository itself. The base revision is exported
with `git archive` into a temporary directory, and the working tree's tracked
files, as they stand, are copied into another, so both sides run from a fresh
directory and `--base HEAD` on a clean tree compares identical code (an A/A).
Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
on the two copies, the base first in even pairs and the working tree first in
odd ones. The script stops at the first run that is not `correct` or reports
`failed` transactions.

For each end-to-end metric declared in BENCHMARK.json it prints both sides'
median and quartiles, the ratio of the medians (change / base), how many
pairs the change won, whether the claim rule holds (the change wins at least
nine pairs in ten and its median beats the base's by more than the base's
interquartile range), and whether the change's median is worse than the
base's by more than the metric's bound. It also prints each tree's
`src_lines`, the line count of `src/wsikv/*.py` as `wc -l` gives it.
`--out` writes the runs, that summary and `src_lines` as JSON under the
workload's name; an existing file keeps its other workloads, so one file can
collect several invocations. When that file already holds an A/A run of the
workload under `aa` (the same layout, from a run with `--base HEAD` on a
clean tree), each metric's summary records the A/A's ratio, and the claim
must also beat it: an A/A shows how far two copies of one tree drift apart,
so a gain smaller than that drift is no evidence.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of the values."""
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(base: list[dict], change: list[dict], declared: list[dict],
              aa: dict[str, float] | None = None) -> dict[str, dict]:
    """Compare paired runs metric by metric.

    `base[i]` and `change[i]` map metric names to values for pair i;
    `declared` is the `end_to_end` list of BENCHMARK.json. `aa` maps metric
    names to the ratio an A/A run of the same workload read; a metric it
    names records that ratio as `aa_ratio`, and its claim also needs a ratio
    better than it.
    """
    out = {}
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        pairs = [(b[name], c[name]) for b, c in zip(base, change)]
        b_q1, b_med, b_q3 = quartiles(b for b, _ in pairs)
        c_q1, c_med, c_q3 = quartiles(c for _, c in pairs)
        wins = sum((c > b) if higher else (c < b) for b, c in pairs)
        gain = c_med - b_med if higher else b_med - c_med  # positive when the change is better
        ratio = c_med / b_med
        claim = 10 * wins >= 9 * len(pairs) and gain > b_q3 - b_q1
        out[name] = summary = {
            "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "ratio": ratio,
            "wins": wins,
            "pairs": len(pairs),
            "worse_than_bound": -gain > bound * b_med,
        }
        if aa and name in aa:
            summary["aa_ratio"] = aa[name]
            claim = claim and (ratio > aa[name] if higher else ratio < aa[name])
        summary["claim_holds"] = claim
    return out


def metric_values(runs: list[dict]) -> list[dict]:
    return [{name: m["value"] for name, m in r["metrics"].items()} for r in runs]


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in `tree`; its result JSON plus the machine line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each tree imports its own src
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: no result from {tree} seed {seed}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    machine = next((line for line in lines if line.startswith("machine:")), "machine: {}")
    result["machine"] = json.loads(machine.split(":", 1)[1])
    return result


def src_lines(tree: Path) -> int:
    """Total line count of the library's modules in `tree` (`wc -l src/wsikv/*.py`)."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "wsikv").glob("*.py"))


def export(rev: str, into: Path) -> str:
    """Extract `rev` into `into` and return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)
    return sha


def export_worktree(into: Path) -> None:
    """Copy the working tree's tracked files, as they stand, into `into`."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True).stdout
    for name in names.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted in the working tree is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--seed-start", type=int, required=True)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    base_runs, change_runs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        sha = export(args.base, trees["base"])
        export_worktree(trees["change"])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for i in range(args.pairs):
            seed = args.seed_start + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                r = run_once(trees[side], args.workload, seed, args.seconds)
                (base_runs if side == "base" else change_runs).append(r)
                value = r["metrics"].get("txn_per_s", {}).get("value", float("nan"))
                print(f"pair {i} seed {seed} {side}: correct={r['correct']} failed={r['failed']} "
                      f"txn_per_s={value:.1f}", flush=True)
                if not r["correct"] or r["failed"]:
                    print(f"bench_pairs: stopped, {side} run of seed {seed} failed its checks", file=sys.stderr)
                    return 1

    doc = json.loads(args.out.read_text()) if args.out and args.out.exists() else {"workloads": {}}
    aa = doc.get("aa", {}).get(args.workload)
    aa_ratios = {name: s["ratio"] for name, s in aa["summary"].items()} if aa else None
    summary = summarize(metric_values(base_runs), metric_values(change_runs), declared, aa_ratios)
    print(f"{args.workload}: {args.pairs} pairs, base {sha[:12]} against a copy of the working tree")
    print(f"src_lines: base {lines['base']}, change {lines['change']}")
    print(f"{'metric':<14} {'base q1/median/q3':>30} {'change q1/median/q3':>30} {'ratio':>6} "
          f"{'wins':>6} claim bound")
    for name, s in summary.items():
        b, c = s["base"], s["change"]
        print(f"{name:<14} {b['q1']:>10.4g}{b['median']:>10.4g}{b['q3']:>10.4g} "
              f"{c['q1']:>10.4g}{c['median']:>10.4g}{c['q3']:>10.4g} {s['ratio']:>6.3f} "
              f"{s['wins']:>3}/{s['pairs']:<2} {'yes' if s['claim_holds'] else 'no':>5} "
              f"{'WORSE' if s['worse_than_bound'] else 'ok':>5}"
              + (f" A/A ratio {s['aa_ratio']:.3f}" if "aa_ratio" in s else ""))

    if args.out:
        doc["workloads"][args.workload] = {
            "base": sha,
            "seconds": args.seconds,
            "seeds": [args.seed_start + i for i in range(args.pairs)],
            "first": ["base" if i % 2 == 0 else "change" for i in range(args.pairs)],
            "machine": base_runs[0]["machine"],
            "base_runs": metric_values(base_runs),
            "change_runs": metric_values(change_runs),
            "summary": summary,
            "src_lines": lines,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

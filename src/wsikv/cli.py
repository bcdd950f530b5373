"""Command-line front end: workload runs, history checking and replay,
oracle benchmarking, and write-ahead-log recovery inspection."""

from __future__ import annotations

import argparse
import os
import sys

from .history import HistoryParseError, parse, replay_policy, verdict_line
from .oracle import IsolationPolicy, replay
from .wal import KIND_COMMIT, KIND_TS_RESERVE, read_log
from .workload import (
    BENCH_CSV_HEADER,
    CSV_HEADER,
    DISTRIBUTIONS,
    MIXES,
    WorkloadSpec,
    bench_oracle,
    run as run_workload,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal stopped


def _capacity(text: str) -> int | None:
    if text == "unbounded":
        return None
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("capacity must be positive or 'unbounded'")
    return value


def _policy(text: str) -> IsolationPolicy:
    try:
        return IsolationPolicy(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown isolation policy {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsikv",
        description="Transactional key-value engine with snapshot-isolation "
        "and write-snapshot-isolation commit policies.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a workload and emit one CSV row")
    p_run.add_argument("--policy", type=_policy, required=True)
    p_run.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    p_run.add_argument("--mix", choices=MIXES, default="mixed")
    p_run.add_argument("--clients", type=int, default=1)
    p_run.add_argument("--txns", type=int, default=10_000)
    p_run.add_argument("--keys", type=int, default=100_000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--wal", default="off", help="log path, or 'off'")
    p_run.add_argument("--capacity", type=_capacity, default=None)

    p_check = sub.add_parser(
        "check", help="judge a file of histories (one per line)"
    )
    p_check.add_argument("path")

    p_replay = sub.add_parser(
        "replay", help="replay histories under one policy and print decisions"
    )
    p_replay.add_argument("--policy", type=_policy, required=True)
    p_replay.add_argument("path")

    p_bench = sub.add_parser(
        "bench-oracle", help="drive the status oracle with synthetic commits"
    )
    p_bench.add_argument("--policy", type=_policy, required=True)
    p_bench.add_argument("--clients", type=int, default=1)
    p_bench.add_argument("--requests", type=int, default=10_000)
    p_bench.add_argument("--rows-per-txn", type=int, default=5)
    p_bench.add_argument("--keys", type=int, default=10_000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--capacity", type=_capacity, default=None)

    p_recover = sub.add_parser(
        "recover", help="replay a write-ahead log and print the rebuilt state"
    )
    p_recover.add_argument("path")
    p_recover.add_argument("--capacity", type=_capacity, default=None)

    return parser


def cmd_run(args) -> int:
    spec = WorkloadSpec(
        key_space=args.keys,
        mix=args.mix,
        distribution=args.dist,
        seed=args.seed,
        txn_count=args.txns,
        client_count=args.clients,
    )
    wal_path = None if args.wal == "off" else args.wal
    metrics = run_workload(
        spec, args.policy, wal_path=wal_path, capacity=args.capacity
    )
    print(CSV_HEADER)
    print(metrics.csv_row(spec, args.policy))
    return EXIT_OK


def _histories(path):
    """Parse a history file, one history per non-blank line.

    A parse error raises ValueError naming `path:line:column:`.
    """
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                yield parse(line)
            except HistoryParseError as exc:
                raise ValueError(f"{path}:{lineno}:{exc.column}: {exc}") from None


def cmd_check(args) -> int:
    for h in _histories(args.path):
        print(verdict_line(h))
    return EXIT_OK


def cmd_replay(args) -> int:
    for h in _histories(args.path):
        decisions = replay_policy(h, args.policy)
        report = " ".join(f"txn{t}={decisions[t]}" for t in sorted(decisions))
        print(f"{h.format()} :: {report}")
    return EXIT_OK


def cmd_bench_oracle(args) -> int:
    print(BENCH_CSV_HEADER)
    result = bench_oracle(  # validates the sizes even when there is nothing to run
        args.policy,
        args.clients,
        args.requests,
        args.rows_per_txn,
        key_space=args.keys,
        capacity=args.capacity,
        seed=args.seed,
    )
    if args.requests > 0:
        print(result.csv_row())
    return EXIT_OK


def cmd_recover(args) -> int:
    records, intact_bytes, file_bytes = read_log(args.path)
    table, highest = replay(records, capacity=args.capacity)
    commits = sum(1 for rec in records if rec.kind == KIND_COMMIT and rec.rows)
    reservations = sum(1 for rec in records if rec.kind == KIND_TS_RESERVE)
    print(f"commit_records={len(table.commit_records)}")
    print(f"tracked_rows={len(table.last_commit)}")
    print(f"t_max={table.t_max}")
    print(f"reserved_up_to={highest}")
    print(f"logged_commits={commits}")
    print(f"logged_reservations={reservations}")
    print(f"skipped_records={len(records) - commits - reservations}")  # what replay skips
    print(f"intact_bytes={intact_bytes}")
    print(f"file_bytes={file_bytes}")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "check": cmd_check,
    "replay": cmd_replay,
    "bench-oracle": cmd_bench_oracle,
    "recover": cmd_recover,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except BrokenPipeError:
        # the reader closed standard output (`... | head -1`): stop quietly, and
        # point it at devnull so the flush at exit cannot fail again (see the
        # note on SIGPIPE in the docs of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the in-process cost of each transaction operation, in ns per call.

    python3 scripts/op_costs.py --rows 100000 --number 20000 --repeat 7

A WSI database without a log is loaded with `--rows` rows in 1 000-row
write-only transactions. Each operation is then timed with `timeit`, one
thread, and the best of `--repeat` timings is printed:

- `begin`: `db.begin()`;
- `durable_begin`: `begin()` on the durable database below, so one begin in
  each block of 1 000 appends the block's reservation and waits for its
  flush;
- `durable_begin_in_process`: the same begins, less the time their flushes
  spent in `os.fdatasync`, which a wrapper times during these timings only:
  the sync's latency swings from run to run and would hide the cost of the
  begin path itself;
- `read`: `h.read(row)` on one handle and one loaded row;
- `read_in_writer`: the same read on a handle that first wrote the five rows
  `write5_commit` writes, so the read looks past the handle's own writes
  (the read row is not one of them once `--rows` is 10 or more);
- `write`: `h.write(row, value)` on one handle and one row;
- `read_only_commit`: `commit()` of a handle that read one row;
- `durable_read_only_commit`: the same on the durable database, a second one,
  whose write-ahead log is in a temporary directory and which holds that one
  row; with no commit record in flight, it appends nothing and waits for
  nothing;
- `write5_commit`: `commit()` of a handle that wrote five rows, none read.

Commits are timed as a loop over `--number` handles made before the timer
starts, so begins and writes do not count in them. The numbers are the
Python cost of the handle, oracle and store calls, below what the benchmark's
per-layer spans can resolve, since each span costs more than they do.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
import timeit

from wsikv import Database, WriteAheadLog

LOAD_TXN_ROWS = 1_000
VALUE = b"v" * 16


def row_key(i: int) -> bytes:
    return b"row:%08d" % i


def load(rows: int) -> Database:
    db = Database()
    for base in range(0, rows, LOAD_TXN_ROWS):
        h = db.begin()
        for i in range(base, min(base + LOAD_TXN_ROWS, rows)):
            h.write(row_key(i), VALUE)
        if not h.commit().committed:
            raise RuntimeError("a load transaction aborted")
    return db


def best_ns(stmt: str, setup: str, names: dict, number: int, repeat: int, per: int) -> float:
    """Best of `repeat` timings of `number` runs of stmt, in ns per operation."""
    times = timeit.Timer(stmt, setup, globals=names).repeat(repeat=repeat, number=number)
    return min(times) / (number * per) * 1e9


def best_net_of_sync_ns(stmt: str, names: dict, number: int, repeat: int) -> float:
    """Best of `repeat` timings of `number` runs of stmt, each net of the time
    its calls of os.fdatasync took, in ns per run."""
    synced = 0.0
    fdatasync = os.fdatasync

    def timed_fdatasync(fd):
        nonlocal synced
        t0 = time.perf_counter()
        try:
            fdatasync(fd)
        finally:
            synced += time.perf_counter() - t0

    timer = timeit.Timer(stmt, globals=names)
    os.fdatasync = timed_fdatasync  # the log calls it through the os module
    try:
        nets = []
        for _ in range(repeat):
            synced = 0.0
            nets.append(timer.timeit(number) - synced)
    finally:
        os.fdatasync = fdatasync
    return min(nets) / number * 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--number", type=int, default=20_000, help="operations per timing")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    if min(args.rows, args.number, args.repeat) < 1:
        parser.error("--rows, --number and --repeat must be at least 1")

    db = load(args.rows)
    n, repeat = args.number, args.repeat
    row = row_key(args.rows // 2)
    write_rows = [row_key(i) for i in range(5)]

    def read_only_handles(database):
        handles = [database.begin() for _ in range(n)]
        for h in handles:
            h.read(row)
        return handles

    def writing_handles():
        handles = [db.begin() for _ in range(n)]
        for h in handles:
            for r in write_rows:
                h.write(r, VALUE)
        return handles

    with tempfile.TemporaryDirectory() as tmp:
        durable = Database(wal=WriteAheadLog(os.path.join(tmp, "op_costs.wal")))
        durable.seed_committed(row, VALUE)
        names = {"db": db, "durable": durable, "row": row, "value": VALUE, "write_rows": write_rows,
                 "read_only_handles": read_only_handles, "writing_handles": writing_handles}
        costs = {
            "begin": best_ns("db.begin()", "", names, n, repeat, 1),
            "durable_begin": best_ns("durable.begin()", "", names, n, repeat, 1),
            "durable_begin_in_process": best_net_of_sync_ns("durable.begin()", names, n, repeat),
            "read": best_ns("h.read(row)", "h = db.begin()", names, n, repeat, 1),
            "read_in_writer": best_ns(
                "h.read(row)", "h = db.begin()\nfor r in write_rows: h.write(r, value)", names, n, repeat, 1
            ),
            "write": best_ns("h.write(row, value)", "h = db.begin()", names, n, repeat, 1),
            "read_only_commit": best_ns(
                "for h in hs: h.commit()", "hs = read_only_handles(db)", names, 1, repeat, n
            ),
            "durable_read_only_commit": best_ns(
                "for h in hs: h.commit()", "hs = read_only_handles(durable)", names, 1, repeat, n
            ),
            "write5_commit": best_ns(
                "for h in hs: h.commit()", "hs = writing_handles()", names, 1, repeat, n
            ),
        }
        durable.close()
    print("op,ns_per_op")
    for op, ns in costs.items():
        print(f"{op},{ns:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

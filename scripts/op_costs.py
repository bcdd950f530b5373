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
- `read_cold`: every loaded row read once, in shuffled order, on handles
  begun before the timer starts, a fresh one per 10 reads, in ns per read:
  unlike `read`, which rereads one row that stays in the CPU's caches, each
  read fetches a row's entry, list and value from memory, as the benchmark's
  reads over 100k rows do;
- `write`: `h.write(row, value)` on one handle and one row;
- `read_only_commit`: `commit()` of a handle that read one row;
- `durable_read_only_commit`: the same on the durable database, a second one,
  whose write-ahead log is in a temporary directory and which holds that one
  row; with no commit record in flight, it appends nothing and waits for
  nothing;
- `write5_commit`: `commit()` of a handle that wrote five rows, none read;
- `load_row`: loading `--rows` rows, as above, into a fresh database, in ns
  per row; the timer's setup switches Python's cyclic collector back on,
  which `timeit` turns off, since a load pays for the collections its
  allocations set off;
- `wal_encode_commit5`, `wal_encode_commit1000`: `encode()` of a commit
  record of 5 or 1 000 loaded row keys, in ns per record; the 1 000-row
  rows time `--number` / 100 records;
- `wal_decode_commit5`, `wal_decode_commit1000`: `decode_payload()` of the
  same records' payloads, in ns per record;
- `recover_loaded`: `Database.recover()` and `close()` of a write-ahead log
  holding the `--rows` loaded rows, loaded as above into a durable database,
  in ns per loaded row: the read of the file, its decoding and the replay;
- `recover_bounded`: `Database.recover(path, capacity=1000)` and `close()` of
  a write-ahead log holding the `--rows` rows loaded in 1 000-row commits and
  then `--rows` / 5 commits of 5 loaded rows each, written straight to the
  log, in ns per logged record: a bounded table is rebuilt from the log's
  tail, so its replay visits at most about 1 000 rows and the read and
  decoding of the records are most of what is left.

Commits are timed as a loop over `--number` handles made before the timer
starts, so begins and writes do not count in them. The numbers are the
Python cost of the handle, oracle and store calls, below what the benchmark's
per-layer spans can resolve, since each span costs more than they do.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time
import timeit

from wsikv import Database, WriteAheadLog
from wsikv.wal import KIND_COMMIT, KIND_TS_RESERVE, WalRecord, decode_payload

LOAD_TXN_ROWS = 1_000
VALUE = b"v" * 16


def row_key(i: int) -> bytes:
    return b"row:%08d" % i


def load(rows: int, wal: WriteAheadLog | None = None) -> Database:
    db = Database(wal=wal)
    for base in range(0, rows, LOAD_TXN_ROWS):
        h = db.begin()
        for i in range(base, min(base + LOAD_TXN_ROWS, rows)):
            h.write(row_key(i), VALUE)
        if not h.commit().committed:
            raise RuntimeError("a load transaction aborted")
    return db


def write_bounded_log(path: str, rows: int) -> int:
    """Write a log of `rows` rows loaded in 1 000-row commits, then rows // 5
    commits of 5 loaded rows each, in ascending commit timestamps, behind one
    reservation; return the number of records."""
    keys = [row_key(i) for i in range(rows)]
    writes = [keys[base : base + LOAD_TXN_ROWS] for base in range(0, rows, LOAD_TXN_ROWS)]
    rng = random.Random(1)
    writes += [sorted(rng.sample(keys, min(5, rows))) for _ in range(rows // 5)]
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=2 * len(writes)))
    for i, written in enumerate(writes, start=1):
        wal.append(WalRecord(KIND_COMMIT, 2 * i - 1, 2 * i, tuple(written)))
    wal.close()
    return 1 + len(writes)


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
    shuffled = [row_key(i) for i in range(args.rows)]
    random.Random(0).shuffle(shuffled)

    def cold_reads():
        return [(db.begin(), shuffled[i : i + 10]) for i in range(0, args.rows, 10)]

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

    records = {count: WalRecord(KIND_COMMIT, 1, 2, tuple(map(row_key, range(count)))) for count in (5, 1000)}
    payloads = {count: rec.encode()[4:] for count, rec in records.items()}
    big = max(1, n // 100)
    with tempfile.TemporaryDirectory() as tmp:
        durable = Database(wal=WriteAheadLog(os.path.join(tmp, "op_costs.wal")))
        durable.seed_committed(row, VALUE)
        loaded_log = os.path.join(tmp, "loaded.wal")
        load(args.rows, WriteAheadLog(loaded_log)).close()
        bounded_log = os.path.join(tmp, "bounded.wal")
        bounded_records = write_bounded_log(bounded_log, args.rows)
        names = {"db": db, "durable": durable, "row": row, "value": VALUE, "write_rows": write_rows,
                 "read_only_handles": read_only_handles, "writing_handles": writing_handles,
                 "records": records, "payloads": payloads, "decode_payload": decode_payload,
                 "Database": Database, "loaded_log": loaded_log, "cold_reads": cold_reads,
                 "load": load, "rows": args.rows, "bounded_log": bounded_log}
        costs = {
            "begin": best_ns("db.begin()", "", names, n, repeat, 1),
            "durable_begin": best_ns("durable.begin()", "", names, n, repeat, 1),
            "durable_begin_in_process": best_net_of_sync_ns("durable.begin()", names, n, repeat),
            "read": best_ns("h.read(row)", "h = db.begin()", names, n, repeat, 1),
            "read_in_writer": best_ns(
                "h.read(row)", "h = db.begin()\nfor r in write_rows: h.write(r, value)", names, n, repeat, 1
            ),
            "read_cold": best_ns(
                "for h, rs in groups:\n    for r in rs: h.read(r)", "groups = cold_reads()", names, 1, repeat,
                args.rows,
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
            "load_row": best_ns("load(rows)", "import gc; gc.enable()", names, 1, repeat, args.rows),
            "wal_encode_commit5": best_ns("rec.encode()", "rec = records[5]", names, n, repeat, 1),
            "wal_encode_commit1000": best_ns("rec.encode()", "rec = records[1000]", names, big, repeat, 1),
            "wal_decode_commit5": best_ns("decode_payload(p)", "p = payloads[5]", names, n, repeat, 1),
            "wal_decode_commit1000": best_ns("decode_payload(p)", "p = payloads[1000]", names, big, repeat, 1),
            "recover_loaded": best_ns("Database.recover(loaded_log).close()", "", names, 1, repeat, args.rows),
            "recover_bounded": best_ns(
                "Database.recover(bounded_log, capacity=1000).close()", "", names, 1, repeat, bounded_records
            ),
        }
        durable.close()
    print("op,ns_per_op")
    for op, ns in costs.items():
        print(f"{op},{ns:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

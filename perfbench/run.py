#!/usr/bin/env python3
"""wsikv benchmark: closed-loop transactional workloads on the public API.

    python3 perfbench/run.py --workload latest-mixed --seed 1 --seconds 10 --trace 0

Run from the repository root; the engine is imported from ./src. Transaction
scripts are generated from the seed with wsikv.workload before anything is
timed. A run drives `--seconds` times the workload's nominal rate of
transactions, split into rounds. Each round opens a fresh database, loads
LOAD_ROWS rows through the transaction API in write-only transactions (the
set-up, timed), and then two client threads run the round's scripts in a
closed loop: a client sends its next transaction only when the previous one
has been decided, and aborted transactions are not retried. The work is
fixed, so every engine version runs the same inputs and state sizes compare
at the same input size. Each timing is taken per round and reported as its
slow quartile over the rounds (see `slow_quartile`).

After each round the benchmark checks the outcome and times Database.recover
on the round's log: the engine's own log when the WAL is on, otherwise the
log a WAL-backed engine would have written for the same decisions.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it runs
every round twice, untraced and then traced, and reports per-layer metrics
from spans recorded around calls into each layer's public methods, plus the
tracing overhead; the spans are written to .bench_out/. The run exits 1 if a
check fails. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "wsikv" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: engine sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from wsikv import BatchPolicy, Database, IsolationPolicy, WalRecord, WriteAheadLog  # noqa: E402
from wsikv.timestamps import DEFAULT_BLOCK_SIZE  # noqa: E402
from wsikv.txn import Transaction  # noqa: E402
from wsikv.wal import KIND_ABORT, KIND_COMMIT, KIND_TS_RESERVE, DurableAck  # noqa: E402
from wsikv.workload import WorkloadSpec, generate_txn, make_distribution  # noqa: E402

from spans import Tracer  # noqa: E402

OUT = ROOT / ".bench_out"

CLIENTS = 2  # closed-loop client threads
LOAD_ROWS = 100_000  # rows loaded before each round; also the key space
LOAD_TXN_ROWS = 1_000  # rows per write-only load transaction
GC_EVERY = 2_000  # client 0 calls Database.gc() after every this many of its txns
RECOVER_REPEATS = 3  # recoveries timed per round
# Interpreter thread switch interval for the run. At CPython's default 5 ms,
# whether a client loses the interpreter inside commit() for more than 1% of
# commits changes from round to round, so commit p99 jumps between tens of
# microseconds and milliseconds; at 100 us the clients interleave finely
# enough for the percentiles to settle.
SWITCH_INTERVAL_S = 1e-4

# Printed with every run but left out of the result: across runs these move
# with the host rather than the engine. On durable-mixed they follow the
# host's fsync tail (8 or 12 ms from one run to the next); with both clients
# on one CPU, txn p99 of the in-memory workloads is the 4 ms scheduler slice.
PRINTED_ONLY = ("txn_p99_us", "commit_p99_us")

ROW = struct.Struct("<q")
LOAD_VALUE = ROW.pack(0)
ABORTED = -1
RAISED = -2


@dataclass(frozen=True)
class Workload:
    name: str
    policy: IsolationPolicy
    distribution: str
    mix: str
    capacity: int | None  # commit-table capacity; None is unbounded
    durable: bool  # WAL on with the default BatchPolicy
    nominal_txn_per_s: int  # measured at 2 clients on a 2-core machine; sizes the work of a run
    round_txns: int  # at least 1000, so each round has a p99 with 10 samples beyond

    def rounds(self, seconds: int) -> int:
        return max(1, math.ceil(seconds * self.nominal_txn_per_s / self.round_txns))

    def describe(self) -> str:
        wal = f"on {BatchPolicy()}" if self.durable else "off"
        cap = self.capacity if self.capacity is not None else "unbounded"
        return (
            f"policy={self.policy.value} distribution={self.distribution} mix={self.mix} "
            f"capacity={cap} wal={wal} clients={CLIENTS} loop=closed "
            f"load_rows={LOAD_ROWS} round_txns={self.round_txns} gc_every={GC_EVERY}"
        )


# Why each workload was chosen, and what it leaves idle, is in BENCHMARK.json.
# A round of an in-memory workload gives client 0 at least GC_EVERY transactions.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("latest-mixed", IsolationPolicy.WSI, "zipfian-latest", "mixed", None, False, 10_000, 10_000),
        Workload("uniform-complex", IsolationPolicy.SI, "uniform", "complex", 1_000, False, 12_000, 12_000),
        Workload("durable-mixed", IsolationPolicy.WSI, "uniform", "mixed", None, True, 350, 1_000),
    )
}


# -- inputs -----------------------------------------------------------------------


@dataclass
class Scripts:
    """One client's transaction scripts for one round, back to back.

    Each op is (row << 1) | is_write; script k is ops[bounds[k]:bounds[k + 1]].
    """

    ops: array = field(default_factory=lambda: array("q"))
    bounds: array = field(default_factory=lambda: array("q", [0]))

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def script(self, k: int) -> array:
        return self.ops[self.bounds[k] : self.bounds[k + 1]]


def make_scripts(w: Workload, seed: int, rounds: int) -> tuple[list[list[Scripts]], str]:
    """Every round's scripts per client, from the seed, and a digest of them all."""
    spec = WorkloadSpec(key_space=LOAD_ROWS, mix=w.mix, distribution=w.distribution, seed=seed)
    rngs = [random.Random(seed * 1_000_003 + c) for c in range(CLIENTS)]
    dists = [make_distribution(spec) for _ in range(CLIENTS)]
    digest = hashlib.sha256()
    out = []
    for _ in range(rounds):
        per_client = []
        for c in range(CLIENTS):
            s = Scripts()
            for _ in range(w.round_txns // CLIENTS):
                for kind, row in generate_txn(spec, rngs[c], dists[c]):
                    s.ops.append(ROW.unpack(row)[0] << 1 | (kind == "w"))
                s.bounds.append(len(s.ops))
            digest.update(s.ops.tobytes())
            digest.update(s.bounds.tobytes())
            per_client.append(s)
        out.append(per_client)
    return out, digest.hexdigest()[:16]


def value_of(client: int, k: int) -> bytes:
    """The value script k of a client writes; identifies the writer within a round."""
    return ROW.pack((client + 1) << 40 | k)


# -- set-up and timed phase -------------------------------------------------------


def setup(w: Workload, rows: list[bytes], work: Path):
    """Open a database and load every row in write-only transactions.

    Returns (db, seconds, load decisions as (start_ts, commit_ts, first row)).
    """
    gc.collect()  # every timed region starts from the same collector state
    t0 = time.perf_counter()
    wal = WriteAheadLog(work / "oracle.wal") if w.durable else None
    db = Database(w.policy, capacity=w.capacity, wal=wal)
    decisions = []
    for base in range(0, LOAD_ROWS, LOAD_TXN_ROWS):
        h = db.begin()
        for r in range(base, base + LOAD_TXN_ROWS):
            h.write(rows[r], LOAD_VALUE)
        d = h.commit()
        if not d.committed:
            raise RuntimeError(f"load transaction {h.start_ts} aborted")
        decisions.append((h.start_ts, d.commit_ts, base))
    return db, time.perf_counter() - t0, decisions


@dataclass
class ClientResult:
    start_ts: array = field(default_factory=lambda: array("q"))
    outcome: array = field(default_factory=lambda: array("q"))  # commit ts, ABORTED or RAISED
    txn_s: array = field(default_factory=lambda: array("d"))
    commit_s: array = field(default_factory=lambda: array("d"))
    read_s: array = field(default_factory=lambda: array("d"))
    error: str | None = None


def client(db, scripts: Scripts, rows, cid: int, barrier, result: ClientResult, tracer):
    # All clients share one CPU. The GIL lets only one of them run Python at a
    # time, so this costs no parallelism; spread over two CPUs, every hand-off
    # is a cross-CPU wake-up whose delay depends on how the host schedules the
    # other virtual CPU, and runs switch between a fine and a coarse
    # interleaving that give percentiles twice apart.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = time.perf_counter
    ops, bounds = scripts.ops, scripts.bounds
    txn_s, commit_s, read_s = result.txn_s, result.commit_s, result.read_s
    barrier.wait()
    for k in range(len(scripts)):
        if tracer is not None:
            tracer.set_txn(cid << 32 | k)
        value = value_of(cid, k)
        t0 = clock()
        try:
            h = db.begin()
            result.start_ts.append(h.start_ts)
            for code in ops[bounds[k] : bounds[k + 1]]:
                if code & 1:
                    h.write(rows[code >> 1], value)
                else:
                    r0 = clock()
                    h.read(rows[code >> 1])
                    read_s.append(clock() - r0)
            c0 = clock()
            d = h.commit()
            t1 = clock()
        except Exception:
            if result.error is None:
                result.error = traceback.format_exc()
            if len(result.start_ts) == k:
                result.start_ts.append(-1)
            result.outcome.append(RAISED)
            continue
        commit_s.append(t1 - c0)
        txn_s.append(t1 - t0)
        result.outcome.append(d.commit_ts if d.committed else ABORTED)
        if cid == 0 and (k + 1) % GC_EVERY == 0:
            if tracer is not None:
                tracer.set_txn(-1)
            db.gc()


def drive(db, scripts: list[Scripts], rows, label: str, tracer=None):
    """Timed phase: every client runs its scripts; returns results and wall seconds."""
    results = [ClientResult() for _ in scripts]
    barrier = threading.Barrier(len(scripts) + 1)
    threads = [
        threading.Thread(
            target=client, args=(db, s, rows, c, barrier, results[c], tracer), name=f"{label}-client{c}"
        )
        for c, s in enumerate(scripts)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return results, time.perf_counter() - t0


def instrument(tracer: Tracer, db) -> None:
    """Span every public layer call the workload makes; count commit_ts_of."""
    tracer.count(db.oracle, "commit_ts_of", "oracle.commit_ts_of")
    tracer.span(db, "begin", "txn.begin")
    for op in ("read", "write", "commit"):
        tracer.span(Transaction, op, f"txn.{op}")
    tracer.span(db.timestamps, "next", "timestamps.next")
    for op in ("snapshot_read", "put_tentative", "purge_aborted", "compact"):
        tracer.span(db.store, op, f"mvstore.{op}")
    tracer.span(db.oracle, "submit", "oracle.submit")
    if db.wal is not None:
        tracer.span(db.wal, "append", "wal.append")
        tracer.span(DurableAck, "wait", "wal.ack_wait")


# -- one round: set up, drive, check --------------------------------------------------


@dataclass
class Round:
    setup_s: float
    wall_s: float
    results: list[ClientResult]
    committed: int
    aborted: int
    raised: int
    failed: int  # transactions whose outcome is wrong; a conflict abort is a right outcome
    recover_s: list[float]
    peak_rss_mb: float  # process peak so far, read right after the timed phase
    layer: dict  # counter deltas over the timed phase and sizes at its end
    failures: list[str]
    # per kind (txn, commit, read): (p50 seconds, p99 seconds, samples)
    latency: dict[str, tuple[float, float, int]] = field(init=False)

    def __post_init__(self):
        self.latency = {}
        for kind in ("txn", "commit", "read"):
            s = sorted(x for r in self.results for x in getattr(r, f"{kind}_s"))
            self.latency[kind] = (percentile(s, 0.50), percentile(s, 0.99), len(s))

    @property
    def attempted(self) -> int:
        return self.committed + self.aborted + self.raised

    @property
    def txn_per_s(self) -> float:
        return self.committed / self.wall_s


def layer_counters(db) -> dict[str, int]:
    o = db.oracle
    c = {
        "committed": o.committed_count,
        "conflict_aborts": o.conflict_aborts,
        "pessimistic_aborts": o.pessimistic_aborts,
        "read_only_commits": o.read_only_commits,
        "reserved_up_to": db.timestamps.reserved_up_to,
    }
    if db.wal is not None:
        c["flush_count"] = db.wal.flush_count
        c["log_bytes"] = os.path.getsize(db.wal.path)
    return c


def run_round(w: Workload, scripts: list[Scripts], rows, work: Path, label: str, tracer=None) -> Round:
    work.mkdir()
    db, setup_s, load = setup(w, rows, work)
    before = layer_counters(db)
    gc.collect()
    if tracer is not None:
        instrument(tracer, db)
    try:
        results, wall = drive(db, scripts, rows, label, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = layer_counters(db)
    layer = {k: after[k] - before[k] for k in before}
    table, live_rows = db.oracle.table, db.store.rows()
    layer.update(
        rows_live=len(live_rows),
        versions_live=sum(len(db.store.versions(r)) for r in live_rows),
        commit_records=len(table.commit_records),
        aborted=len(table.aborted),
        last_commit=len(table.last_commit),
    )
    outcomes = [o for r in results for o in r.outcome]
    committed = sum(o >= 0 for o in outcomes)
    aborted = outcomes.count(ABORTED)
    raised = outcomes.count(RAISED)

    failures = []
    if raised:
        error = next(r.error for r in results if r.error)
        failures.append(f"{raised} transactions raised; first:\n{error}")
    ro_aborts = 0
    if w.policy is IsolationPolicy.WSI:
        ro_aborts = sum(
            o == ABORTED and not any(code & 1 for code in s.script(k))
            for s, r in zip(scripts, results)
            for k, o in enumerate(r.outcome)
        )
        if ro_aborts:
            failures.append(f"{ro_aborts} WSI read-only transactions aborted")
    wrong_aborts = ro_aborts
    if w.capacity is None and layer["pessimistic_aborts"]:
        failures.append(f"{layer['pessimistic_aborts']} pessimistic aborts with an unbounded table")
        wrong_aborts += layer["pessimistic_aborts"]
    oracle_aborts = layer["conflict_aborts"] + layer["pessimistic_aborts"]
    if (layer["committed"], oracle_aborts) != (committed, aborted):
        failures.append(
            f"oracle counted {layer['committed']} commits and {oracle_aborts} aborts; "
            f"clients saw {committed} and {aborted}"
        )
    message, reader = check_final_state(db, scripts, results, rows)
    if message:
        failures.append(message)
    if w.durable:
        db.close()
        log_path = Path(db.wal.path)
    else:
        log_path = work / "decisions.wal"
        write_decision_log(db, scripts, results, load + [reader], rows, log_path)
    recover_s, message = check_recovery(w, db, log_path)
    if message:
        failures.append(message)
    shutil.rmtree(work)
    failed = raised + wrong_aborts
    return Round(setup_s, wall, results, committed, aborted, raised, failed, recover_s, peak_rss_mb, layer, failures)


# -- checks -------------------------------------------------------------------------------


def check_final_state(db, scripts: list[Scripts], results: list[ClientResult], rows):
    """A fresh transaction must read, for every row, the value of the committed
    writer with the highest commit timestamp, per the clients' own decisions.

    Returns (failure message or "", the reader's decision as (start_ts, commit_ts, None)).
    """
    best_ts = [0] * LOAD_ROWS  # the load commits before any script
    best_value = [LOAD_VALUE] * LOAD_ROWS
    for c, (s, r) in enumerate(zip(scripts, results)):
        for k, tc in enumerate(r.outcome):
            if tc < 0:
                continue
            value = value_of(c, k)
            for code in s.script(k):
                row = code >> 1
                if code & 1 and tc > best_ts[row]:
                    best_ts[row] = tc
                    best_value[row] = value
    h = db.begin()
    wrong = [i for i in range(LOAD_ROWS) if h.read(rows[i]) != best_value[i]]
    d = h.commit()
    message = f"{len(wrong)} rows do not read their latest committed value, first row {wrong[0]}" if wrong else ""
    if not d.committed:
        message += " read-only verification transaction aborted"
    return message, (h.start_ts, d.commit_ts, None)


def write_decision_log(db, scripts, results, decisions, rows, path: Path) -> None:
    """Write the log a WAL-backed engine would have written for these decisions.

    `decisions` holds (start_ts, commit_ts, first row of a load transaction or
    None); the clients' decisions come from their results and scripts.
    """
    records = []
    for start, tc, base in decisions:
        written = rows[base : base + LOAD_TXN_ROWS] if base is not None else ()
        records.append((tc, WalRecord(KIND_COMMIT, start, tc, tuple(sorted(written)))))
    for s, r in zip(scripts, results):
        for k, (start, tc) in enumerate(zip(r.start_ts, r.outcome)):
            if tc == ABORTED:
                records.append((start, WalRecord(KIND_ABORT, start)))
            elif tc >= 0:
                written = {rows[code >> 1] for code in s.script(k) if code & 1}
                records.append((tc, WalRecord(KIND_COMMIT, start, tc, tuple(sorted(written)))))
    records.sort(key=lambda kr: kr[0])
    log = WriteAheadLog(path, BatchPolicy(max_bytes=1 << 20, max_delay=60.0))
    try:
        log.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=db.timestamps.reserved_up_to))
        for _, rec in records:
            log.append(rec)
    finally:
        log.close()


def check_recovery(w: Workload, db, log_path: Path) -> tuple[list[float], str]:
    """Time Database.recover on the log; the recovered oracle state must equal the live one.

    Returns (seconds of each recovery, failure message or "").
    """
    seconds, differ = [], []
    live = db.oracle.table
    for i in range(RECOVER_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        recovered = Database.recover(log_path, w.policy, capacity=w.capacity)
        seconds.append(time.perf_counter() - t0)
        recovered.close()
        if i == 0:
            back = recovered.oracle.table
            differ = [
                name
                for name in ("commit_records", "aborted", "last_commit", "t_max")
                if getattr(live, name) != getattr(back, name)
            ]
            del back
        del recovered
    return seconds, ("recovered " + ", ".join(differ) + " differ from the live oracle" if differ else "")


# -- metrics --------------------------------------------------------------------------------


def percentile(sorted_samples, q: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    return sorted_samples[max(0, math.ceil(q * len(sorted_samples)) - 1)]


def slow_quartile(values, slower_is_higher: bool = True) -> float:
    """The quartile of per-round values on the slow side: the upper quartile of
    times, the lower quartile of rates.

    The host switches, from one second to the next, between two speeds about
    1.6 times apart, and the share of time spent in each changes from run to
    run. The slow speed is the common one, so the slow quartile of the rounds
    follows it and spreads over runs about half as much as the median (2-vCPU
    VM, 10 seeds per workload). An engine change moves every round, and so
    this quartile with it.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2 if slower_is_higher else 0]


def end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str, str]]:
    """Each timing is the slow quartile over rounds of the round's own value."""
    n = len(rounds)
    m = {
        "txn_per_s": (
            slow_quartile((r.txn_per_s for r in rounds), slower_is_higher=False),
            "1/s",
            f"lower quartile of {n} rounds, committed / wall of the timed phase",
        )
    }
    for kind in ("txn", "commit", "read"):
        p50s, p99s, counts = zip(*(r.latency[kind] for r in rounds))
        note = f"upper quartile of {n} rounds, at least {min(counts)} samples per round"
        m[f"{kind}_p50_us"] = (slow_quartile(p50s) * 1e6, "us", note)
        m[f"{kind}_p99_us"] = (slow_quartile(p99s) * 1e6, "us", note)
    m["setup_s"] = (slow_quartile(r.setup_s for r in rounds), "s", f"upper quartile of {n} load phases")
    recoveries = [x for r in rounds for x in r.recover_s]
    m["recover_s"] = (slow_quartile(recoveries), "s", f"upper quartile of {len(recoveries)} recoveries")
    # the first round's reading: no check or recovery has run yet
    m["peak_rss_mb"] = (rounds[0].peak_rss_mb, "MB", "process peak through the first timed phase")
    return m


def per_layer(rounds: list[Round], untraced: list[Round], tracer: Tracer) -> dict[str, tuple[float, str, str]]:
    st = tracer.stats()
    lay = {k: sum(r.layer[k] for r in rounds) for k in rounds[0].layer}
    end = rounds[-1].layer  # sizes at the end of the last round
    committed = sum(r.committed for r in rounds)
    m = {}

    def spans(name: str, *what: str) -> None:
        s = st.get(name)
        d = sorted(s.durations) if s else []
        for key in what:
            if key == "calls":
                m[f"{name}.calls"] = (len(d), "count", "")
            elif key == "self_us":
                m[f"{name}.self_us"] = (s.self_s * 1e6 if s else 0.0, "us", "total self time")
            elif key == "max_us":
                m[f"{name}.max_us"] = (d[-1] * 1e6 if d else 0.0, "us", "longest call")
            else:
                q = {"p50_us": 0.50, "p99_us": 0.99}[key]
                m[f"{name}.{key}"] = (percentile(d, q) * 1e6 if d else 0.0, "us", f"n={len(d)}")

    spans("timestamps.next", "calls", "self_us", "max_us")
    m["timestamps.reservations"] = (lay["reserved_up_to"] / DEFAULT_BLOCK_SIZE, "count", "blocks")
    spans("mvstore.snapshot_read", "calls", "self_us", "p99_us")
    reads = st["mvstore.snapshot_read"].calls
    lookups = tracer.counts("oracle.commit_ts_of", within="mvstore.snapshot_read")
    m["mvstore.lookups_per_read"] = (lookups / reads, "ratio", f"{lookups} / {reads}")
    spans("mvstore.put_tentative", "calls", "self_us")
    spans("mvstore.purge_aborted", "calls", "self_us")
    spans("mvstore.compact", "calls", "self_us", "max_us")
    m["mvstore.rows_live"] = (end["rows_live"], "count", "at the end of the last round")
    m["mvstore.versions_live"] = (end["versions_live"], "count", "at the end of the last round")
    spans("oracle.submit", "calls", "p99_us", "self_us")
    submits = st["oracle.submit"].calls
    m["oracle.commit_ratio"] = (lay["committed"] / submits, "ratio", f"{lay['committed']} / {submits}")
    for key in ("conflict_aborts", "pessimistic_aborts", "read_only_commits"):
        m[f"oracle.{key}"] = (lay[key], "count", "")
    m["oracle.commit_ts_of.calls"] = (tracer.counts("oracle.commit_ts_of"), "count", "counted, not spanned")
    for key in ("commit_records", "aborted", "last_commit"):
        m[f"oracle.{key}"] = (end[key], "count", "size at the end of the last round")
    # WAL metrics read 0 where the WAL is off
    spans("wal.append", "calls", "self_us")
    spans("wal.ack_wait", "calls", "self_us", "p50_us")
    flushes = lay.get("flush_count", 0)
    appends = m["wal.append.calls"][0]
    m["wal.flush_count"] = (flushes, "count", "")
    m["wal.records_per_flush"] = (appends / flushes if flushes else 0.0, "ratio", f"{appends} / {flushes}")
    log_bytes = lay.get("log_bytes", 0)
    m["wal.bytes_per_commit"] = (log_bytes / committed, "B", f"{log_bytes} B logged by the timed phases")
    for op in ("begin", "read", "write", "commit"):
        spans(f"txn.{op}", "self_us")
    plain = statistics.median(r.txn_per_s for r in untraced)
    traced = statistics.median(r.txn_per_s for r in rounds)
    m["trace.overhead_pct"] = (
        (plain / traced - 1.0) * 100.0,
        "%",
        f"untraced {plain:.1f} txn/s, traced {traced:.1f} txn/s",
    )
    return m


# -- entry point --------------------------------------------------------------------------


def machine_context() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "switch_interval_s": sys.getswitchinterval(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"], help="'all' runs each workload in turn"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="nominal length of the driven work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")

    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        codes = [
            subprocess.run([sys.executable, __file__, *sys.argv[1:], "--workload", name]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    w = WORKLOADS[args.workload]
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    context = machine_context()
    print(f"workload {w.name}: {w.describe()}")
    print(f"machine: {json.dumps(context)}")
    n_rounds = w.rounds(args.seconds)
    inputs, digest = make_scripts(w, args.seed, n_rounds)
    print(f"scripts: seed={args.seed} rounds={n_rounds} txns={n_rounds * w.round_txns} digest={digest}")
    rows = [ROW.pack(i) for i in range(LOAD_ROWS)]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))

    failures = []

    def run_rounds(label: str, tracer=None) -> list[Round]:
        rounds = []
        for i, scripts in enumerate(inputs):
            r = run_round(w, scripts, rows, work / f"{label}{i}", f"{label}{i}", tracer)
            lat = ", ".join(f"{kind} {p50 * 1e6:.1f}/{p99 * 1e6:.0f}" for kind, (p50, p99, _) in r.latency.items())
            print(
                f"{label} round {i}: setup {r.setup_s:.3f} s, {r.committed}/{r.attempted} committed "
                f"in {r.wall_s:.3f} s = {r.txn_per_s:.1f} txn/s, p50/p99 us: {lat}, "
                f"recover {statistics.median(r.recover_s):.3f} s",
                flush=True,
            )
            failures.extend(f"{label} round {i}: {f}" for f in r.failures)
            rounds.append(r)
        return rounds

    try:
        if args.trace:
            untraced = run_rounds("untraced")
            tracer = Tracer()
            rounds = run_rounds("traced", tracer)
            metrics = per_layer(rounds, untraced, tracer)
            trace_path = OUT / f"trace-{w.name}.csv.gz"  # the latest traced run of the workload
            header = {"workload": w.name, "seed": args.seed, "digest": digest, **context}
            tracer.write(trace_path, json.dumps(header))
            print(f"trace: {tracer.span_count()} spans written to {trace_path.relative_to(ROOT)}")
            rounds = untraced + rounds
        else:
            rounds = run_rounds("run")
            metrics = end_to_end(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"CHECK FAILED {f}")
    checks = "ok" if not failures else f"{len(failures)} failed"
    print(
        "checks (no exceptions, WSI read-only never abort, no pessimistic aborts when unbounded, "
        f"oracle counts match, latest committed values visible, recovered equals live): {checks}"
    )
    # Which of two concurrent transactions loses a conflict depends on how the
    # clients interleave, so the abort count differs between runs of the same
    # inputs. A conflict abort is the engine's right answer, so `failed` counts
    # only transactions whose outcome is wrong: raised, or aborted where the
    # engine must never abort.
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    aborts = sum(r.aborted + r.raised for r in rounds)
    print(f"abort_rate = {aborts / attempted:.6f} ratio  ({aborts} aborted or raised of {attempted})")
    print(f"failed = {failed}  (raised, or aborted where the engine must never abort)")
    for name, (value, unit, note) in metrics.items():
        if name in PRINTED_ONLY:
            note += ", printed only"
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

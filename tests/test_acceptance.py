"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. The heavyweight statistical criteria use fixed seeds so the
suite is reproducible.
"""

import contextlib
import os
import random
import shutil
import statistics
import struct
import time
from pathlib import Path

import pytest

from helpers import TableTwin, random_history, random_schedule, timestamp_blocks
from wsikv.history import (
    construct_serial,
    is_serializable,
    parse,
    replay_policy,
    verdict_line,
    view_equivalent,
)
from wsikv.oracle import DuplicateRequestError, IsolationPolicy, StatusOracle, recover
from wsikv.timestamps import TimestampOracle
from wsikv.txn import Database
from wsikv.wal import WriteAheadLog
from wsikv.workload import WorkloadSpec, bench_oracle, run

SI, WSI = IsolationPolicy.SI, IsolationPolicy.WSI
FIXTURES = Path(__file__).resolve().parent.parent / "histories"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed {detail}"


# -- 1. golden history suite ------------------------------------------------------


def test_c1_golden_history_suite(capsys):
    t0 = time.perf_counter()
    lines = [l for l in (FIXTURES / "paper.txt").read_text().splitlines() if l.strip()]
    golden = [
        l for l in (FIXTURES / "paper_verdicts.txt").read_text().splitlines() if l.strip()
    ]
    got = [verdict_line(parse(line)) for line in lines]
    elapsed = time.perf_counter() - t0
    # spot-check the distinguishing facts beyond the golden text
    blind = parse(lines[3])
    serial_form = construct_serial(blind).format()
    with capsys.disabled():
        report(
            1,
            "golden history suite",
            got == golden and serial_form == lines[4] and elapsed < 1.0,
            f"({elapsed * 1000:.0f} ms)",
        )


# -- 2/3. serializability of admissible runs; non-serializable gap under SI ----------


HISTORY_SAMPLES = 10_000


def _generated_histories():
    rng = random.Random(20_120_410)
    return [random_history(rng) for _ in range(HISTORY_SAMPLES)]


def test_c2_admissible_runs_are_serializable(capsys):
    t0 = time.perf_counter()
    admissible = 0
    counterexamples = 0
    for h in _generated_histories():
        decisions = replay_policy(h, WSI)
        if not all(decisions[t].committed for t in h.committed_txns()):
            continue
        admissible += 1
        if not is_serializable(h).serializable:
            counterexamples += 1
            continue
        serial = construct_serial(h)
        seen = []
        for ev in serial.events:  # serial form: no interleaving between txns
            if not seen or seen[-1] != ev.txn:
                if ev.txn in seen:
                    counterexamples += 1
                    break
                seen.append(ev.txn)
        else:
            if not view_equivalent(h, serial):  # and replay-equivalent to h
                counterexamples += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            2,
            "admissible runs serializable + serial form equivalent",
            counterexamples == 0 and elapsed < 120.0 and admissible > 1000,
            f"({admissible}/{HISTORY_SAMPLES} admissible, "
            f"{counterexamples} counterexamples, {elapsed:.1f} s)",
        )


def test_c3_si_admits_non_serializable_histories(capsys):
    found = 0
    scanned = 0
    for h in _generated_histories():
        scanned += 1
        decisions = replay_policy(h, SI)
        if not all(decisions[t].committed for t in h.committed_txns()):
            continue
        if not is_serializable(h).serializable:
            found += 1
            if found >= 5:
                break
    with capsys.disabled():
        report(
            3,
            "SI admits non-serializable histories",
            found >= 1,
            f"({found} found within {scanned} histories)",
        )


# -- 4. read-only exemption across the workload matrix --------------------------------


def test_c4_read_only_transactions_never_abort(capsys):
    violations = []
    total_read_only = 0
    for policy in (SI, WSI):
        for dist in ("uniform", "zipfian", "zipfian-latest"):
            spec = WorkloadSpec(
                key_space=2000,
                mix="mixed",
                distribution=dist,
                seed=41,
                txn_count=3000,
                client_count=4,
            )
            metrics = run(spec, policy)
            total_read_only += metrics.read_only_committed
            if metrics.read_only_aborted != 0 or metrics.read_only_committed == 0:
                violations.append((policy.value, dist, metrics.read_only_aborted))
    with capsys.disabled():
        report(
            4,
            "read-only exemption across the matrix",
            not violations,
            f"({total_read_only} read-only commits, violations={violations})",
        )


# -- 5. bounded-table differential ------------------------------------------------------


def _differential_stream(seed: int, policy: IsolationPolicy, capacities):
    """One stream, identical on both sides.

    The unbounded oracle runs closed-loop and is the source of truth. Each
    bounded oracle sees the identical request stream and, to keep it
    identical, its table mirrors the unbounded commit history: after a
    divergent (extra) abort the unbounded outcome is applied to the bounded
    table and one timestamp draw is burned so the commit clocks stay in
    lockstep. Divergences may then only be extra aborts from the t_max check.
    """
    rng = random.Random(seed)
    schedule = random_schedule(rng, n_txns=30, n_rows=24, max_live=8)
    unbounded = StatusOracle(policy)
    shadows = {cap: StatusOracle(policy, capacity=cap) for cap in capacities}
    twins = {cap: TableTwin(cap) for cap in capacities}
    starts: dict[int, int] = {}
    violations = []
    extra_aborts = 0
    for ev in schedule:
        if ev[0] == "begin":
            starts[ev[1]] = unbounded.start()
            for shadow in shadows.values():
                if shadow.start() != starts[ev[1]]:
                    violations.append(("clock-skew", ev[1]))
            continue
        _, i, ws, rs = ev
        start = starts[i]
        writes = dict.fromkeys(ws, b"v%d" % i)
        base = unbounded.submit(start, writes, rs)
        for cap, shadow in shadows.items():
            decision = shadow.submit(start, writes, rs)
            if decision.committed and not base.committed:
                violations.append(("subset", seed, cap, i))
            elif decision.committed and base.committed:
                if decision.commit_ts != base.commit_ts:
                    violations.append(("commit-ts", seed, cap, i))
            elif base.committed:  # extra abort in the bounded table
                extra_aborts += 1
                if decision.cause != "pessimistic":
                    violations.append(("untagged-abort", seed, cap, i))
                # mirror the unbounded outcome to keep the streams identical
                shadow.table.apply_commit(start, base.commit_ts, sorted(ws))
                shadow.timestamps.next()
            if base.committed:
                twins[cap].apply_commit(start, base.commit_ts, ws)
    for cap, shadow in shadows.items():
        if shadow.table.t_max != twins[cap].t_max:
            violations.append(("t-max", seed, cap))
        if shadow.table.last_commit != twins[cap].last_commit:
            violations.append(("last-commit", seed, cap))
    return violations, extra_aborts


def test_c5_bounded_differential(capsys):
    violations = []
    extra_aborts = 0
    identical = 0
    for seed in range(1000):
        policy = WSI if seed % 2 else SI
        # an unbounded table must decide bit-identically to a bounded one
        # that holds every row of the schedule and so never evicts
        rng = random.Random(seed)
        schedule = random_schedule(rng, n_txns=12, n_rows=8)
        via_policy = StatusOracle(policy)
        via_bounded = StatusOracle(policy, capacity=8)
        starts_a: dict[int, int] = {}
        starts_b: dict[int, int] = {}
        same = True
        for ev in schedule:
            if ev[0] == "begin":
                starts_a[ev[1]] = via_policy.start()
                starts_b[ev[1]] = via_bounded.start()
            else:
                _, i, ws, rs = ev
                writes = dict.fromkeys(ws, b"v%d" % i)
                da = via_policy.submit(starts_a[i], writes, rs)
                db = via_bounded.submit(starts_b[i], writes, rs)
                same = same and da == db
        identical += same
        if not same:
            violations.append(("unbounded-mismatch", seed))
        stream_violations, stream_extras = _differential_stream(
            seed, policy, (4, 16, 64)
        )
        violations.extend(stream_violations)
        extra_aborts += stream_extras
    with capsys.disabled():
        report(
            5,
            "bounded-table differential",
            not violations and identical == 1000 and extra_aborts > 0,
            f"({extra_aborts} pessimistic extra aborts over 1000 streams, "
            f"violations={violations[:5]})",
        )


# -- 6. crash-recovery equivalence --------------------------------------------------------


@timestamp_blocks(64)
def test_c6_crash_recovery_equivalence(tmp_path, capsys):
    rng = random.Random(606)
    rows = [struct.pack("<q", i) for i in range(32)]
    violations = []
    trials = 12
    for trial in range(trials):
        target = rng.randint(1, 1000)
        path = tmp_path / f"crash{trial}.wal"
        wal = WriteAheadLog(path)
        oracle = StatusOracle(WSI, capacity=16, wal=wal)
        twin = TableTwin(16)
        issued: list[int] = []
        live: list[int] = []
        decided = 0
        while decided < target:
            if live and (len(live) >= 6 or rng.random() < 0.55):
                start = live.pop(rng.randrange(len(live)))
                if rng.random() < 0.08:
                    oracle.report_abort(start)  # acknowledged abandonment
                    twin.apply_abort(start)
                else:
                    ws = dict.fromkeys(rng.sample(rows, rng.randint(0, 3)), b"v")
                    rs = frozenset(rng.sample(rows, rng.randint(0, 3))) if ws else frozenset()
                    decision = oracle.submit(start, ws, rs)
                    if not ws:  # read-only: commits at its start, with no record
                        if decision != (True, start, None):
                            violations.append((trial, "read-only decision", start, decision))
                        twin.apply_read_only(start)
                    elif decision.committed:
                        issued.append(decision.commit_ts)
                        twin.apply_commit(start, decision.commit_ts, ws)
                    else:
                        twin.apply_abort(start)
                decided += 1
            else:
                start = oracle.start()
                issued.append(start)
                live.append(start)
        # kill: abandon the log without closing; sometimes leave a torn tail
        if trial % 2:
            with open(path, "ab") as f:
                f.write(b"\x77\x00\x00\x00\x13\x37\x00")
        table, highest = recover(path, capacity=16)
        if table.last_commit != twin.last_commit:
            violations.append((trial, "last_commit"))
        if table.t_max != twin.t_max:
            violations.append((trial, "t_max"))
        if table.commit_records != twin.commit_records:
            violations.append((trial, "commit_records"))
        if twin.aborted & table.commit_records.keys():
            violations.append((trial, "aborted start recovered as committed"))
        if highest < max(issued):
            violations.append((trial, "reservation below issued timestamps"))
        resumed = TimestampOracle(start_after=highest)
        fresh = {resumed.next() for _ in range(50)}
        if fresh & set(issued):
            violations.append((trial, "timestamp reissued"))
        # presumed abort: an oracle opened on the crashed log refuses every
        # start decided before the kill, aborted and read-only ones included,
        # and every start live at it
        copy = tmp_path / f"crash{trial}.copy.wal"
        shutil.copyfile(path, copy)
        reopened = StatusOracle(WSI, capacity=16, wal=WriteAheadLog(copy))
        for start in twin.aborted | twin.read_only | twin.commit_records.keys() | set(live):
            for request in (
                lambda: reopened.submit(start, {rows[0]: b"v"}, (rows[1],)),
                lambda: reopened.submit(start, {}),
                lambda: reopened.report_abort(start),
            ):
                try:
                    request()
                except DuplicateRequestError:
                    continue
                violations.append((trial, "start decided after recovery", start))
        if reopened.start() != highest + 1:
            violations.append((trial, "first start after recovery"))
        reopened.wal.close()
    with capsys.disabled():
        report(
            6,
            "crash-recovery equivalence",
            not violations,
            f"({trials} kill points, violations={violations})",
        )


# -- 7. contention ordering ------------------------------------------------------------


@pytest.mark.slow
def test_c7_contention_ordering(capsys):
    t0 = time.perf_counter()
    seeds = (1, 2, 3, 4, 5)
    means: dict[tuple[str, str], float] = {}
    for dist in ("uniform", "zipfian", "zipfian-latest"):
        for policy in (SI, WSI):
            rates = []
            for seed in seeds:
                spec = WorkloadSpec(
                    key_space=100_000,
                    mix="mixed",
                    distribution=dist,
                    seed=seed,
                    txn_count=50_000,
                    client_count=8,
                )
                rates.append(run(spec, policy).abort_rate)
            means[(dist, policy.value)] = sum(rates) / len(rates)
    elapsed = time.perf_counter() - t0
    ordering_ok = all(
        means[("zipfian-latest", p)] >= means[("zipfian", p)] >= means[("uniform", p)]
        for p in ("si", "wsi")
    )
    wsi_ge_si = means[("zipfian-latest", "wsi")] >= means[("zipfian-latest", "si")]
    detail = ", ".join(
        f"{d}/{p}={means[(d, p)]:.4f}" for d, p in sorted(means)
    )
    with capsys.disabled():
        report(
            7,
            "contention ordering",
            ordering_ok and wsi_ge_si and elapsed < 600.0,
            f"({detail}; {elapsed:.0f} s)",
        )


# -- 8. anomaly suite ---------------------------------------------------------------------


ANOMALY_SCHEDULES = 10_000


def _run_anomaly_schedule(rng: random.Random, policy: IsolationPolicy):
    """One randomized interleaving; returns observed anomalies."""
    db = Database(policy)
    items = (b"x", b"y", b"z")
    for item in items:
        db.seed_committed(item, b"init")
    writer_of = {b"init": 0}
    n_txns = rng.randint(2, 4)
    scripts = []
    for t in range(1, n_txns + 1):
        ops = []
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(items)
            shape = rng.random()
            if shape < 0.4:
                ops.append(("r", row))
            elif shape < 0.7:
                ops.append(("r", row))  # read-modify-write, the lost-update shape
                ops.append(("w", row))
            else:
                ops.append(("w", row))
        if ops[0][0] == "r" and rng.random() < 0.5:
            ops.append(("r", ops[0][1]))  # repeated read to probe fuzziness
        value = b"t%d" % t
        writer_of[value] = t
        scripts.append((t, value, list(ops)))
    handles = {}
    reads = []  # (txn, row, value, before_own_write)
    touched = {}  # txn -> (read rows, written rows)
    anomalies = []
    queues = {t: ops for t, _, ops in scripts}
    values = {t: v for t, v, _ in scripts}
    order = [t for t, _, _ in scripts]
    finished = {}
    while queues:
        t = rng.choice(list(queues))
        if t not in handles:
            handles[t] = db.begin()
            touched[t] = (set(), set())
        if queues[t]:
            kind, row = queues[t].pop(0)
            if kind == "r":
                value = handles[t].read(row)
                reads.append((t, row, value, row not in touched[t][1]))
                touched[t][0].add(row)
            else:
                handles[t].write(row, values[t])
                touched[t][1].add(row)
        else:
            finished[t] = handles[t].commit()
            del queues[t]
    # dirty reads: every observed value was written by self or by a writer
    # committed before the reader's snapshot
    for t, row, value, _ in reads:
        writer = writer_of[value]
        if writer in (0, t):
            continue
        decision = finished[writer]  # every transaction commits, so each has its decision
        if not decision.committed or decision.commit_ts >= handles[t].start_ts:
            anomalies.append(("dirty-read", t, row))
    # fuzzy reads: repeated reads before any own write must agree
    firsts = {}
    for t, row, value, before_own in reads:
        if not before_own:
            continue
        if (t, row) in firsts and firsts[(t, row)] != value:
            anomalies.append(("fuzzy-read", t, row))
        firsts.setdefault((t, row), value)
    # lost update: concurrent committed read-modify-writes of one row
    committed = [t for t, d in finished.items() if d.committed]
    for i in committed:
        for j in committed:
            if i >= j:
                continue
            rows_both = (touched[i][0] & touched[i][1]) & (touched[j][0] & touched[j][1])
            if not rows_both:
                continue
            ts_i, tc_i = handles[i].start_ts, finished[i].commit_ts
            ts_j, tc_j = handles[j].start_ts, finished[j].commit_ts
            if ts_i < tc_j and ts_j < tc_i:
                anomalies.append(("lost-update", i, j))
    return anomalies


def test_c8_anomaly_suite(capsys):
    rng = random.Random(808)
    anomalies = []
    for k in range(ANOMALY_SCHEDULES):
        policy = SI if k % 2 else WSI
        anomalies.extend(_run_anomaly_schedule(rng, policy))
    with capsys.disabled():
        report(
            8,
            "anomaly suite (dirty/fuzzy/lost-update)",
            not anomalies,
            f"({ANOMALY_SCHEDULES} schedules, anomalies={anomalies[:5]})",
        )


# -- 9. oracle throughput comparability ---------------------------------------------------


@contextlib.contextmanager
def _one_cpu():
    """Pin the calling thread, and the threads it starts, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def test_c9_policy_throughput_within_20_percent(capsys):
    # The host switches between speeds, so the ratio is taken within
    # adjacent SI/WSI pairs, alternating which policy runs first, and the
    # median pair decides; a uniform slowdown of one policy still shows in
    # every pair. A warm-up run per policy comes first. The clients share one
    # CPU, so that how the host spreads four GIL-bound threads over its CPUs
    # does not set the rate of either policy.
    ratios = []
    with _one_cpu():
        for policy in (SI, WSI):
            bench_oracle(policy, clients=4, requests=5_000, rows_per_txn=5, seed=90)
        for pair in range(24):
            rates = {}
            for policy in (SI, WSI) if pair % 2 else (WSI, SI):
                result = bench_oracle(
                    policy, clients=4, requests=10_000, rows_per_txn=5, key_space=10_000, seed=91
                )
                rates[policy] = result.decisions_per_sec
            ratios.append(rates[SI] / rates[WSI])
    m = statistics.median(ratios)
    ratio = max(m, 1 / m)
    with capsys.disabled():
        report(
            9,
            "SI/WSI decision throughput within 20%",
            ratio <= 1.20,
            f"(median si/wsi over {len(ratios)} pairs {m:.3f}, "
            f"pairs {min(ratios):.3f}-{max(ratios):.3f}, ratio={ratio:.3f})",
        )

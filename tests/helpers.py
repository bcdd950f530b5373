"""Shared generators and independent reference models for the test suite.

The reference models here deliberately re-derive behavior from first
principles (min-scans, pairwise overlap checks) instead of reusing the
package's data structures, so the tests cross-check two routes.
"""

from __future__ import annotations

import random

from wsikv.history import History, HistoryEvent
from wsikv.oracle import IsolationPolicy, StatusOracle

ITEMS = "abcd"


def random_history(
    rng: random.Random,
    max_txns: int = 6,
    max_items: int = 4,
    max_ops: int = 3,
    abort_prob: float = 0.1,
) -> History:
    """Random interleaved history; every transaction ends in commit or abort."""
    n_txns = rng.randint(1, max_txns)
    items = ITEMS[: rng.randint(1, max_items)]
    queues = []
    for t in range(1, n_txns + 1):
        ops: list[HistoryEvent] = []
        for k in range(rng.randint(0, max_ops)):
            item = rng.choice(items)
            if rng.random() < 0.5:
                ops.append(HistoryEvent("r", t, item))
            else:
                ops.append(HistoryEvent("w", t, item, f"v{t}w{k}"))
        terminal = "a" if rng.random() < abort_prob else "c"
        ops.append(HistoryEvent(terminal, t))
        queues.append(ops)
    events: list[HistoryEvent] = []
    live = [q for q in queues if q]
    while live:
        q = rng.choice(live)
        events.append(q.pop(0))
        if not q:
            live.remove(q)
    return History(events)


def random_schedule(
    rng: random.Random,
    n_txns: int = 24,
    n_rows: int = 10,
    max_live: int = 6,
    max_rows_per_set: int = 3,
):
    """Interleaved begin/commit events for driving a status oracle directly.

    Yields ("begin", i) and ("commit", i, write_rows, read_rows) tuples; every
    begun transaction eventually submits one commit request.
    """
    rows = [bytes([65 + i]) for i in range(n_rows)]
    schedule = []
    pending: list[int] = []
    nxt = 0
    while nxt < n_txns or pending:
        commit_turn = pending and (
            nxt >= n_txns or len(pending) >= max_live or rng.random() < 0.5
        )
        if commit_turn:
            i = pending.pop(rng.randrange(len(pending)))
            ws = frozenset(rng.sample(rows, rng.randint(0, max_rows_per_set)))
            # well-behaved clients submit an empty pair when read-only
            rs = frozenset(rng.sample(rows, rng.randint(0, max_rows_per_set))) if ws else frozenset()
            schedule.append(("commit", i, ws, rs))
        else:
            schedule.append(("begin", nxt))
            pending.append(nxt)
            nxt += 1
    return schedule


def drive_schedule(schedule, policy: IsolationPolicy, capacity: int | None = None):
    """Replay a schedule against a fresh oracle.

    Returns (decisions by txn index, oracle, start ts by txn index, requests
    by txn index).
    """
    oracle = StatusOracle(policy, capacity=capacity)
    starts: dict[int, int] = {}
    requests: dict[int, tuple[frozenset, frozenset]] = {}
    decisions = {}
    for ev in schedule:
        if ev[0] == "begin":
            starts[ev[1]] = oracle.start()
        else:
            _, i, ws, rs = ev
            requests[i] = (ws, rs)
            decisions[i] = oracle.submit(starts[i], ws, rs)
    return decisions, oracle, starts, requests


class TableTwin:
    """Independent model of the bounded last-committer table.

    Read-only commits are kept apart from writing ones: the table holds no
    outcome of theirs. Eviction is a plain min-scan over (commit ts, row)
    rather than the table's ordered front, so it shares no code with the
    implementation under test.
    """

    def __init__(self, capacity: int | None):
        self.capacity = capacity
        self.last_commit: dict[bytes, int] = {}
        self.t_max = 0
        self.commit_records: dict[int, int] = {}
        self.read_only: set[int] = set()
        self.aborted: set[int] = set()

    def apply_commit(self, start_ts: int, commit_ts: int, rows) -> None:
        self.commit_records[start_ts] = commit_ts
        for row in rows:
            self.last_commit[row] = commit_ts
        if self.capacity is not None:
            while len(self.last_commit) > self.capacity:
                victim = min(self.last_commit, key=lambda r: (self.last_commit[r], r))
                ts = self.last_commit.pop(victim)
                if ts > self.t_max:
                    self.t_max = ts

    def apply_read_only(self, start_ts: int) -> None:
        self.read_only.add(start_ts)

    def apply_abort(self, start_ts: int) -> None:
        self.aborted.add(start_ts)


def temporal_overlap(ts_i, tc_i, ts_j, tc_j) -> bool:
    return ts_i < tc_j and ts_j < tc_i


def si_safety_violations(committed):
    """Pairs of committed transactions with both spatial and temporal overlap.

    `committed` holds (start_ts, commit_ts, write_set) triples.
    """
    bad = []
    for a in range(len(committed)):
        for b in range(a + 1, len(committed)):
            ts_i, tc_i, ws_i = committed[a]
            ts_j, tc_j, ws_j = committed[b]
            if ws_i & ws_j and temporal_overlap(ts_i, tc_i, ts_j, tc_j):
                bad.append((committed[a], committed[b]))
    return bad


def wsi_safety_violations(committed):
    """Pairs with read-write spatial overlap committed inside the reader's life.

    `committed` holds (start_ts, commit_ts, write_set, read_set) tuples; a
    violation is txn_j writing a row txn_i read with
    start(i) < commit(j) < commit(i). Read-only transactions are exempt.
    """
    bad = []
    for i in range(len(committed)):
        for j in range(len(committed)):
            if i == j:
                continue
            ts_i, tc_i, ws_i, rs_i = committed[i]
            _, tc_j, ws_j, _ = committed[j]
            if not ws_i or not ws_j:
                continue  # read-only exemption
            if (rs_i & ws_j) and ts_i < tc_j < tc_i:
                bad.append((committed[i], committed[j]))
    return bad

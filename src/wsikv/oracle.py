"""Status oracle: conflict detection, commit timestamps, transaction outcomes.

Every commit request goes through `StatusOracle.submit` with both of its
row-identifier sets, and the oracle alone applies the isolation policy.
Under snapshot isolation the write set is checked against the last committer
of each row; under write-snapshot isolation the read set is checked instead.
A request with an empty write set commits unchecked under either, at its
start timestamp: that is its serialization point under write-snapshot
isolation, and snapshot isolation checks nothing there either. A bounded
table tracks only the most recently committed rows and keeps a watermark
t_max, the largest commit timestamp ever evicted: a request touching an
untracked row pessimistically aborts when its start timestamp is below the
watermark. An abort decision names its cause, "conflict" or "pessimistic".
The oracle answers no status queries: a client learns its outcome from the
decision that `submit` returns, and readers never ask, because the store
decides visibility.

The oracle owns the transaction lifecycle. Start timestamps are drawn in the
critical section that decides a commit and installs its versions in the
store, so no transaction starts while a commit is half installed and the
store decides visibility without the oracle. A started transaction stays
live until its decision, which installs its writes or discards them, and the
oldest live start is the garbage-collection watermark.

The oracle's lock is the one lock of shared transaction state: every draw of
a timestamp, every writing or aborting decision, every install in the store
and every compaction of it runs inside it, so the timestamp oracle and the
store have no lock of their own. A read-only commit takes no lock and draws
no timestamp: it appends its record under the log's own lock, then stores its
outcome and leaves the live set in one atomic operation each (see the store's
list (c)). No log flush is waited for while the lock is held: a decision or
a start only appends to the log inside it and waits for durability after
releasing it.
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import NamedTuple

from .timestamps import TimestampOracle
from .wal import KIND_ABORT, KIND_COMMIT, WalRecord

RowId = bytes


class OracleError(RuntimeError):
    pass


class DuplicateRequestError(OracleError):
    """A commit request arrived for a start timestamp that is already decided."""


class AlreadyCommittedError(OracleError):
    """report_abort targeted a committed transaction."""


class IsolationPolicy(enum.Enum):
    SI = "si"
    WSI = "wsi"

    @classmethod
    def from_string(cls, s: str) -> "IsolationPolicy":
        try:
            return cls(s.lower())
        except ValueError:
            raise ValueError(f"unknown isolation policy {s!r}") from None


class CommitDecision(NamedTuple):
    committed: bool
    commit_ts: int | None = None
    cause: str | None = None  # why an abort happened; None on commit

    def __str__(self) -> str:
        return f"committed({self.commit_ts})" if self.committed else "aborted"


_WSI = IsolationPolicy.WSI
_new_tuple = tuple.__new__  # builds a CommitDecision without its generated __new__


class CommitTable:
    """Last-committer map plus transaction outcome records.

    When capacity is bounded, inserting beyond it evicts the entries with the
    smallest commit timestamps and folds them into t_max, so t_max is exactly
    the boundary below which per-row information has been discarded.
    Commits arrive in ascending commit ts with sorted rows, so moving each
    committed row to the end keeps last_commit in eviction order. A dict keeps
    deleted entries at the front of its entry array, where every eviction
    would walk them, so once the evictions since the last rebuild exceed the
    capacity last_commit is copied afresh, in the same order.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self.last_commit: dict[RowId, int] = {}
        self.t_max = 0
        self.commit_records: dict[int, int] = {}
        self.aborted: set[int] = set()
        self._evicted = 0  # evictions since last_commit was last rebuilt

    def check_undecided(self, start_ts: int) -> None:
        if start_ts in self.commit_records or start_ts in self.aborted:
            raise DuplicateRequestError(f"transaction {start_ts} already has a decision")

    def apply_commit(self, start_ts: int, commit_ts: int, rows) -> None:
        self.commit_records[start_ts] = commit_ts
        last = self.last_commit
        if self.capacity is None:  # an unbounded table never evicts
            for row in rows:
                last[row] = commit_ts
            return
        for row in rows:
            last.pop(row, None)
            last[row] = commit_ts
        excess = len(last) - self.capacity
        if excess > 0:
            victims = list(itertools.islice(last, excess))
            self.t_max = max(self.t_max, last[victims[-1]])
            for row in victims:
                del last[row]
            self._evicted += excess
            if self._evicted > self.capacity:
                self.last_commit = dict(last)
                self._evicted = 0

    def record_abort(self, start_ts: int) -> None:
        self.aborted.add(start_ts)


class StatusOracle:
    """Decides each request that writes in one critical section.

    The conflict check, commit-timestamp draw, last-committer update and
    installation of the committed versions in `store` (or the purge of an
    aborted writer's versions) form one atomic step; start() draws start
    timestamps and registers them as live, and gc() cuts the store's rows
    holding three or more versions, inside the same lock. A request that
    writes nothing commits outside it, at its start timestamp. A decision is
    appended to the write-ahead log before it changes any state, so a record
    that cannot be logged leaves the oracle as it was; appending only
    buffers, and the caller waits for durability after the lock is released.

    `committed_count` and `read_only_commits` are exact once no decision is
    in flight: writing commits are counted under the lock, and every commit
    adds one outcome record.
    """

    def __init__(
        self,
        timestamps: TimestampOracle,
        policy: IsolationPolicy = IsolationPolicy.WSI,
        *,
        capacity: int | None = None,
        wal=None,
        table: CommitTable | None = None,
        store=None,
    ):
        self.timestamps = timestamps
        self.store = store
        self.policy = policy
        self.wal = wal
        self.table = table if table is not None else CommitTable(capacity=capacity)
        self._lock = threading.Lock()
        self._active: set[int] = set()  # start timestamps not yet decided
        self._records_at_open = len(self.table.commit_records)
        self._writing_commits = 0
        self.conflict_aborts = 0
        self.pessimistic_aborts = 0

    @property
    def committed_count(self) -> int:
        return len(self.table.commit_records) - self._records_at_open

    @property
    def read_only_commits(self) -> int:
        return self.committed_count - self._writing_commits

    def start(self) -> int:
        """Draw a start timestamp and register it as live; no commit is half
        installed at that moment. Return it once its block's reservation is
        durable, waited for after the lock is released. Once the log has
        failed, raise its error: no reader may see a commit whose record may
        not be durable."""
        with self._lock:
            if self.wal is not None and self.wal.error is not None:
                raise self.wal.error
            ts = self.timestamps.next()
            self._active.add(ts)
            reserved = self.timestamps.block_ack
        if reserved is not None:
            reserved.wait()
        return ts

    def gc(self) -> None:
        """Collect the store's garbage below the oldest live start timestamp,
        or below the next timestamp when none is live: no current or future
        reader starts below it. Inside the lock, `compact` walks only the rows
        holding three or more versions, so the stall every begin and writing
        commit waits for grows with those rows, not with the whole store."""
        if self.store is None:
            return
        with self._lock:
            # read-only commits leave _active without the lock: one call reads it
            self.store.compact(min(self._active, default=self.timestamps.last_issued() + 1))

    def submit(self, start_ts: int, write_set, read_set=()) -> CommitDecision:
        """Decide a commit request under the oracle's policy: SI checks the
        write set, WSI the read set, and a request with no writes commits
        unchecked under either, at its start timestamp, without the lock.

        The write set is sorted once, before the lock is taken, because a
        commit applies and logs its rows in that order; WSI walks the read
        set as given, inside the lock, with no sort. The abort cause does not
        depend on the order of the walk: it is "conflict" when any checked
        row's last commit is above the start, else "pessimistic" when some
        checked row is untracked while t_max is above the start. Either set
        may be any iterable, walked once, so the write set is tested once
        materialized, and sorted only when it holds a row. Without the lock, a
        read-only request's duplicate check is not atomic with its record; that
        needs no lock, because one handle owns a start timestamp and submits it
        once. The policy is compared with the module alias `_WSI`, since
        fetching a member through its enum class costs several times a global."""
        writes = set(write_set)
        table = self.table
        if not writes:  # table.check_undecided and self._append, inlined
            if start_ts in table.commit_records or start_ts in table.aborted:
                raise DuplicateRequestError(f"transaction {start_ts} already has a decision")
            ack = None
            if self.wal is not None:
                ack = self.wal.append(WalRecord(KIND_COMMIT, start_ts, start_ts, ()))
            table.commit_records[start_ts] = start_ts
            self._active.discard(start_ts)
            if ack is not None:
                ack.wait()
            return _new_tuple(CommitDecision, (True, start_ts, None))
        writes = tuple(sorted(writes))
        checked = read_set if self.policy is _WSI else writes
        ack = None
        with self._lock:
            table.check_undecided(start_ts)
            cause = None
            last_commit = table.last_commit
            stale = table.t_max > start_ts  # an untracked row may have committed since
            for row in checked:
                last = last_commit.get(row)
                if last is None:
                    if stale:
                        cause = "pessimistic"  # a conflict further on still wins
                elif last > start_ts:
                    cause = "conflict"
                    break
            if cause is None:
                tc, ack = self._commit_locked(start_ts, writes)
            else:
                ack = self._abort_locked(start_ts)
                if cause == "pessimistic":
                    self.pessimistic_aborts += 1
                else:
                    self.conflict_aborts += 1
        if ack is not None:
            ack.wait()  # write-ahead discipline: durable before observable
        if cause is None:
            return _new_tuple(CommitDecision, (True, tc, None))
        return CommitDecision(False, cause=cause)

    def commit_ts_of(self, start_ts: int) -> int | None:
        # outcomes are write-once, so this read takes no lock
        return self.table.commit_records.get(start_ts)

    def report_abort(self, start_ts: int) -> None:
        """Record a client-side abandonment and discard its writes; idempotent."""
        ack = None
        with self._lock:
            if start_ts in self.table.commit_records:
                raise AlreadyCommittedError(
                    f"transaction {start_ts} already committed"
                )
            if start_ts not in self.table.aborted:
                ack = self._abort_locked(start_ts)
        if ack is not None:
            ack.wait()

    # -- internals -----------------------------------------------------------

    def _commit_locked(self, start_ts: int, rows: tuple[RowId, ...]):
        """Commit with `rows`, the sorted non-empty write set; returns (commit ts, ack)."""
        tc = self.timestamps.next()
        ack = self._append(KIND_COMMIT, start_ts, tc, rows)
        self.table.apply_commit(start_ts, tc, rows)
        if self.store is not None:
            self.store.install(start_ts, tc)
        self._active.discard(start_ts)
        self._writing_commits += 1
        return tc, ack

    def _abort_locked(self, start_ts: int):
        ack = self._append(KIND_ABORT, start_ts)
        self.table.record_abort(start_ts)
        if self.store is not None:
            self.store.purge_aborted(start_ts)
        self._active.discard(start_ts)
        return ack

    def _append(self, *record):
        # no WalRecord is built when no log is attached
        return self.wal.append(WalRecord(*record)) if self.wal is not None else None

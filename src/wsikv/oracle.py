"""Status oracle: conflict detection, commit timestamps, commit outcomes.

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
oldest live start is the garbage-collection watermark; only a live start
may be decided. Aborts are presumed, as in R* (Mohan et al., TODS 1986): the
log and the table hold writing commits only, a start without a commit record
is aborted, and an abort logs, stores and waits for nothing.

The oracle's lock is the one lock of shared transaction state: every draw of
a timestamp, every writing or aborting decision, every install in the store
and every compaction of it runs inside it, so the timestamp oracle and the
store have no lock of their own, and the oracle builds both and its commit
table itself. Opening it on a log is recovery: `replay` rebuilds the table
from the records the log read, and timestamps resume above the highest
persisted reservation; `recover` does the same from a log file, read-only.
A read-only commit takes no lock, draws no timestamp, and logs and stores
nothing: it returns once every version it read is durable, and then leaves
the live set in one atomic operation (see the store's list (c)). It waits
only on the dependencies it took, as in the commit-dependency tracking of
early lock release (Johnson et al., "Aether", VLDB 2010) and controlled lock
violation (Graefe et al., SIGMOD 2013). start() records beside each live
start the log's last appended sequence number; every writing commit is
appended inside the lock, so every commit the snapshot sees lies at or below
that number. When a record up to it is not yet durable, the store names the
newest commit among the versions the reader saw, and the commit waits only if
that commit is above the log's `durable_ts`: a reader that saw no version not
yet durable read exactly what recovery holds at its start, so its place in
the serial order survives a crash. The start stays live until the wait is
over, so gc() keeps every version it saw, and a wait that raises leaves it
live. No log flush is waited for while the lock is held: a commit or a start
only appends to the log inside it and waits for durability after releasing
it.
"""

from __future__ import annotations

import enum
import itertools
import os
import threading
from typing import NamedTuple

from .mvstore import VersionedStore
from .timestamps import DEFAULT_BLOCK_SIZE, TimestampOracle
from .wal import KIND_COMMIT, KIND_TS_RESERVE, DurableAck, WalClosedError, WalRecord, read_records

RowId = bytes


class OracleError(RuntimeError):
    pass


class DuplicateRequestError(OracleError):
    """A decision was requested for a start timestamp that is not live."""


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
    """Last-committer map plus the outcome records of writing commits.

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
        self._evicted = 0  # evictions since last_commit was last rebuilt

    # aborts are presumed, never stored; kept only because the frozen benchmark
    # reads it, as it does wal.BatchPolicy (ROADMAP item 1 removes both)
    aborted = frozenset()

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


def replay(records, capacity: int | None = None):
    """(CommitTable, highest persisted timestamp reservation) rebuilt from log
    records in append order. The table is built with the given capacity so
    eviction and the watermark replay the same way they were produced. Abort
    records and commit records with no rows, which older logs hold, are
    skipped: the table holds writing commits only."""
    table = CommitTable(capacity=capacity)
    highest = 0
    for rec in records:
        if rec.kind == KIND_COMMIT and rec.rows:
            table.apply_commit(rec.start_ts, rec.commit_ts, rec.rows)
        elif rec.kind == KIND_TS_RESERVE:
            highest = max(highest, rec.reserved_up_to)
    return table, highest


def recover(path: str | os.PathLike, capacity: int | None = None):
    """replay() of the log at `path`, which is read and left unmodified."""
    return replay(read_records(path), capacity)


class StatusOracle:
    """Decides each request that writes in one critical section.

    It builds its commit table, replayed from the records `wal` read when it
    was opened, its timestamp oracle and its store. The conflict check,
    commit-timestamp draw, last-committer update and installation of the
    committed versions in `store` (or the purge of an aborted writer's
    versions) form one atomic step; start() draws start timestamps and
    registers them as live, and gc() cuts the store's rows holding three or
    more versions, inside the same lock. A request that writes nothing
    commits outside it, at its start timestamp, logs and stores nothing, and
    returns once every version it read is durable. A writing commit
    is appended to the write-ahead log before it changes any state, so a
    record that cannot be logged leaves the oracle as it was; appending only
    buffers, and the caller waits for durability after the lock is released. An abort waits
    for nothing, so its snapshot may hold a commit not yet durable: safe,
    since an abort promises its client nothing about what it read.

    `committed_count` and `read_only_commits` are exact once no decision is
    in flight. They are derived from counters kept under the lock: a start
    that is neither live nor aborted committed.
    """

    def __init__(
        self,
        policy: IsolationPolicy = IsolationPolicy.WSI,
        *,
        capacity: int | None = None,
        wal=None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        records = wal.recovered if wal is not None else []
        self.table, highest = replay(records, capacity)
        records.clear()  # replayed into the table; not kept twice
        self.timestamps = TimestampOracle(wal, block_size, start_after=highest)
        self.store = VersionedStore()
        self.policy = policy
        self.wal = wal
        self._lock = threading.Lock()
        # live starts, the only ones a decision admits, each mapped to the
        # log's last appended sequence number when it started (0 without a log)
        self._active: dict[int, int] = {}
        self._started = 0
        self._aborts = 0
        self._writing_commits = 0
        self.conflict_aborts = 0
        self.pessimistic_aborts = 0

    @property
    def committed_count(self) -> int:
        return self._started - len(self._active) - self._aborts

    @property
    def read_only_commits(self) -> int:
        return self.committed_count - self._writing_commits

    def start(self) -> int:
        """Draw a start timestamp and register it as live; no commit is half
        installed at that moment. Return it once its block's reservation is
        durable, waited for after the lock is released and only while it is
        not. Once the log has
        failed, raise its error: no reader may see a commit whose record may
        not be durable. Once it is closed, raise WalClosedError wherever
        issuance is in its block; either way nothing is drawn."""
        with self._lock:
            wal = self.wal
            appended = 0
            if wal is not None:
                if wal.error is not None or wal.closed:
                    raise wal.error or WalClosedError("begin on a closed log")
                appended = wal.appended  # every commit this snapshot sees is at or below it
            ts = self.timestamps.next()
            self._active[ts] = appended
            self._started += 1
            reserved = self.timestamps.block_ack
        if reserved is not None and reserved.seq > wal.durable:
            reserved.wait()
        return ts

    def gc(self) -> None:
        """Collect the store's garbage below the oldest live start timestamp,
        or below the next timestamp when none is live: no current or future
        reader starts below it. Inside the lock, `compact` walks only the rows
        holding three or more versions, so the stall every begin and writing
        commit waits for grows with those rows, not with the whole store."""
        with self._lock:
            # read-only commits leave _active without the lock: one call reads it
            self.store.compact(min(self._active, default=self.timestamps.last_issued() + 1))

    def submit(self, start_ts: int, write_set, read_set=()) -> CommitDecision:
        """Decide a commit request under the oracle's policy: SI checks the
        write set, WSI the read set, and a request with no writes commits
        unchecked under either, at its start timestamp, without the lock,
        and returns once every version it read is durable.

        The write set is sorted once, before the lock is taken, because a
        commit applies and logs its rows in that order; WSI walks the read
        set as given, inside the lock, with no sort. The abort cause does not
        depend on the order of the walk: it is "conflict" when any checked
        row's last commit is above the start, else "pessimistic" when some
        checked row is untracked while t_max is above the start. Either set
        may be any iterable, walked once, so the write set is tested once
        materialized, and sorted only when it holds a row. A read-only request
        checks, waits and then leaves the live set in one atomic pop, so two
        requests for one start cannot both commit; once the log has failed,
        or when its wait raises, it raises the log's error and its start
        stays live. A request for a start that is not live raises a failed
        log's error before DuplicateRequestError. The policy is compared with
        the module alias `_WSI`, since fetching a member through its enum
        class costs several times a global."""
        writes = set(write_set)
        if not writes:
            wal = self.wal
            if wal is not None:
                if wal.error is not None:
                    raise wal.error  # fail-stop: the start stays live
                # 0 for a start that is not live: the pop below refuses it
                appended = self._active.get(start_ts, 0)
                # the walk runs while the start is live, so gc() keeps what it reads
                if appended > wal.durable and self.store.newest_read(read_set, start_ts) > wal.durable_ts:
                    DurableAck(wal, appended).wait()  # a version read is not yet durable
            if self._active.pop(start_ts, None) is None:
                raise self._not_live(start_ts)
            return _new_tuple(CommitDecision, (True, start_ts, None))
        writes = tuple(sorted(writes))
        table = self.table
        checked = read_set if self.policy is _WSI else writes
        ack = None
        with self._lock:
            if start_ts not in self._active:
                raise self._not_live(start_ts)
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
                self._abort_locked(start_ts)
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
        """Abort a live transaction at its client's request and discard its
        writes. Once the log has failed, raise its error, also for a start
        whose commit raised it; otherwise a start that is not live raises
        DuplicateRequestError."""
        with self._lock:
            if start_ts not in self._active:
                raise self._not_live(start_ts)
            self._abort_locked(start_ts)

    def close(self) -> None:
        """Abort every live transaction, with no record: discard its writes
        and forget its start."""
        with self._lock:
            for start_ts in self._active:
                self.store.purge_aborted(start_ts)
            self._aborts += len(self._active)
            self._active.clear()

    # -- internals -----------------------------------------------------------

    def _not_live(self, start_ts: int) -> Exception:
        """What a decision on a start that is not live raises: the log's error
        once it has failed, since fail-stop comes first, else
        DuplicateRequestError."""
        wal = self.wal
        if wal is not None and wal.error is not None:
            return wal.error
        return DuplicateRequestError(f"transaction {start_ts} is not live")

    def _commit_locked(self, start_ts: int, rows: tuple[RowId, ...]):
        """Commit with `rows`, the sorted non-empty write set; returns (commit ts, ack)."""
        tc = self.timestamps.next()
        ack = None
        if self.wal is not None:  # no WalRecord is built when no log is attached
            ack = self.wal.append(WalRecord(KIND_COMMIT, start_ts, tc, rows))
        self.table.apply_commit(start_ts, tc, rows)
        self.store.install(start_ts, tc)
        self._active.pop(start_ts, None)
        self._writing_commits += 1
        return tc, ack

    def _abort_locked(self, start_ts: int) -> None:
        if self.wal is not None and self.wal.error is not None:
            raise self.wal.error  # fail-stop: no append raises it for an abort
        self.store.purge_aborted(start_ts)
        self._active.pop(start_ts, None)
        self._aborts += 1

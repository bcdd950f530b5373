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
live until its decision, which installs its writes or leaves them to go with
its handle, and the oldest live start is the garbage-collection watermark;
only a live start may be decided. Aborts are presumed, as in R* (Mohan et
al., TODS 1986): the log and the table hold writing commits only, a start
without a commit record is aborted, and an abort logs, stores and waits for
nothing.

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
violation (Graefe et al., SIGMOD 2013). Its pre-filter is the log's own
marks: writing commits are appended inside the lock in commit-timestamp
order, so while no commit record is in flight every commit the snapshot sees
is durable. Otherwise the store names the newest commit among the versions
the reader saw, and the commit waits only if that commit is above the log's
`durable_ts`: a reader that saw no version not yet durable read exactly what
recovery holds at its start, so its place in the serial order survives a
crash. The start stays live until the wait is over, so gc() keeps every
version it saw, and a wait that raises leaves it live. No log flush is
waited for while the lock is held: a commit or a start only appends to the
log inside it and waits for durability after releasing it.
"""

from __future__ import annotations

import enum
import itertools
import os
import threading
from typing import NamedTuple

from .mvstore import VersionedStore
from .timestamps import TimestampOracle
from .wal import KIND_COMMIT, KIND_TS_RESERVE, DurableAck, WalClosedError, WalRecord, read_records

RowId = bytes


class OracleError(RuntimeError):
    pass


class DuplicateRequestError(OracleError):
    """A decision was requested for a start timestamp that is not live."""


class IsolationPolicy(enum.Enum):
    SI = "si"
    WSI = "wsi"


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

    It decides under `policy` and builds its commit table, of `capacity`
    rows, replayed from the records `wal` read when it was opened, its
    timestamp oracle and its store. The conflict check, commit-timestamp
    draw, last-committer update and installation of the committed writes in
    `store` form one atomic step, and an abort only leaves the live set: the
    store never held its writes. start() draws start timestamps and registers
    them as live, and gc() cuts the store's rows holding three or more
    versions, inside the same lock. A request that writes nothing commits
    outside it, at its start timestamp, logs and stores nothing, and returns
    once every version it read is durable; it looks at what it read only
    while the log has a commit record in flight. A writing commit is appended
    to the write-ahead log before it changes any state, so a record that
    cannot be logged leaves the oracle as it was; appending only buffers, and
    the caller waits for durability after the lock is released. An abort
    waits for nothing, so its snapshot may hold a commit not yet durable:
    safe, since an abort promises its client nothing about what it read.

    `committed_count` and `read_only_commits` are exact once no decision is
    in flight. They are derived from counters kept under the lock: a start
    that is neither live nor aborted committed. A writing commit whose
    durability wait raises is counted with the aborts, under the lock once
    the wait has raised: its client saw the log's error, not a commit. Its
    versions stay installed, and the failed log stops the engine.
    """

    def __init__(
        self,
        policy: IsolationPolicy = IsolationPolicy.WSI,
        *,
        capacity: int | None = None,
        wal=None,
    ):
        records = wal.recovered if wal is not None else []
        self.table, highest = replay(records, capacity)
        records.clear()  # replayed into the table; not kept twice
        self.timestamps = TimestampOracle(wal, start_after=highest)
        self.store = VersionedStore()
        self.policy = policy
        self.wal = wal
        self._lock = threading.Lock()
        self._active: set[int] = set()  # live starts, the only ones a decision admits
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
        not. Once the log has failed, raise its error: no reader may see a
        commit whose record may not be durable. Once it is closed, raise
        WalClosedError; either way nothing is drawn."""
        with self._lock:
            wal = self.wal
            if wal is not None and (wal.error is not None or wal.closed):
                raise wal.error or WalClosedError("begin on a closed log")
            ts = self.timestamps.next()
            self._active.add(ts)
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

    def submit(self, start_ts: int, writes, read_set=()) -> CommitDecision:
        """Decide a commit request under the oracle's policy: `writes` maps
        each written row to its value, and the read set holds the rows read.
        SI checks the written rows, WSI the read set, and a request with no
        writes commits unchecked under either, at its start timestamp,
        without the lock, and returns once every version it read is durable.
        A commit installs `writes` in the store; an abort leaves them to the
        caller.

        The written rows are sorted once, before the lock is taken, because a
        commit applies and logs its rows in that order; WSI walks the read set
        once, as given, inside the lock, with no sort. The abort cause does
        not depend on the order of the walk: it is "conflict" when any checked
        row's last commit is above the start, else "pessimistic" when some
        checked row is untracked while t_max is above the start. A read-only
        request on a log checks, waits and then leaves: it walks its read set
        only while a commit record is in flight (`appended_ts` above
        `durable_ts`), waits for the log only when a version it read is above
        `durable_ts`, and then leaves the live set in one atomic remove, so
        two requests for one start cannot both commit. Once the log has
        failed, or when its wait raises, it raises the log's error and its
        start stays live. A request for a start that is not live raises a
        failed log's error before DuplicateRequestError and changes nothing,
        even if it walked first; so does a `writes` that is not a map. The
        policy is compared with the module alias `_WSI`, since fetching a
        member through its enum class costs several times a global."""
        if not writes:
            wal = self.wal
            if wal is not None:
                if wal.error is not None:
                    raise wal.error  # fail-stop: the start stays live
                # walked before the start leaves the live set, so gc() keeps what it reads
                durable_ts = wal.durable_ts
                if wal.appended_ts > durable_ts and self.store.newest_read(read_set, start_ts) > durable_ts:
                    DurableAck(wal, wal.appended).wait()  # a version read is not yet durable
            try:
                self._active.remove(start_ts)
            except KeyError:
                raise self._not_live(start_ts) from None
            return _new_tuple(CommitDecision, (True, start_ts, None))
        rows = tuple(sorted(writes.keys()))  # a request that is not a map changes nothing
        table = self.table
        checked = read_set if self.policy is _WSI else rows
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
                tc, ack = self._commit_locked(start_ts, writes, rows)
            else:
                self._abort_locked(start_ts)
                if cause == "pessimistic":
                    self.pessimistic_aborts += 1
                else:
                    self.conflict_aborts += 1
        if ack is not None:
            try:
                ack.wait()  # write-ahead discipline: durable before observable
            except BaseException:
                with self._lock:  # its client sees no commit: count it with the aborts
                    self._writing_commits -= 1
                    self._aborts += 1
                raise
        if cause is None:
            return _new_tuple(CommitDecision, (True, tc, None))
        return CommitDecision(False, cause=cause)

    def commit_ts_of(self, start_ts: int) -> int | None:
        # outcomes are write-once, so this read takes no lock
        return self.table.commit_records.get(start_ts)

    def report_abort(self, start_ts: int) -> None:
        """Abort a live transaction at its client's request. Once the log has
        failed, raise its error, also for a start whose commit raised it;
        otherwise a start that is not live raises DuplicateRequestError."""
        with self._lock:
            if start_ts not in self._active:
                raise self._not_live(start_ts)
            self._abort_locked(start_ts)

    def close(self) -> None:
        """Abort every live transaction, with no record: forget its start."""
        with self._lock:
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

    def _commit_locked(self, start_ts: int, writes, rows: tuple[RowId, ...]):
        """Commit `writes`, with `rows` its sorted non-empty keys; returns
        (commit ts, ack)."""
        tc = self.timestamps.next()
        ack = None
        if self.wal is not None:  # no WalRecord is built when no log is attached
            ack = self.wal.append(WalRecord(KIND_COMMIT, start_ts, tc, rows))
        self.table.apply_commit(start_ts, tc, rows)
        self.store.install(writes, tc)
        self._active.discard(start_ts)
        self._writing_commits += 1
        return tc, ack

    def _abort_locked(self, start_ts: int) -> None:
        if self.wal is not None and self.wal.error is not None:
            raise self.wal.error  # fail-stop: no append raises it for an abort
        self._active.discard(start_ts)
        self._aborts += 1

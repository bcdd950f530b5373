"""Client transaction API binding the store, the timestamp source, and the oracle.

A transaction reads from the snapshot fixed by its start timestamp, buffers
writes as tentative versions, and tracks the row identifiers it actually read
and wrote. Commit submits those sets to the status oracle: the write set only
under snapshot isolation, both sets under write-snapshot isolation, and an
empty pair when a write-snapshot transaction is read-only. The oracle draws
start timestamps and installs committed versions in the store, so reads never
consult it.
"""

from __future__ import annotations

import enum
import threading

from .mvstore import VersionedStore
from .oracle import CommitDecision, IsolationPolicy, StatusOracle, CommitTable
from .timestamps import DEFAULT_BLOCK_SIZE, TimestampOracle
from . import wal as _wal


class TransactionStateError(RuntimeError):
    """Operation on a handle that is no longer active."""


class HandleState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """Single-owner handle; not for concurrent use from multiple threads."""

    __slots__ = ("_db", "start_ts", "read_set", "write_set", "state", "commit_ts")

    def __init__(self, db: "Database", start_ts: int):
        self._db = db
        self.start_ts = start_ts
        self.read_set: set[bytes] = set()
        self.write_set: set[bytes] = set()
        self.state = HandleState.ACTIVE
        self.commit_ts: int | None = None

    def read(self, row: bytes) -> bytes | None:
        self._check_active()
        value = self._db.store.snapshot_read(row, self.start_ts)
        # an absent row is still a dependency the transaction acted on
        self.read_set.add(row)
        return value

    def write(self, row: bytes, value: bytes) -> None:
        self._check_active()
        self._db.store.put_tentative(row, self.start_ts, value)
        self.write_set.add(row)

    def commit(self) -> CommitDecision:
        self._check_active()
        return self._db._commit(self)

    def abort(self) -> None:
        self._check_active()
        self._db._abort(self)

    def _check_active(self) -> None:
        if self.state is not HandleState.ACTIVE:
            raise TransactionStateError(f"transaction is {self.state.value}")


class Database:
    """Embeddable transactional layer over the multi-version store."""

    def __init__(
        self,
        policy: IsolationPolicy = IsolationPolicy.WSI,
        *,
        capacity: int | None = None,
        wal=None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        start_after: int = 0,
        table: CommitTable | None = None,
    ):
        self.policy = policy
        self.wal = wal
        self.timestamps = TimestampOracle(
            wal=wal, block_size=block_size, start_after=start_after
        )
        self.store = VersionedStore()
        self.oracle = StatusOracle(
            self.timestamps, policy, capacity=capacity, wal=wal, table=table, store=self.store
        )
        self._active: set[int] = set()
        self._active_lock = threading.Lock()

    @classmethod
    def recover(
        cls,
        path,
        policy: IsolationPolicy = IsolationPolicy.WSI,
        *,
        capacity: int | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "Database":
        """Rebuild oracle state from a write-ahead log and resume appending to it.

        The log is read and decoded once, by opening it. The store itself is
        not persisted; only oracle state survives a crash.
        """
        log = _wal.WriteAheadLog(path)
        table, highest = _wal.replay(log.recovered, capacity=capacity)
        log.recovered.clear()  # replayed into the table; not kept twice
        return cls(
            policy,
            capacity=capacity,
            wal=log,
            block_size=block_size,
            start_after=highest,
            table=table,
        )

    def begin(self) -> Transaction:
        # Drawn and registered in one step: a gc() between the two would set
        # its watermark above this start and compact a version it must read.
        # Lock order: _active_lock, the oracle lock, the timestamp lock.
        with self._active_lock:
            ts = self.oracle.start()
            self._active.add(ts)
        return Transaction(self, ts)

    def seed_committed(self, row: bytes, value: bytes) -> None:
        """Commit one write-only transaction installing `row`, visible to
        every transaction that begins afterwards."""
        h = self.begin()
        h.write(row, value)
        if not h.commit().committed:
            raise RuntimeError(f"seeding {row!r} aborted on a concurrent write")

    def gc(self) -> None:
        """Compact committed versions invisible to every current and future reader."""
        with self._active_lock:
            low = min(self._active) if self._active else self.timestamps.last_issued() + 1
        self.store.compact(low)

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    # -- handle callbacks ------------------------------------------------------

    def _commit(self, h: Transaction) -> CommitDecision:
        if self.policy is IsolationPolicy.WSI:
            # read-only transactions submit an empty pair
            read_set = h.read_set if h.write_set else frozenset()
            decision = self.oracle.submit(h.start_ts, h.write_set, read_set)
        else:
            decision = self.oracle.submit(h.start_ts, h.write_set)
        # on oracle/WAL failure the exception propagates and h stays ACTIVE
        if decision.committed:
            h.state = HandleState.COMMITTED
            h.commit_ts = decision.commit_ts
        else:
            h.state = HandleState.ABORTED
            for row in h.write_set:
                self.store.purge_aborted(row, h.start_ts, self.oracle)
        self._release(h.start_ts)
        return decision

    def _abort(self, h: Transaction) -> None:
        self.oracle.report_abort(h.start_ts)
        for row in h.write_set:
            self.store.purge_aborted(row, h.start_ts, self.oracle)
        h.state = HandleState.ABORTED
        self._release(h.start_ts)

    def _release(self, start_ts: int) -> None:
        with self._active_lock:
            self._active.discard(start_ts)

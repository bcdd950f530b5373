"""Client transaction API over the status oracle and the store it builds.

A transaction reads from the snapshot fixed by its start timestamp, keeps its
writes in its own row -> value map, `writes`, and tracks the rows it read. A
read of a row it wrote returns its own value; any other read goes to the
store, which holds committed versions only. The handle talks to the status
oracle itself: commit submits both, the oracle alone decides which of them
the policy checks and installs the writes on commit, and an abort leaves
nothing behind. A handle that wrote nothing commits at its start timestamp,
without the oracle's lock and with no log record: its commit returns once
every version it read is durable. The database only opens the oracle, which
builds the timestamp source and the store. Every handle operation compares
its state with module aliases of the `HandleState` members, since fetching a
member through its enum class costs several times a global.
"""

from __future__ import annotations

import enum

from .oracle import CommitDecision, IsolationPolicy, StatusOracle
from .wal import WriteAheadLog


class TransactionStateError(RuntimeError):
    """Operation on a handle that is no longer active."""


class HandleState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ACTIVE, _COMMITTED, _ABORTED = HandleState.ACTIVE, HandleState.COMMITTED, HandleState.ABORTED


class Transaction:
    """Single-owner handle; not for concurrent use from multiple threads."""

    __slots__ = ("_db", "start_ts", "read_set", "writes", "state", "commit_ts")

    def __init__(self, db: "Database", start_ts: int):
        self._db = db
        self.start_ts = start_ts
        self.read_set: set[bytes] = set()
        self.writes: dict[bytes, bytes] = {}
        self.state = _ACTIVE
        self.commit_ts: int | None = None

    def read(self, row: bytes) -> bytes | None:
        if self.state is not _ACTIVE:
            self._check_active()
        # an absent row, or one it wrote, is still a dependency it acted on
        self.read_set.add(row)
        writes = self.writes
        if row in writes:
            return writes[row]
        return self._db.store.snapshot_read(row, self.start_ts)

    def write(self, row: bytes, value: bytes) -> None:
        if self.state is not _ACTIVE:
            self._check_active()
        self.writes[row] = value  # a rewrite wins

    def commit(self) -> CommitDecision:
        if self.state is not _ACTIVE:
            self._check_active()
        decision = self._db.oracle.submit(self.start_ts, self.writes, self.read_set)
        # on oracle/WAL failure the exception propagates and the handle stays ACTIVE
        if decision.committed:
            self.state = _COMMITTED
            self.commit_ts = decision.commit_ts
        else:
            self.state = _ABORTED
        return decision

    def abort(self) -> None:
        self._check_active()
        self._db.oracle.report_abort(self.start_ts)
        self.state = _ABORTED

    def _check_active(self) -> None:
        if self.state is not _ACTIVE:
            raise TransactionStateError(f"transaction is {self.state.value}")


class Database:
    """Embeddable transactional layer over the multi-version store.

    `policy`, `capacity` and `wal` open its status oracle, which recovers a
    log: it replays the records the log read into its commit table and
    resumes timestamps above the highest persisted reservation, so none is
    issued twice. `timestamps` and `store` are the oracle's own.
    """

    def __init__(
        self,
        policy: IsolationPolicy = IsolationPolicy.WSI,
        *,
        capacity: int | None = None,
        wal=None,
    ):
        self.wal = wal
        self.oracle = StatusOracle(policy, capacity=capacity, wal=wal)
        self.timestamps, self.store = self.oracle.timestamps, self.oracle.store

    @classmethod
    def recover(
        cls,
        path,
        policy: IsolationPolicy = IsolationPolicy.WSI,
        *,
        capacity: int | None = None,
    ) -> "Database":
        """Shorthand for `Database(policy, capacity=capacity,
        wal=WriteAheadLog(path))`, which recovers oracle state from the log and
        resumes appending to it: the commit table of the writing commits, and
        timestamps above the highest reservation. Read-only commits and aborts
        leave no record, so no outcome of theirs is recovered. The store itself
        is not persisted; only oracle state survives a crash."""
        return cls(policy, capacity=capacity, wal=WriteAheadLog(path))

    def begin(self) -> Transaction:
        return Transaction(self, self.oracle.start())

    def seed_committed(self, row: bytes, value: bytes) -> None:
        """Commit one write-only transaction installing `row`, visible to
        every transaction that begins afterwards."""
        h = self.begin()
        h.write(row, value)
        if not h.commit().committed:
            raise RuntimeError(f"seeding {row!r} aborted on a concurrent write")

    def gc(self) -> None:
        """Drop committed versions invisible to every current and future
        reader, from the rows holding three or more versions."""
        self.oracle.gc()

    def close(self) -> None:
        self.oracle.close()  # aborts every live transaction before the log closes
        if self.wal is not None:
            self.wal.close()

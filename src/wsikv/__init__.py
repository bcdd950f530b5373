"""Embeddable transactional layer over a multi-version key-value store.

Two commit policies, chosen per database and applied by one branch of the
status oracle's submit: classic snapshot isolation (write-write conflict
detection) and write-snapshot isolation (read-write conflict detection,
serializable, with a read-only fast path). The package also ships
an executable serializability checker for interleaved histories, a bounded
commit table with a pessimistic eviction watermark, a durable write-ahead
log with group commit, and a YCSB-style workload driver.
"""

from .history import (
    History,
    HistoryEvent,
    HistoryParseError,
    SerializabilityVerdict,
    construct_serial,
    is_serializable,
    parse,
    replay_policy,
    verdict_line,
)
from .mvstore import CellVersion, VersionedStore
from .oracle import (
    CommitDecision,
    CommitTable,
    DuplicateRequestError,
    IsolationPolicy,
    StatusOracle,
)
from .timestamps import TimestampOracle
from .txn import Database, HandleState, Transaction, TransactionStateError
from .wal import BatchPolicy, WalRecord, WriteAheadLog, recover
from .workload import RunMetrics, WorkloadSpec, bench_oracle, generate_txn, run

__version__ = "0.1.0"

__all__ = [
    "BatchPolicy",
    "CellVersion",
    "CommitDecision",
    "CommitTable",
    "Database",
    "DuplicateRequestError",
    "HandleState",
    "History",
    "HistoryEvent",
    "HistoryParseError",
    "IsolationPolicy",
    "RunMetrics",
    "SerializabilityVerdict",
    "StatusOracle",
    "TimestampOracle",
    "Transaction",
    "TransactionStateError",
    "VersionedStore",
    "WalRecord",
    "WorkloadSpec",
    "WriteAheadLog",
    "bench_oracle",
    "construct_serial",
    "generate_txn",
    "is_serializable",
    "parse",
    "recover",
    "replay_policy",
    "run",
    "verdict_line",
]

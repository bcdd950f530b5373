"""Centralized logical timestamp oracle.

One strictly increasing counter serves both transaction start and commit
timestamps, so the two families are directly comparable. Issuance is covered
by durable block reservations: the oracle persists a reservation for a block
of timestamps through the write-ahead log and then serves from the block
without touching storage until it is exhausted. After a crash, issuance
resumes above the highest persisted reservation, so an abandoned block is
never reused.
"""

from __future__ import annotations

import threading

from .wal import KIND_TS_RESERVE, WalRecord

DEFAULT_BLOCK_SIZE = 1000


class TimestampOracle:
    def __init__(
        self,
        wal=None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        start_after: int = 0,
    ):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if start_after < 0:
            raise ValueError("start_after must be non-negative")
        self._wal = wal
        self._block_size = block_size
        self._lock = threading.Lock()
        self._next = start_after + 1
        self._reserved_up_to = start_after

    def next(self) -> int:
        """Issue the next timestamp, persisting a fresh block's reservation if
        needed. If the log fails to persist it, its error propagates and no
        timestamp of that block is issued."""
        with self._lock:
            if self._next > self._reserved_up_to:
                high = self._reserved_up_to + self._block_size
                if self._wal is not None:
                    rec = WalRecord(kind=KIND_TS_RESERVE, reserved_up_to=high)
                    self._wal.append(rec).wait()
                self._reserved_up_to = high
            ts = self._next
            self._next += 1
            return ts

    def last_issued(self) -> int:
        with self._lock:
            return self._next - 1

    @property
    def reserved_up_to(self) -> int:
        with self._lock:
            return self._reserved_up_to

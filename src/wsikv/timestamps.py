"""Centralized logical timestamp oracle.

One strictly increasing counter serves both transaction start and commit
timestamps, so the two families are directly comparable. Issuance is covered
by durable block reservations: no timestamp of a block is issued before the
block's reservation is durable in the write-ahead log. Creating the oracle
makes the first block's reservation durable, before any caller holds a lock.
After that the draw that enters a block is the only one that touches the
log: it waits for that block's reservation and appends the next block's
without waiting. By the time issuance reaches the next block a commit's
flush has normally made it durable, so issuance seldom waits on the log, and
a draw inside a block never does. A block of draws with no flush in between
(a block's worth of begins before any decision) still waits for an
fdatasync inside next(), under its caller's locks. After a crash, issuance
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
        self._reserved_up_to = start_after  # highest durable reservation
        self._pending = self._reserve(start_after)  # (ack, high) of the next block's appended reservation
        if self._pending[0] is not None:
            self._pending[0].wait()  # the first block's: durable before any caller holds a lock

    def next(self) -> int:
        """Issue the next timestamp. Entering a block waits for its reservation
        to be durable and appends the next block's; if the log fails to persist
        or append either, its error propagates and no timestamp of that block
        is issued."""
        with self._lock:
            ts = self._next
            if ts > self._reserved_up_to:
                ack, high = self._pending
                if ack is not None:
                    ack.wait()
                self._pending = self._reserve(high)
                self._reserved_up_to = high
            self._next = ts + 1
            return ts

    def _reserve(self, after: int):
        """Append the reservation of the block above `after`; (ack, its high end)."""
        high = after + self._block_size
        if self._wal is None:
            return None, high
        return self._wal.append(WalRecord(kind=KIND_TS_RESERVE, reserved_up_to=high)), high

    def last_issued(self) -> int:
        with self._lock:
            return self._next - 1

    @property
    def reserved_up_to(self) -> int:
        with self._lock:
            return self._reserved_up_to

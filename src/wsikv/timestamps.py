"""Centralized logical timestamp oracle.

One strictly increasing counter serves both transaction start and commit
timestamps, so the two families are directly comparable. The status
oracle's critical section is the only caller of next(), so the counter has
no lock of its own, and next() never waits on the log. Issuance is covered
by durable block reservations: no timestamp of a block reaches a client
before the block's reservation is durable in the write-ahead log. Creating
the oracle appends the first block's reservation, and the draw that enters a
block appends the next block's, so a reservation is normally made durable by
an earlier flush before issuance reaches its block. `block_ack` acknowledges
the reservation of the block issuance is in: StatusOracle.start() waits for
it after releasing its lock, when its sequence number is not yet durable,
while a commit timestamp needs no wait of its own, because the commit's
record follows the reservation in the log and the committer waits for that
record. After a crash the status oracle builds it
with `start_after` set to the highest persisted reservation, so issuance
resumes above it and an abandoned block is never reused.
"""

from __future__ import annotations

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
        self._next = start_after + 1
        self.reserved_up_to = start_after  # high end of the block issuance is in
        self.block_ack = None  # that block's reservation; None without a log
        self._pending = self._reserve(start_after)  # (ack, high) of the next block's appended reservation

    def next(self) -> int:
        """Issue the next timestamp; the caller holds the status oracle's lock.
        Entering a block appends the next block's reservation; if the log
        fails to append it, its error propagates and nothing is issued."""
        ts = self._next
        if ts > self.reserved_up_to:
            ack, high = self._pending
            self._pending = self._reserve(high)
            self.block_ack, self.reserved_up_to = ack, high
        self._next = ts + 1
        return ts

    def _reserve(self, after: int):
        """Append the reservation of the block above `after`; (ack, its high end)."""
        high = after + self._block_size
        if self._wal is None:
            return None, high
        return self._wal.append(WalRecord(kind=KIND_TS_RESERVE, reserved_up_to=high)), high

    def last_issued(self) -> int:
        return self._next - 1

"""Centralized logical timestamp oracle.

One strictly increasing counter serves both transaction start and commit
timestamps, so the two families are directly comparable. The status oracle's
critical section is the only caller of next(), so the counter has no lock of
its own, and next() never waits on the log. Issuance is covered by durable
block reservations, as in Omid's timestamp oracle (Ferro et al., ICDE 2014):
no timestamp of a block reaches a client before the block's reservation is
durable in the write-ahead log. Every block holds DEFAULT_BLOCK_SIZE
timestamps, a size no constructor takes; the constant keeps its name because
the benchmark harness imports it, and tests patch it for smaller blocks. The
draw that enters a block appends that block's reservation, so a log that
issues nothing gains no record. `block_ack` acknowledges the reservation of
the block issuance is in: StatusOracle.start() waits for it after releasing
its lock, while its sequence number is not yet durable, so the begins drawn
in a block before its reservation is durable wait for one flush, outside the
lock. A commit timestamp needs no wait of its own, because the commit's
record follows the reservation in the log and the committer waits for that
record. After a crash the status oracle builds it with `start_after` set to
the highest persisted reservation, so issuance resumes above it and an
abandoned block is never reused.
"""

from __future__ import annotations

from .wal import KIND_TS_RESERVE, WalRecord

DEFAULT_BLOCK_SIZE = 1000


class TimestampOracle:
    def __init__(self, wal=None, start_after: int = 0):
        self._wal = wal
        self._next = start_after + 1
        self.reserved_up_to = start_after  # high end of the block issuance is in
        self.block_ack = None  # that block's reservation; None without a log

    def next(self) -> int:
        """Issue the next timestamp; the caller holds the status oracle's lock.
        Entering a block appends its reservation; if the log fails to append
        it, its error propagates and nothing is issued."""
        ts = self._next
        if ts > self.reserved_up_to:
            high = self.reserved_up_to + DEFAULT_BLOCK_SIZE
            if self._wal is not None:
                self.block_ack = self._wal.append(WalRecord(kind=KIND_TS_RESERVE, reserved_up_to=high))
            self.reserved_up_to = high
        self._next = ts + 1
        return ts

    def last_issued(self) -> int:
        return self._next - 1

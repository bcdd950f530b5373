"""Durable write-ahead log with leader/follower group commit and replay recovery.

On-disk layout: an 8-byte magic header, then framed records:

    u32 payload_length | u32 crc32(payload) | payload

Every payload starts with a u8 record kind and a u64 start timestamp.
Kind-specific fields follow: commit records carry a u64 commit timestamp, a
u32 row count, and u16-length-prefixed row identifiers; timestamp-reservation
records carry the u64 highest reserved timestamp; abort records carry nothing
extra. All integers are little-endian.

A checksum failure on the final record is a torn write and is dropped; a
failure anywhere earlier is corruption and recovery refuses to continue.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass

MAGIC = b"WSIWAL01"

KIND_COMMIT = 1
KIND_ABORT = 2
KIND_TS_RESERVE = 3

_FRAME = struct.Struct("<II")    # payload length, crc32(payload)
_PREFIX = struct.Struct("<BQ")   # kind, start timestamp
_COMMIT = struct.Struct("<QI")   # commit timestamp, row count
_ROWLEN = struct.Struct("<H")
_RESERVE = struct.Struct("<Q")   # highest reserved timestamp


class WalError(RuntimeError):
    pass


class WalClosedError(WalError):
    pass


class CorruptLogError(WalError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class WalRecord:
    kind: int
    start_ts: int = 0
    commit_ts: int = 0
    rows: tuple[bytes, ...] = ()
    reserved_up_to: int = 0

    def encode(self) -> bytes:
        """Full frame (header + payload) for this record."""
        head = _PREFIX.pack(self.kind, self.start_ts)
        if self.kind == KIND_COMMIT:
            parts = [head, _COMMIT.pack(self.commit_ts, len(self.rows))]
            for row in self.rows:
                if len(row) > 0xFFFF:
                    raise ValueError("row identifier longer than 65535 bytes")
                parts.append(_ROWLEN.pack(len(row)))
                parts.append(row)
            payload = b"".join(parts)
        elif self.kind == KIND_ABORT:
            payload = head
        elif self.kind == KIND_TS_RESERVE:
            payload = head + _RESERVE.pack(self.reserved_up_to)
        else:
            raise ValueError(f"unknown record kind {self.kind}")
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> WalRecord:
    kind, start_ts = _PREFIX.unpack_from(payload, 0)
    off = _PREFIX.size
    if kind == KIND_COMMIT:
        commit_ts, count = _COMMIT.unpack_from(payload, off)
        off += _COMMIT.size
        rows = []
        for _ in range(count):
            (n,) = _ROWLEN.unpack_from(payload, off)
            off += _ROWLEN.size
            rows.append(payload[off : off + n])
            off += n
        if off != len(payload):
            raise ValueError("trailing bytes in commit record")
        return WalRecord(KIND_COMMIT, start_ts, commit_ts, tuple(rows))
    if kind == KIND_ABORT:
        if off != len(payload):
            raise ValueError("trailing bytes in abort record")
        return WalRecord(KIND_ABORT, start_ts)
    if kind == KIND_TS_RESERVE:
        (high,) = _RESERVE.unpack_from(payload, off)
        if off + _RESERVE.size != len(payload):
            raise ValueError("trailing bytes in reservation record")
        return WalRecord(KIND_TS_RESERVE, start_ts, reserved_up_to=high)
    raise ValueError(f"unknown record kind {kind}")


@dataclass(frozen=True)
class BatchPolicy:
    """Former flush triggers, kept only so the benchmark harness still imports
    and constructs it; the log ignores it (waiters flush, see WriteAheadLog)."""

    max_bytes: int = 1024
    max_delay: float = 0.005  # seconds


class DurableAck:
    """Handle for one appended record; wait() returns once the record is durable."""

    __slots__ = ("_log", "_seq")

    def __init__(self, log: "WriteAheadLog", seq: int):
        self._log = log
        self._seq = seq

    def wait(self) -> None:
        self._log._wait(self._seq)


def _scan(data: bytes, path: str) -> tuple[list[WalRecord], int]:
    """Decode records, returning them plus the offset of the last intact one.

    A truncated or checksum-failing final record is discarded (torn write);
    the same anywhere else raises CorruptLogError. An empty file, or one
    holding only part of the magic, is a new log, or one whose creation
    crashed before the whole magic was written: it holds no record, and the
    offset returned is 0.
    """
    if len(data) < len(MAGIC) and MAGIC.startswith(data):
        return [], 0
    if data[: len(MAGIC)] != MAGIC:
        raise CorruptLogError(0, f"{path}: missing log magic")
    records = []
    off = len(MAGIC)
    n = len(data)
    while off < n:
        if off + _FRAME.size > n:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, off)
        body_start = off + _FRAME.size
        if body_start + length > n:
            break  # torn payload
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            if body_start + length == n:
                break  # torn final record
            raise CorruptLogError(off, f"{path}: checksum mismatch before end of log")
        try:
            records.append(decode_payload(payload))
        except Exception as exc:
            raise CorruptLogError(off, f"{path}: undecodable record: {exc}") from exc
        off = body_start + length
    return records, off


def read_records(path: str | os.PathLike) -> list[WalRecord]:
    """All intact records in append order, dropping a torn tail if present."""
    with open(path, "rb") as f:
        data = f.read()
    records, _ = _scan(data, str(path))
    return records


def recover(path: str | os.PathLike, capacity: int | None = None):
    """Rebuild oracle state from the log at `path` without modifying it.

    Returns (CommitTable, highest persisted timestamp reservation).
    """
    return replay(read_records(path), capacity)


def replay(records, capacity: int | None = None):
    """Rebuild oracle state from records in append order.

    Returns (CommitTable, highest persisted timestamp reservation). The table
    is built with the given capacity so eviction and the watermark replay the
    same way they were produced.
    """
    from .oracle import CommitTable  # deferred: oracle imports this module

    table = CommitTable(capacity=capacity)
    highest = 0
    for rec in records:
        if rec.kind == KIND_COMMIT:
            table.apply_commit(rec.start_ts, rec.commit_ts, rec.rows)
        elif rec.kind == KIND_ABORT:
            table.record_abort(rec.start_ts)
        else:
            highest = max(highest, rec.reserved_up_to)
    return table, highest


class WriteAheadLog:
    """Append-only log file with leader/follower group commit.

    append() only buffers the record and returns its ack. The first waiter
    whose record is not yet durable becomes the leader: it takes the whole
    buffer, writes and fsyncs it with the lock released, then wakes every
    waiter. Waiters arriving during that fsync wait for it, and records
    appended meanwhile form the next batch. Records become durable in append
    order. A failed write or fsync stops the log: the waiters of that batch,
    and every later append or wait, raise the stored `error`, and nothing more
    is written.

    Opening an existing log reads it once: its intact records are kept in
    `recovered` for replay, and a torn tail is truncated so new appends start
    at a clean boundary. A file holding only part of the magic is a log whose
    creation crashed and is created anew. `policy` is accepted and ignored
    (see BatchPolicy).
    """

    def __init__(self, path: str | os.PathLike, policy: BatchPolicy | None = None):
        self.path = str(path)
        self.flush_count = 0
        self.error: WalError | None = None
        self.recovered: list[WalRecord] = []
        self._cond = threading.Condition(threading.Lock())  # not reentrant: _lead releases it
        self._buf = bytearray()
        self._appended = 0  # sequence number of the last appended record
        self._durable = 0  # sequence number of the last durable record
        self._flushing = False
        self._closed = False
        data = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as f:
                data = f.read()
        self.recovered, end = _scan(data, self.path)
        if end == 0:  # a new log (see _scan)
            self._file = open(self.path, "w+b")
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
        else:
            self._file = open(self.path, "r+b")
            self._file.truncate(end)
            self._file.seek(end)

    def append(self, rec: WalRecord) -> DurableAck:
        frame = rec.encode()
        with self._cond:
            if self.error is not None:
                raise self.error
            if self._closed:
                raise WalClosedError("append to closed log")
            self._buf += frame
            self._appended += 1
            return DurableAck(self, self._appended)

    def close(self) -> None:
        """Flush what is still buffered and close the file; idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            last = self._appended
        try:
            self._wait(last)
        finally:
            self._file.close()

    def _wait(self, seq: int) -> None:
        with self._cond:
            while self._durable < seq:
                if self.error is not None:
                    raise self.error
                if self._flushing:
                    self._cond.wait()
                else:
                    self._lead()

    def _lead(self) -> None:
        """Flush the whole buffer as one batch. Called holding the lock, which
        is released across the write and fsync so that appends go on."""
        data, self._buf = self._buf, bytearray()
        last = self._appended
        self._flushing = True
        error = WalError("wal flush interrupted")
        self._cond.release()
        try:
            self._file.write(data)
            self._file.flush()
            os.fsync(self._file.fileno())
            error = None
        except OSError as exc:
            error = WalError(f"wal flush failed: {exc}")
        finally:
            self._cond.acquire()
            self._flushing = False
            if error is None:
                self._durable = last
                self.flush_count += 1
            else:
                self.error = error
            self._cond.notify_all()

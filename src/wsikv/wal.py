"""Durable write-ahead log: batch-framed records in a preallocated file, group
commit by the waiters. The status oracle replays the records it reads back.

On-disk layout (version 2): the 8-byte magic `WSIWAL02`, then one batch per
flush. A batch is a 20-byte header followed by its body:

    u64 file offset of the header | u32 body length | u32 crc32(body)
    | u32 crc32(the 16 header bytes before it)

The body is a sequence of records, each `u32 payload length | payload`, with
no checksum of its own. Every payload starts with a u8 record kind and a u64
start timestamp. Kind-specific fields follow: commit records carry a u64
commit timestamp, a u32 row count, and u16-length-prefixed row identifiers;
timestamp-reservation records carry the u64 highest reserved timestamp; abort
records, which the engine no longer writes and replay skips, carry nothing
extra. All integers are little-endian.

The file is zero-filled ahead of the log's end in whole chunks of CHUNK_SIZE
bytes, so a flush is one positioned write into space the file already has and
an fdatasync with no file-size change to commit. The file grows only when a
batch crosses the allocated end, and close() trims the zero tail.

Overwriting preallocated blocks is not atomic: after a crash any sector of the
last batch, its header included, may be missing. So only the final batch may
be torn. A batch whose header or body checksum fails, or that runs past the
end of the file, is dropped as a torn tail only when no valid batch header
follows it; anything else is corruption and recovery refuses to continue. The
header's own checksum guards the body length, and its file offset keeps a
header found at another place from being taken for a batch there.

A new log is created atomically (see _create). An empty file, or one holding
a strict prefix of the magic, is a log whose creation never finished and opens
as a new log; a log of another format version is refused.
"""

from __future__ import annotations

import errno
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import NamedTuple

MAGIC = b"WSIWAL02"
CHUNK_SIZE = 1 << 20  # the file grows in zero-filled chunks of this size

KIND_COMMIT = 1
KIND_ABORT = 2
KIND_TS_RESERVE = 3

# batch header: its own file offset, body length, crc32(body), crc32(the fields before it)
_HEADER = struct.Struct("<QIII")
HEADER_SIZE = _HEADER.size
_HEAD_CRC_AT = HEADER_SIZE - 4
_U32 = struct.Struct("<I")  # a record's payload length; the header checksum
_PREFIX = struct.Struct("<BQ")  # kind, start timestamp
_COMMIT = struct.Struct("<QI")  # commit timestamp, row count
_ROWLEN = struct.Struct("<H")
_RESERVE = struct.Struct("<Q")  # highest reserved timestamp
_ZERO_PIECE = 64 << 10  # bytes of zeros per write when a chunk is zero-filled
_NONZERO_RUN = re.compile(rb"[^\x00]+")


class WalError(RuntimeError):
    pass


class WalClosedError(WalError):
    pass


class CorruptLogError(WalError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class WalRecord(NamedTuple):
    kind: int
    start_ts: int = 0
    commit_ts: int = 0
    rows: tuple[bytes, ...] = ()
    reserved_up_to: int = 0

    def encode(self) -> bytes:
        """This record as it sits in a batch body: length prefix and payload."""
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
        return _U32.pack(len(payload)) + payload


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


def _header_at(data: bytes, off: int) -> tuple[int, int] | None:
    """(body length, body checksum) of a valid batch header at `off`, else None."""
    if off + HEADER_SIZE > len(data):
        return None
    at, length, body_crc, head_crc = _HEADER.unpack_from(data, off)
    if at != off or zlib.crc32(data[off : off + _HEAD_CRC_AT]) != head_crc:
        return None
    return length, body_crc


def _header_follows(data: bytes, off: int) -> bool:
    """Whether a valid batch header starts anywhere after `off`.

    A header's offset field is never zero, so a header starts at most 7 bytes
    before a non-zero byte; the zero tail of a preallocated file is skipped
    without a look at each of its positions.
    """
    for run in _NONZERO_RUN.finditer(data, off + 1):
        for p in range(max(off + 1, run.start() - 7), run.end()):
            if _header_at(data, p) is not None:
                return True
    return False


def _scan(data: bytes, path: str) -> tuple[list[WalRecord], int]:
    """Decode records, returning them plus the offset just past the last intact batch.

    A damaged or cut-short final batch is discarded (torn write); a damaged
    batch followed by a valid batch header raises CorruptLogError. An empty
    file, or one holding only part of the magic, is a new log, or one whose
    creation crashed before the whole magic was written: it holds no record,
    and the offset returned is 0.
    """
    if len(data) < len(MAGIC) and MAGIC.startswith(data):
        return [], 0
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        if len(magic) == len(MAGIC) and magic.startswith(MAGIC[:6]):
            version = magic.decode("ascii", "replace")
            raise CorruptLogError(0, f"{path}: unsupported log version {version}")
        raise CorruptLogError(0, f"{path}: missing log magic")
    records = []
    off = len(MAGIC)
    n = len(data)
    crc32, unpack_u32, decode = zlib.crc32, _U32.unpack_from, decode_payload
    with memoryview(data) as view:  # checksums read the body in place
        while off < n:
            header = _header_at(data, off)
            if header is not None:
                length, body_crc = header
                start = off + HEADER_SIZE
                end = start + length
            if header is None or end > n or crc32(view[start:end]) != body_crc:
                if _header_follows(data, off):
                    raise CorruptLogError(off, f"{path}: damaged batch before end of log")
                break  # torn final batch
            try:
                while start < end:
                    (length,) = unpack_u32(data, start)
                    start += _U32.size
                    if start + length > end:
                        raise ValueError("record runs past the end of its batch")
                    records.append(decode(data[start : start + length]))
                    start += length
            except (ValueError, struct.error) as exc:
                raise CorruptLogError(start, f"{path}: undecodable record: {exc}") from exc
            off = end
    return records, off


def read_records(path: str | os.PathLike) -> list[WalRecord]:
    """All intact records in append order, dropping a torn tail if present."""
    with open(path, "rb") as f:
        data = f.read()
    records, _ = _scan(data, str(path))
    return records


def _create(path: str) -> None:
    """Make `path` a new, empty log atomically: the magic is written to a
    temporary file, which is synced and renamed over `path`, and then the
    directory is synced. A crash leaves the old file or the whole magic."""
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        _pwrite(fd, MAGIC, 0)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _pwrite(fd: int, data, offset: int) -> None:
    written = os.pwrite(fd, data, offset)
    if written != len(data):
        raise OSError(errno.EIO, f"short write: {written} of {len(data)} bytes")


class WriteAheadLog:
    """Append-only log file with group commit by the waiters.

    append() only buffers the record and returns its ack. A waiter whose
    record is not yet durable takes the flush lock, checks again, and flushes
    everything buffered as one batch: one positioned write into the
    preallocated file and one fdatasync. Waiters that queue on the flush lock
    meanwhile find their records durable when they get it, and records appended
    during the sync form the next batch. append() never takes the flush lock.
    Records become durable in append order. A failed write or sync stops the
    log: the waiters of that batch, and every later append or wait, raise the
    stored `error`, and nothing more is written.

    Opening an existing log reads it once: its intact records are kept in
    `recovered` for the status oracle to replay, and the file is cut back to
    the end of the last intact batch, so new appends start at a clean
    boundary. A file holding only part of the magic is a log whose creation
    crashed and is created anew. After close() every append raises
    WalClosedError. `policy` is accepted and ignored (see BatchPolicy).
    """

    def __init__(self, path: str | os.PathLike, policy: BatchPolicy | None = None):
        self.path = str(path)
        self.flush_count = 0
        self.error: WalError | None = None
        self._lock = threading.Lock()  # guards the buffer, _appended and closed
        self._flush_lock = threading.Lock()  # held by the waiter that writes and syncs
        self._buf: list[bytes] = []
        self._appended = 0  # sequence number of the last appended record
        self._durable = 0  # sequence number of the last durable record
        self.closed = False
        data = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as f:
                data = f.read()
        self.recovered, self._end = _scan(data, self.path)
        if self._end == 0:  # a new log (see _scan)
            _create(self.path)
            self._end = len(MAGIC)
        self._fd = os.open(self.path, os.O_RDWR)
        if len(data) > self._end:  # drop a torn tail or the zero tail
            try:
                os.ftruncate(self._fd, self._end)
            except OSError:
                os.close(self._fd)
                raise
        self._allocated = self._end  # the file's size: zero-filled beyond _end

    def append(self, rec: WalRecord) -> DurableAck:
        frame = rec.encode()
        with self._lock:
            if self.error is not None:
                raise self.error
            if self.closed:
                raise WalClosedError("append to closed log")
            self._buf.append(frame)
            self._appended += 1
            return DurableAck(self, self._appended)

    def close(self) -> None:
        """Flush what is still buffered, trim the zero tail and close the file;
        idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            last = self._appended
        try:
            self._wait(last)
            with self._flush_lock:
                if self._allocated > self._end:
                    os.ftruncate(self._fd, self._end)
        finally:
            os.close(self._fd)

    def _wait(self, seq: int) -> None:
        if self._durable >= seq:
            return
        with self._flush_lock:
            if self._durable < seq:
                if self.error is not None:
                    raise self.error
                self._flush()

    def _flush(self) -> None:
        """Write and sync everything buffered as one batch. Called holding the
        flush lock; the buffer lock is held only to take the buffer, so appends
        go on during the write and the sync."""
        with self._lock:
            records, self._buf = self._buf, []
            last = self._appended
        body = b"".join(records)
        # the header's last field is the checksum of the bytes before it
        head = _HEADER.pack(self._end, len(body), zlib.crc32(body), 0)[:_HEAD_CRC_AT]
        batch = b"".join((head, _U32.pack(zlib.crc32(head)), body))
        end = self._end + len(batch)
        try:
            if end > self._allocated:
                self._grow(end)
            _pwrite(self._fd, batch, self._end)
            os.fdatasync(self._fd)
        except OSError as exc:
            self.error = WalError(f"wal flush failed: {exc}")
            raise self.error from exc
        except BaseException:
            self.error = WalError("wal flush interrupted")
            raise
        self._end = end
        self._durable = last
        self.flush_count += 1

    def _grow(self, end: int) -> None:
        """Zero-fill whole chunks from the allocated end until `end` fits; the
        flush's fdatasync makes them durable with its batch."""
        target = -(-end // CHUNK_SIZE) * CHUNK_SIZE
        zeros = memoryview(bytes(min(_ZERO_PIECE, target - self._allocated)))
        while self._allocated < target:
            piece = zeros[: target - self._allocated]
            _pwrite(self._fd, piece, self._allocated)
            self._allocated += len(piece)

"""Embedded multi-version key-value store.

Versions are keyed by the writing transaction's start timestamp and written
tentatively, before the writer's outcome is known. Commit timestamps are
never written back into the store: snapshot reads resolve visibility at read
time by consulting the oracle's commit records. A reader skips a version
whose writer is still in flight, aborted, or committed at or after the
reader's own start timestamp, except that a transaction always sees its own
writes.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass


class PurgeStateError(RuntimeError):
    """purge_aborted was called for a writer that is not aborted."""


@dataclass(frozen=True, slots=True)
class CellVersion:
    row: bytes
    writer_start_ts: int
    value: bytes


def _writer(v: CellVersion) -> int:
    return v.writer_start_ts


class VersionedStore:
    def __init__(self):
        # per-row version lists, ascending by writer start timestamp
        self._cells: dict[bytes, list[CellVersion]] = {}
        self._lock = threading.Lock()

    def put_tentative(self, row: bytes, writer_start_ts: int, value: bytes) -> None:
        """Upsert (row, writer); a rewrite by the same transaction wins."""
        with self._lock:
            versions = self._cells.setdefault(row, [])
            i = bisect.bisect_left(versions, writer_start_ts, key=_writer)
            if i < len(versions) and versions[i].writer_start_ts == writer_start_ts:
                versions[i] = CellVersion(row, writer_start_ts, value)
            else:
                versions.insert(i, CellVersion(row, writer_start_ts, value))

    def snapshot_read(self, row: bytes, reader_start_ts: int, status) -> bytes | None:
        """Value committed latest before the reader's start, or the reader's own write.

        `status` supplies commit_ts_of(writer_start_ts); writers without a
        commit timestamp (in flight or aborted) are skipped. Never blocks.
        """
        with self._lock:
            versions = self._cells.get(row)
            if not versions:
                return None
            i = bisect.bisect_left(versions, reader_start_ts, key=_writer)
            if i < len(versions) and versions[i].writer_start_ts == reader_start_ts:
                return versions[i].value  # the reader's own tentative write
            best_tc = -1
            best = None
            # Writers that started at or after the reader commit after it too,
            # so only the prefix below the reader's start can be visible.
            for k in range(i):
                v = versions[k]
                tc = status.commit_ts_of(v.writer_start_ts)
                if tc is not None and tc < reader_start_ts and tc > best_tc:
                    best_tc = tc
                    best = v.value
            return best

    def purge_aborted(self, row: bytes, writer_start_ts: int, status) -> None:
        """Drop the tentative version of an aborted writer; no-op if absent."""
        if not status.is_aborted(writer_start_ts):
            raise PurgeStateError(
                f"writer {writer_start_ts} is not aborted; refusing to purge"
            )
        with self._lock:
            versions = self._cells.get(row)
            if not versions:
                return
            i = bisect.bisect_left(versions, writer_start_ts, key=_writer)
            if i < len(versions) and versions[i].writer_start_ts == writer_start_ts:
                del versions[i]
                if not versions:
                    del self._cells[row]

    def compact(self, low_watermark: int, status) -> None:
        """Maintenance GC: drop committed versions strictly dominated for every
        reader at or above the watermark, and aborted leftovers.

        For each row, of the versions committed strictly below the watermark
        only the newest survives; in-flight versions are never touched.
        """
        with self._lock:
            for row in list(self._cells):
                versions = self._cells[row]
                if len(versions) < 2:
                    continue
                keep = []
                newest_old = None
                for v in versions:
                    tc = status.commit_ts_of(v.writer_start_ts)
                    if tc is None:
                        if not status.is_aborted(v.writer_start_ts):
                            keep.append(v)
                    elif tc >= low_watermark:
                        keep.append(v)
                    elif newest_old is None or tc > newest_old[0]:
                        newest_old = (tc, v)
                if newest_old is not None:
                    keep.append(newest_old[1])
                keep.sort(key=_writer)
                if keep:
                    self._cells[row] = keep
                else:
                    del self._cells[row]

    # -- introspection --------------------------------------------------------

    def versions(self, row: bytes) -> list[CellVersion]:
        """Versions of a row, newest writer first."""
        with self._lock:
            return list(reversed(self._cells.get(row, [])))

    def rows(self) -> list[bytes]:
        with self._lock:
            return sorted(self._cells)

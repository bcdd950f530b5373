"""Embedded multi-version key-value store.

A transaction's writes wait as tentative versions, keyed by the writer's
start timestamp, until the oracle decides it. On commit the oracle installs
them inside its critical section: each version is stamped with its commit
timestamp and appended to its row's committed list, which therefore stays
ascending by commit timestamp. Start timestamps are drawn in that same
critical section, so a reader never starts while a commit is half installed.
On abort the oracle purges the writer's versions in the same critical
section, so they never reach a committed list. A transaction always sees its
own writes.

A snapshot read returns the reader's own write, else the row's newest
committed version when it committed before the reader started, and takes the
lock only to bisect the list by the reader's start otherwise. The lock-free
path is safe because:

(a) a committed list is never replaced, only appended to by `install`, in
    commit order under the oracle lock, so every version installed after a
    reader starts has a larger commit timestamp than the reader's start and
    a newest version below it is the newest the reader can see;
(b) `compact` only cuts the front of a list in place and always keeps its
    newest element, so a list once non-empty stays so and its last element
    is always the newest version installed;
(c) a single `dict.get` or `list[-1]` is atomic in CPython.

A reader's own tentative writes change only on its own thread, until its
decision. Bisecting indexes the list, which `compact` shifts, so it holds the
lock.
"""

from __future__ import annotations

import bisect
import threading
from typing import NamedTuple


class CellVersion(NamedTuple):
    row: bytes
    writer_start_ts: int
    value: bytes
    commit_ts: int


class VersionedStore:
    def __init__(self):
        # per row, (commit ts, writer start ts, value) in commit order; a list is only
        # appended to or cut in place, never replaced, so tentative writes keep a reference
        self._committed: dict[bytes, list[tuple[int, int, bytes]]] = {}
        # writer start ts -> row -> (the row's committed list, tentative value)
        self._tentative: dict[int, dict[bytes, tuple[list, bytes]]] = {}
        self._lock = threading.Lock()

    def put_tentative(self, row: bytes, writer_start_ts: int, value: bytes) -> None:
        """Write (row, writer) tentatively; a rewrite by the same transaction wins."""
        with self._lock:
            versions = self._committed.setdefault(row, [])
            self._tentative.setdefault(writer_start_ts, {})[row] = (versions, value)

    def install(self, writer_start_ts: int, commit_ts: int) -> None:
        """Commit the writer's versions at commit_ts; the oracle calls this in commit order."""
        with self._lock:
            for row, (versions, value) in self._tentative.pop(writer_start_ts, {}).items():
                versions.append((commit_ts, writer_start_ts, value))

    def snapshot_read(self, row: bytes, reader_start_ts: int) -> bytes | None:
        """The reader's own write, else the value committed latest before its start."""
        mine = self._tentative.get(reader_start_ts)
        if mine is not None and row in mine:
            return mine[row][1]
        versions = self._committed.get(row)
        if not versions:
            return None
        newest = versions[-1]
        if newest[0] < reader_start_ts:
            return newest[2]
        with self._lock:
            i = bisect.bisect_left(versions, (reader_start_ts,))  # first at or after it
            return versions[i - 1][2] if i else None

    def purge_aborted(self, writer_start_ts: int) -> None:
        """Drop every tentative version of a writer; the oracle calls this when
        it decides an abort. No-op for a writer that wrote nothing."""
        with self._lock:
            self._tentative.pop(writer_start_ts, None)

    def compact(self, low_watermark: int) -> None:
        """Maintenance GC: of each row's versions committed strictly below the
        watermark only the newest survives, since no reader at or above the
        watermark can see the others."""
        with self._lock:
            for versions in self._committed.values():
                if len(versions) > 1:
                    i = bisect.bisect_left(versions, (low_watermark,))
                    if i > 1:
                        del versions[: i - 1]

    # -- introspection --------------------------------------------------------

    def versions(self, row: bytes) -> list[CellVersion]:
        """Committed versions of a row, newest commit first."""
        with self._lock:
            committed = self._committed.get(row, ())
            return [CellVersion(row, w, value, tc) for tc, w, value in reversed(committed)]

    def rows(self) -> list[bytes]:
        """Rows holding at least one committed version."""
        with self._lock:
            return sorted(row for row, versions in self._committed.items() if versions)

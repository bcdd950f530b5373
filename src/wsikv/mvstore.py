"""Embedded multi-version key-value store.

A transaction's writes wait as tentative versions in a map of its own, keyed
by the writer's start timestamp, until the oracle decides it. Only the
writer's thread adds to that map, and without a lock; the oracle pops the
whole map in the writer's decision, while the writer waits for it. On commit
the oracle installs the versions inside its critical section: each becomes a
(commit timestamp, value) pair appended to its row's committed list, which
therefore stays ascending by commit timestamp. The store decides which version
a reader sees; the commit timestamp alone names a version's writer, since no
two transactions commit at the same timestamp. Start timestamps are drawn in
that same critical section, so a reader never starts while a commit is half
installed. On abort the oracle drops the writer's map, so its versions never
reach a committed list. A transaction always sees its own writes.

The oracle's critical section is the store's only writer: `install` and
`compact` run inside it and nowhere else, so the store has no lock, and no
read takes one. A snapshot read returns the reader's own write, else the
row's newest committed version when it committed before the reader started,
and bisects the list by the reader's start otherwise. That is safe because:

(a) a row's committed list enters the map already holding its first version,
    and `install` appends to it in commit order, so every version installed
    after a reader starts has a larger commit timestamp than the reader's
    start, and the newest version below that start is the newest the reader
    can see;
(b) a list is only ever appended to: `compact` replaces a list it cuts with a
    trimmed copy that keeps the newest element, so a list a reader fetched
    never shifts or loses an element, every version the reader can see was
    installed before it fetched the list, and a version appended while it
    bisects lands above its start;
(c) a single `dict.get`, dict store or pop, `dict.copy`, list append or
    `list[-1]`, set add, discard or membership test, and `min` over a set of
    ints is atomic in CPython. The set ones serve the oracle's live set:
    `gc()` reads it while read-only commits test and discard without a lock.

Garbage collection walks only the rows holding three or more versions, which
`install` lists in `_long` as each reaches three. `compact(low_watermark)`
cuts each listed row to its newest version below the watermark plus every
version at or above it, and keeps listed only the rows still holding more
than two. Only the oracle's critical section touches the list, so it needs no
lock. A row of two versions is not cut: that spare version saves copying
every row written since the last collection. After each collection the store
holds at most 2 x rows + the versions committed at or above the watermark,
also for rows that were written often and then never again.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple


class CellVersion(NamedTuple):
    row: bytes
    value: bytes
    commit_ts: int


class VersionedStore:
    def __init__(self):
        # per row, (commit ts, value) in commit order
        self._committed: dict[bytes, list[tuple[int, bytes]]] = {}
        # writer start ts -> row -> tentative value
        self._tentative: dict[int, dict[bytes, bytes]] = {}
        # each row holding three or more committed versions, once
        self._long: list[bytes] = []

    def put_tentative(self, row: bytes, writer_start_ts: int, value: bytes) -> None:
        """Write (row, writer) tentatively; a rewrite by the same transaction wins.
        Only the writer's own thread calls this, before its decision."""
        mine = self._tentative.get(writer_start_ts)
        if mine is None:
            mine = self._tentative[writer_start_ts] = {}
        mine[row] = value

    def install(self, writer_start_ts: int, commit_ts: int) -> None:
        """Commit the writer's versions at commit_ts; the oracle calls this in
        commit order, inside its critical section."""
        mine = self._tentative.pop(writer_start_ts, None)
        if not mine:
            return
        committed = self._committed
        for row, value in mine.items():
            versions = committed.get(row)
            if versions is None:  # enters the map holding its first version
                committed[row] = [(commit_ts, value)]
            else:
                versions.append((commit_ts, value))
                if len(versions) == 3:
                    self._long.append(row)

    def snapshot_read(self, row: bytes, reader_start_ts: int) -> bytes | None:
        """The reader's own write, else the value committed latest before its start."""
        mine = self._tentative.get(reader_start_ts)
        if mine is not None and row in mine:
            return mine[row]
        versions = self._committed.get(row)
        if versions is None:
            return None
        newest = versions[-1]
        if newest[0] < reader_start_ts:
            return newest[1]
        i = bisect.bisect_left(versions, (reader_start_ts,))  # first at or after it
        return versions[i - 1][1] if i else None

    def purge_aborted(self, writer_start_ts: int) -> None:
        """Drop every tentative version of a writer; the oracle calls this when
        it decides an abort. No-op for a writer that wrote nothing."""
        self._tentative.pop(writer_start_ts, None)

    def compact(self, low_watermark: int) -> None:
        """Maintenance GC over the rows holding three or more versions: of a
        row's versions committed strictly below the watermark only the newest
        survives, since no reader at or above the watermark can see the
        others. The oracle calls this inside its critical section; a cut list
        is replaced, never shifted (see (b))."""
        committed = self._committed
        long = []
        for row in self._long:
            versions = committed[row]
            i = bisect.bisect_left(versions, (low_watermark,))
            if i > 1:
                versions = committed[row] = versions[i - 1 :]
            if len(versions) > 2:
                long.append(row)
        self._long = long

    # -- introspection --------------------------------------------------------

    def versions(self, row: bytes) -> list[CellVersion]:
        """Committed versions of a row, newest commit first."""
        committed = self._committed.get(row, ())
        return [CellVersion(row, value, tc) for tc, value in reversed(committed)]

    def rows(self) -> list[bytes]:
        """Rows holding at least one committed version."""
        return sorted(self._committed.copy())  # install may add a row meanwhile

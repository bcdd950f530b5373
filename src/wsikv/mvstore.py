"""Embedded multi-version key-value store.

The store holds committed versions only: a transaction keeps its writes in
its own handle until the oracle decides it, so no reader can meet an
undecided write and an abort leaves nothing here. On commit the oracle
installs the writes inside its critical section: each becomes a
(commit timestamp, value) pair appended to its row's committed list, which
therefore stays ascending by commit timestamp. The store decides which version
a reader sees; the commit timestamp alone names a version's writer, since no
two transactions commit at the same timestamp. Start timestamps are drawn in
that same critical section, so a reader never starts while a commit is half
installed.

The oracle's critical section is the store's only writer: `install` and
`compact` run inside it and nowhere else, so the store has no lock, and no
read takes one. A snapshot read returns the row's newest committed version
when it committed before the reader started, and bisects the list by the
reader's start otherwise. That is safe because:

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
    `list[-1]`, and `min` over the int keys of a dict is atomic in CPython.
    The oracle's live set relies on the pop and the `min`: `gc()` reads it
    while read-only commits pop from it without a lock.

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
        # each row holding three or more committed versions, once
        self._long: list[bytes] = []

    def install(self, writes: dict[bytes, bytes], commit_ts: int) -> None:
        """Commit `writes`, row -> value, at commit_ts; the oracle calls this in
        commit order, inside its critical section."""
        committed = self._committed
        for row, value in writes.items():
            versions = committed.get(row)
            if versions is None:  # enters the map holding its first version
                committed[row] = [(commit_ts, value)]
            else:
                versions.append((commit_ts, value))
                if len(versions) == 3:
                    self._long.append(row)

    def snapshot_read(self, row: bytes, reader_start_ts: int) -> bytes | None:
        """The value committed latest before the reader's start."""
        versions = self._committed.get(row)
        if versions is None:
            return None
        newest = versions[-1]
        if newest[0] < reader_start_ts:
            return newest[1]
        i = bisect.bisect_left(versions, (reader_start_ts,))  # first at or after it
        return versions[i - 1][1] if i else None

    def newest_read(self, rows, reader_start_ts: int) -> int:
        """The newest commit timestamp among the committed versions of `rows`
        that a reader starting at `reader_start_ts` sees, found as
        snapshot_read finds them; 0 when it sees none. The reader must still
        be live, so that `compact` keeps every version it sees."""
        committed = self._committed
        newest = 0
        for row in rows:
            versions = committed.get(row)
            if versions is None:
                continue
            seen = versions[-1][0]
            if seen >= reader_start_ts:
                i = bisect.bisect_left(versions, (reader_start_ts,))
                if not i:
                    continue
                seen = versions[i - 1][0]
            if seen > newest:
                newest = seen
        return newest

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

    # No-ops that no engine path calls, since a transaction's writes stay in its
    # handle. Kept only because the traced mode of perfbench/run.py spans them
    # by name (`instrument()`), as it reads CommitTable.aborted and
    # wal.BatchPolicy (ROADMAP item 1 removes all four)
    def put_tentative(self, row: bytes, writer_start_ts: int, value: bytes) -> None:
        pass

    def purge_aborted(self, writer_start_ts: int) -> None:
        pass

    # -- introspection --------------------------------------------------------

    def versions(self, row: bytes) -> list[CellVersion]:
        """Committed versions of a row, newest commit first."""
        committed = self._committed.get(row, ())
        return [CellVersion(row, value, tc) for tc, value in reversed(committed)]

    def rows(self) -> list[bytes]:
        """Rows holding at least one committed version."""
        return sorted(self._committed.copy())  # install may add a row meanwhile

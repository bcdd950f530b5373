import random

import pytest
from hypothesis import given, settings, strategies as st

from wsikv.mvstore import PurgeStateError, VersionedStore


class StubStatus:
    """Status source with fixed commit records."""

    def __init__(self, commits=None, aborted=()):
        self._commits = dict(commits or {})
        self._aborted = set(aborted)

    def commit_ts_of(self, start_ts):
        return self._commits.get(start_ts)

    def is_aborted(self, start_ts):
        return start_ts in self._aborted


def brute_force_read(store, row, reader_start, status):
    """Independent oracle: enumerate versions, filter, take the max commit ts."""
    own = [v for v in store.versions(row) if v.writer_start_ts == reader_start]
    if own:
        return own[0].value
    candidates = []
    for v in store.versions(row):
        tc = status.commit_ts_of(v.writer_start_ts)
        if tc is not None and tc < reader_start:
            candidates.append((tc, v.value))
    return max(candidates)[1] if candidates else None


def test_rewrite_by_same_transaction_wins():
    store = VersionedStore()
    store.put_tentative(b"x", 5, b"a")
    store.put_tentative(b"x", 5, b"b")
    assert [(v.writer_start_ts, v.value) for v in store.versions(b"x")] == [(5, b"b")]


def test_versions_are_ordered_newest_writer_first():
    store = VersionedStore()
    store.put_tentative(b"x", 5, b"a")
    store.put_tentative(b"x", 7, b"c")
    assert [v.writer_start_ts for v in store.versions(b"x")] == [7, 5]


def test_put_creates_unseen_row():
    store = VersionedStore()
    store.put_tentative(b"fresh", 1, b"v")
    assert store.rows() == [b"fresh"]


def test_reader_sees_prior_commit_not_concurrent_uncommitted_write():
    # writer_old committed before the reader started; writer_new is in flight
    store = VersionedStore()
    store.put_tentative(b"r", 1, b"old")
    store.put_tentative(b"r", 4, b"new")
    status = StubStatus(commits={1: 2})  # writer 4 not committed yet
    assert store.snapshot_read(b"r", 3, status) == b"old"


def test_reader_sees_own_tentative_write():
    store = VersionedStore()
    store.put_tentative(b"x", 5, b"mine")
    assert store.snapshot_read(b"x", 5, StubStatus()) == b"mine"


def test_visibility_picks_highest_commit_ts_below_reader_start():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"committed-at-3")
    store.put_tentative(b"x", 2, b"committed-at-9")
    status = StubStatus(commits={1: 3, 2: 9})
    expected = brute_force_read(store, b"x", 7, status)
    assert expected == b"committed-at-3"
    assert store.snapshot_read(b"x", 7, status) == expected


def test_commit_order_beats_start_order():
    # a later-starting writer can commit earlier; visibility follows commit ts
    store = VersionedStore()
    store.put_tentative(b"x", 3, b"slow")   # committed at 9
    store.put_tentative(b"x", 5, b"quick")  # committed at 6
    status = StubStatus(commits={3: 9, 5: 6})
    assert store.snapshot_read(b"x", 8, status) == b"quick"
    assert store.snapshot_read(b"x", 10, status) == b"slow"


def test_absent_row_reads_none():
    assert VersionedStore().snapshot_read(b"nope", 5, StubStatus()) is None


def test_purge_aborted_removes_version_and_preserves_reads():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"keep")
    store.put_tentative(b"x", 5, b"drop")
    status = StubStatus(commits={1: 2}, aborted={5})
    before = store.snapshot_read(b"x", 9, status)
    store.purge_aborted(b"x", 5, status)
    assert store.snapshot_read(b"x", 9, status) == before == b"keep"
    assert [v.writer_start_ts for v in store.versions(b"x")] == [1]


def test_purge_absent_version_is_noop():
    store = VersionedStore()
    store.purge_aborted(b"x", 5, StubStatus(aborted={5}))


def test_purge_committed_or_inflight_version_is_an_error():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"v")
    with pytest.raises(PurgeStateError):
        store.purge_aborted(b"x", 1, StubStatus(commits={1: 2}))
    with pytest.raises(PurgeStateError):
        store.purge_aborted(b"x", 1, StubStatus())


def test_read_is_deterministic_for_fixed_state():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"a")
    store.put_tentative(b"x", 2, b"b")
    status = StubStatus(commits={1: 3, 2: 4})
    results = {store.snapshot_read(b"x", 5, status) for _ in range(50)}
    assert results == {b"b"}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    reader_start=st.integers(min_value=1, max_value=40),
)
def test_reads_match_brute_force_and_never_see_future_commits(seed, reader_start):
    rng = random.Random(seed)
    store = VersionedStore()
    commits = {}
    aborted = set()
    clock = 0
    for writer in rng.sample(range(1, 30), rng.randint(0, 10)):
        store.put_tentative(b"x", writer, b"w%d" % writer)
        clock = max(clock, writer)
        outcome = rng.random()
        if outcome < 0.6:
            clock += rng.randint(1, 3)
            commits[writer] = clock
        elif outcome < 0.8:
            aborted.add(writer)
    status = StubStatus(commits=commits, aborted=aborted)
    got = store.snapshot_read(b"x", reader_start, status)
    assert got == brute_force_read(store, b"x", reader_start, status)
    if got is not None and got != b"w%d" % reader_start:
        writer = int(got[1:])
        assert commits[writer] < reader_start


def test_compact_preserves_reads_at_or_above_watermark():
    rng = random.Random(11)
    store = VersionedStore()
    commits = {}
    clock = 0
    for writer in range(1, 40, 2):
        store.put_tentative(b"x", writer, b"w%d" % writer)
        clock = writer + 1
        commits[writer] = clock
    status = StubStatus(commits=commits)
    watermark = 20
    before = {r: store.snapshot_read(b"x", r, status) for r in range(watermark, 45)}
    store.compact(watermark, status)
    after = {r: store.snapshot_read(b"x", r, status) for r in range(watermark, 45)}
    assert after == before
    assert len(store.versions(b"x")) < len(commits)

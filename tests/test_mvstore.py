import random

import pytest
from hypothesis import given, settings, strategies as st

from wsikv.mvstore import VersionedStore


def test_rewrite_by_same_transaction_wins():
    store = VersionedStore()
    store.put_tentative(b"x", 5, b"a")
    store.put_tentative(b"x", 5, b"b")
    assert store.snapshot_read(b"x", 5) == b"b"
    store.install(5, 6)
    assert [(v.value, v.commit_ts) for v in store.versions(b"x")] == [(b"b", 6)]


def test_versions_are_ordered_newest_commit_first():
    # writer 7 commits before writer 5 does
    store = VersionedStore()
    store.put_tentative(b"x", 5, b"a")
    store.put_tentative(b"x", 7, b"c")
    store.install(7, 8)
    store.install(5, 9)
    assert [(v.value, v.commit_ts) for v in store.versions(b"x")] == [(b"a", 9), (b"c", 8)]


def test_put_creates_unseen_row():
    store = VersionedStore()
    store.put_tentative(b"fresh", 1, b"v")
    assert store.rows() == []  # a tentative write is not yet a row
    store.install(1, 2)
    assert store.rows() == [b"fresh"]


def test_reader_sees_prior_commit_not_concurrent_uncommitted_write():
    # writer 1 committed before the reader started; writer 4 is in flight
    store = VersionedStore()
    store.put_tentative(b"r", 1, b"old")
    store.install(1, 2)
    store.put_tentative(b"r", 4, b"new")
    assert store.snapshot_read(b"r", 3) == b"old"
    assert store.snapshot_read(b"r", 5) == b"old"


def test_reader_sees_own_tentative_write():
    store = VersionedStore()
    store.put_tentative(b"x", 5, b"mine")
    assert store.snapshot_read(b"x", 5) == b"mine"
    assert store.snapshot_read(b"x", 6) is None


def test_visibility_picks_highest_commit_ts_below_reader_start():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"committed-at-3")
    store.put_tentative(b"x", 2, b"committed-at-9")
    store.install(1, 3)
    store.install(2, 9)
    assert store.snapshot_read(b"x", 3) is None
    assert store.snapshot_read(b"x", 7) == b"committed-at-3"
    assert store.snapshot_read(b"x", 10) == b"committed-at-9"


def test_commit_order_beats_start_order():
    # a later-starting writer can commit earlier; visibility follows commit ts
    store = VersionedStore()
    store.put_tentative(b"x", 3, b"slow")
    store.put_tentative(b"x", 5, b"quick")
    store.install(5, 6)
    store.install(3, 9)
    assert store.snapshot_read(b"x", 8) == b"quick"
    assert store.snapshot_read(b"x", 10) == b"slow"


def test_absent_row_reads_none():
    assert VersionedStore().snapshot_read(b"nope", 5) is None


def test_install_without_writes_changes_nothing():
    store = VersionedStore()
    store.install(4, 5)  # a read-only commit
    assert store.rows() == []


def test_purge_aborted_removes_version_and_preserves_reads():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"keep")
    store.install(1, 2)
    store.put_tentative(b"x", 5, b"drop")
    store.put_tentative(b"y", 5, b"drop")
    store.put_tentative(b"y", 7, b"other")
    before = store.snapshot_read(b"x", 9)
    store.purge_aborted(5)
    assert store.snapshot_read(b"x", 9) == before == b"keep"
    assert store.snapshot_read(b"x", 5) == b"keep"  # its own writes are gone too
    assert store.snapshot_read(b"y", 5) is None  # the whole write set at once
    assert store.snapshot_read(b"y", 7) == b"other"  # another writer's stays
    store.install(5, 10)  # a purged writer has nothing left to install
    assert [v.commit_ts for v in store.versions(b"x")] == [2]
    assert store.rows() == [b"x"]


def test_purge_absent_version_is_noop():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"v")
    store.purge_aborted(5)
    assert store.snapshot_read(b"x", 1) == b"v"


def test_read_is_deterministic_for_fixed_state():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"a")
    store.put_tentative(b"x", 2, b"b")
    store.install(1, 3)
    store.install(2, 4)
    results = {store.snapshot_read(b"x", 5) for _ in range(50)}
    assert results == {b"b"}


def test_mutating_versions_does_not_change_reads():
    store = VersionedStore()
    store.put_tentative(b"x", 1, b"a")
    store.install(1, 2)
    listed = store.versions(b"x")
    with pytest.raises(AttributeError):
        listed[0].value = b"forged"
    listed.clear()
    assert store.snapshot_read(b"x", 3) == b"a"


def _schedule(rng):
    """Writers of rows x and y with outcomes, drawn like an oracle would decide.

    Returns (puts as (writer, row, value), commit ts by writer, aborted
    writers, in-flight writers). Start timestamps are odd and commit
    timestamps even, so all are distinct; commit timestamps rise in decision
    order and each is above its writer's start.
    """
    clock = 0
    writers = sorted(rng.sample(range(1, 60, 2), rng.randint(0, 10)))
    puts, commits, aborted, in_flight = [], {}, set(), set()
    for writer in writers:
        for row in rng.sample([b"x", b"y"], rng.randint(1, 2)):
            puts.append((writer, row, b"w%d%s" % (writer, row)))
    rng.shuffle(puts)
    for writer in rng.sample(writers, len(writers)):
        outcome = rng.random()
        if outcome < 0.6:
            clock = max(clock + 2, writer + 1) + rng.choice((0, 2))
            commits[writer] = clock
        elif outcome < 0.8:
            aborted.add(writer)
        else:
            in_flight.add(writer)
    return puts, commits, aborted, in_flight


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    reader_start=st.integers(min_value=1, max_value=90),
    watermark=st.integers(min_value=0, max_value=90),
)
def test_reads_match_brute_force_and_never_see_future_commits(seed, reader_start, watermark):
    puts, commits, aborted, in_flight = _schedule(random.Random(seed))
    low = min(watermark, reader_start)  # gc never passes a live reader's start
    store = VersionedStore()
    for writer, row, value in puts:
        store.put_tentative(row, writer, value)
    for writer in sorted(commits, key=commits.get):  # the oracle installs in commit order
        store.install(writer, commits[writer])
        store.compact(low)  # a collection after every install, the last one before the reads
    for writer in aborted:
        store.purge_aborted(writer)
    for row in (b"x", b"y"):
        kept = store.versions(row)  # at most two, or one below the watermark
        assert len(kept) <= 2 or sum(v.commit_ts < low for v in kept) <= 1
        wrote = {w: v for w, r, v in puts if r == row}
        if reader_start in in_flight and reader_start in wrote:
            expected = wrote[reader_start]
        else:
            visible = [
                (commits[w], v) for w, v in wrote.items() if commits.get(w, reader_start) < reader_start
            ]
            expected = max(visible)[1] if visible else None
        got = store.snapshot_read(row, reader_start)
        assert got == expected
        if got is not None and reader_start not in in_flight:
            writer = int(got[1:-1])
            assert commits[writer] < reader_start


def test_compact_preserves_reads_at_or_above_watermark():
    store = VersionedStore()
    for writer in range(1, 40, 2):
        store.put_tentative(b"x", writer, b"w%d" % writer)
        store.install(writer, writer + 1)
    store.put_tentative(b"x", 41, b"in-flight")
    watermark = 20
    before = {r: store.snapshot_read(b"x", r) for r in range(watermark, 45)}
    store.compact(watermark)
    after = {r: store.snapshot_read(b"x", r) for r in range(watermark, 45)}
    assert after == before
    # the newest version below the watermark survives with everything above it
    assert [v.commit_ts for v in store.versions(b"x")] == list(range(40, 19, -2)) + [18]
    assert store.snapshot_read(b"x", 41) == b"in-flight"

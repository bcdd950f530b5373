import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsikv.mvstore import VersionedStore
from wsikv.txn import Database


def test_rewrite_by_same_transaction_wins():
    # a transaction's writes stay in its handle, where a rewrite replaces the value
    db = Database()
    h = db.begin()
    h.write(b"x", b"a")
    h.write(b"x", b"b")
    assert h.read(b"x") == b"b" and db.store.rows() == []
    assert h.commit().committed
    assert [(v.value, v.commit_ts) for v in db.store.versions(b"x")] == [(b"b", h.commit_ts)]


def test_versions_are_ordered_newest_commit_first():
    # writer 7 commits before writer 5 does
    store = VersionedStore()
    store.install({b"x": b"c"}, 8)
    store.install({b"x": b"a"}, 9)
    assert [(v.value, v.commit_ts) for v in store.versions(b"x")] == [(b"a", 9), (b"c", 8)]


def test_put_creates_unseen_row():
    store = VersionedStore()
    assert store.rows() == []
    store.install({b"fresh": b"v"}, 2)
    assert store.rows() == [b"fresh"]


def test_reader_sees_prior_commit_not_concurrent_uncommitted_write():
    # a writer committed before the reader started; another is in flight
    db = Database()
    db.seed_committed(b"r", b"old")
    before = db.begin()
    writer = db.begin()
    writer.write(b"r", b"new")
    after = db.begin()
    assert before.read(b"r") == after.read(b"r") == b"old"
    assert [v.value for v in db.store.versions(b"r")] == [b"old"]


def test_reader_sees_own_tentative_write():
    db = Database()
    h = db.begin()
    h.write(b"x", b"mine")
    assert h.read(b"x") == b"mine"
    assert db.begin().read(b"x") is None
    assert db.store.snapshot_read(b"x", h.start_ts + 1) is None


def test_visibility_picks_highest_commit_ts_below_reader_start():
    store = VersionedStore()
    store.install({b"x": b"committed-at-3"}, 3)
    store.install({b"x": b"committed-at-9"}, 9)
    assert store.snapshot_read(b"x", 3) is None
    assert store.snapshot_read(b"x", 7) == b"committed-at-3"
    assert store.snapshot_read(b"x", 10) == b"committed-at-9"


def test_commit_order_beats_start_order():
    # a later-starting writer can commit earlier; visibility follows commit ts
    db = Database()  # WSI commits blind writes unchecked
    slow, quick = db.begin(), db.begin()
    slow.write(b"x", b"slow")
    quick.write(b"x", b"quick")
    assert quick.commit().committed and slow.commit().committed  # blind writes
    assert slow.commit_ts > quick.commit_ts
    assert db.store.snapshot_read(b"x", slow.commit_ts) == b"quick"
    assert db.store.snapshot_read(b"x", slow.commit_ts + 1) == b"slow"


def test_absent_row_reads_none():
    assert VersionedStore().snapshot_read(b"nope", 5) is None


def test_install_without_writes_changes_nothing():
    store = VersionedStore()
    store.install({}, 5)
    assert store.rows() == []


def test_purge_aborted_removes_version_and_preserves_reads():
    # an abort leaves no version: the writes go with the handle
    db = Database()
    db.seed_committed(b"x", b"keep")
    aborted, decided, other = db.begin(), db.begin(), db.begin()
    for h in (aborted, decided):
        h.read(b"x")
        h.write(b"x", b"drop")
        h.write(b"y", b"drop")
    other.write(b"y", b"other")
    aborted.abort()
    rival = db.begin()
    rival.read(b"x")
    rival.write(b"x", b"fresh")
    assert rival.commit().committed
    assert not decided.commit().committed  # a conflict abort
    db.store.purge_aborted(decided.start_ts)  # a no-op, kept only for the benchmark
    assert [v.value for v in db.store.versions(b"x")] == [b"fresh", b"keep"]
    assert db.store.rows() == [b"x"]
    assert other.read(b"y") == b"other"  # another writer's stays
    assert other.commit().committed
    assert db.begin().read(b"y") == b"other"


def test_purge_absent_version_is_noop():
    store = VersionedStore()
    store.install({b"x": b"v"}, 2)
    store.put_tentative(b"x", 5, b"ignored")
    store.purge_aborted(5)
    assert store.snapshot_read(b"x", 5) == b"v"
    assert [(v.value, v.commit_ts) for v in store.versions(b"x")] == [(b"v", 2)]


def test_read_is_deterministic_for_fixed_state():
    store = VersionedStore()
    store.install({b"x": b"a"}, 3)
    store.install({b"x": b"b"}, 4)
    results = {store.snapshot_read(b"x", 5) for _ in range(50)}
    assert results == {b"b"}


def test_mutating_versions_does_not_change_reads():
    store = VersionedStore()
    store.install({b"x": b"a"}, 2)
    listed = store.versions(b"x")
    with pytest.raises(AttributeError):
        listed[0].value = b"forged"
    listed.clear()
    assert store.snapshot_read(b"x", 3) == b"a"


def _schedule(rng):
    """Writers of rows x and y with outcomes, drawn like an oracle would decide.

    Returns (puts as (writer, row, value), commit ts by writer); a writer
    with no commit timestamp aborted or is still in flight. Start timestamps
    are odd and commit timestamps even, so all are distinct; commit
    timestamps rise in decision order and each is above its writer's start.
    """
    clock = 0
    writers = sorted(rng.sample(range(1, 60, 2), rng.randint(0, 10)))
    puts, commits = [], {}
    for writer in writers:
        for row in rng.sample([b"x", b"y"], rng.randint(1, 2)):
            puts.append((writer, row, b"w%d%s" % (writer, row)))
    rng.shuffle(puts)
    for writer in rng.sample(writers, len(writers)):
        if rng.random() < 0.6:
            clock = max(clock + 2, writer + 1) + rng.choice((0, 2))
            commits[writer] = clock
    return puts, commits


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    reader_start=st.integers(min_value=1, max_value=90),
    watermark=st.integers(min_value=0, max_value=90),
)
def test_reads_match_brute_force_and_never_see_future_commits(seed, reader_start, watermark):
    puts, commits = _schedule(random.Random(seed))
    low = min(watermark, reader_start)  # gc never passes a live reader's start
    writes = {}
    for writer, row, value in puts:
        writes.setdefault(writer, {})[row] = value
    store = VersionedStore()
    # the oracle installs in commit order; the other writers never reach the store
    for writer in sorted(commits, key=commits.get):
        store.install(writes[writer], commits[writer])
        store.compact(low)  # a collection after every install, the last one before the reads
    for row in (b"x", b"y"):
        kept = store.versions(row)  # at most two, or one below the watermark
        assert len(kept) <= 2 or sum(v.commit_ts < low for v in kept) <= 1
        wrote = {w: v for w, r, v in puts if r == row}
        visible = [(commits[w], v) for w, v in wrote.items() if commits.get(w, reader_start) < reader_start]
        expected = max(visible)[1] if visible else None
        got = store.snapshot_read(row, reader_start)
        assert got == expected
        if got is not None:
            writer = int(got[1:-1])
            assert commits[writer] < reader_start


def test_compact_preserves_reads_at_or_above_watermark():
    store = VersionedStore()
    for writer in range(1, 40, 2):
        store.install({b"x": b"w%d" % writer}, writer + 1)
    watermark = 20
    before = {r: store.snapshot_read(b"x", r) for r in range(watermark, 45)}
    store.compact(watermark)
    after = {r: store.snapshot_read(b"x", r) for r in range(watermark, 45)}
    assert after == before
    # the newest version below the watermark survives with everything above it
    assert [v.commit_ts for v in store.versions(b"x")] == list(range(40, 19, -2)) + [18]
    assert store.snapshot_read(b"x", 41) == b"w39"


ROWS = (b"a", b"b", b"c")
_installs = st.tuples(st.sets(st.sampled_from(ROWS), min_size=1), st.integers(1, 3))  # (rows, ts step)
_compacts = st.integers(0, 14)  # how far the watermark lies below the newest commit ts + 2


def _visible(pairs, start):
    """The newest (commit ts, value) pair committed before start, or None."""
    return max((p for p in pairs if p[0] < start), default=None)


def _newest(pairs_by_row, rows, start):
    """The newest commit ts among `rows` that a reader at start sees, or 0."""
    return max(((_visible(pairs_by_row[r], start) or (0,))[0] for r in rows), default=0)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.one_of(_installs, _compacts), max_size=45))
def test_flat_layout_answers_as_a_model_of_pairs_does(ops):
    # The model keeps every committed (commit ts, value) pair per row, and
    # beside it the pairs the documented compaction keeps: of a row holding
    # three or more versions, the newest below the watermark and all above
    # it. The store must hold exactly those, read as brute force over them
    # reads at every start, and at starts at or above every watermark so far
    # read as brute force over all the pairs does. A single thread cannot
    # tell the one-extend install from two appends; that is left to the race
    # tests in test_txn.py.
    store = VersionedStore()
    history = {row: [] for row in ROWS}
    kept = {row: [] for row in ROWS}
    ts = high = 0
    for op in ops:
        if isinstance(op, tuple):
            rows, step = op
            ts += step
            writes = {row: b"%d%s" % (ts, row) for row in sorted(rows)}
            store.install(writes, ts)
            for row, value in writes.items():
                history[row].append((ts, value))
                kept[row].append((ts, value))
        else:
            watermark = max(0, ts + 2 - op)
            store.compact(watermark)
            high = max(high, watermark)
            for row, pairs in kept.items():
                below = sum(tc < watermark for tc, _ in pairs)
                if len(pairs) >= 3 and below > 1:
                    kept[row] = pairs[below - 1 :]
    for row in ROWS:
        assert [(v.commit_ts, v.value) for v in store.versions(row)] == kept[row][::-1]
        assert all(v.row == row for v in store.versions(row))
    subsets = [[r for i, r in enumerate(ROWS) if mask >> i & 1] for mask in range(8)]
    for start in range(0, ts + 3):
        for row in ROWS:
            seen = _visible(kept[row], start)
            assert store.snapshot_read(row, start) == (seen[1] if seen else None)
            if start >= high:
                assert seen == _visible(history[row], start)
        for rows in subsets:
            assert store.newest_read(rows, start) == _newest(kept, rows, start)
            if start >= high:
                assert _newest(kept, rows, start) == _newest(history, rows, start)


def test_installing_into_existing_rows_allocates_nothing_the_collector_tracks():
    # A version is two slots of its row's list, not a (ts, value) tuple of its
    # own, so installs into loaded rows leave no new object for the cyclic
    # collector to walk: a tuple per version would grow the count by 5 000.
    store = VersionedStore()
    rows = [b"row:%04d" % i for i in range(1_000)]
    store.install(dict.fromkeys(rows, b"loaded"), 1)
    batches = [dict.fromkeys(rows, b"v%d" % k) for k in range(5)]
    gc.disable()
    try:
        before = gc.get_count()[0]
        for ts, writes in enumerate(batches, start=2):
            store.install(writes, ts)
        grew = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert grew < 100
    assert [v.commit_ts for v in store.versions(rows[0])] == [6, 5, 4, 3, 2, 1]

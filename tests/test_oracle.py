import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    TableTwin,
    drive_schedule,
    random_schedule,
    si_safety_violations,
    wsi_safety_violations,
)
from wsikv.oracle import (
    CommitDecision,
    CommitTable,
    DuplicateRequestError,
    IsolationPolicy,
    StatusOracle,
)
from wsikv.wal import KIND_TS_RESERVE

SI, WSI = IsolationPolicy.SI, IsolationPolicy.WSI


def make_oracle(policy, capacity=None):
    oracle = StatusOracle(policy, capacity=capacity)
    return oracle, oracle.timestamps


# -- snapshot isolation --------------------------------------------------------


def test_si_disjoint_writers_both_commit():
    oracle, _ = make_oracle(SI)
    assert oracle.start() == 1 and oracle.start() == 2  # two transaction starts
    d1 = oracle.submit(1, {b"y": b"v"})
    d2 = oracle.submit(2, {b"x": b"v"})
    assert (d1.committed, d1.commit_ts) == (True, 3)
    assert (d2.committed, d2.commit_ts) == (True, 4)


def test_si_write_write_conflict_aborts_later_committer():
    oracle, _ = make_oracle(SI)
    oracle.start(), oracle.start()
    d2 = oracle.submit(2, {b"x": b"v"})
    assert (d2.committed, d2.commit_ts) == (True, 3)
    d1 = oracle.submit(1, {b"x": b"v"})  # lastCommit(x)=3 > 1
    assert (d1.committed, d1.cause) == (False, "conflict")
    assert d2.cause is None
    assert 1 not in oracle.table.commit_records and oracle._active == {}
    with pytest.raises(DuplicateRequestError, match="transaction 1 is not live"):
        oracle.report_abort(1)


def test_si_empty_write_set_always_commits():
    oracle, _ = make_oracle(SI)
    for _ in range(5):
        oracle.start()
    oracle.submit(2, {b"x": b"v"})
    decision = oracle.submit(5, {})
    assert decision.committed


def test_conflict_abort_leaves_conflict_state_untouched():
    oracle, _ = make_oracle(SI)
    oracle.start(), oracle.start()
    oracle.submit(2, {b"x": b"v"})
    before = dict(oracle.table.last_commit)
    oracle.submit(1, {b"x": b"v", b"z": b"v"})
    assert oracle.table.last_commit == before


# -- write-snapshot isolation ----------------------------------------------------


def test_wsi_write_skew_is_rejected():
    oracle, _ = make_oracle(WSI)
    oracle.start(), oracle.start()
    d1 = oracle.submit(1, {b"x": b"v"}, {b"x", b"y"})
    assert (d1.committed, d1.commit_ts) == (True, 3)
    d2 = oracle.submit(2, {b"y": b"v"}, {b"x", b"y"})  # lastCommit(x)=3 > 2
    assert not d2.committed


def test_wsi_blind_write_is_allowed():
    oracle, _ = make_oracle(WSI)
    oracle.start(), oracle.start()
    d1 = oracle.submit(1, {b"x": b"v"}, {b"x"})
    assert (d1.committed, d1.commit_ts) == (True, 3)
    d2 = oracle.submit(2, {b"x": b"v"}, set())  # empty read set: no check
    assert (d2.committed, d2.commit_ts) == (True, 4)


def test_wsi_no_read_write_overlap_commits_despite_concurrency():
    # a concurrent committer touching a row outside the read set is harmless
    oracle, _ = make_oracle(WSI)
    oracle.start(), oracle.start()  # txn_n=1, txn_c=2
    dc = oracle.submit(2, {b"rprime": b"v"}, set())
    assert dc.committed
    dn = oracle.submit(1, {b"rprime": b"v"}, {b"r"})
    assert dn.committed


def test_wsi_read_only_fast_path_commits_with_no_state_change():
    oracle, _ = make_oracle(WSI)
    for _ in range(7):
        oracle.start()
    decision = oracle.submit(7, {}, set())
    assert decision.committed
    assert oracle.table.last_commit == {}
    assert oracle.read_only_commits == 1


def test_wsi_read_only_request_with_an_overwritten_read_row_commits_unchecked():
    oracle, _ = make_oracle(WSI)
    reader, writer = oracle.start(), oracle.start()
    assert oracle.submit(writer, {b"x": b"v"}, set()).committed  # overwrites x after the reader started
    before = dict(oracle.table.last_commit)
    decision = oracle.submit(reader, {}, {b"x"})
    assert decision.committed
    assert oracle.table.last_commit == before
    assert oracle.read_only_commits == 1


def test_read_only_commit_takes_no_lock_and_draws_no_timestamp():
    oracle, ts = make_oracle(WSI)
    start = oracle.start()
    decisions = []
    with oracle._lock:
        t = threading.Thread(target=lambda: decisions.append(oracle.submit(start, {}, {b"x"})))
        t.start()
        t.join(timeout=5)
        returned = not t.is_alive()
    t.join()
    assert returned
    assert decisions == [CommitDecision(True, start)]
    assert ts.last_issued() == start
    assert oracle.table.commit_records == {}
    assert oracle._active == {}


def test_read_only_never_aborted_even_under_heavy_conflicts():
    oracle, _ = make_oracle(WSI)
    starts = [oracle.start() for _ in range(10)]
    oracle.submit(starts[-1], {b"x": b"v"}, set())
    for start in starts[:-1]:
        assert oracle.submit(start, {}, set()).committed


# -- bounded commit table ----------------------------------------------------------


def seeded_bounded_oracle(policy=WSI):
    """lastCommit={a:5, b:6}, t_max=4, capacity=2; timestamps 1-6 drawn."""
    oracle, ts = make_oracle(policy, capacity=2)
    table = oracle.table
    table.apply_commit(101, 4, (b"c",))
    table.apply_commit(102, 5, (b"a",))
    table.apply_commit(103, 6, (b"b",))  # evicts c@4
    assert table.last_commit == {b"a": 5, b"b": 6}
    assert table.t_max == 4
    assert [oracle.start() for _ in range(6)][-1] == 6
    return oracle, ts


def test_bounded_table_sheds_evicted_entries_after_a_large_commit():
    table = CommitTable(capacity=1000)
    table.apply_commit(1, 1, [b"big%06d" % i for i in range(100_000)])
    sizes = []
    for tc in range(2, 5002):
        table.apply_commit(tc, tc, (b"small%05d" % tc,))
        sizes.append(sys.getsizeof(table.last_commit))
    # the newest 1000 rows survive in eviction order, and t_max is the last one evicted
    assert list(table.last_commit.items()) == [(b"small%05d" % tc, tc) for tc in range(4002, 5002)]
    assert table.t_max == 4001
    # deleted entries do not pile up: the map stays within a small multiple of
    # a freshly built one (a map that kept them read about 140 times that size)
    fresh = sys.getsizeof({row: tc for row, tc in table.last_commit.items()})
    assert max(sizes) <= 4 * fresh


def test_bounded_untracked_row_aborts_pessimistically_below_watermark():
    oracle, _ = seeded_bounded_oracle()
    decision = oracle.submit(3, {b"d": b"v"}, {b"c"})  # c untracked, t_max 4 > 3
    assert (decision.committed, decision.cause) == (False, "pessimistic")
    assert oracle.pessimistic_aborts == 1


def test_bounded_untracked_row_commits_at_or_above_watermark():
    oracle, _ = seeded_bounded_oracle()
    decision = oracle.submit(5, {b"d": b"v"}, {b"c"})  # t_max 4 <= 5
    assert decision.committed
    # the new row displaced the smallest tracked entry and raised the watermark
    assert oracle.table.t_max == 5
    assert set(oracle.table.last_commit) == {b"b", b"d"}


def test_a_conflict_on_any_checked_row_outranks_an_untracked_one():
    # the cause does not depend on the order the checked rows are walked in
    for reads in ([b"c", b"a"], [b"a", b"c"], iter([b"c", b"a"])):
        oracle, _ = seeded_bounded_oracle()  # c untracked below t_max 4, a@5
        assert oracle.submit(3, {b"z": b"v"}, reads).cause == "conflict"
        assert (oracle.conflict_aborts, oracle.pessimistic_aborts) == (1, 0)
    # under SI the sorted write set meets the untracked row 0 before a
    oracle, _ = seeded_bounded_oracle(SI)
    assert oracle.submit(3, {b"0": b"v", b"a": b"v"}).cause == "conflict"
    assert oracle.submit(2, {b"0": b"v", b"b": b"v"}).cause == "conflict"
    assert oracle.submit(1, {b"0": b"v"}).cause == "pessimistic"


def test_bounded_tracked_row_uses_exact_value():
    oracle, _ = seeded_bounded_oracle()
    d1 = oracle.submit(4, {b"z": b"v"}, {b"a"})  # tracked a@5 > 4
    assert (d1.committed, d1.cause) == (False, "conflict")
    d2 = oracle.submit(6, {b"z": b"v"}, {b"a"})  # tracked a@5 <= 6
    assert d2.committed


def test_bounded_table_evicts_bulk_and_repeated_rows_like_the_model():
    # commits larger than the capacity, and rows committed again, both move
    # the eviction front; the twin rescans for the minimum each time
    rng = random.Random(3)
    table, twin = CommitTable(capacity=16), TableTwin(16)
    for tc in range(1, 200):
        rows = sorted({b"r%d" % rng.randrange(40) for _ in range(rng.choice((1, 3, 25)))})
        table.apply_commit(1000 + tc, tc, rows)
        twin.apply_commit(1000 + tc, tc, rows)
        assert (table.last_commit, table.t_max) == (twin.last_commit, twin.t_max)


def test_bounded_read_only_fast_path_skips_watermark():
    oracle, _ = seeded_bounded_oracle()
    # start 1 is far below t_max, but an empty write set never aborts
    decision = oracle.submit(1, {}, set())
    assert decision.committed


# -- duplicate handling, status, aborts ---------------------------------------------


def test_duplicate_commit_request_is_rejected():
    oracle, _ = make_oracle(WSI)
    oracle.start()
    oracle.submit(1, {b"x": b"v"}, set())
    with pytest.raises(DuplicateRequestError):
        oracle.submit(1, {b"x": b"v"}, set())


def test_commit_request_after_conflict_abort_is_rejected():
    oracle, _ = make_oracle(SI)
    oracle.start(), oracle.start()
    oracle.submit(2, {b"x": b"v"})
    assert not oracle.submit(1, {b"x": b"v"}).committed
    with pytest.raises(DuplicateRequestError):
        oracle.submit(1, {})


def test_read_only_commit_request_after_a_read_only_commit_is_rejected():
    oracle, ts = make_oracle(WSI)
    start, live = oracle.start(), oracle.start()
    assert oracle.submit(start, {}, {b"x"}).committed
    with pytest.raises(DuplicateRequestError):
        oracle.submit(start, {})
    assert oracle.table.commit_records == {}
    assert oracle._active.keys() == {live}
    assert oracle.read_only_commits == 1


class RefusingLog:
    """A new log that takes timestamp reservations, acknowledged at once, and
    refuses every decision record."""

    error = None  # read by start(); a stopped log's own error is not needed here
    closed = False
    recovered = []  # a new log: nothing to replay
    appended = durable = 0  # no record is ever pending
    seq = 0  # as its own ack: durable already

    def append(self, record):
        if record.kind != KIND_TS_RESERVE:
            raise OSError("log device gone")
        return self

    def wait(self):
        return None


def test_read_only_commit_appends_nothing_to_a_log_that_refuses_decisions():
    oracle = StatusOracle(WSI, wal=RefusingLog())
    reader, writer = oracle.start(), oracle.start()
    assert oracle.submit(reader, {}, {b"x"}) == CommitDecision(True, reader)
    assert oracle.table.commit_records == {}
    assert oracle._active.keys() == {writer}
    assert oracle.committed_count == oracle.read_only_commits == 1
    with pytest.raises(OSError):
        oracle.submit(writer, {b"x": b"v"})  # a writing commit's record is refused
    assert oracle.table.commit_records == {}
    assert oracle._active.keys() == {writer}
    assert oracle.committed_count == 1


def test_every_decision_is_an_ordinary_commit_decision():
    oracle, ts = make_oracle(SI)
    reader, loser, winner = oracle.start(), oracle.start(), oracle.start()
    read_only = oracle.submit(reader, {}, {b"x"})
    writing = oracle.submit(winner, {b"x": b"v", b"y": b"v"})
    aborted = oracle.submit(loser, {b"x": b"v"})
    expected = [
        (read_only, CommitDecision(True, reader), f"committed({reader})"),
        (writing, CommitDecision(True, ts.last_issued()), f"committed({ts.last_issued()})"),
        (aborted, CommitDecision(False, cause="conflict"), "aborted"),
    ]
    for decision, ordinary, text in expected:
        assert type(decision) is CommitDecision
        assert decision == ordinary and hash(decision) == hash(ordinary)
        assert repr(decision) == repr(ordinary)
        assert str(decision) == str(ordinary) == text
        assert decision.cause == ordinary.cause
    assert [d.cause for d, _, _ in expected] == [None, None, "conflict"]


def test_report_abort_admits_only_a_live_start():
    oracle, ts = make_oracle(WSI)
    committed, abandoned, live = oracle.start(), oracle.start(), oracle.start()
    oracle.report_abort(abandoned)
    assert oracle._active.keys() == {committed, live}
    assert oracle.submit(committed, {b"x": b"v"}, set()).committed
    records = dict(oracle.table.commit_records)
    for start in (abandoned, committed, ts.last_issued() + 5):
        with pytest.raises(DuplicateRequestError, match=f"transaction {start} is not live"):
            oracle.report_abort(start)
    assert oracle._active.keys() == {live} and oracle.table.commit_records == records


def test_a_start_never_issued_is_refused_and_installs_nothing():
    for policy in (SI, WSI):
        oracle, ts = make_oracle(policy)
        oracle.start()
        unissued = ts.last_issued() + 5
        for request in (
            lambda: oracle.submit(unissued, {b"x": b"forged"}, {b"x"}),
            lambda: oracle.submit(unissued, {}, {b"x"}),
            lambda: oracle.report_abort(unissued),
        ):
            with pytest.raises(DuplicateRequestError, match=f"transaction {unissued} is not live"):
                request()
            assert oracle.table.last_commit == {} and oracle.table.commit_records == {}
            assert oracle.store.rows() == [] and oracle._active.keys() == {1}
        assert ts.last_issued() == 1


def test_gc_compacts_below_the_oldest_live_start():
    oracle = StatusOracle(SI)
    store = oracle.store

    def commit_x(value):
        start = oracle.start()
        assert oracle.submit(start, {b"x": value}).committed

    def kept_after_gc():
        oracle.gc()
        return [v.value for v in reversed(store.versions(b"x"))]

    commit_x(b"a")
    commit_x(b"b")
    assert kept_after_gc() == [b"a", b"b"]  # two versions are kept whole, though none live reads a
    commit_x(b"c")
    assert kept_after_gc() == [b"c"]  # a third is cut: every later reader starts above all three
    first = oracle.start()
    commit_x(b"d")
    commit_x(b"e")
    second, third = oracle.start(), oracle.start()
    commit_x(b"f")
    fourth = oracle.start()
    commit_x(b"g")
    assert kept_after_gc() == [b"c", b"d", b"e", b"f", b"g"]  # first reads c
    assert oracle.submit(second, {b"y": b"v"}).committed
    assert kept_after_gc() == [b"c", b"d", b"e", b"f", b"g"]  # a later decision leaves the oldest live
    assert oracle.submit(first, {b"x": b"lost"}).cause == "conflict"
    assert kept_after_gc() == [b"e", b"f", b"g"]  # third reads e
    oracle.report_abort(third)
    assert kept_after_gc() == [b"f", b"g"]  # fourth reads f
    assert oracle.submit(fourth, {}).committed
    assert kept_after_gc() == [b"f", b"g"]  # none live, but two versions are kept whole
    commit_x(b"h")
    assert kept_after_gc() == [b"h"]


def test_gc_bounds_the_versions_of_a_hot_set_that_moves_on_and_goes_cold():
    # Each gc interval writes a fresh hot set many times, and the last one
    # once more; a set is then never written again. After every gc the store
    # holds at most 2 x rows + the versions committed at or above the
    # watermark, with a reader pinning the watermark or without one.
    oracle = StatusOracle(SI)
    store = oracle.store
    hot_sets = [[b"r%03d" % (5 * k + i) for i in range(5)] for k in range(24)]

    def commit(rows, value):
        start = oracle.start()
        assert oracle.submit(start, dict.fromkeys(rows, value)).committed

    def gc_within_bound(watermark):
        oracle.gc()
        versions = {row: store.versions(row) for row in store.rows()}
        total = sum(len(vs) for vs in versions.values())
        above = sum(v.commit_ts >= watermark for vs in versions.values() for v in vs)
        assert total <= 2 * len(versions) + above
        return versions

    def interval(k):
        for n in range(7):
            commit(hot_sets[k], b"%d.%d" % (k, n))
        if k:
            commit(hot_sets[k - 1], b"%d.late" % k)

    for k in range(8):  # none live: every version is below the watermark
        interval(k)
        versions = gc_within_bound(oracle.timestamps.last_issued() + 1)
        assert max(len(vs) for vs in versions.values()) <= 2
    reader = oracle.start()
    seen = {row: store.snapshot_read(row, reader) for k in range(24) for row in hot_sets[k]}
    for k in range(8, 16):  # the reader pins the watermark
        interval(k)
        versions = gc_within_bound(reader)
        assert {row: store.snapshot_read(row, reader) for row in seen} == seen
        for row, vs in versions.items():  # one version below the watermark, or at most two
            assert len(vs) <= 2 or sum(v.commit_ts < reader for v in vs) <= 1
    assert oracle.submit(reader, {}).committed
    for k in range(16, 24):
        interval(k)
        versions = gc_within_bound(oracle.timestamps.last_issued() + 1)
        assert max(len(vs) for vs in versions.values()) <= 2  # the rows the reader kept are cut


def test_commit_timestamps_increase_in_decision_order():
    # writing commits draw unique, strictly ascending timestamps in decision
    # order; a read-only commit is serialized at its start and draws none
    rng = random.Random(3)
    schedule = random_schedule(rng, n_txns=40)
    decisions, _, starts, requests = drive_schedule(schedule, WSI)
    committed = [ev[1] for ev in schedule if ev[0] == "commit" and decisions[ev[1]].committed]
    writing = [decisions[i].commit_ts for i in committed if requests[i][0]]
    read_only = [i for i in committed if not requests[i][0]]
    assert writing and read_only
    assert all(a < b for a, b in zip(writing, writing[1:]))
    assert all(decisions[i].commit_ts == starts[i] for i in read_only)


# -- safety properties (brute force over committed pairs) ----------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_si_safety_no_spatial_and_temporal_overlap(seed):
    rng = random.Random(seed)
    schedule = random_schedule(rng)
    decisions, _, starts, requests = drive_schedule(schedule, SI)
    committed = [
        (starts[i], d.commit_ts, requests[i][0])
        for i, d in decisions.items()
        if d.committed
    ]
    assert si_safety_violations(committed) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_wsi_safety_no_rw_spatial_and_rw_temporal_overlap(seed):
    rng = random.Random(seed)
    schedule = random_schedule(rng)
    decisions, _, starts, requests = drive_schedule(schedule, WSI)
    committed = [
        (starts[i], d.commit_ts, requests[i][0], requests[i][1])
        for i, d in decisions.items()
        if d.committed
    ]
    assert wsi_safety_violations(committed) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_read_only_requests_never_abort_under_either_policy(seed):
    rng = random.Random(seed)
    schedule = random_schedule(rng)
    for policy in (SI, WSI):
        decisions, _, _, requests = drive_schedule(schedule, policy)
        for i, decision in decisions.items():
            if not requests[i][0]:
                assert decision.committed


def test_closed_loop_bounded_oracle_can_diverge_beyond_subsets():
    """Documented limitation: once a pessimistic abort drops a transaction's
    writes from the bounded table, a later transaction straddling the victim's
    commit can pass the bounded check while the unbounded oracle rejects it.
    The subset relation between committed sets therefore only holds while both
    tables observe the same commit history (which the differential acceptance
    harness enforces); this test pins the closed-loop counterexample.
    """
    unbounded = StatusOracle(SI)
    bounded = StatusOracle(SI, capacity=1)

    def begin():
        a, b = unbounded.start(), bounded.start()
        assert a == b
        return a

    victim = begin()  # long-lived writer of q
    filler1 = begin()
    filler2 = begin()
    for oracle in (unbounded, bounded):
        assert oracle.submit(filler1, {b"f1": b"v"}, set()).committed
        assert oracle.submit(filler2, {b"f2": b"v"}, set()).committed  # evicts f1
    assert bounded.table.t_max > 0
    straddler = begin()  # starts before the victim's commit
    assert unbounded.submit(victim, {b"q": b"v"}, set()).committed
    assert bounded.submit(victim, {b"q": b"v"}, set()).cause == "pessimistic"
    bounded.timestamps.next()  # realign clocks after the divergent draw
    # unbounded rejects the straddler on q; the bounded table forgot q entirely
    assert not unbounded.submit(straddler, {b"q": b"v"}, set()).committed
    assert bounded.submit(straddler, {b"q": b"v"}, set()).committed


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    capacity=st.sampled_from([2, 4, 16]),
)
def test_bounded_watermark_matches_independent_model(seed, capacity):
    rng = random.Random(seed)
    schedule = random_schedule(rng)
    decisions, oracle, starts, requests = drive_schedule(schedule, WSI, capacity=capacity)
    twin = TableTwin(capacity)
    for ev in schedule:
        if ev[0] != "commit":
            continue
        i = ev[1]
        if decisions[i].committed:
            twin.apply_commit(starts[i], decisions[i].commit_ts, requests[i][0])
    assert oracle.table.last_commit == twin.last_commit
    assert oracle.table.t_max == twin.t_max

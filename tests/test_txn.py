import bisect
import random
import shutil
import sys
import threading
import time

import pytest

from wsikv import wal as wal_module
from wsikv.oracle import DuplicateRequestError, IsolationPolicy, recover
from wsikv.txn import Database, HandleState, TransactionStateError
from wsikv.wal import (
    KIND_ABORT,
    KIND_COMMIT,
    KIND_TS_RESERVE,
    WalClosedError,
    WalError,
    WriteAheadLog,
    read_records,
)

SI, WSI = IsolationPolicy.SI, IsolationPolicy.WSI


def test_begin_yields_increasing_starts_and_empty_sets():
    db = Database(WSI)
    a, b = db.begin(), db.begin()
    assert a.start_ts < b.start_ts
    assert a.read_set == set() and a.writes == {}
    assert a.state is HandleState.ACTIVE


def test_the_database_runs_the_oracles_own_timestamps_and_store():
    db = Database(WSI)
    assert db.store is db.oracle.store
    assert db.timestamps is db.oracle.timestamps


def test_begin_on_a_closed_durable_database_raises_and_draws_nothing(tmp_path):
    # with blocks of 2 the next draw alternately enters a block and stays in one
    for draws in range(4):
        db = Database(WSI, wal=WriteAheadLog(tmp_path / f"db{draws}.wal"), block_size=2)
        for _ in range(draws):
            assert db.begin().commit().committed
        db.close()
        state = (db.timestamps.last_issued(), db.timestamps.reserved_up_to)
        with pytest.raises(WalClosedError):
            db.begin()
        assert db.oracle._active == set()
        assert (db.timestamps.last_issued(), db.timestamps.reserved_up_to) == state


def test_concurrent_begins_yield_distinct_starts():
    db = Database(WSI)
    out = []
    lock = threading.Lock()

    def worker():
        got = [db.begin().start_ts for _ in range(25)]
        with lock:
            out.extend(got)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(out)) == 100


def test_read_records_row_even_when_absent():
    db = Database(WSI)
    h = db.begin()
    assert h.read(b"ghost") is None
    assert b"ghost" in h.read_set


def test_read_your_own_write_updates_both_sets():
    db = Database(WSI)
    h = db.begin()
    h.write(b"x", b"v")
    assert h.read(b"x") == b"v"
    assert b"x" in h.read_set and h.writes == {b"x": b"v"}


def test_repeated_reads_are_stable_despite_concurrent_commit():
    db = Database(WSI)
    db.seed_committed(b"x", b"v0")
    reader = db.begin()
    first = reader.read(b"x")
    writer = db.begin()
    writer.write(b"x", b"v1")
    assert writer.commit().committed
    assert reader.read(b"x") == first == b"v0"  # fuzzy read impossible


def test_blind_write_leaves_read_set_empty():
    db = Database(WSI)
    h = db.begin()
    h.write(b"x", b"v")
    h.write(b"x", b"v2")
    assert h.read_set == set()
    assert h.writes == {b"x": b"v2"}


def test_uncommitted_and_newer_writes_are_invisible_to_others():
    db = Database(WSI)
    writer = db.begin()
    writer.write(b"x", b"hidden")
    other = db.begin()
    assert other.read(b"x") is None  # tentative version skipped
    assert writer.commit().committed
    assert other.read(b"x") is None  # committed after other's start
    late = db.begin()
    assert late.read(b"x") == b"hidden"


def test_read_only_commit_is_uncontested_and_checks_nothing():
    db = Database(WSI)
    h = db.begin()
    h.read(b"x")
    h.read(b"y")
    decision = h.commit()
    assert decision.committed
    assert h.state is HandleState.COMMITTED
    assert db.oracle.table.last_commit == {}


def test_write_skew_allowed_under_si_and_blocked_under_wsi():
    # constraint fixture: x + y > 0 with x = y = 1; each txn decrements one
    def run(policy):
        db = Database(policy)
        db.seed_committed(b"x", b"1")
        db.seed_committed(b"y", b"1")
        t1, t2 = db.begin(), db.begin()
        assert int(t1.read(b"x")) + int(t1.read(b"y")) > 1
        assert int(t2.read(b"x")) + int(t2.read(b"y")) > 1
        t1.write(b"x", b"0")
        t2.write(b"y", b"0")
        d1, d2 = t1.commit(), t2.commit()
        check = db.begin()
        total = int(check.read(b"x")) + int(check.read(b"y"))
        return d1.committed, d2.committed, total

    si = run(SI)
    assert si == (True, True, 0)  # both commit; the constraint x+y>0 is violated
    wsi = run(WSI)
    assert wsi[:2] == (True, False)
    assert wsi[2] > 0


def test_lost_update_impossible_under_both_policies():
    for policy in (SI, WSI):
        db = Database(policy)
        db.seed_committed(b"x", b"0")
        t1, t2 = db.begin(), db.begin()
        t1.read(b"x"), t2.read(b"x")
        t2.write(b"x", b"t2")
        t1.write(b"x", b"t1")
        d1, d2 = t1.commit(), t2.commit()
        assert [d1.committed, d2.committed].count(True) == 1


def test_abort_discards_writes_for_everyone():
    db = Database(WSI)
    h = db.begin()
    h.write(b"x", b"gone")
    h.abort()
    assert h.state is HandleState.ABORTED
    assert db.begin().read(b"x") is None
    assert db.store.versions(b"x") == []
    # no tentative version is left: the writer's own read would return it
    assert db.store.snapshot_read(b"x", h.start_ts) is None


def test_abort_of_read_only_handle_touches_no_state():
    db = Database(WSI)
    h = db.begin()
    h.read(b"x")
    h.abort()
    assert db.store.rows() == []


def test_conflict_abort_purges_tentative_versions():
    db = Database(WSI)
    db.seed_committed(b"x", b"v0")
    [seed] = db.store.versions(b"x")
    loser = db.begin()
    loser.read(b"x")
    loser.write(b"x", b"stale")
    winner = db.begin()
    winner.read(b"x")
    winner.write(b"x", b"fresh")
    assert winner.commit().committed
    assert not loser.commit().committed
    assert loser.state is HandleState.ABORTED
    assert db.store.snapshot_read(b"x", loser.start_ts) == b"v0"  # not its own b"stale"
    assert [v.commit_ts for v in db.store.versions(b"x")] == [winner.commit_ts, seed.commit_ts]


def test_report_abort_on_a_committed_transaction_keeps_its_versions():
    db = Database(WSI)
    h = db.begin()
    h.write(b"x", b"v")
    assert h.commit().committed
    with pytest.raises(DuplicateRequestError, match="is not live"):
        db.oracle.report_abort(h.start_ts)
    assert db.begin().read(b"x") == b"v"
    assert [v.commit_ts for v in db.store.versions(b"x")] == [h.commit_ts]


def test_operations_on_finished_handles_raise():
    db = Database(WSI)
    h = db.begin()
    h.commit()
    for op in (lambda: h.read(b"x"), lambda: h.write(b"x", b"v"), h.commit, h.abort):
        with pytest.raises(TransactionStateError):
            op()
    h2 = db.begin()
    h2.abort()
    with pytest.raises(TransactionStateError):
        h2.abort()


class _CommitFailWal:
    """Reservations persist fine; commit records fail at flush time."""

    error = None  # what a failed WriteAheadLog would raise from then on
    closed = False
    recovered = []  # a new log: nothing to replay
    durable = appended_ts = durable_ts = 0  # read by start() and read-only commits

    def append(self, rec):
        class _Ack:
            seq = 1  # above durable, so every ack is waited for

            def wait(self, timeout=None):
                if rec.kind == KIND_COMMIT:
                    raise WalError("flush failed")

        return _Ack()


def test_wal_failure_leaves_handle_active():
    db = Database(WSI, wal=_CommitFailWal())
    h = db.begin()
    h.write(b"x", b"v")
    with pytest.raises(WalError):
        h.commit()
    assert h.state is HandleState.ACTIVE


def _oracle_state(db):
    t = db.oracle.table
    return t.commit_records, t.last_commit, t.t_max


def test_unloggable_commit_changes_no_state(tmp_path):
    path = tmp_path / "db.wal"
    db = Database(WSI, wal=WriteAheadLog(path))
    long_row = b"x" * 70_000  # row ids longer than 65535 bytes cannot be framed
    h = db.begin()
    h.write(long_row, b"v")
    with pytest.raises(ValueError):
        h.commit()
    assert h.state is HandleState.ACTIVE
    assert db.oracle.table.commit_records == {}
    assert db.begin().read(long_row) is None
    db.close()
    recovered = Database.recover(path)
    assert _oracle_state(recovered) == _oracle_state(db)
    recovered.close()


def test_database_recover_decodes_each_record_once(tmp_path, monkeypatch):
    path = tmp_path / "db.wal"
    db = Database(WSI, wal=WriteAheadLog(path), block_size=4)
    for i in range(10):
        h = db.begin()
        h.write(b"r%d" % i, b"v")
        h.commit()
    db.begin().abort()
    db.close()
    records = len(read_records(path))
    decoded = []
    decode = wal_module.decode_payload
    monkeypatch.setattr(wal_module, "decode_payload", lambda p: decoded.append(p) or decode(p))
    recovered = Database.recover(path)
    assert len(decoded) == records
    assert _oracle_state(recovered) == _oracle_state(db)
    recovered.close()


def test_opening_a_database_on_a_log_recovers_it(tmp_path):
    path = tmp_path / "db.wal"
    db = Database(WSI, wal=WriteAheadLog(path), block_size=4)
    for i in range(9):
        h = db.begin()
        h.write(b"r%d" % (i % 3), b"v")
        h.commit()
    abandoned = db.begin()
    abandoned.abort()
    db.close()
    table, highest = recover(path)
    assert table.commit_records and abandoned.start_ts not in table.commit_records
    assert KIND_ABORT not in {rec.kind for rec in read_records(path)}
    copy = tmp_path / "copy.wal"
    shutil.copy(path, copy)
    reopened = Database(WSI, wal=WriteAheadLog(path), block_size=4)
    recovered = Database.recover(copy, block_size=4)
    assert _oracle_state(reopened) == _oracle_state(recovered) == _oracle_state(db)
    for db in (reopened, recovered):
        with pytest.raises(DuplicateRequestError, match="is not live"):
            db.oracle.report_abort(abandoned.start_ts)
    start = reopened.begin().start_ts
    assert start == recovered.begin().start_ts == highest + 1
    reopened.close()
    recovered.close()


def _reaches(root, target) -> bool:
    """Whether `target` itself is reachable from `root` through containers and
    instance attributes."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return False


def test_a_dropped_handle_pins_no_values():
    db = Database(WSI)
    db.seed_committed(b"x", b"v0")
    value = bytes(bytearray(b"written, then dropped"))  # a fresh object
    refs = sys.getrefcount(value)
    h = db.begin()
    h.read(b"x")
    h.write(b"y", value)
    del h  # neither committed nor aborted; its start still pins gc() (ROADMAP item 13)
    assert sys.getrefcount(value) == refs
    assert not _reaches(db.store, value) and not _reaches(db.oracle, value)
    assert db.store.rows() == [b"x"]


@pytest.mark.parametrize("durable", [False, True])
def test_close_decides_every_live_transaction(tmp_path, durable):
    path = tmp_path / "db.wal"
    db = Database(WSI, wal=WriteAheadLog(path) if durable else None)
    writer, reader = db.begin(), db.begin()
    writer.write(b"x", b"v")
    reader.read(b"x")
    db.close()
    assert db.oracle._active == set()
    for decide in (writer.commit, reader.commit, writer.abort):
        with pytest.raises(DuplicateRequestError, match="is not live"):
            decide()
        assert db.oracle._active == set()
    assert db.oracle.table.commit_records == {} and db.store.rows() == []
    if durable:
        assert {rec.kind for rec in read_records(path)} == {KIND_TS_RESERVE}
    else:  # an in-memory database has no log to close: it begins again
        assert db.begin().commit().committed


def test_recovered_database_decides_like_a_never_crashed_one(tmp_path):
    path = tmp_path / "db.wal"
    wal = WriteAheadLog(path)
    survivor = Database(WSI, capacity=8, wal=wal, block_size=16)
    rng = random.Random(23)
    rows = [b"r%d" % i for i in range(12)]
    for _ in range(60):
        h = survivor.begin()
        for row in rng.sample(rows, rng.randint(0, 3)):
            if rng.random() < 0.5:
                h.read(row)
            else:
                h.write(row, b"v")
        h.commit()
    # crash: rebuild a second database from a copy of the log
    copy = tmp_path / "copy.wal"
    shutil.copy(path, copy)
    recovered = Database.recover(copy, WSI, capacity=8, block_size=16)
    assert recovered.oracle.table.last_commit == survivor.oracle.table.last_commit
    assert recovered.oracle.table.t_max == survivor.oracle.table.t_max
    # identical post-recovery request sequences get identical decisions
    outcomes = {}
    for db, gen in ((survivor, random.Random(5)), (recovered, random.Random(5))):
        decisions = outcomes.setdefault(id(db), [])
        for _ in range(40):
            h = db.begin()
            for row in gen.sample(rows, gen.randint(0, 3)):
                if gen.random() < 0.5:
                    h.read(row)
                else:
                    h.write(row, b"w")
            decisions.append(h.commit().committed)
    assert outcomes[id(survivor)] == outcomes[id(recovered)]
    survivor.close()
    recovered.close()


def test_gc_keeps_results_identical_for_live_and_future_readers():
    db = Database(WSI)
    for i in range(30):
        h = db.begin()
        h.write(b"hot", b"v%d" % i)
        assert h.commit().committed
    live = db.begin()
    before = live.read(b"hot")
    db.gc()
    assert live.read(b"hot") == before
    assert db.begin().read(b"hot") == b"v29"
    assert len(db.store.versions(b"hot")) < 30


def test_gc_during_begin_keeps_the_new_snapshot_readable():
    # Another thread commits a newer x and runs gc() while begin() is between
    # drawing its start timestamp and the oracle registering it as live. If
    # the oracle registered it outside the critical section that draws it,
    # gc's watermark would pass the new start and compact away b"old".
    db = Database(WSI)
    db.seed_committed(b"x", b"old")
    real_next = db.timestamps.next
    racer_done = threading.Event()

    def commit_newer_and_gc():
        h = db.begin()
        h.write(b"x", b"new")
        assert h.commit().committed
        db.gc()
        racer_done.set()

    racer = threading.Thread(target=commit_newer_and_gc)

    def next_then_race():
        ts = real_next()
        if racer.ident is None:  # first call only: begin() of the reader
            racer.start()
            racer_done.wait(timeout=0.5)  # bounded: a correct begin() blocks the racer
        return ts

    db.timestamps.next = next_then_race
    reader = db.begin()
    racer.join(timeout=10)
    assert not racer.is_alive() and racer_done.is_set()
    assert reader.read(b"x") == b"old"


def test_gc_between_a_bisect_and_its_index_keeps_the_read(monkeypatch):
    # The reader's start lies below x's newest version, so its read bisects
    # x's list. gc() runs right after that bisect, before the read indexes the
    # list with its result: a compact that cut the list's front in place would
    # shift the index onto a version committed after the reader started.
    db = Database(WSI)
    for value in (b"v0", b"v1"):
        db.seed_committed(b"x", value)
    reader = db.begin()
    for value in (b"v2", b"v3"):
        db.seed_committed(b"x", value)
    real_bisect = bisect.bisect_left
    bisected = []

    def bisect_then_gc(a, x, *args, **kwargs):
        i = real_bisect(a, x, *args, **kwargs)
        if not bisected:  # the reader's bisect; gc's own pass through
            bisected.append(i)
            db.gc()
        return i

    monkeypatch.setattr(bisect, "bisect_left", bisect_then_gc)
    assert reader.read(b"x") == b"v1"
    assert bisected == [2]
    assert [v.value for v in db.store.versions(b"x")] == [b"v3", b"v2", b"v1"]  # gc cut v0


def test_reader_starting_during_a_commit_sees_all_of_it_or_none():
    # A reader begins while the writer is between drawing its commit timestamp
    # and installing its versions, reads x, and reads y once the commit has
    # returned. A begin() that could start inside that gap would read x as
    # old and y as new: a fractured snapshot.
    db = Database(WSI)
    db.seed_committed(b"x", b"x0")
    db.seed_committed(b"y", b"y0")
    real_next = db.timestamps.next
    x_read, writer_done = threading.Event(), threading.Event()
    seen = []

    def read_both():
        h = db.begin()
        seen.append(h.read(b"x"))
        x_read.set()
        writer_done.wait(timeout=5)
        seen.append(h.read(b"y"))
        seen.append(h.commit().committed)

    reader = threading.Thread(target=read_both)
    writer = db.begin()
    writer.write(b"x", b"x1")
    writer.write(b"y", b"y1")

    def next_then_race():
        ts = real_next()
        if reader.ident is None:  # first call only: the writer's commit timestamp
            reader.start()
            x_read.wait(timeout=0.5)  # bounded: a correct begin() blocks the reader
        return ts

    db.timestamps.next = next_then_race
    assert writer.commit().committed
    writer_done.set()
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert seen in ([b"x0", b"y0", True], [b"x1", b"y1", True])


def test_concurrent_read_only_and_writing_commits_keep_exact_counts():
    # read-only commits leave the live set without the oracle lock, while
    # writers, begins and gc() take it
    db = Database(WSI)
    seen = []  # per client: (writing commits, read-only starts)
    errors = []

    def client(seed):
        rng = random.Random(seed)
        writing, read_only = 0, []
        try:
            for k in range(300):
                h = db.begin()
                h.read(b"r%d" % rng.randrange(8))
                writes = rng.random() < 0.5
                if writes:
                    h.write(b"r%d" % rng.randrange(8), b"v")
                d = h.commit()
                if d.committed and writes:
                    writing += 1
                elif d.committed:
                    assert d.commit_ts == h.start_ts
                    read_only.append(h.start_ts)
                if seed == 0 and k % 20 == 0:
                    db.gc()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
        seen.append((writing, read_only))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    read_only = [start for _, starts in seen for start in starts]
    oracle = db.oracle
    assert oracle.read_only_commits == len(read_only) > 0
    assert oracle.committed_count == len(read_only) + sum(w for w, _ in seen)
    assert len(oracle.table.commit_records) == sum(w for w, _ in seen)
    assert not oracle.table.commit_records.keys() & set(read_only)
    assert oracle._active == set()


def test_concurrent_transfers_keep_every_snapshot_balanced():
    # More client threads than cores and a short switch interval, so that
    # begins, commits and gc() interleave finely. Every transfer reads and
    # writes both of its accounts, so SI keeps the total; an audit that saw
    # part of a commit would read a different total.
    db = Database(SI)
    accounts = [b"acct%d" % i for i in range(8)]
    for acct in accounts:
        db.seed_committed(acct, b"100")
    deadline = time.monotonic() + 1.0
    totals, committed = [], []

    def transfer(seed):
        rng = random.Random(seed)
        while time.monotonic() < deadline:
            h = db.begin()
            src, dst = rng.sample(accounts, 2)
            a, b = int(h.read(src)), int(h.read(dst))
            h.write(src, b"%d" % (a - 1))
            h.write(dst, b"%d" % (b + 1))
            committed.append(h.commit().committed)

    def audit(collect_garbage):
        while time.monotonic() < deadline:
            h = db.begin()
            totals.append(sum(int(h.read(acct)) for acct in accounts))
            h.commit()
            if collect_garbage:
                db.gc()

    errors = []

    def guarded(body, arg):
        try:
            body(arg)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    workers = [threading.Thread(target=guarded, args=(transfer, i)) for i in range(4)]
    workers += [threading.Thread(target=guarded, args=(audit, i == 0)) for i in range(2)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert any(committed) and totals
    assert set(totals) == {800}


def test_concurrent_snapshot_reads_return_the_newest_version_below_the_start():
    # Writers rewrite a few hot rows, a gc() loop cuts their version lists and
    # readers hold their snapshots across several reads, so reads take both
    # the lock-free newest-version path and the locked bisection while
    # installs and compactions run. Every read must return the committed
    # write with the largest commit timestamp below the reader's start, by
    # the writers' own decisions, or the reader's own write.
    db = Database(WSI)
    rows = [b"hot%d" % i for i in range(4)]
    committed = []  # (commit ts, row, value)
    for row in rows:
        h = db.begin()
        h.write(row, b"seed")
        committed.append((h.commit().commit_ts, row, b"seed"))
    reads = []  # (reader start ts, row, value read, own write or None)
    deadline = time.monotonic() + 1.0

    def writer(wid):
        rng = random.Random(wid)
        k = 0
        while time.monotonic() < deadline:
            row, value = rng.choice(rows), b"w%d-%d" % (wid, k)
            k += 1
            h = db.begin()
            reads.append((h.start_ts, row, h.read(row), None))
            h.write(row, value)
            reads.append((h.start_ts, row, h.read(row), value))
            d = h.commit()
            if d.committed:
                committed.append((d.commit_ts, row, value))

    def reader(rid):
        rng = random.Random(100 + rid)
        while time.monotonic() < deadline:
            h = db.begin()
            for _ in range(8):
                row = rng.choice(rows)
                reads.append((h.start_ts, row, h.read(row), None))
                time.sleep(0)
            assert h.commit().committed

    def collect(_):
        while time.monotonic() < deadline:
            db.gc()

    errors = []

    def guarded(body, arg):
        try:
            body(arg)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    bodies = [writer] * 3 + [reader] * 2 + [collect]
    workers = [threading.Thread(target=guarded, args=(body, i)) for i, body in enumerate(bodies)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    history = {row: [] for row in rows}  # per row, (commit ts, value) ascending
    for tc, row, value in sorted(committed):
        history[row].append((tc, value))
    assert len(committed) > 2 * len(rows) and len(reads) > 1000
    wrong = []
    for start, row, value, own in reads:
        if own is not None:
            expected = own
        else:
            versions = history[row]
            expected = versions[bisect.bisect_left(versions, (start,)) - 1][1]
        if value != expected:
            wrong.append((start, row, value, expected))
    assert wrong == [], f"{len(wrong)} of {len(reads)} reads wrong, first {wrong[0]}"


def test_rows_created_while_gc_runs_are_read_whole_or_not_at_all():
    # Every write goes to a row no one has written before, so each commit
    # creates rows while a gc() loop walks the store and readers read the
    # rows that the writers are creating. Each row has at most one writer, so
    # a read must return that writer's value when it committed below the
    # reader's start and None otherwise; an aborted writer's rows never exist.
    db = Database(WSI)
    made = [0, 0]  # per writer, how many rows it has started to write
    created = {}  # row -> (commit ts, value), from the writers' own decisions
    reads = []  # (reader start ts, row, value read)
    deadline = time.monotonic() + 1.0

    def writer(wid):
        k = 0
        while time.monotonic() < deadline:
            h = db.begin()
            batch = [(b"w%d-%d" % (wid, i), b"v%d-%d" % (wid, i)) for i in range(k, k + 4)]
            k += 4
            made[wid] = k
            for row, value in batch:
                h.write(row, value)
            if k % 20 == 0:
                h.abort()
                continue
            d = h.commit()
            assert d.committed  # no one else writes these rows
            for row, value in batch:
                created[row] = (d.commit_ts, value)

    def reader(rid):
        rng = random.Random(rid)
        while time.monotonic() < deadline:
            h = db.begin()
            for _ in range(64):  # mostly the rows of the writers' current batches
                wid = rng.randrange(len(made))
                row = b"w%d-%d" % (wid, max(0, made[wid] - rng.randrange(1, 5)))
                reads.append((h.start_ts, row, h.read(row)))
            assert h.commit().committed

    def collect(_):
        while time.monotonic() < deadline:
            db.gc()

    errors = []

    def guarded(body, arg):
        try:
            body(arg)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    bodies = [(writer, 0), (writer, 1), (reader, 0), (reader, 1), (collect, 0)]
    workers = [threading.Thread(target=guarded, args=body) for body in bodies]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert len(created) > 100 and len(reads) > 1000
    wrong = []
    for start, row, value in reads:
        tc, committed = created.get(row, (start, None))  # never committed: absent
        expected = committed if tc < start else None
        if value != expected:
            wrong.append((start, row, value, expected))
    assert wrong == [], f"{len(wrong)} of {len(reads)} reads wrong, first {wrong[0]}"
    assert set(db.store.rows()) == set(created)  # aborted writers created no row

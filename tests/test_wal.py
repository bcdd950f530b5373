import errno
import os
import threading
import time

import pytest
from hypothesis import given, strategies as st

from wsikv import wal as wal_module
from wsikv.oracle import CommitTable, IsolationPolicy, StatusOracle
from wsikv.timestamps import TimestampOracle
from wsikv.txn import Database, HandleState
from wsikv.wal import (
    CorruptLogError,
    KIND_ABORT,
    KIND_COMMIT,
    KIND_TS_RESERVE,
    MAGIC,
    WalClosedError,
    WalError,
    WalRecord,
    WriteAheadLog,
    decode_payload,
    read_records,
    recover,
)

WSI = IsolationPolicy.WSI


@given(
    kind=st.sampled_from([KIND_COMMIT, KIND_ABORT, KIND_TS_RESERVE]),
    start_ts=st.integers(min_value=0, max_value=2**63),
    commit_ts=st.integers(min_value=0, max_value=2**63),
    rows=st.lists(st.binary(min_size=0, max_size=40), max_size=6),
    reserved=st.integers(min_value=0, max_value=2**63),
)
def test_record_round_trip(kind, start_ts, commit_ts, rows, reserved):
    if kind == KIND_COMMIT:
        rec = WalRecord(kind, start_ts, commit_ts, tuple(rows))
    elif kind == KIND_ABORT:
        rec = WalRecord(kind, start_ts)
    else:
        rec = WalRecord(kind, start_ts, reserved_up_to=reserved)
    frame = rec.encode()
    assert decode_payload(frame[8:]) == rec


def test_appends_are_flushed_together_by_the_first_waiter(tmp_path):
    wal = WriteAheadLog(tmp_path / "x.wal")
    acks = [wal.append(WalRecord(KIND_COMMIT, 7, 9, (b"r",))) for _ in range(32)]
    assert wal.flush_count == 0 and read_records(wal.path) == []
    acks[0].wait()
    assert wal.flush_count == 1
    assert len(read_records(wal.path)) == 32  # the first wait made all of them durable
    for ack in acks:
        ack.wait()
    assert wal.flush_count == 1
    wal.close()
    assert len(read_records(wal.path)) == 32


def test_close_flushes_records_nobody_waited_for(tmp_path):
    wal = WriteAheadLog(tmp_path / "x.wal")
    wal.append(WalRecord(KIND_ABORT, 1))
    wal.close()
    wal.close()  # idempotent
    assert [r.start_ts for r in read_records(wal.path)] == [1]


def test_append_after_close_raises(tmp_path):
    wal = WriteAheadLog(tmp_path / "x.wal")
    wal.close()
    with pytest.raises(WalClosedError):
        wal.append(WalRecord(KIND_ABORT, 1))


def test_acknowledged_records_survive_in_append_order(tmp_path):
    wal = WriteAheadLog(tmp_path / "x.wal")
    for i in range(1, 40):
        wal.append(WalRecord(KIND_ABORT, i)).wait()
    wal.close()
    assert [r.start_ts for r in read_records(wal.path)] == list(range(1, 40))


def test_empty_log_recovers_to_empty_state(tmp_path):
    path = tmp_path / "x.wal"
    WriteAheadLog(path).close()
    table, highest = recover(path)
    assert table.last_commit == {}
    assert table.t_max == 0
    assert table.commit_records == {}
    assert table.aborted == set()
    assert highest == 0


def test_reservation_only_log_recovers_high_mark(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=5000)).wait()
    wal.close()
    table, highest = recover(path)
    assert highest == 5000
    assert table.commit_records == {}
    ts = TimestampOracle(start_after=highest)
    assert ts.next() == 5001


def test_torn_tail_is_discarded_and_truncated_on_reopen(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_COMMIT, 1, 2, (b"a",))).wait()
    wal.append(WalRecord(KIND_COMMIT, 3, 4, (b"b",))).wait()
    wal.close()
    with open(path, "ab") as f:
        f.write(b"\x40\x00\x00\x00\x99\x99")  # truncated frame
    assert [r.start_ts for r in read_records(path)] == [1, 3]
    wal2 = WriteAheadLog(path)  # reopen truncates the torn tail
    wal2.append(WalRecord(KIND_ABORT, 5)).wait()
    wal2.close()
    assert [r.start_ts for r in read_records(path)] == [1, 3, 5]


def test_checksum_failure_in_final_record_is_torn(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_ABORT, 1)).wait()
    wal.append(WalRecord(KIND_ABORT, 2)).wait()
    wal.close()
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # corrupt the last payload byte
    path.write_bytes(bytes(data))
    assert [r.start_ts for r in read_records(path)] == [1]


def test_checksum_failure_before_end_is_corruption(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_ABORT, 1)).wait()
    wal.append(WalRecord(KIND_ABORT, 2)).wait()
    wal.close()
    data = bytearray(path.read_bytes())
    first_payload_at = len(MAGIC) + 8
    data[first_payload_at] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptLogError):
        read_records(path)


def test_missing_magic_is_corruption(tmp_path):
    path = tmp_path / "x.wal"
    path.write_bytes(b"not a log")
    with pytest.raises(CorruptLogError):
        recover(path)


def test_log_whose_creation_crashed_opens_as_new(tmp_path):
    path = tmp_path / "x.wal"
    path.write_bytes(MAGIC[:4])  # cut short while the magic was written
    db = Database.recover(path)
    h = db.begin()
    h.write(b"x", b"1")
    assert h.commit().committed  # waited: durable
    db.close()
    reopened = Database.recover(path)
    assert reopened.oracle.table.commit_records == db.oracle.table.commit_records != {}
    reopened.close()
    for header in (b"WSIX", b"WSIWAX", MAGIC[:7] + b"2"):
        path.write_bytes(header)
        with pytest.raises(CorruptLogError):
            WriteAheadLog(path)


def test_recovery_matches_live_oracle_state(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    timestamps = TimestampOracle(wal, block_size=50)
    oracle = StatusOracle(timestamps, IsolationPolicy.WSI, capacity=4, wal=wal)
    import random

    rng = random.Random(7)
    rows = [bytes([65 + i]) for i in range(8)]
    for _ in range(120):
        start = timestamps.next()
        ws = frozenset(rng.sample(rows, rng.randint(0, 3)))
        rs = frozenset(rng.sample(rows, rng.randint(0, 3)))
        oracle.submit(start, ws, rs)
    wal.close()
    table, highest = recover(path, capacity=4)
    assert table.last_commit == oracle.table.last_commit
    assert table.t_max == oracle.table.t_max
    assert table.commit_records == oracle.table.commit_records
    assert table.aborted == oracle.table.aborted
    assert highest >= timestamps.last_issued()


def test_recovery_is_idempotent_across_rewrite(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=100)).wait()
    wal.append(WalRecord(KIND_COMMIT, 1, 3, (b"a", b"b"))).wait()
    wal.append(WalRecord(KIND_ABORT, 2)).wait()
    wal.close()
    rewritten = tmp_path / "y.wal"
    wal2 = WriteAheadLog(rewritten)
    for rec in read_records(path):
        wal2.append(rec).wait()
    wal2.close()
    t1, h1 = recover(path)
    t2, h2 = recover(rewritten)
    assert (t1.last_commit, t1.t_max, t1.commit_records, t1.aborted, h1) == (
        t2.last_commit,
        t2.t_max,
        t2.commit_records,
        t2.aborted,
        h2,
    )


def test_replaying_commits_reproduces_bounded_table(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    commits = [(1, 10, (b"a",)), (2, 11, (b"b",)), (3, 12, (b"c",)), (4, 13, (b"a",))]
    for start, tc, rows in commits:
        wal.append(WalRecord(KIND_COMMIT, start, tc, rows)).wait()
    wal.close()
    table, _ = recover(path, capacity=2)
    twin = CommitTable(capacity=2)
    for start, tc, rows in commits:
        twin.apply_commit(start, tc, rows)
    assert table.last_commit == twin.last_commit
    assert table.t_max == twin.t_max


# -- fault injection -----------------------------------------------------------


def _mixed_log(path):
    """Write 12 commit, abort and reservation records; return them and the
    byte offset at which each one ends."""
    recs = [WalRecord(KIND_TS_RESERVE, reserved_up_to=50)]
    for i in range(1, 11):
        if i % 3:
            recs.append(WalRecord(KIND_COMMIT, i, 100 + i, (b"row%d" % i, b"r")[: 1 + i % 2]))
        else:
            recs.append(WalRecord(KIND_ABORT, i))
    recs.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=200))
    wal = WriteAheadLog(path)
    for rec in recs:
        wal.append(rec)
    wal.close()
    ends, end = [], len(MAGIC)
    for rec in recs:
        end += len(rec.encode())
        ends.append(end)
    return recs, ends


def test_truncation_at_every_byte_recovers_exactly_the_records_before_it(tmp_path):
    recs, ends = _mixed_log(tmp_path / "full.wal")
    data = (tmp_path / "full.wal").read_bytes()
    assert len(recs) == 12 and ends[-1] == len(data)
    path = tmp_path / "cut.wal"
    extra = WalRecord(KIND_ABORT, 999)
    for cut in range(len(MAGIC), len(data) + 1):
        path.write_bytes(data[:cut])
        kept = [rec for rec, end in zip(recs, ends) if end <= cut]
        assert read_records(path) == kept, cut
        wal = WriteAheadLog(path)  # reopening truncates to the last boundary
        assert wal.recovered == kept, cut
        assert path.stat().st_size == max([len(MAGIC)] + ends[: len(kept)]), cut
        wal.append(extra).wait()
        wal.close()
        assert read_records(path) == kept + [extra], cut


def test_flipped_checksum_or_payload_byte_is_corruption_unless_in_the_final_record(tmp_path):
    recs, ends = _mixed_log(tmp_path / "full.wal")
    data = (tmp_path / "full.wal").read_bytes()
    path = tmp_path / "flipped.wal"
    starts = [len(MAGIC)] + ends[:-1]
    for i, (start, end) in enumerate(zip(starts, ends)):
        # skip the length field: a flipped length reads as a torn tail
        for off in range(start + 4, end):
            flipped = bytearray(data)
            flipped[off] ^= 0xFF
            path.write_bytes(bytes(flipped))
            if i < len(recs) - 1:
                with pytest.raises(CorruptLogError):
                    read_records(path)
            else:
                assert read_records(path) == recs[:-1], off


class _BlockingFsync:
    """Stands in for os.fsync: blocks until released, then fails or syncs."""

    def __init__(self, monkeypatch, fail=False):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.fail = fail
        self._fsync = os.fsync
        monkeypatch.setattr(wal_module.os, "fsync", self)

    def __call__(self, fd):
        self.entered.set()
        self.release.wait(5.0)
        if self.fail:
            raise OSError(errno.EIO, "injected fsync failure")
        self._fsync(fd)


def _failing_fsync(fd):
    raise OSError(errno.EIO, "injected fsync failure")


def _join(*threads):
    for t in threads:
        t.join(5.0)
        assert not t.is_alive()


class _TornFile:
    """File wrapper whose writes keep only their first `keep` bytes, then fail."""

    def __init__(self, f, keep):
        self._f = f
        self._keep = keep

    def write(self, data):
        self._f.write(data[: self._keep])
        raise OSError(errno.ENOSPC, "injected write failure")

    def __getattr__(self, name):
        return getattr(self._f, name)


def test_append_returns_while_a_flush_waits_on_fsync(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "x.wal")
    fsync = _BlockingFsync(monkeypatch)
    leader = threading.Thread(target=wal.append(WalRecord(KIND_ABORT, 1)).wait)
    leader.start()
    assert fsync.entered.wait(2.0)
    second = threading.Thread(target=wal.append, args=(WalRecord(KIND_ABORT, 2),))
    second.start()
    second.join(0.5)
    returned = not second.is_alive()
    fsync.release.set()
    _join(leader, second)
    assert returned, "append waited for an fsync in progress"
    wal.close()
    assert [r.start_ts for r in read_records(wal.path)] == [1, 2]
    assert wal.flush_count == 2  # the second record formed the next batch


def test_begin_proceeds_while_committers_wait_on_fsync(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    first, second = db.begin(), db.begin()  # the timestamp block is reserved
    first.write(b"x", b"1")
    second.write(b"y", b"2")
    fsync = _BlockingFsync(monkeypatch)
    committers = [threading.Thread(target=h.commit) for h in (first, second)]
    committers[0].start()
    assert fsync.entered.wait(2.0)
    committers[1].start()
    deadline = time.monotonic() + 2.0
    while len(db.oracle.table.commit_records) < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    began = []
    reader = threading.Thread(target=lambda: began.append(db.begin()))
    reader.start()
    reader.join(0.5)
    returned = bool(began)
    fsync.release.set()
    _join(*committers, reader)
    assert returned, "begin waited for an fsync in progress"
    db.close()


def test_failed_fsync_fails_its_batch_and_stops_the_log(tmp_path, monkeypatch):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_ABORT, 1)).wait()
    in_batch = [wal.append(WalRecord(KIND_ABORT, i)) for i in (2, 3)]
    fsync = _BlockingFsync(monkeypatch, fail=True)
    errors = []

    def wait(ack):
        try:
            ack.wait()
        except WalError as exc:
            errors.append(exc)

    waiters = [threading.Thread(target=wait, args=(ack,)) for ack in in_batch]
    for t in waiters:
        t.start()
    assert fsync.entered.wait(2.0)
    fsync.release.set()
    _join(*waiters)
    assert len(errors) == 2 and errors[0] is errors[1] is wal.error
    assert wal.flush_count == 1
    for ack in in_batch:  # never durable: each wait raises the stored error
        with pytest.raises(WalError) as raised:
            ack.wait()
        assert raised.value is wal.error
    size = path.stat().st_size
    with pytest.raises(WalError):
        wal.append(WalRecord(KIND_ABORT, 4))
    with pytest.raises(WalError):
        in_batch[0].wait()
    with pytest.raises(WalError):
        wal.close()
    assert path.stat().st_size == size  # nothing written after the failure


def test_torn_write_stops_the_log_and_recovers_to_the_last_whole_record(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_COMMIT, 1, 2, (b"a",))).wait()
    wal._file = _TornFile(wal._file, keep=5)
    ack = wal.append(WalRecord(KIND_COMMIT, 3, 4, (b"b",)))
    with pytest.raises(WalError):
        ack.wait()
    with pytest.raises(WalError):
        wal.append(WalRecord(KIND_ABORT, 5))
    assert [r.start_ts for r in read_records(path)] == [1]
    reopened = WriteAheadLog(path)
    reopened.append(WalRecord(KIND_ABORT, 6)).wait()
    reopened.close()
    assert [r.start_ts for r in read_records(path)] == [1, 6]


def test_failed_reservation_reaches_begin_as_the_log_error(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"), block_size=1)
    monkeypatch.setattr(wal_module.os, "fsync", _failing_fsync)
    with pytest.raises(WalError) as raised:
        db.begin()  # its block's reservation cannot be made durable
    assert raised.value is db.wal.error
    assert db.timestamps.last_issued() == 0


def test_failed_log_stops_the_engine_without_changing_the_table(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    doomed, later, abandoned, rival = db.begin(), db.begin(), db.begin(), db.begin()
    doomed.write(b"x", b"1")
    later.write(b"y", b"2")
    rival.read(b"x")  # conflicts with doomed's commit: the abort path
    rival.write(b"w", b"3")
    monkeypatch.setattr(wal_module.os, "fsync", _failing_fsync)
    with pytest.raises(WalError):
        doomed.commit()
    assert doomed.state is HandleState.ACTIVE
    table = db.oracle.table
    before = (dict(table.commit_records), set(table.aborted), dict(table.last_commit), table.t_max)
    for attempt in (
        db.begin,
        later.commit,
        rival.commit,
        abandoned.abort,
        lambda: db.oracle.submit(abandoned.start_ts, {b"z"}),
        lambda: db.oracle.report_abort(later.start_ts),
        lambda: db.wal.append(WalRecord(KIND_ABORT, 99)),
    ):
        with pytest.raises(WalError):
            attempt()
        assert (table.commit_records, table.aborted, table.last_commit, table.t_max) == before
    with pytest.raises(WalError):
        db.close()


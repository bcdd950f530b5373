import shutil
import threading

import pytest
from hypothesis import given, strategies as st

from helpers import timestamp_blocks
from wsikv.oracle import StatusOracle, recover
from wsikv.timestamps import TimestampOracle
from wsikv.wal import KIND_TS_RESERVE, WriteAheadLog, read_records


def reservations(path):
    return [r.reserved_up_to for r in read_records(path) if r.kind == KIND_TS_RESERVE]


def test_fresh_counter_starts_at_one():
    ts = TimestampOracle()
    assert [ts.next() for _ in range(3)] == [1, 2, 3]


@timestamp_blocks(100)
def test_concurrent_next_values_are_unique(tmp_path):
    # drawn through the oracle's start(), the one caller of next() besides
    # commits; blocks of 100 make the starts that enter one wait for a
    # reservation outside the lock while others draw
    wal = WriteAheadLog(tmp_path / "ts.wal")
    oracle = StatusOracle(wal=wal)
    out = []
    lock = threading.Lock()

    def grab():
        got = [oracle.start() for _ in range(1250)]
        with lock:
            out.extend(got)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert sorted(out) == list(range(1, 10_001))
    assert max(reservations(wal.path)) >= 10_000  # every returned start was covered
    wal.close()


def test_next_never_waits_on_the_log(tmp_path):
    wal = WriteAheadLog(tmp_path / "ts.wal")
    ts = TimestampOracle(wal)
    assert wal.appended == 0  # creating it appends nothing
    assert [ts.next() for _ in range(2500)][-1] == 2500
    assert ts.reserved_up_to == 3000
    assert wal.flush_count == 0 and reservations(wal.path) == []  # all still buffered
    wal.close()
    assert reservations(wal.path) == [1000, 2000, 3000]  # one per block entered


def test_block_serves_next_without_new_persistence(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "ts.wal")
    appended = []
    append = wal.append
    monkeypatch.setattr(wal, "append", lambda rec: appended.append(rec.reserved_up_to) or append(rec))
    oracle = StatusOracle(wal=wal)
    ts = oracle.timestamps
    assert appended == [] and wal.flush_count == 0  # creating it appends nothing
    # the first start enters the block: it appends the block's reservation
    # and waits for it outside the lock
    assert oracle.start() == 1
    assert reservations(wal.path) == [1000]  # durable before 1 was returned
    assert appended == [1000] and wal.flush_count == 1
    assert ts.reserved_up_to == 1000
    # starts inside the block touch no log
    assert [oracle.start() for _ in range(999)][-1] == 1000
    assert appended == [1000] and wal.flush_count == 1
    # the 1001st start enters the next block: one append and one flush
    assert oracle.start() == 1001
    assert reservations(wal.path) == [1000, 2000]  # durable before 1001 was returned
    assert appended == [1000, 2000] and wal.flush_count == 2
    assert ts.reserved_up_to == 2000
    wal.close()


@timestamp_blocks(1)
def test_block_size_one_persists_each_timestamp(tmp_path):
    wal = WriteAheadLog(tmp_path / "ts.wal")
    oracle = StatusOracle(wal=wal)
    for i in range(1, 6):
        assert oracle.start() == i
        # i's own reservation, appended as i was drawn, is durable: each start syncs
        assert reservations(wal.path) == list(range(1, i + 1))
        assert wal.flush_count == i
    # a commit timestamp waits for no reservation of its own: its record
    # follows the reservation, and the commit waits for the record
    decision = oracle.submit(5, {b"x": b"v"})
    assert decision.commit_ts == 6
    assert reservations(wal.path) == list(range(1, 7))
    assert wal.flush_count == 6  # one flush carried reservation 6 and the commit
    wal.close()


def test_recovery_resumes_above_highest_reservation(tmp_path):
    path = tmp_path / "ts.wal"
    wal = WriteAheadLog(path)
    oracle = StatusOracle(wal=wal)
    for _ in range(10):
        oracle.start()  # crash mid-block: only 10 of 1000 issued
    # a crash now keeps only what is durable: the first block's reservation,
    # made durable before the first start returned
    crashed = tmp_path / "crashed.wal"
    shutil.copyfile(path, crashed)
    assert reservations(crashed) == [1000]
    _, highest = recover(crashed)
    assert highest == 1000
    wal2 = WriteAheadLog(crashed)
    assert StatusOracle(wal=wal2).start() == 1001
    wal2.close()
    # entering the second block makes its reservation durable before the
    # start returns, so recovery skips that block too
    assert [oracle.start() for _ in range(991)][-1] == 1001
    assert reservations(path) == [1000, 2000]
    wal.close()
    _, highest = recover(path)
    assert highest == 2000
    wal3 = WriteAheadLog(path)
    value = StatusOracle(wal=wal3).start()
    wal3.close()
    assert value == 2001


class _FlakyWal:
    """append fails until repaired; acks succeed afterwards."""

    def __init__(self):
        self.fail = True

    def append(self, rec):
        if self.fail:
            raise OSError("disk full")

        class _Ack:
            def wait(self, timeout=None):
                return None

        return _Ack()


@timestamp_blocks(100)
def test_failed_reservation_issues_nothing():
    wal = _FlakyWal()
    ts = TimestampOracle(wal)  # creating it appends nothing
    with pytest.raises(OSError, match="disk full"):  # the log's own error
        ts.next()  # entering the first block appends its reservation
    assert (ts.last_issued(), ts.reserved_up_to, ts.block_ack) == (0, 0, None)
    wal.fail = False
    assert [ts.next() for _ in range(100)] == list(range(1, 101))
    first = ts.block_ack
    wal.fail = True
    with pytest.raises(OSError, match="disk full"):
        ts.next()  # entering the second block appends its reservation
    assert (ts.last_issued(), ts.reserved_up_to) == (100, 100) and ts.block_ack is first
    wal.fail = False
    # no timestamp of the block was issued, so issuance resumes at its first
    assert ts.next() == 101
    assert ts.reserved_up_to == 200


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=60))
def test_issued_values_strictly_increase(block_size, draws):
    with timestamp_blocks(block_size):
        ts = TimestampOracle()
        issued = [ts.next() for _ in range(draws)]
    assert issued == list(range(1, draws + 1))
    assert ts.reserved_up_to == -(-draws // block_size) * block_size  # whole blocks only

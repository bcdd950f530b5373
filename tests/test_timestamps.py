import shutil
import threading

import pytest
from hypothesis import given, strategies as st

from wsikv.oracle import StatusOracle
from wsikv.timestamps import TimestampOracle
from wsikv.wal import KIND_TS_RESERVE, WriteAheadLog, read_records, recover


def reservations(path):
    return [r.reserved_up_to for r in read_records(path) if r.kind == KIND_TS_RESERVE]


def test_fresh_counter_starts_at_one():
    ts = TimestampOracle()
    assert [ts.next() for _ in range(3)] == [1, 2, 3]


def test_concurrent_next_values_are_unique(tmp_path):
    # drawn through the oracle's start(), the one caller of next() besides
    # commits; blocks of 100 make the starts that enter one wait for a
    # reservation outside the lock while others draw
    wal = WriteAheadLog(tmp_path / "ts.wal")
    ts = TimestampOracle(wal, block_size=100)
    oracle = StatusOracle(ts, wal=wal)
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
    ts = TimestampOracle(wal, block_size=1000)
    assert [ts.next() for _ in range(2500)][-1] == 2500
    assert ts.reserved_up_to == 3000
    assert wal.flush_count == 0 and reservations(wal.path) == []  # all still buffered
    wal.close()
    assert reservations(wal.path) == [1000, 2000, 3000, 4000]


def test_block_serves_next_without_new_persistence(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "ts.wal")
    appended = []
    append = wal.append
    monkeypatch.setattr(wal, "append", lambda rec: appended.append(rec.reserved_up_to) or append(rec))
    ts = TimestampOracle(wal, block_size=1000)
    oracle = StatusOracle(ts, wal=wal)
    assert appended == [1000] and wal.flush_count == 0  # creating it waits for nothing
    # the first start enters the block: it appends the next block's
    # reservation, then waits for its own block's outside the lock, and that
    # one flush carries both
    assert oracle.start() == 1
    assert reservations(wal.path) == [1000, 2000]  # durable before 1 was returned
    assert appended == [1000, 2000] and wal.flush_count == 1
    assert ts.reserved_up_to == 1000
    # starts inside the block touch no log
    assert [oracle.start() for _ in range(999)][-1] == 1000
    assert appended == [1000, 2000] and wal.flush_count == 1
    # the 1001st start enters a block whose reservation is already durable
    assert oracle.start() == 1001
    assert appended == [1000, 2000, 3000] and wal.flush_count == 1
    assert reservations(wal.path) == [1000, 2000]  # 3000 is buffered, not durable
    assert ts.reserved_up_to == 2000
    # the 2001st enters the block reserved by a record still buffered: it waits
    assert [oracle.start() for _ in range(1000)][-1] == 2001
    assert reservations(wal.path) == [1000, 2000, 3000, 4000]  # durable before 2001 was returned
    assert appended == [1000, 2000, 3000, 4000] and wal.flush_count == 2
    assert ts.reserved_up_to == 3000
    wal.close()


def test_block_size_one_persists_each_timestamp(tmp_path):
    wal = WriteAheadLog(tmp_path / "ts.wal")
    oracle = StatusOracle(TimestampOracle(wal, block_size=1), wal=wal)
    for i in range(1, 6):
        assert oracle.start() == i
        # i's own reservation is durable; an odd start flushes it together
        # with i + 1's, appended as i was drawn, so every other start syncs
        assert reservations(wal.path) == list(range(1, i + 1 + i % 2))
        assert wal.flush_count == (i + 1) // 2
    # a commit timestamp waits for no reservation of its own: its record
    # follows the reservation, and the commit waits for the record
    decision = oracle.submit(5, {b"x"})
    assert decision.commit_ts == 6
    assert reservations(wal.path) == list(range(1, 8))
    wal.close()


def test_recovery_resumes_above_highest_reservation(tmp_path):
    path = tmp_path / "ts.wal"
    wal = WriteAheadLog(path)
    oracle = StatusOracle(TimestampOracle(wal, block_size=1000), wal=wal)
    for _ in range(10):
        oracle.start()  # crash mid-block: only 10 of 1000 issued
    # a crash now keeps only what is durable: the first start's flush carried
    # the next block's reservation too, so recovery resumes above that block
    crashed = tmp_path / "crashed.wal"
    shutil.copyfile(path, crashed)
    assert reservations(crashed) == [1000, 2000]
    _, highest = recover(crashed)
    assert highest == 2000
    wal2 = WriteAheadLog(crashed)
    assert StatusOracle(TimestampOracle(wal2, start_after=highest), wal=wal2).start() == 2001
    wal2.close()
    # entering the second block appends the third's reservation without
    # waiting; closing makes it durable, so recovery skips that block too
    assert [oracle.start() for _ in range(991)][-1] == 1001
    assert reservations(path) == [1000, 2000]
    wal.close()
    assert reservations(path) == [1000, 2000, 3000]
    _, highest = recover(path)
    assert highest == 3000
    wal3 = WriteAheadLog(path)
    value = StatusOracle(TimestampOracle(wal3, start_after=highest), wal=wal3).start()
    wal3.close()
    assert value == 3001


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


def test_failed_reservation_issues_nothing():
    wal = _FlakyWal()
    with pytest.raises(OSError, match="disk full"):  # the first block's, at creation
        TimestampOracle(wal, block_size=100)
    wal.fail = False
    ts = TimestampOracle(wal, block_size=100)
    assert [ts.next() for _ in range(100)][-1] == 100
    wal.fail = True
    with pytest.raises(OSError, match="disk full"):  # the log's own error
        ts.next()  # entering the second block appends the third's reservation
    wal.fail = False
    # no timestamp of the block was issued, so issuance resumes at its first
    assert ts.next() == 101


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        TimestampOracle(block_size=0)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=60))
def test_issued_values_strictly_increase(block_size, draws):
    ts = TimestampOracle(block_size=block_size)
    issued = [ts.next() for _ in range(draws)]
    assert issued == list(range(1, draws + 1))
    assert ts.reserved_up_to == -(-draws // block_size) * block_size  # whole blocks only

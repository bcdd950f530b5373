import shutil
import threading

import pytest
from hypothesis import given, strategies as st

from wsikv.timestamps import TimestampOracle
from wsikv.wal import KIND_TS_RESERVE, WriteAheadLog, read_records, recover


def reservations(path):
    return [r.reserved_up_to for r in read_records(path) if r.kind == KIND_TS_RESERVE]


def test_fresh_counter_starts_at_one():
    ts = TimestampOracle()
    assert [ts.next() for _ in range(3)] == [1, 2, 3]


def test_concurrent_next_values_are_unique():
    ts = TimestampOracle()
    out = []
    lock = threading.Lock()

    def grab():
        got = [ts.next() for _ in range(1250)]
        with lock:
            out.extend(got)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(out) == 10_000
    assert len(set(out)) == 10_000


def test_block_serves_next_without_new_persistence(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "ts.wal")
    appended = []
    append = wal.append
    monkeypatch.setattr(wal, "append", lambda rec: appended.append(rec.reserved_up_to) or append(rec))
    ts = TimestampOracle(wal, block_size=1000)
    # the first draw enters the block: it waits for that block's reservation
    # and appends the next block's without waiting for it
    assert ts.next() == 1
    assert reservations(wal.path) == [1000]  # durable before 1 was issued
    assert appended == [1000, 2000] and wal.flush_count == 1  # waited for once
    assert ts.reserved_up_to == 1000
    # draws inside the block touch no log
    assert [ts.next() for _ in range(999)][-1] == 1000
    assert appended == [1000, 2000] and wal.flush_count == 1
    assert reservations(wal.path) == [1000]  # 2000 is buffered, not durable
    assert ts.reserved_up_to == 1000
    # the 1001st draw enters the next block: it waits for that reservation
    assert ts.next() == 1001
    assert reservations(wal.path) == [1000, 2000]  # durable before 1001 was issued
    assert appended == [1000, 2000, 3000] and wal.flush_count == 2
    assert ts.reserved_up_to == 2000
    wal.close()
    assert reservations(wal.path) == [1000, 2000, 3000]


def test_block_size_one_persists_each_timestamp(tmp_path):
    wal = WriteAheadLog(tmp_path / "ts.wal")
    ts = TimestampOracle(wal, block_size=1)
    for i in range(1, 6):
        assert ts.next() == i
        # i's own reservation is durable; i + 1's is appended, not yet waited for
        assert reservations(wal.path) == list(range(1, i + 1))
        assert wal.flush_count == i
    wal.close()
    assert reservations(wal.path) == [1, 2, 3, 4, 5, 6]


def test_recovery_resumes_above_highest_reservation(tmp_path):
    path = tmp_path / "ts.wal"
    wal = WriteAheadLog(path)
    ts = TimestampOracle(wal, block_size=1000)
    for _ in range(10):
        ts.next()  # crash mid-block: only 10 of 1000 issued
    # a crash now keeps only what is durable: the next block's reservation is
    # still buffered, so recovery resumes above the first block
    crashed = tmp_path / "crashed.wal"
    shutil.copyfile(path, crashed)
    assert reservations(crashed) == [1000]
    _, highest = recover(crashed)
    assert highest == 1000
    wal2 = WriteAheadLog(crashed)
    assert TimestampOracle(wal2, start_after=highest).next() == 1001
    wal2.close()
    # closing makes the reservation appended ahead durable, so recovery skips that block too
    wal.close()
    assert reservations(path) == [1000, 2000]
    _, highest = recover(path)
    assert highest == 2000
    wal3 = WriteAheadLog(path)
    ts3 = TimestampOracle(wal3, start_after=highest)
    value = ts3.next()
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

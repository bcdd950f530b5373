import errno
import os
import random
import shutil
import stat
import struct
import subprocess
import sys
import threading
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from helpers import timestamp_blocks
from wsikv import wal as wal_module
from wsikv.oracle import (
    CommitDecision,
    CommitTable,
    DuplicateRequestError,
    IsolationPolicy,
    StatusOracle,
    recover,
)
from wsikv.timestamps import TimestampOracle
from wsikv.txn import Database, HandleState
from wsikv.wal import (
    CHUNK_SIZE,
    HEADER_SIZE,
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
    assert decode_payload(frame[4:]) == rec


# The codec frames and splits a record whose rows all have one length in one
# call; these per-row loops are the format's reference.
def reference_payload(start_ts, commit_ts, rows):
    """A commit record's payload, framed row by row."""
    parts = [struct.pack("<BQQI", KIND_COMMIT, start_ts, commit_ts, len(rows))]
    for row in rows:
        if len(row) > 0xFFFF:
            raise ValueError("row identifier longer than 65535 bytes")
        parts.append(struct.pack("<H", len(row)))
        parts.append(row)
    return b"".join(parts)


def reference_decode(payload):
    """A commit record's payload, split row by row."""
    _, start_ts, commit_ts, count = struct.unpack_from("<BQQI", payload, 0)
    off = 21
    rows = []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", payload, off)
        off += 2
        rows.append(payload[off : off + n])
        off += n
    if off != len(payload):
        raise ValueError("trailing bytes in commit record")
    return WalRecord(KIND_COMMIT, start_ts, commit_ts, tuple(rows))


def assert_encodes_like_reference(rows):
    """encode() of a commit of `rows` is the reference's bytes, and both
    decoders read them back as that commit."""
    rec = WalRecord(KIND_COMMIT, 3, 5, tuple(rows))
    payload = reference_payload(3, 5, rec.rows)
    assert rec.encode() == struct.pack("<I", len(payload)) + payload
    assert decode_payload(payload) == reference_decode(payload) == rec


def assert_decodes_like_reference(payload):
    try:
        expected = reference_decode(payload)
    except (ValueError, struct.error) as exc:
        with pytest.raises(type(exc)):
            decode_payload(payload)
    else:
        assert decode_payload(payload) == expected


def uniform_rows(count, length, seed):
    rnd = random.Random(seed)
    return [rnd.randbytes(length) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 1200), length=st.integers(0, 40), seed=st.integers(0, 2**32))
def test_rows_of_one_length_are_framed_as_row_by_row(count, length, seed):
    assert_encodes_like_reference(uniform_rows(count, length, seed))


@given(rows=st.lists(st.binary(max_size=40), max_size=8))
def test_rows_of_mixed_lengths_are_framed_as_row_by_row(rows):
    assert_encodes_like_reference(rows)


@settings(deadline=None)
@given(count=st.integers(3, 60), length=st.integers(1, 40), seed=st.integers(0, 2**32), data=st.data())
def test_mixed_rows_as_long_as_rows_of_one_length_are_framed_as_row_by_row(count, length, seed, data):
    # one row gives bytes to another: the payload has the length of `count`
    # rows of the first row's length, so only the per-row lengths tell them apart
    rows = uniform_rows(count, length, seed)
    i, j = data.draw(st.lists(st.integers(1, count - 1), min_size=2, max_size=2, unique=True))
    k = data.draw(st.integers(1, length))
    rows[i], rows[j] = rows[i][:-k], rows[j] + rows[i][-k:]
    assert_encodes_like_reference(rows)


@settings(deadline=None)
@given(count=st.integers(2, 60), length=st.integers(0, 40), seed=st.integers(0, 2**32), data=st.data())
def test_a_later_row_length_changed_decodes_as_row_by_row(count, length, seed, data):
    payload = bytearray(reference_payload(3, 5, uniform_rows(count, length, seed)))
    i = data.draw(st.integers(1, count - 1))
    wrong = data.draw(st.one_of(st.integers(0, length + 4), st.integers(0, 0xFFFF)).filter(lambda v: v != length))
    struct.pack_into("<H", payload, 21 + i * (length + 2), wrong)
    assert_decodes_like_reference(bytes(payload))


@settings(deadline=None)
@given(count=st.integers(1, 60), length=st.integers(0, 40), seed=st.integers(0, 2**32),
       cut=st.integers(-4, 4).filter(bool))
def test_rows_of_one_length_with_bytes_added_or_cut_decode_as_row_by_row(count, length, seed, cut):
    payload = reference_payload(3, 5, uniform_rows(count, length, seed))
    assert_decodes_like_reference(payload + bytes(cut) if cut > 0 else payload[:cut])


@pytest.mark.parametrize(
    "rows",
    [(), (b"xx", b"y", b"zzz"), (b"\xff" * 0xFFFF,), (b"a" * 0xFFFF, b"b" * 0xFFFF), (b"", b"")],
    ids=["no-rows", "lengths-add-up", "one-longest-row", "longest-rows", "empty-rows"],
)
def test_commit_record_edge_cases_are_framed_as_row_by_row(rows):
    assert_encodes_like_reference(rows)


@pytest.mark.parametrize(
    "rows", [(b"a" * 0x10000,), (b"a" * 0x10000, b"b" * 0x10000), (b"a", b"b" * 0x10000)],
    ids=["one-row", "rows-of-one-length", "mixed-lengths"],
)
def test_a_row_longer_than_65535_bytes_is_refused(rows):
    with pytest.raises(ValueError, match="longer than 65535 bytes"):
        WalRecord(KIND_COMMIT, 3, 5, rows).encode()


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


def test_file_grows_in_zero_filled_chunks_and_close_trims_them(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    first = WalRecord(KIND_COMMIT, 1, 2, (b"a",))
    wal.append(first).wait()
    end = len(MAGIC) + HEADER_SIZE + len(first.encode())
    assert path.stat().st_size == CHUNK_SIZE
    assert path.stat().st_blocks * 512 >= CHUNK_SIZE  # written zeros, not a hole
    assert path.read_bytes()[end:] == bytes(CHUNK_SIZE - end)
    big = WalRecord(KIND_COMMIT, 3, 4, tuple(b"%05d" % i + bytes(60_000) for i in range(20)))
    wal.append(big).wait()  # crosses the allocated end
    assert path.stat().st_size == 2 * CHUNK_SIZE
    wal.close()
    assert path.stat().st_size == end + HEADER_SIZE + len(big.encode())
    assert read_records(path) == [first, big]


def test_concurrent_waiters_lose_no_record(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    done, switch = [], sys.getswitchinterval()

    def client(c):
        for i in range(150):
            wal.append(WalRecord(KIND_ABORT, c * 1000 + i)).wait()
        done.append(c)

    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(c,)) for c in range(6)]
        for t in clients:
            t.start()
        _join(*clients)
    finally:
        sys.setswitchinterval(switch)
    assert sorted(done) == list(range(6))
    flushes = wal.flush_count
    wal.close()
    starts = [r.start_ts for r in read_records(path)]
    assert sorted(starts) == sorted(c * 1000 + i for c in range(6) for i in range(150))
    for c in range(6):  # each client's records in its own order
        assert [s for s in starts if s // 1000 == c] == [c * 1000 + i for i in range(150)]
    assert flushes <= len(starts)


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
    first_payload_at = len(MAGIC) + HEADER_SIZE + 4
    data[first_payload_at] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptLogError):
        read_records(path)


def test_header_bytes_inside_a_torn_batch_are_not_a_batch(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_ABORT, 1)).wait()
    wal.close()
    copied = path.read_bytes()[len(MAGIC) : len(MAGIC) + HEADER_SIZE]  # a valid header
    last_start = path.stat().st_size
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_COMMIT, 2, 3, (copied,))).wait()  # a row id holding it
    wal.close()
    data = bytearray(path.read_bytes())
    data[last_start + HEADER_SIZE + 4 + 9] ^= 0xFF  # the final batch's commit timestamp
    path.write_bytes(bytes(data))
    # the copy names another offset, so it does not make the torn tail look like corruption
    assert read_records(path) == [WalRecord(KIND_ABORT, 1)]


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
    for header in (b"WSIX", b"WSIWAX", MAGIC[:7] + b"9"):
        path.write_bytes(header)
        with pytest.raises(CorruptLogError):
            WriteAheadLog(path)


def test_new_log_is_created_atomically(tmp_path, monkeypatch):
    path = tmp_path / "x.wal"
    path.write_bytes(MAGIC[:4])  # an earlier creation cut short
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        st = os.fstat(fd)
        events.append("sync dir" if stat.S_ISDIR(st.st_mode) else f"sync {st.st_size} B file")
        fsync(fd)

    crash = [True]

    def recording_replace(src, dst):
        events.append(f"rename {os.path.basename(src)}")
        if crash:
            raise OSError(errno.EIO, "injected crash at the rename")
        replace(src, dst)

    monkeypatch.setattr(wal_module.os, "fsync", recording_fsync)
    monkeypatch.setattr(wal_module.os, "replace", recording_replace)
    with pytest.raises(OSError):
        WriteAheadLog(path)
    assert events == ["sync 8 B file", "rename x.wal.tmp"]
    assert path.read_bytes() == MAGIC[:4]  # untouched until the rename
    assert (tmp_path / "x.wal.tmp").read_bytes() == MAGIC
    crash.clear()
    events.clear()
    wal = WriteAheadLog(path)
    assert events == ["sync 8 B file", "rename x.wal.tmp", "sync dir"]
    assert not (tmp_path / "x.wal.tmp").exists()
    wal.append(WalRecord(KIND_ABORT, 1)).wait()
    wal.close()
    assert read_records(path) == [WalRecord(KIND_ABORT, 1)]


@timestamp_blocks(50)
def test_recovery_matches_live_oracle_state(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    oracle = StatusOracle(IsolationPolicy.WSI, capacity=4, wal=wal)
    rng = random.Random(7)
    rows = [bytes([65 + i]) for i in range(8)]
    for _ in range(120):
        start = oracle.start()
        ws = dict.fromkeys(rng.sample(rows, rng.randint(0, 3)), b"v")
        rs = frozenset(rng.sample(rows, rng.randint(0, 3)))
        oracle.submit(start, ws, rs)
    wal.close()
    table, highest = recover(path, capacity=4)
    assert table.last_commit == oracle.table.last_commit
    assert table.t_max == oracle.table.t_max
    assert table.commit_records == oracle.table.commit_records
    assert highest >= oracle.timestamps.last_issued()


@timestamp_blocks(8)
def test_an_oracle_opened_on_a_crashed_log_is_what_recover_reads(tmp_path):
    path = tmp_path / "x.wal"
    live = StatusOracle(IsolationPolicy.WSI, capacity=4, wal=WriteAheadLog(path))
    rng = random.Random(11)
    rows = [bytes([65 + i]) for i in range(8)]
    abandoned = []
    for _ in range(60):
        start = live.start()
        live.submit(start, dict.fromkeys(rng.sample(rows, rng.randint(0, 3)), b"v"), ())
        if rng.random() < 0.2:
            abandoned.append(live.start())
            live.report_abort(abandoned[-1])
    crashed = tmp_path / "crashed.wal"
    shutil.copyfile(path, crashed)  # a crash keeps what is durable, and every decision was
    live.wal.close()
    table, highest = recover(crashed, capacity=4)
    assert abandoned and table.commit_records and table.t_max > 0
    assert highest >= live.timestamps.last_issued()
    wal = WriteAheadLog(crashed)
    oracle = StatusOracle(IsolationPolicy.WSI, capacity=4, wal=wal)
    for field in ("commit_records", "last_commit", "t_max"):
        assert getattr(oracle.table, field) == getattr(table, field), field
    assert wal.recovered == []
    for start in abandoned:
        with pytest.raises(DuplicateRequestError, match="is not live"):
            oracle.report_abort(start)
    assert oracle.start() == highest + 1
    wal.close()


@timestamp_blocks(10)
def test_opening_a_log_changes_nothing_until_a_begin(tmp_path):
    path = tmp_path / "x.wal"
    db = Database(WSI, wal=WriteAheadLog(path))
    writer = db.begin()
    writer.write(b"x", b"1")
    assert writer.commit().committed
    db.close()
    data = path.read_bytes()
    _, reserved = recover(path)
    assert reserved == 10
    for _ in range(2):
        Database(WSI, wal=WriteAheadLog(path)).close()
        Database.recover(path).close()
        assert path.read_bytes() == data
        assert recover(path)[1] == reserved
    db = Database.recover(path)
    assert db.begin().start_ts == reserved + 1
    db.close()


def test_recovery_is_idempotent_across_rewrite(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=100)).wait()
    wal.append(WalRecord(KIND_COMMIT, 1, 3, (b"a", b"b"))).wait()
    wal.append(WalRecord(KIND_ABORT, 2)).wait()
    wal.append(WalRecord(KIND_COMMIT, 4, 4, ())).wait()  # a read-only commit, as older logs hold
    wal.close()
    rewritten = tmp_path / "y.wal"
    wal2 = WriteAheadLog(rewritten)
    for rec in read_records(path):
        wal2.append(rec).wait()
    wal2.close()
    t1, h1 = recover(path)
    t2, h2 = recover(rewritten)
    assert (t1.last_commit, t1.t_max, t1.commit_records, h1) == (
        t2.last_commit,
        t2.t_max,
        t2.commit_records,
        h2,
    )
    assert (t1.commit_records, h1) == ({1: 3}, 100)  # the abort and read-only records are skipped


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


def _batched_log(path):
    """Write 12 commit, abort and reservation records in 5 batches; return the
    batches, as lists of records, and the byte offset at which each one ends."""
    recs = [WalRecord(KIND_TS_RESERVE, reserved_up_to=50)]
    for i in range(1, 11):
        if i % 3:
            recs.append(WalRecord(KIND_COMMIT, i, 100 + i, (b"row%d" % i, b"r")[: 1 + i % 2]))
        else:
            recs.append(WalRecord(KIND_ABORT, i))
    recs.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=200))
    batches = [recs[0:1], recs[1:4], recs[4:6], recs[6:10], recs[10:12]]
    wal = WriteAheadLog(path)
    for batch in batches:
        acks = [wal.append(rec) for rec in batch]
        acks[-1].wait()
    assert wal.flush_count == len(batches)
    wal.close()
    ends, end = [], len(MAGIC)
    for batch in batches:
        end += HEADER_SIZE + sum(len(rec.encode()) for rec in batch)
        ends.append(end)
    return batches, ends


def _records(batches):
    return [rec for batch in batches for rec in batch]


def _reopen_recovers(path, kept, boundary):
    """Reopening cuts the log back to `boundary` and appends after `kept`."""
    extra = WalRecord(KIND_ABORT, 999)
    wal = WriteAheadLog(path)
    assert wal.recovered == kept
    assert path.stat().st_size == boundary
    wal.append(extra).wait()
    wal.close()
    assert read_records(path) == kept + [extra]


def test_truncation_at_every_byte_recovers_exactly_the_batches_before_it(tmp_path):
    batches, ends = _batched_log(tmp_path / "full.wal")
    data = (tmp_path / "full.wal").read_bytes()
    assert ends[-1] == len(data)  # close() trimmed the zero tail
    path = tmp_path / "cut.wal"
    for cut in range(len(MAGIC), len(data) + 1):
        path.write_bytes(data[:cut])
        whole = [end for end in ends if end <= cut]
        kept = _records(batches[: len(whole)])
        assert read_records(path) == kept, cut
        _reopen_recovers(path, kept, max([len(MAGIC)] + whole))


def test_zeroing_from_every_byte_to_the_end_recovers_the_intact_batches(tmp_path):
    # how a crash leaves a preallocated file: what never reached the disk reads as zeros
    batches, ends = _batched_log(tmp_path / "full.wal")
    data = (tmp_path / "full.wal").read_bytes()
    starts = [len(MAGIC)] + ends[:-1]
    path = tmp_path / "zeroed.wal"
    for cut in range(len(MAGIC), len(data)):
        zeroed = data[:cut] + bytes(len(data) - cut + 4096)
        # a batch whose zeroed bytes were zeros already is intact; all later ones are not
        intact = [zeroed[s:e] == data[s:e] for s, e in zip(starts, ends)]
        whole = intact.index(False) if False in intact else len(intact)
        assert not any(intact[whole:]), cut
        kept = _records(batches[:whole])
        path.write_bytes(zeroed)
        assert read_records(path) == kept, cut
        _reopen_recovers(path, kept, ([len(MAGIC)] + ends)[whole])


def test_flipped_byte_is_corruption_unless_in_the_final_batch(tmp_path):
    batches, ends = _batched_log(tmp_path / "full.wal")
    data = (tmp_path / "full.wal").read_bytes()
    path = tmp_path / "flipped.wal"
    starts = [len(MAGIC)] + ends[:-1]
    for i, (start, end) in enumerate(zip(starts, ends)):
        for off in range(start, end):  # header, record lengths and payloads alike
            flipped = bytearray(data)
            flipped[off] ^= 0xFF
            path.write_bytes(bytes(flipped))
            if i < len(batches) - 1:
                with pytest.raises(CorruptLogError):
                    read_records(path)
            else:
                assert read_records(path) == _records(batches[:-1]), off


def test_zeroed_hole_drops_the_final_batch_and_is_corruption_earlier(tmp_path):
    # sectors of the last batch persisted out of order: its middle is missing
    batches, ends = _batched_log(tmp_path / "full.wal")
    data = (tmp_path / "full.wal").read_bytes()
    path = tmp_path / "hole.wal"
    last_start = ends[-2]
    holed = bytearray(data)
    holed[last_start + HEADER_SIZE + 4 : ends[-1] - 4] = bytes(ends[-1] - last_start - HEADER_SIZE - 8)
    path.write_bytes(bytes(holed) + bytes(4096))
    kept = _records(batches[:-1])
    assert read_records(path) == kept
    _reopen_recovers(path, kept, last_start)
    mid_start = ends[1]
    holed = bytearray(data)
    holed[mid_start + HEADER_SIZE + 4 : ends[2] - 4] = bytes(ends[2] - mid_start - HEADER_SIZE - 8)
    path.write_bytes(bytes(holed))
    with pytest.raises(CorruptLogError):
        read_records(path)


def test_corrupt_length_in_the_first_batch_is_refused_without_truncating(tmp_path):
    # read as a torn tail, it would make every acknowledged record vanish on reopen
    _batched_log(tmp_path / "full.wal")
    data = bytearray((tmp_path / "full.wal").read_bytes())
    data[len(MAGIC) + 8 + 2] ^= 0x01  # the header's body length
    path = tmp_path / "bad.wal"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptLogError):
        WriteAheadLog(path)
    assert path.read_bytes() == data  # refused, not truncated


def _framed(payload: bytes) -> bytes:
    """A record as a batch body holds it: its u32 payload length, then the payload."""
    return struct.pack("<I", len(payload)) + payload


def _trailing_byte(rec: WalRecord) -> bytes:
    return _framed(rec.encode()[4:] + b"\0")


@pytest.mark.parametrize(
    "bad",
    [
        _trailing_byte(WalRecord(KIND_COMMIT, 3, 4, (b"b",))),
        _trailing_byte(WalRecord(KIND_ABORT, 3)),
        _trailing_byte(WalRecord(KIND_TS_RESERVE, reserved_up_to=9)),
        _framed(struct.pack("<BQ", 9, 3)),  # an unknown kind
        _framed(struct.pack("<BQQIH", KIND_COMMIT, 3, 4, 2, 1) + b"b"),  # two rows counted, one present
        struct.pack("<I", 64) + WalRecord(KIND_ABORT, 3).encode()[4:],  # a length past the batch's end
    ],
    ids=["commit-trailing", "abort-trailing", "reserve-trailing", "kind", "rows-missing", "past-batch"],
)
def test_a_batch_with_intact_checksums_and_an_undecodable_record_is_refused(tmp_path, bad):
    # framed as a flush frames it, so both checksums pass; read as a torn tail,
    # it would drop the acknowledged record before it on reopen
    body = WalRecord(KIND_COMMIT, 1, 2, (b"a",)).encode() + bad
    head = struct.pack("<QII", len(MAGIC), len(body), zlib.crc32(body))
    data = MAGIC + head + struct.pack("<I", zlib.crc32(head)) + body
    path = tmp_path / "x.wal"
    path.write_bytes(data)
    with pytest.raises(CorruptLogError, match="undecodable record"):
        read_records(path)
    with pytest.raises(CorruptLogError, match="undecodable record"):
        WriteAheadLog(path)
    assert path.read_bytes() == data


class _BlockingSync:
    """Stands in for os.fdatasync: blocks until released, then fails or syncs."""

    def __init__(self, monkeypatch, fail=False):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.fail = fail
        self._sync = os.fdatasync
        monkeypatch.setattr(wal_module.os, "fdatasync", self)

    def __call__(self, fd):
        self.entered.set()
        self.release.wait(5.0)
        if self.fail:
            raise OSError(errno.EIO, "injected sync failure")
        self._sync(fd)


def _failing_sync(fd):
    raise OSError(errno.EIO, "injected sync failure")


def _join(*threads):
    for t in threads:
        t.join(5.0)
        assert not t.is_alive()


class _TornPwrite:
    """Stands in for os.pwrite: writes only the first `keep` bytes, then fails."""

    def __init__(self, monkeypatch, keep):
        self._pwrite = os.pwrite
        self._keep = keep
        monkeypatch.setattr(wal_module.os, "pwrite", self)

    def __call__(self, fd, data, offset):
        self._pwrite(fd, data[: self._keep], offset)
        raise OSError(errno.ENOSPC, "injected write failure")


def test_append_returns_while_a_flush_waits_on_fsync(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "x.wal")
    sync = _BlockingSync(monkeypatch)
    leader = threading.Thread(target=wal.append(WalRecord(KIND_ABORT, 1)).wait)
    leader.start()
    assert sync.entered.wait(2.0)
    second = threading.Thread(target=wal.append, args=(WalRecord(KIND_ABORT, 2),))
    second.start()
    second.join(0.5)
    returned = not second.is_alive()
    sync.release.set()
    _join(leader, second)
    assert returned, "append waited for an fsync in progress"
    wal.close()
    assert [r.start_ts for r in read_records(wal.path)] == [1, 2]
    assert wal.flush_count == 2  # the second record formed the next batch


def test_waiter_queued_behind_a_flush_that_covers_it_does_not_flush_again(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "x.wal")
    acks = [wal.append(WalRecord(KIND_ABORT, i)) for i in (1, 2)]
    sync = _BlockingSync(monkeypatch)
    leader = threading.Thread(target=acks[0].wait)
    leader.start()
    assert sync.entered.wait(2.0)
    follower = threading.Thread(target=acks[1].wait)
    follower.start()
    follower.join(0.2)
    queued = follower.is_alive()  # its record is in the batch being synced
    sync.release.set()
    _join(leader, follower)
    assert queued, "a waiter returned before its record was durable"
    assert wal.flush_count == 1
    wal.close()
    assert [r.start_ts for r in read_records(wal.path)] == [1, 2]


def test_begin_proceeds_while_committers_wait_on_fsync(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    first, second = db.begin(), db.begin()  # the timestamp block is reserved
    first.write(b"x", b"1")
    second.write(b"y", b"2")
    sync = _BlockingSync(monkeypatch)
    committers = [threading.Thread(target=h.commit) for h in (first, second)]
    committers[0].start()
    assert sync.entered.wait(2.0)
    committers[1].start()
    deadline = time.monotonic() + 2.0
    while len(db.oracle.table.commit_records) < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    began = []
    reader = threading.Thread(target=lambda: began.append(db.begin()))
    reader.start()
    reader.join(0.5)
    returned = bool(began)
    sync.release.set()
    _join(*committers, reader)
    assert returned, "begin waited for an fsync in progress"
    db.close()


@timestamp_blocks(4)
def test_begin_inside_a_block_returns_while_a_sync_is_blocked(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    # start 1 enters the first block: it appends 4 and waits for its flush
    writer = db.begin()
    writer.write(b"x", b"1")
    sync = _BlockingSync(monkeypatch)
    # commit 2: its flush blocks
    committer = threading.Thread(target=writer.commit)
    committer.start()
    assert sync.entered.wait(2.0)
    began = []
    # start 3: inside the block, so this begin touches no log
    reader = threading.Thread(target=lambda: began.append(db.begin()))
    reader.start()
    reader.join(0.5)
    returned = bool(began)
    sync.release.set()
    _join(committer, reader)
    assert returned, "begin inside a block waited for a sync in progress"
    assert db.timestamps.reserved_up_to == 4
    began[0].write(b"y", b"2")
    assert began[0].commit().committed  # commit 4
    flushes = db.wal.flush_count
    assert [r.reserved_up_to for r in read_records(db.wal.path) if r.kind == KIND_TS_RESERVE] == [4]
    # start 5 enters the next block: it appends 8 and waits for one flush,
    # after the oracle's lock is released
    assert db.begin().start_ts == 5
    assert db.wal.flush_count == flushes + 1
    assert [r.reserved_up_to for r in read_records(db.wal.path) if r.kind == KIND_TS_RESERVE] == [4, 8]
    assert db.timestamps.reserved_up_to == 8
    db.close()  # appends nothing: no block was entered since
    assert [r.reserved_up_to for r in read_records(db.wal.path) if r.kind == KIND_TS_RESERVE] == [4, 8]


def test_failed_fsync_fails_its_batch_and_stops_the_log(tmp_path, monkeypatch):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_ABORT, 1)).wait()
    in_batch = [wal.append(WalRecord(KIND_ABORT, i)) for i in (2, 3)]
    sync = _BlockingSync(monkeypatch, fail=True)
    errors = []

    def wait(ack):
        try:
            ack.wait()
        except WalError as exc:
            errors.append(exc)

    waiters = [threading.Thread(target=wait, args=(ack,)) for ack in in_batch]
    for t in waiters:
        t.start()
    assert sync.entered.wait(2.0)
    sync.release.set()
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


def test_torn_write_stops_the_log_and_recovers_to_the_last_whole_record(tmp_path, monkeypatch):
    for keep in (5, HEADER_SIZE + 3):  # a cut header, then a cut body
        path = tmp_path / f"x{keep}.wal"
        wal = WriteAheadLog(path)
        wal.append(WalRecord(KIND_COMMIT, 1, 2, (b"a",))).wait()
        _TornPwrite(monkeypatch, keep)
        ack = wal.append(WalRecord(KIND_COMMIT, 3, 4, (b"b",)))
        with pytest.raises(WalError):
            ack.wait()
        with pytest.raises(WalError):
            wal.append(WalRecord(KIND_ABORT, 5))
        with pytest.raises(WalError):
            wal.close()  # releases the log for the reopen below
        monkeypatch.undo()
        assert [r.start_ts for r in read_records(path)] == [1]
        reopened = WriteAheadLog(path)
        reopened.append(WalRecord(KIND_ABORT, 6)).wait()
        reopened.close()
        assert [r.start_ts for r in read_records(path)] == [1, 6]


def _short_pwrite(monkeypatch):
    """Make os.pwrite write only the first half of its bytes and return that count."""
    pwrite = os.pwrite

    def short(fd, data, offset):
        return pwrite(fd, data[: len(data) // 2], offset)

    monkeypatch.setattr(wal_module.os, "pwrite", short)


@pytest.mark.parametrize("acknowledged", [0, 3])
def test_short_write_stops_the_log_and_recovers_what_was_acknowledged(tmp_path, monkeypatch, acknowledged):
    path = tmp_path / "x.wal"
    db = Database(WSI, wal=WriteAheadLog(path))
    committed = {}
    for i in range(acknowledged):
        h = db.begin()
        h.write(b"r%d" % i, b"v")
        committed[h.start_ts] = h.commit().commit_ts
    _short_pwrite(monkeypatch)
    with pytest.raises(WalError, match="short write") as raised:
        if acknowledged:
            h = db.begin()
            h.write(b"x", b"v")
            h.commit()  # its batch is the short write
        else:
            db.begin()  # its reservation's flush first zero-fills a chunk: the short write
    assert db.wal.error is raised.value
    with pytest.raises(WalError):
        db.begin()
    with pytest.raises(WalError):
        db.close()  # releases the log for the reopen below
    monkeypatch.undo()
    reopened = Database.recover(path)
    assert reopened.oracle.table.commit_records == committed
    reopened.close()


class _Interrupt(BaseException):
    """An exception that is not an Exception, as a signal handler may raise."""


def test_interrupted_flush_stops_the_log(tmp_path, monkeypatch):
    # its batch has left the buffer: were the log to go on, the next flush
    # would mark that batch durable without having synced it
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    db.seed_committed(b"x", b"0")

    def interrupted(fd):
        raise _Interrupt

    monkeypatch.setattr(wal_module.os, "fdatasync", interrupted)
    h = db.begin()
    h.write(b"x", b"1")
    with pytest.raises(_Interrupt):
        h.commit()
    assert isinstance(db.wal.error, WalError)
    with pytest.raises(WalError):
        db.begin()
    with pytest.raises(WalError):
        db.close()


@timestamp_blocks(1)
def test_failed_reservation_reaches_begin_as_the_log_error(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    began = [db.begin(), db.begin()]  # the first one's flush made the reservations of 1 and 2 durable
    assert [h.start_ts for h in began] == [1, 2]
    monkeypatch.setattr(wal_module.os, "fdatasync", _failing_sync)
    with pytest.raises(WalError) as raised:
        began.append(db.begin())  # the next block's reservation cannot be made durable
    assert raised.value is db.wal.error
    with pytest.raises(WalError):
        began.append(db.begin())  # the engine has stopped
    assert [h.start_ts for h in began] == [1, 2]  # no failed begin returned a timestamp


def test_no_sync_runs_under_the_oracle_lock(tmp_path, monkeypatch):
    held = []  # per fdatasync: whether the open database's oracle lock was held
    opened = []
    sync = os.fdatasync

    def probe(fd):
        held.extend(db.oracle._lock.locked() for db in opened)
        sync(fd)

    monkeypatch.setattr(wal_module.os, "fdatasync", probe)
    path = tmp_path / "x.wal"
    for opening in (lambda: Database(WSI, wal=WriteAheadLog(path)), lambda: Database.recover(path)):
        db = opening()
        opened[:] = [db]
        h = db.begin()
        h.write(b"x", b"1")
        assert h.commit().committed
        db.close()
    # a fresh log and no decision: two and a half blocks of begins, and no
    # commit whose flush would carry a reservation ahead of need
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "fresh.wal"))
    opened[:] = [db]
    synced = len(held)
    assert [db.begin().start_ts for _ in range(2500)][-1] == 2500
    assert len(held) > synced
    db.close()
    assert held and not any(held)


@pytest.mark.parametrize("fails", [False, True])
def test_read_only_commit_waits_for_the_commits_in_its_snapshot(tmp_path, monkeypatch, fails):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    writer = db.begin()  # its block's reservation is durable
    writer.write(b"x", b"1")
    sync = _BlockingSync(monkeypatch, fail=fails)
    committer = threading.Thread(target=_outcome, args=(writer.commit, []))
    committer.start()
    assert sync.entered.wait(2.0)  # the writer's commit is appended; its flush blocks
    reader = db.begin()  # inside the block: appends nothing and waits for nothing
    assert reader.read(b"x") == b"1"  # the snapshot holds the commit being flushed
    outcome = []
    committing = threading.Thread(target=_outcome, args=(reader.commit, outcome))
    committing.start()
    committing.join(0.3)
    waited = committing.is_alive()
    sync.release.set()
    _join(committer, committing)
    assert waited, "a read-only commit returned before its snapshot was durable"
    if fails:
        assert outcome == [db.wal.error] and isinstance(outcome[0], WalError)
        # the failed read-only commit is still live and counted as no commit
        assert reader.state is HandleState.ACTIVE and reader.start_ts in db.oracle._active
        assert db.oracle.read_only_commits == 0
        for h in (reader, writer):  # either handle's abort meets the log's error first
            with pytest.raises(WalError) as raised:
                h.abort()
            assert raised.value is db.wal.error
        with pytest.raises(WalError):
            db.close()
    else:
        assert outcome == [CommitDecision(True, reader.start_ts)]
        db.close()


def test_a_read_only_request_for_a_start_not_live_walks_and_changes_nothing(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    db.seed_committed(b"x", b"0")  # durable: its commit waited
    reader, writer = db.begin(), db.begin()
    assert reader.read(b"x") == b"0"
    assert reader.commit().committed
    writer.write(b"y", b"1")
    sync = _BlockingSync(monkeypatch)
    committer = threading.Thread(target=writer.commit)
    committer.start()
    oracle, walked = db.oracle, []
    newest_read = oracle.store.newest_read
    monkeypatch.setattr(
        oracle.store, "newest_read", lambda rows, ts: walked.append(ts) or newest_read(rows, ts)
    )
    try:
        assert sync.entered.wait(2.0)  # the writer's record is in flight, so a read-only request walks
        before = (set(oracle._active), oracle.committed_count, oracle.read_only_commits)
        with pytest.raises(DuplicateRequestError, match="is not live"):
            oracle.submit(reader.start_ts, {}, {b"x"})
        assert walked == [reader.start_ts]
        assert (set(oracle._active), oracle.committed_count, oracle.read_only_commits) == before
    finally:
        sync.release.set()
        _join(committer)
    db.close()


def test_a_writing_commit_whose_wait_raises_is_not_counted(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    writer = db.begin()
    writer.write(b"x", b"1")
    sync = _BlockingSync(monkeypatch, fail=True)
    outcome = []
    committer = threading.Thread(target=_outcome, args=(writer.commit, outcome))
    committer.start()
    assert sync.entered.wait(2.0)  # appended and installed; its flush blocks
    sync.release.set()  # then fails
    _join(committer)
    assert outcome == [db.wal.error] and isinstance(outcome[0], WalError)
    assert writer.state is HandleState.ACTIVE
    assert db.oracle.committed_count == db.oracle.read_only_commits == 0
    with pytest.raises(WalError):
        db.close()


def _outcome(call, into):
    try:
        into.append(call())
    except WalError as exc:
        into.append(exc)


def _commit_in_flight(db, monkeypatch, row):
    """Begin a writer of `row` and commit it in a thread whose flush blocks;
    returns (the blocked sync, the committing thread) once it is appended."""
    writer = db.begin()
    writer.write(row, b"in flight")
    sync = _BlockingSync(monkeypatch)
    committer = threading.Thread(target=writer.commit)
    committer.start()
    assert sync.entered.wait(2.0)
    return sync, committer


def _wait_until(condition):
    deadline = time.monotonic() + 2.0
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)


def _returns_promptly(call):
    """Run `call` in a thread; whether it returned within two seconds."""
    done = threading.Thread(target=call)
    done.start()
    done.join(2.0)
    return not done.is_alive(), done


@pytest.mark.parametrize(
    "row, value, begun_before",
    [
        pytest.param(b"y", b"0", False, id="y-0"),
        pytest.param(b"absent", None, False, id="absent-None"),
        pytest.param(b"new", None, True, id="new-begun-before"),  # every version of new lies above its start
    ],
)
def test_read_only_commit_waits_for_no_commit_it_did_not_read(
    tmp_path, monkeypatch, row, value, begun_before
):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    db.seed_committed(b"y", b"0")  # durable: its commit waited
    early = db.begin() if begun_before else None
    sync, committer = _commit_in_flight(db, monkeypatch, b"new")
    reader = early or db.begin()  # begun after it, its snapshot holds the commit being flushed
    assert reader.read(row) == value
    returned, committing = _returns_promptly(reader.commit)
    sync.release.set()
    _join(committer, committing)
    assert returned, "a read-only commit waited for a commit it did not read"
    assert reader.state is HandleState.COMMITTED
    db.close()


def test_read_only_commit_of_a_durable_version_waits_for_no_newer_commit(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    db.seed_committed(b"x", b"0")
    later = db.begin()
    later.write(b"x", b"1")
    sync, committer = _commit_in_flight(db, monkeypatch, b"y")
    reader = db.begin()  # its snapshot holds the commit of y being flushed
    rival = threading.Thread(target=later.commit)  # commits x above the reader's start
    rival.start()
    _wait_until(lambda: len(db.oracle.table.commit_records) == 3)
    assert db.oracle.table.last_commit[b"x"] > reader.start_ts
    assert reader.read(b"x") == b"0"  # the durable version below the newer one
    returned, committing = _returns_promptly(reader.commit)
    sync.release.set()
    _join(committer, rival, committing)
    assert returned, "a read-only commit of a durable version waited"
    db.close()


def test_gc_keeps_the_versions_a_waiting_read_only_commit_read(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    db.seed_committed(b"x", b"0")
    db.seed_committed(b"x", b"1")
    later = db.begin()
    later.write(b"x", b"3")
    sync, committer = _commit_in_flight(db, monkeypatch, b"x")
    reader = db.begin()
    assert reader.read(b"x") == b"in flight"
    committing = threading.Thread(target=reader.commit)
    committing.start()
    committing.join(0.3)
    waiting = committing.is_alive()
    rival = threading.Thread(target=later.commit)  # a fourth version, above the reader's start
    rival.start()
    _wait_until(lambda: len(db.store.versions(b"x")) == 4)
    db.gc()  # the reader is still live: its version stays
    kept = [v.value for v in db.store.versions(b"x")]
    sync.release.set()
    _join(committer, committing, rival)
    assert waiting, "a read-only commit of a version being flushed did not wait"
    assert kept == [b"3", b"in flight"]
    assert reader.state is HandleState.COMMITTED
    db.close()


def test_durable_ts_is_the_last_synced_commit_and_a_failed_flush_keeps_it(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "x.wal")
    wal.append(WalRecord(KIND_COMMIT, 1, 2, (b"a",)))
    ack = wal.append(WalRecord(KIND_TS_RESERVE, reserved_up_to=10))
    assert wal.durable_ts == 0  # appended, not durable
    ack.wait()
    assert (wal.durable, wal.durable_ts) == (2, 2)
    ack = wal.append(WalRecord(KIND_COMMIT, 3, 4, (b"b",)))
    monkeypatch.setattr(wal_module.os, "fdatasync", _failing_sync)
    with pytest.raises(WalError):
        ack.wait()
    assert (wal.durable, wal.durable_ts) == (2, 2)
    with pytest.raises(WalError):
        wal.close()


def test_begin_waits_for_no_ack_once_its_block_is_durable(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    db.begin()  # waits for its block's reservation
    waits = []
    wait = wal_module.DurableAck.wait
    monkeypatch.setattr(wal_module.DurableAck, "wait", lambda ack: (waits.append(ack.seq), wait(ack)))
    for _ in range(10):
        db.begin()
    assert waits == []
    db.close()


class _SyncedCommits:
    """Wraps os.pwrite and os.fdatasync to track `ts`, the newest commit
    timestamp in a batch whose sync returned: a record of durability kept
    apart from the log's own. Both run under the log's flush lock."""

    def __init__(self, monkeypatch):
        self.ts = 0
        self._written = b""
        self._pwrite, self._sync = os.pwrite, os.fdatasync
        monkeypatch.setattr(wal_module.os, "pwrite", self.pwrite)
        monkeypatch.setattr(wal_module.os, "fdatasync", self.fdatasync)

    def pwrite(self, fd, data, offset):
        self._written = bytes(data)  # a flush writes its batch last, after any zero fill
        return self._pwrite(fd, data, offset)

    def fdatasync(self, fd):
        self._sync(fd)
        body, at = self._written, HEADER_SIZE
        while at < len(body):
            (length,) = struct.unpack_from("<I", body, at)
            rec = decode_payload(body[at + 4 : at + 4 + length])
            if rec.kind == KIND_COMMIT:
                self.ts = max(self.ts, rec.commit_ts)
            at += 4 + length


@pytest.mark.slow
def test_read_only_commits_return_only_once_what_they_read_is_durable(tmp_path, monkeypatch):
    # 2 writers and 2 readers over 4 rows while a thread loops gc(): each
    # value names its writer's start, and each read-only commit notes, when
    # it returns, the newest commit timestamp whose batch has synced
    synced = _SyncedCommits(monkeypatch)
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    rows = [b"r%d" % i for i in range(4)]
    for row in rows:
        h = db.begin()
        h.write(row, str(h.start_ts).encode())
        assert h.commit().committed
    done = threading.Event()
    observed = []  # per read-only commit: (values read, synced ts, durable_ts) on return
    errors = []

    def writer(seed):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                h = db.begin()
                for row in rng.sample(rows, rng.randint(1, 2)):
                    h.write(row, str(h.start_ts).encode())
                assert h.commit().committed  # WSI checks reads, and writers read nothing
        except BaseException as exc:
            errors.append(exc)

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not done.is_set():
                h = db.begin()
                values = [h.read(row) for row in rng.sample(rows, rng.randint(1, 3))]
                assert h.commit().committed
                observed.append((values, synced.ts, db.wal.durable_ts))
        except BaseException as exc:
            errors.append(exc)

    def collector():
        try:
            while not done.is_set():
                db.gc()
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        others = [threading.Thread(target=reader, args=(i + 2,)) for i in range(2)]
        others.append(threading.Thread(target=collector))
        for t in writers + others:
            t.start()
        for t in writers:
            t.join(120.0)
        done.set()
        for t in others:
            t.join(60.0)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + others)
    assert errors == []
    commit_ts = db.oracle.table.commit_records
    db.close()
    assert len(observed) > 100
    for values, synced_ts, durable_ts in observed:
        assert durable_ts <= synced_ts
        for value in values:
            assert commit_ts[int(value)] <= durable_ts


@timestamp_blocks(20_000)
def test_read_only_commits_leave_no_state(tmp_path):
    path = tmp_path / "x.wal"
    # one block holds every start, so no begin appends a reservation
    db = Database(WSI, wal=WriteAheadLog(path))
    db.seed_committed(b"x", b"0")  # durable: its commit waited
    oracle, wal = db.oracle, db.wal
    state = lambda: (len(oracle.table.commit_records), wal.flush_count, wal._end, wal.appended)
    before, committed = state(), oracle.committed_count
    for _ in range(10_000):
        h = db.begin()
        assert h.read(b"x") == b"0"
        assert h.commit() == CommitDecision(True, h.start_ts)
    assert state() == before
    assert oracle._active == set()
    assert oracle.committed_count == committed + 10_000
    assert oracle.read_only_commits == 10_000
    db.close()
    commits = [rec for rec in read_records(path) if rec.kind == KIND_COMMIT]
    assert [rec.rows for rec in commits] == [(b"x",)]  # the seed's record alone


def test_read_only_commit_after_a_log_failure_raises_and_stays_active(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    reader, writer = db.begin(), db.begin()
    writer.write(b"x", b"1")
    monkeypatch.setattr(wal_module.os, "fdatasync", _failing_sync)
    with pytest.raises(WalError):
        writer.commit()  # its flush fails: the log stops
    assert reader.read(b"y") is None
    with pytest.raises(WalError) as raised:
        reader.commit()  # its snapshot predates the failed commit, yet the log has stopped
    assert raised.value is db.wal.error
    assert reader.state is HandleState.ACTIVE
    assert reader.start_ts in db.oracle._active
    assert db.oracle.read_only_commits == 0
    with pytest.raises(WalError):
        db.close()


def test_a_second_opener_of_a_log_is_refused(tmp_path):
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_ABORT, 1)).wait()
    for opening in (lambda: WriteAheadLog(path), lambda: Database.recover(path)):
        with pytest.raises(WalError, match=f"{path}: log is already open"):
            opening()
    src = os.path.dirname(os.path.dirname(os.path.abspath(wal_module.__file__)))
    child = subprocess.run(
        [sys.executable, "-c", _OPEN_IN_A_CHILD, str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 3, child.stderr
    assert f"{path}: log is already open" in child.stdout
    assert [r.start_ts for r in read_records(path)] == [1]  # reading takes no lock
    wal.append(WalRecord(KIND_ABORT, 2)).wait()  # the first opener keeps working
    wal.close()
    reopened = WriteAheadLog(path)  # close() released the log
    assert [r.start_ts for r in reopened.recovered] == [1, 2]
    reopened.close()


_OPEN_IN_A_CHILD = """
import sys
from wsikv.wal import WalError, WriteAheadLog
try:
    WriteAheadLog(sys.argv[1])
except WalError as exc:
    print(exc)
    sys.exit(3)
"""


def test_a_refused_open_releases_the_log(tmp_path):
    path = tmp_path / "x.wal"
    path.write_bytes(b"not a log")
    for _ in range(2):  # the second is refused as corrupt again, not as already open
        with pytest.raises(CorruptLogError):
            WriteAheadLog(path)
    path.unlink()
    WriteAheadLog(path).close()


def test_aborts_append_no_record_and_wait_for_no_flush(tmp_path):
    path = tmp_path / "x.wal"
    db = Database(WSI, wal=WriteAheadLog(path))
    db.seed_committed(b"x", b"0")
    loser, winner, abandoned = db.begin(), db.begin(), db.begin()
    for h in (loser, winner):
        h.read(b"x")
        h.write(b"x", b"1")
    abandoned.write(b"y", b"2")
    assert winner.commit().committed
    flushes = db.wal.flush_count
    assert loser.commit().cause == "conflict"  # a conflict abort
    abandoned.abort()  # a client abort, through report_abort
    assert db.wal.flush_count == flushes
    db.close()
    kinds = [rec.kind for rec in read_records(path)]
    assert KIND_ABORT not in kinds and kinds.count(KIND_COMMIT) == 2


def test_failed_log_stops_the_engine_without_changing_the_table(tmp_path, monkeypatch):
    db = Database(WSI, wal=WriteAheadLog(tmp_path / "x.wal"))
    doomed, later, abandoned, rival = db.begin(), db.begin(), db.begin(), db.begin()
    doomed.write(b"x", b"1")
    later.write(b"y", b"2")
    rival.read(b"x")  # conflicts with doomed's commit: the abort path
    rival.write(b"w", b"3")
    monkeypatch.setattr(wal_module.os, "fdatasync", _failing_sync)
    with pytest.raises(WalError):
        doomed.commit()
    assert doomed.state is HandleState.ACTIVE
    table, active = db.oracle.table, db.oracle._active
    before = (dict(table.commit_records), dict(table.last_commit), table.t_max, set(active))
    for attempt in (
        db.begin,
        later.commit,
        rival.commit,
        abandoned.abort,
        lambda: db.oracle.submit(abandoned.start_ts, {b"z": b"v"}),
        lambda: db.oracle.report_abort(later.start_ts),
        lambda: db.wal.append(WalRecord(KIND_ABORT, 99)),
    ):
        with pytest.raises(WalError):
            attempt()
        assert (table.commit_records, table.last_commit, table.t_max, active) == before
    with pytest.raises(WalError):
        db.close()


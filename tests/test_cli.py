import errno
import os
import random
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from helpers import timestamp_blocks
from wsikv import wal as wal_module
from wsikv.cli import main
from wsikv.oracle import CommitTable, IsolationPolicy
from wsikv.txn import Database
from wsikv.wal import (
    CHUNK_SIZE,
    KIND_ABORT,
    KIND_COMMIT,
    KIND_TS_RESERVE,
    MAGIC,
    CorruptLogError,
    WalRecord,
    WriteAheadLog,
)
from wsikv.workload import BENCH_CSV_HEADER, CSV_HEADER

FIXTURES = Path(__file__).resolve().parent.parent / "histories"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_run_emits_csv(capsys):
    code = main(
        [
            "run",
            "--policy",
            "wsi",
            "--dist",
            "zipfian-latest",
            "--mix",
            "mixed",
            "--clients",
            "1",
            "--txns",
            "500",
            "--keys",
            "1000",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == CSV_HEADER
    assert len(out) == 2
    row = out[1].split(",")
    assert row[0] == "wsi" and row[1] == "zipfian-latest" and row[2] == "mixed"
    assert int(row[4]) + int(row[5]) == 500


def test_run_decision_columns_are_deterministic(capsys):
    argv = [
        "run",
        "--policy",
        "si",
        "--dist",
        "zipfian",
        "--mix",
        "mixed",
        "--clients",
        "1",
        "--txns",
        "800",
        "--keys",
        "500",
        "--seed",
        "21",
    ]
    main(argv)
    first = capsys.readouterr().out.strip().splitlines()[1].split(",")
    main(argv)
    second = capsys.readouterr().out.strip().splitlines()[1].split(",")
    # all decision-derived columns match; throughput is wall-clock and may not
    assert first[:8] == second[:8]


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["run", "--policy", "wsi", "--bogus", "1"])
    assert err.value.code == 2


def test_unknown_policy_exits_with_usage_error_naming_it(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--policy", "x"])
    assert err.value.code == 2
    assert "unknown isolation policy 'x'" in capsys.readouterr().err


def test_missing_verb_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_check_matches_golden_verdicts(capsys):
    code = main(["check", str(FIXTURES / "paper.txt")])
    out = capsys.readouterr().out
    golden = (FIXTURES / "paper_verdicts.txt").read_text()
    assert code == 0
    assert out == golden


def test_check_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_check_parse_error_names_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("r1[x] c1\nw2[x oops\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2:1:" in err


def test_replay_reports_decisions(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("r1[x] r2[x] w2[x] w1[x] c1 c2\n")
    assert main(["replay", "--policy", "si", str(path)]) == 0
    out = capsys.readouterr().out
    assert "txn1=committed(" in out
    assert "txn2=aborted" in out


def test_replay_into_a_closed_pipe_stops_quietly(tmp_path):
    # far more output than a pipe buffers, so writes go on after the reader leaves
    path = tmp_path / "h.txt"
    path.write_text("r1[x] r2[x] w2[x] w1[x] c1 c2\n" * 20_000)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wsikv", "replay", "--policy", "wsi", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"r1[x] r2[x]")
    proc.stdout.close()  # as `head -1` does after its line
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141  # 128 + SIGPIPE
    assert err == b""  # no error line and no traceback


def test_bench_oracle_zero_requests(capsys):
    code = main(
        ["bench-oracle", "--policy", "si", "--clients", "1", "--requests", "0", "--rows-per-txn", "3"]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out == [BENCH_CSV_HEADER]


def test_bench_oracle_rejects_zero_clients(capsys):
    code = main(["bench-oracle", "--policy", "wsi", "--clients", "0", "--requests", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "clients" in captured.err
    assert captured.out.strip().splitlines() == [BENCH_CSV_HEADER]  # no data row


@pytest.mark.parametrize(
    "sizes, name",
    [
        (["--rows-per-txn", "-1"], "rows_per_txn"),
        (["--keys", "0", "--rows-per-txn", "5"], "key_space"),
        # a later --requests wins; with nothing to run the sizes are still checked
        (["--requests", "0", "--rows-per-txn", "-1"], "rows_per_txn"),
        (["--requests", "0", "--keys", "0", "--rows-per-txn", "5"], "key_space"),
        (["--requests", "0", "--clients", "0", "--rows-per-txn", "-1"], "clients"),
        (["--requests", "-1"], "requests"),
    ],
)
def test_bench_oracle_rejects_nonsense_sizes(capsys, sizes, name):
    code = main(["bench-oracle", "--policy", "si", "--requests", "10", *sizes])
    captured = capsys.readouterr()
    assert code == 1
    assert name in captured.err
    assert captured.out.strip().splitlines() == [BENCH_CSV_HEADER]  # no data row


def test_bench_oracle_emits_row(capsys):
    code = main(
        [
            "bench-oracle",
            "--policy",
            "wsi",
            "--clients",
            "2",
            "--requests",
            "1000",
            "--rows-per-txn",
            "4",
            "--keys",
            "64",
        ]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == BENCH_CSV_HEADER
    assert out[1].startswith("wsi,2,")


def test_run_reports_a_failed_log_flush_raised_in_a_client(tmp_path, monkeypatch, capsys):
    calls = []
    sync = wal_module.os.fdatasync

    def failing_after_50(fd):
        calls.append(fd)
        if len(calls) > 50:
            raise OSError(errno.EIO, "injected sync failure")
        sync(fd)

    monkeypatch.setattr(wal_module.os, "fdatasync", failing_after_50)
    argv = ["run", "--policy", "wsi", "--clients", "2", "--txns", "2000", "--keys", "1000"]
    assert main([*argv, "--wal", str(tmp_path / "db.wal")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: wal flush failed: ")


@timestamp_blocks(10)
def test_recover_prints_rebuilt_state(tmp_path, capsys):
    wal = WriteAheadLog(tmp_path / "db.wal")
    db = Database(IsolationPolicy.WSI, wal=wal)
    for i in range(5):
        h = db.begin()
        h.write(b"row%d" % i, b"v")
        assert h.commit().committed
    db.close()
    assert main(["recover", str(tmp_path / "db.wal")]) == 0
    out = capsys.readouterr().out
    assert "commit_records=5" in out
    assert "reserved_up_to=" in out
    assert "aborted=" not in out


def recover_report(path, capsys, *options):
    assert main(["recover", *options, str(path)]) == 0
    return dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())


def append_batch(path, *records):
    """Append `records` to the log at `path` as one batch and close it;
    returns the file's size after."""
    wal = WriteAheadLog(path)
    for rec in records:
        ack = wal.append(rec)
    ack.wait()
    wal.close()
    return path.stat().st_size


def test_recover_reports_what_a_closed_log_holds(tmp_path, capsys):
    path = tmp_path / "db.wal"
    size = append_batch(
        path,
        WalRecord(KIND_TS_RESERVE, reserved_up_to=9),
        WalRecord(KIND_COMMIT, 1, 2, (b"a", b"b")),
        WalRecord(KIND_COMMIT, 3, 3, ()),  # a read-only commit, as older logs hold
        WalRecord(KIND_ABORT, 4),
        WalRecord(KIND_COMMIT, 5, 6, (b"a",)),
    )
    assert recover_report(path, capsys) == {
        "commit_records": "2",
        "tracked_rows": "2",
        "t_max": "0",
        "reserved_up_to": "9",
        "logged_commits": "2",
        "logged_reservations": "1",
        "skipped_records": "2",
        "intact_bytes": str(size),
        "file_bytes": str(size),
    }


def test_recover_with_a_capacity_reports_the_table_the_commits_built(tmp_path, capsys):
    # 60 commits over 40 rows, some wider than the table, overflow it many times
    rng = random.Random(5)
    records = [
        WalRecord(KIND_COMMIT, 2 * i - 1, 2 * i, tuple(sorted({b"r%02d" % rng.randrange(40) for _ in range(k)})))
        for i, k in enumerate(rng.choices((1, 3, 25), k=60), start=1)
    ]
    path = tmp_path / "db.wal"
    append_batch(path, *records)
    live = CommitTable(capacity=16)
    for rec in records:
        live.apply_commit(rec.start_ts, rec.commit_ts, rec.rows)
    report = recover_report(path, capsys, "--capacity", "16")
    assert live.t_max > 0
    assert (report["tracked_rows"], report["t_max"]) == ("16", str(live.t_max))


def test_recover_reports_a_torn_final_batch_it_dropped(tmp_path, capsys):
    path = tmp_path / "db.wal"
    intact = append_batch(path, WalRecord(KIND_COMMIT, 1, 2, (b"a",)))
    size = append_batch(path, WalRecord(KIND_COMMIT, 3, 4, (b"b",)))
    os.truncate(path, size - 3)
    report = recover_report(path, capsys)
    assert report["logged_commits"] == "1" and report["skipped_records"] == "0"
    assert (report["intact_bytes"], report["file_bytes"]) == (str(intact), str(size - 3))
    path.write_bytes(MAGIC + b"garbage")
    report = recover_report(path, capsys)
    assert report["logged_commits"] == report["logged_reservations"] == report["skipped_records"] == "0"
    assert (report["intact_bytes"], report["file_bytes"]) == (str(len(MAGIC)), str(len(MAGIC) + 7))


def test_recover_reports_the_zero_tail_of_a_log_never_closed(tmp_path, capsys):
    path, crashed = tmp_path / "db.wal", tmp_path / "crashed.wal"
    wal = WriteAheadLog(path)
    wal.append(WalRecord(KIND_COMMIT, 1, 2, (b"a",))).wait()
    shutil.copyfile(path, crashed)  # the file as a crash leaves it: preallocated, zero-filled past the batch
    wal.close()
    report = recover_report(crashed, capsys)
    assert report["logged_commits"] == "1"
    assert (report["intact_bytes"], report["file_bytes"]) == (str(path.stat().st_size), str(CHUNK_SIZE))


def test_recover_missing_file_fails(tmp_path, capsys):
    assert main(["recover", str(tmp_path / "nope.wal")]) == 1
    assert "error:" in capsys.readouterr().err


def test_recover_reads_an_empty_or_partly_created_log_as_empty(tmp_path, capsys):
    # the rule WriteAheadLog opens such files by: a new log, holding no record
    path = tmp_path / "db.wal"
    for content in (b"", b"WSIW"):
        path.write_bytes(content)
        assert main(["recover", str(path)]) == 0
        assert "commit_records=0" in capsys.readouterr().out
    path.write_bytes(b"WSIX")
    assert main(["recover", str(path)]) == 1
    assert "missing log magic" in capsys.readouterr().err
    assert main(["recover", str(tmp_path / "nope.wal")]) == 1
    assert "error:" in capsys.readouterr().err


def test_recover_refuses_a_version_1_log(tmp_path, capsys):
    payload = struct.pack("<BQ", 2, 1)  # an abort record in the version 1 framing
    content = b"WSIWAL01" + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    path = tmp_path / "old.wal"
    path.write_bytes(content)
    assert main(["recover", str(path)]) == 1
    assert "unsupported log version WSIWAL01" in capsys.readouterr().err
    with pytest.raises(CorruptLogError, match="unsupported log version"):
        WriteAheadLog(path)
    assert path.read_bytes() == content

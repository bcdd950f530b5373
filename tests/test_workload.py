import hashlib
import random
import time
from collections import Counter

import pytest

import wsikv.workload
from wsikv.oracle import IsolationPolicy, StatusOracle, recover
from wsikv.wal import KIND_ABORT, KIND_COMMIT, read_records
from wsikv.workload import (
    DISTRIBUTIONS,
    MIXES,
    BenchResult,
    WorkloadSpec,
    ZipfianKeys,
    ZipfianLatestKeys,
    bench_oracle,
    generate_txn,
    make_distribution,
    run,
)

SI, WSI = IsolationPolicy.SI, IsolationPolicy.WSI

# X^2 critical value at alpha=0.01 for 99 degrees of freedom
CHI2_99_CRIT_01 = 134.642


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(key_space=0)
    with pytest.raises(ValueError):
        WorkloadSpec(key_space=10, mix="weird")
    with pytest.raises(ValueError):
        WorkloadSpec(key_space=10, distribution="weird")
    with pytest.raises(ValueError):
        WorkloadSpec(key_space=10, client_count=0)


def test_mixed_workload_is_half_read_only():
    spec = WorkloadSpec(key_space=1000, mix="mixed", seed=4)
    rng = random.Random(spec.seed)
    dist = make_distribution(spec)
    long_scripts = with_write = 0
    for _ in range(100_000):
        script = generate_txn(spec, rng, dist)
        if len(script) >= 7:  # long complex scripts carry a write almost surely
            long_scripts += 1
            with_write += any(kind == "w" for kind, _ in script)
    assert long_scripts > 50_000
    assert abs(with_write / long_scripts - 0.5) < 0.01


def test_complex_workload_mixes_reads_and_writes_evenly():
    spec = WorkloadSpec(key_space=1000, mix="complex", seed=5)
    rng = random.Random(spec.seed)
    dist = make_distribution(spec)
    reads = writes = 0
    for _ in range(20_000):
        for kind, _ in generate_txn(spec, rng, dist):
            reads += kind == "r"
            writes += kind == "w"
    total = reads + writes
    assert abs(reads / total - 0.5) < 0.01


def test_txn_size_is_uniform_on_0_to_20():
    spec = WorkloadSpec(key_space=10, mix="complex", seed=6)
    rng = random.Random(spec.seed)
    dist = make_distribution(spec)
    sizes = [len(generate_txn(spec, rng, dist)) for _ in range(40_000)]
    assert min(sizes) == 0 and max(sizes) == 20
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 10.0) < 0.15


def test_empty_script_commits_as_read_only():
    spec = WorkloadSpec(key_space=10, mix="complex", txn_count=200, seed=7)
    metrics = run(spec, WSI)
    assert metrics.aborted == 0 or metrics.read_only_aborted == 0
    assert metrics.read_only_committed > 0  # n=0 scripts occur and commit


def test_uniform_rows_pass_chi_square():
    spec = WorkloadSpec(key_space=20_000_000, distribution="uniform", seed=8)
    rng = random.Random(spec.seed)
    dist = make_distribution(spec)
    buckets = [0] * 100
    draws = 100_000
    width = spec.key_space / 100
    for _ in range(draws):
        buckets[int(dist.next(rng) / width)] += 1
    expected = draws / 100
    chi2 = sum((c - expected) ** 2 / expected for c in buckets)
    assert chi2 < CHI2_99_CRIT_01


def test_zipfian_latest_concentrates_on_highest_ids():
    keys = 100_000
    dist = ZipfianLatestKeys(keys, 0.99)
    rng = random.Random(1)
    draws = [dist.next(rng) for _ in range(50_000)]
    assert sum(draws) / len(draws) > 0.8 * keys
    top_slice = sum(1 for d in draws if d >= keys - keys // 100)
    assert top_slice / len(draws) > 0.4


def _collision_mass(draws):
    counts = {}
    for d in draws:
        counts[d] = counts.get(d, 0) + 1
    n = len(draws)
    return sum(c * (c - 1) for c in counts.values()) / (n * (n - 1))


def test_contention_ordering_of_distributions():
    # pairwise collision probability drives conflict rates:
    # latest (sharp) > zipfian (scrambled, flatter) > uniform
    keys = 100_000
    rng = random.Random(2)
    uniform = [rng.randrange(keys) for _ in range(40_000)]
    zipf = ZipfianKeys(keys, 0.99)
    zipfian = [zipf.next(rng) for _ in range(40_000)]
    latest_dist = ZipfianLatestKeys(keys, 0.99)
    latest = [latest_dist.next(rng) for _ in range(40_000)]
    assert _collision_mass(latest) > 2 * _collision_mass(zipfian)
    assert _collision_mass(zipfian) > 2 * _collision_mass(uniform)


def test_single_client_runs_are_deterministic():
    spec = WorkloadSpec(
        key_space=50, mix="mixed", distribution="zipfian-latest", seed=3, txn_count=2000
    )
    a = run(spec, WSI)
    b = run(spec, WSI)
    assert (a.committed, a.aborted, a.pessimistic_aborts) == (
        b.committed,
        b.aborted,
        b.pessimistic_aborts,
    )
    assert (a.read_only_committed, a.read_only_aborted) == (
        b.read_only_committed,
        b.read_only_aborted,
    )


def test_generated_scripts_are_deterministic_per_seed():
    spec = WorkloadSpec(key_space=500, mix="mixed", distribution="zipfian", seed=11)
    rng_a, rng_b = random.Random(99), random.Random(99)
    dist_a, dist_b = make_distribution(spec), make_distribution(spec)
    for _ in range(200):
        assert generate_txn(spec, rng_a, dist_a) == generate_txn(spec, rng_b, dist_b)


# sha256 prefixes of 500 scripts per distribution and mix, key space 100 000,
# seed 1: the values the generator gave when they were pinned. A change to any
# of them changes every benchmark's inputs.
PINNED_SCRIPT_DIGESTS = {
    ("uniform", "complex"): "6d15dc0c391a8d97",
    ("uniform", "mixed"): "a95d10cde5148070",
    ("zipfian", "complex"): "5d35ce9070569fbd",
    ("zipfian", "mixed"): "3544c3663a4811ca",
    ("zipfian-latest", "complex"): "1923421bad9a2166",
    ("zipfian-latest", "mixed"): "99896aadaeac7203",
}


def test_generated_scripts_match_their_pinned_digests():
    digests = {}
    for distribution in DISTRIBUTIONS:
        for mix in MIXES:
            spec = WorkloadSpec(key_space=100_000, mix=mix, distribution=distribution, seed=1)
            rng, dist = random.Random(1), make_distribution(spec)
            h = hashlib.sha256()
            for _ in range(500):
                for kind, row in generate_txn(spec, rng, dist):
                    h.update(kind.encode() + row)
                h.update(b";")
            digests[distribution, mix] = h.hexdigest()[:16]
    assert digests == PINNED_SCRIPT_DIGESTS


def test_uniform_large_keyspace_abort_rate_is_negligible():
    for policy in (SI, WSI):
        spec = WorkloadSpec(
            key_space=100_000,
            mix="mixed",
            distribution="uniform",
            seed=19,
            txn_count=4000,
            client_count=4,
        )
        assert run(spec, policy).abort_rate < 0.005


def test_read_only_transactions_never_abort_in_concurrent_runs():
    for policy in (SI, WSI):
        spec = WorkloadSpec(
            key_space=200,
            mix="mixed",
            distribution="zipfian-latest",
            seed=13,
            txn_count=2000,
            client_count=4,
        )
        metrics = run(spec, policy)
        assert metrics.read_only_aborted == 0
        assert metrics.read_only_committed > 0
        assert metrics.committed + metrics.aborted == spec.txn_count


def test_run_with_wal_and_bounded_capacity(tmp_path):
    spec = WorkloadSpec(key_space=50, mix="complex", seed=17, txn_count=300)
    metrics = run(spec, WSI, wal_path=tmp_path / "run.wal", capacity=8)
    assert metrics.committed + metrics.aborted == 300
    table, _ = recover(tmp_path / "run.wal", capacity=8)
    assert len(table.commit_records) == metrics.committed


def test_second_run_on_a_log_continues_above_its_timestamps(tmp_path):
    path = tmp_path / "run.wal"
    spec = WorkloadSpec(key_space=50, mix="complex", seed=17, txn_count=300)
    first = run(spec, WSI, wal_path=path)
    second = run(spec, WSI, wal_path=path)
    decided = Counter(
        rec.start_ts for rec in read_records(path) if rec.kind in (KIND_COMMIT, KIND_ABORT)
    )
    assert sum(decided.values()) == 600
    assert max(decided.values()) == 1  # no start timestamp decided twice
    table, _ = recover(path)
    assert len(table.commit_records) == first.committed + second.committed


def test_bench_oracle_rejects_fewer_than_one_client():
    with pytest.raises(ValueError, match="clients"):
        bench_oracle(WSI, clients=0, requests=10, rows_per_txn=4)


def test_bench_oracle_rejects_negative_requests():
    with pytest.raises(ValueError, match="requests"):
        bench_oracle(WSI, clients=1, requests=-1, rows_per_txn=4)


def test_bench_oracle_rejects_negative_rows_per_txn():
    with pytest.raises(ValueError, match="rows_per_txn"):
        bench_oracle(WSI, clients=1, requests=10, rows_per_txn=-1)


def test_bench_oracle_rejects_an_empty_key_space():
    with pytest.raises(ValueError, match="key_space"):
        bench_oracle(WSI, clients=1, requests=10, rows_per_txn=5, key_space=0)


def test_bench_oracle_reports_decisions_and_latency():
    result = bench_oracle(WSI, clients=2, requests=2000, rows_per_txn=4, key_space=64, seed=5)
    assert result.committed + result.aborted == 2000
    assert result.decisions_per_sec > 0
    assert len(result.latencies) == 2000
    assert result.percentile(0.5) <= result.percentile(0.99) <= result.latencies[-1] * 1e6


def test_bench_percentiles_are_nearest_rank():
    result = BenchResult(WSI, 1, 100, 100, 0, 0, 1.0, [i * 1e-6 for i in range(1, 101)])
    assert [round(result.percentile(q)) for q in (0.0, 0.5, 0.99, 1.0)] == [1, 50, 99, 100]
    assert BenchResult(WSI, 1, 0, 0, 0, 0, 1.0, []).percentile(0.5) == 0.0


def test_preparation_before_ready_is_not_timed():
    def worker(idx, share, ready):
        if idx == 0:
            time.sleep(0.5)  # a slow preparation, such as building every request
        ready()
        return share

    results, wall = wsikv.workload._drive(2, 3, worker)
    assert results == [2, 1]
    assert wall < 0.25


class _YieldingOracle(StatusOracle):
    """Yields the interpreter after each start, widening the gap between a
    client's start-timestamp draw and its submit, where other clients'
    commits raise t_max past that start."""

    def start(self) -> int:
        ts = super().start()
        time.sleep(0)
        return ts


def test_bench_oracle_with_small_capacity_counts_pessimistic_aborts(monkeypatch):
    monkeypatch.setattr(wsikv.workload, "StatusOracle", _YieldingOracle)
    result = bench_oracle(
        WSI, clients=8, requests=4000, rows_per_txn=4, key_space=8, capacity=4, seed=6
    )
    assert result.pessimistic_aborts > 0

"""YCSB-style transactional workload generation and measurement.

Two transaction shapes: read-only (all reads) and complex (each operation a
read with probability READ_FRACTION = 0.5, else a write). A complex workload
is all complex transactions; a mixed workload is half read-only, half
complex. Every transaction touches n rows, n uniform on [0, OPS_PER_TXN_MAX],
drawn with replacement from the configured key distribution.

Key distributions follow the YCSB conventions, with ZIPF_CONSTANT = 0.99:
`uniform`; `zipfian`, a scrambled zipfian whose popular ranks are hashed
across the whole key space (drawn over a large virtual universe, which
spreads and flattens the skew); and `zipfian-latest`, a plain zipfian
concentrated on the highest row ids, standing in for the most recently
inserted rows, and so the sharpest and the most contended distribution.
"""

from __future__ import annotations

import math
import os
import random
import struct
import threading
import time
from dataclasses import dataclass

from .oracle import IsolationPolicy, StatusOracle
from .txn import Database
from .wal import WriteAheadLog

MIXES = ("complex", "mixed")
DISTRIBUTIONS = ("uniform", "zipfian", "zipfian-latest")
ZIPF_CONSTANT = 0.99
OPS_PER_TXN_MAX = 20  # rows a transaction touches, at most
READ_FRACTION = 0.5

CSV_HEADER = (
    "policy,distribution,mix,clients,committed,aborted,"
    "abort_rate,pessimistic_aborts,throughput"
)
BENCH_CSV_HEADER = "policy,clients,decisions_per_sec,p50_us,p99_us,pessimistic_aborts"

_ROW = struct.Struct("<q")


@dataclass(frozen=True)
class WorkloadSpec:
    key_space: int
    mix: str = "mixed"
    distribution: str = "uniform"
    seed: int = 0
    txn_count: int = 10_000
    client_count: int = 1

    def __post_init__(self):
        if self.key_space < 1:
            raise ValueError("key_space must be positive")
        if self.mix not in MIXES:
            raise ValueError(f"mix must be one of {MIXES}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.txn_count < 0 or self.client_count < 1:
            raise ValueError("txn_count must be >= 0 and client_count >= 1")


# -- key distributions ---------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_VIRTUAL_UNIVERSE = 10_000_000_000
_EXACT_ZETA_CUTOFF = 10_000
_zeta_cache: dict[tuple[int, float], float] = {}


def _fnv64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of a 64-bit integer."""
    h = _FNV_OFFSET
    for _ in range(8):
        h = ((h ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
        value >>= 8
    return h


def _zetan(n: int, theta: float) -> float:
    """Sum of 1/i**theta for i in 1..n; Euler-Maclaurin tail beyond a cutoff."""
    key = (n, theta)
    cached = _zeta_cache.get(key)
    if cached is not None:
        return cached
    m = min(n, _EXACT_ZETA_CUTOFF)
    total = math.fsum(i**-theta for i in range(1, m + 1))
    if n > m:
        s = theta
        total += (n ** (1 - s) - m ** (1 - s)) / (1 - s)
        total += (n**-s - m**-s) / 2.0
        total -= s * (n ** (-s - 1) - m ** (-s - 1)) / 12.0
    _zeta_cache[key] = total
    return total


class _Zipfian:
    """Rank generator over [0, n): rank 0 is the most popular item."""

    def __init__(self, n: int, theta: float):
        self.n = n
        self.theta = theta
        self.alpha = 1.0 / (1.0 - theta)
        self.zetan = _zetan(n, theta)
        self.zeta2 = 1.0 + 0.5**theta
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self.zeta2 / self.zetan)

    def next(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return min(self.n - 1, int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha))


class UniformKeys:
    def __init__(self, key_space: int):
        self.key_space = key_space

    def next(self, rng: random.Random) -> int:
        return rng.randrange(self.key_space)


class ZipfianKeys:
    """Scrambled zipfian: popular ranks of a large virtual universe hashed
    onto the key space."""

    def __init__(self, key_space: int, theta: float):
        self.key_space = key_space
        self._ranks = _Zipfian(max(_VIRTUAL_UNIVERSE, key_space), theta)

    def next(self, rng: random.Random) -> int:
        return _fnv64(self._ranks.next(rng)) % self.key_space


class ZipfianLatestKeys:
    """Plain zipfian with popularity concentrated on the highest row ids."""

    def __init__(self, key_space: int, theta: float):
        self.key_space = key_space
        self._ranks = _Zipfian(key_space, theta)

    def next(self, rng: random.Random) -> int:
        return self.key_space - 1 - self._ranks.next(rng)


def make_distribution(spec: WorkloadSpec):
    if spec.distribution == "uniform":
        return UniformKeys(spec.key_space)
    if spec.distribution == "zipfian":
        return ZipfianKeys(spec.key_space, ZIPF_CONSTANT)
    return ZipfianLatestKeys(spec.key_space, ZIPF_CONSTANT)


def generate_txn(spec: WorkloadSpec, rng: random.Random, dist) -> list[tuple[str, bytes]]:
    """One transaction script: ("r"|"w", row-id bytes) pairs in execution
    order, with rows drawn from `dist`, the spec's `make_distribution`."""
    n = rng.randint(0, OPS_PER_TXN_MAX)
    read_only = spec.mix == "mixed" and rng.random() < 0.5
    ops = []
    for _ in range(n):
        row = _ROW.pack(dist.next(rng))
        if read_only or rng.random() < READ_FRACTION:
            ops.append(("r", row))
        else:
            ops.append(("w", row))
    return ops


# -- metrics --------------------------------------------------------------------


@dataclass
class RunMetrics:
    committed: int = 0
    aborted: int = 0
    pessimistic_aborts: int = 0
    read_only_committed: int = 0
    read_only_aborted: int = 0
    wall_seconds: float = 0.0

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0

    @property
    def throughput(self) -> float:
        return self.committed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def csv_row(self, spec: WorkloadSpec, policy: IsolationPolicy) -> str:
        return (
            f"{policy.value},{spec.distribution},{spec.mix},{spec.client_count},"
            f"{self.committed},{self.aborted},{self.abort_rate:.6f},"
            f"{self.pessimistic_aborts},{self.throughput:.1f}"
        )


# -- execution --------------------------------------------------------------------

GC_EVERY = 2000  # client 0 compacts the store after every GC_EVERY transactions


def _drive(clients: int, total: int, worker) -> tuple[list, float]:
    """Split `total` operations across `clients` threads and run them together.

    Each thread pins itself to the highest CPU of the caller's affinity, where
    the platform can pin threads, and leaves the caller's own as it is. The GIL
    runs one client at a time, so one CPU costs no parallelism, while cross-CPU
    hand-offs would make the rates follow how the host schedules its CPUs.
    Then each thread calls worker(idx, share, ready): the worker prepares, calls
    ready() to wait for the others and then does its `share` of the work.
    The wall clock starts when the last worker is ready and stops when the
    last thread has joined, so preparation is not timed. Returns (per-client
    worker results, wall seconds); the first exception a pin or worker raised is
    raised instead, once every thread has joined.
    """
    pin = getattr(os, "sched_setaffinity", None)
    cpu = {max(os.sched_getaffinity(0))} if pin else None
    shares = [total // clients + (1 if i < total % clients else 0) for i in range(clients)]
    results = [None] * clients
    errors = []
    started = []
    barrier = threading.Barrier(clients, action=lambda: started.append(time.perf_counter()))

    def body(idx: int) -> None:
        try:
            if pin:
                pin(0, cpu)
            results[idx] = worker(idx, shares[idx], barrier.wait)
        except Exception as exc:
            errors.append(exc)
            barrier.abort()  # a worker still waiting in ready() must not wait forever

    threads = [threading.Thread(target=body, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results, time.perf_counter() - started[0]


def run(
    spec: WorkloadSpec,
    policy: IsolationPolicy,
    *,
    wal_path=None,
    capacity: int | None = None,
) -> RunMetrics:
    """Execute txn_count scripts on client_count clients that share one CPU (see `_drive`).

    Aborts are terminal for their script; nothing is retried. Opening an
    existing log recovers it, so its timestamps are not decided again.
    """
    wal = WriteAheadLog(wal_path) if wal_path else None
    db = Database(policy, capacity=capacity, wal=wal)

    def worker(idx: int, share: int, ready) -> RunMetrics:
        rng = random.Random(spec.seed * 1_000_003 + idx)
        dist = make_distribution(spec)
        m = RunMetrics()
        value = _ROW.pack(idx)
        ready()
        for i in range(share):
            script = generate_txn(spec, rng, dist)
            read_only = all(kind == "r" for kind, _ in script)
            h = db.begin()
            for kind, row in script:
                if kind == "r":
                    h.read(row)
                else:
                    h.write(row, value)
                # interleave clients per operation, as separate processes would;
                # else one thread runs ~100 transactions per 5 ms interpreter slice.
                # A bare yield: time.sleep(0) also waits out the kernel's timer slack
                os.sched_yield()
            if h.commit().committed:
                m.committed += 1
                m.read_only_committed += read_only
            else:
                m.aborted += 1
                m.read_only_aborted += read_only
            if idx == 0 and (i + 1) % GC_EVERY == 0:
                db.gc()
        return m

    try:
        results, wall = _drive(spec.client_count, spec.txn_count, worker)
    finally:
        db.close()  # after a log failure this raises the log's error again
    metrics = RunMetrics(wall_seconds=wall, pessimistic_aborts=db.oracle.pessimistic_aborts)
    for m in results:
        metrics.committed += m.committed
        metrics.aborted += m.aborted
        metrics.read_only_committed += m.read_only_committed
        metrics.read_only_aborted += m.read_only_aborted
    return metrics


@dataclass
class BenchResult:
    policy: IsolationPolicy
    clients: int
    requests: int
    committed: int
    aborted: int
    pessimistic_aborts: int
    wall_seconds: float
    latencies: list[float]  # seconds per decision, ascending

    @property
    def decisions_per_sec(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank q-quantile of the decision latencies, in microseconds."""
        if not self.latencies:
            return 0.0
        rank = max(1, math.ceil(q * len(self.latencies)))
        return self.latencies[rank - 1] * 1e6

    def csv_row(self) -> str:
        return (
            f"{self.policy.value},{self.clients},{self.decisions_per_sec:.0f},"
            f"{self.percentile(0.50):.0f},{self.percentile(0.99):.0f},"
            f"{self.pessimistic_aborts}"
        )


def bench_oracle(
    policy: IsolationPolicy,
    clients: int,
    requests: int,
    rows_per_txn: int,
    *,
    key_space: int = 10_000,
    capacity: int | None = None,
    seed: int = 0,
) -> BenchResult:
    """Drive the status oracle, built as a database builds it, directly with
    synthetic commit requests; each commit installs its writes in its store,
    as a database commit does. The clients share one CPU, as `_drive` explains."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if requests < 0:
        raise ValueError("requests must be >= 0")
    if rows_per_txn < 0:
        raise ValueError("rows_per_txn must be >= 0")
    if key_space < 1:
        raise ValueError("key_space must be >= 1")
    oracle = StatusOracle(policy, capacity=capacity)

    def worker(idx: int, share: int, ready) -> tuple[int, list[float]]:
        rng = random.Random(seed * 7_654_321 + idx)
        value = _ROW.pack(idx)  # a write names its client, as run()'s do
        scripts = [
            (
                {_ROW.pack(rng.randrange(key_space)): value for _ in range(rows_per_txn)},
                frozenset(_ROW.pack(rng.randrange(key_space)) for _ in range(rows_per_txn)),
            )
            for _ in range(share)
        ]
        clock = time.perf_counter
        latencies = []
        committed = 0
        ready()
        for writes, read_set in scripts:
            start = oracle.start()
            t0 = clock()
            committed += oracle.submit(start, writes, read_set).committed
            latencies.append(clock() - t0)
        return committed, latencies

    results, wall = _drive(clients, requests, worker)
    committed = sum(c for c, _ in results)
    return BenchResult(
        policy=policy,
        clients=clients,
        requests=requests,
        committed=committed,
        aborted=requests - committed,
        pessimistic_aborts=oracle.pessimistic_aborts,
        wall_seconds=wall,
        latencies=sorted(t for _, lat in results for t in lat),
    )

#!/usr/bin/env python3
"""Sweep both isolation policies across key distributions and seeds.

Emits one CSV row per run so abort-rate vs distribution/policy curves can be
plotted externally:

    python3 scripts/contention_sweep.py --txns 50000 --clients 8 --seeds 5
"""

import argparse
import sys

from wsikv.oracle import IsolationPolicy
from wsikv.workload import CSV_HEADER, DISTRIBUTIONS, MIXES, WorkloadSpec, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keys", type=int, default=100_000)
    parser.add_argument("--txns", type=int, default=50_000)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--mix", choices=MIXES, default="mixed")
    args = parser.parse_args()

    print(CSV_HEADER + ",seed")
    for dist in DISTRIBUTIONS:
        for policy in (IsolationPolicy.SI, IsolationPolicy.WSI):
            for seed in range(1, args.seeds + 1):
                spec = WorkloadSpec(
                    key_space=args.keys,
                    mix=args.mix,
                    distribution=dist,
                    seed=seed,
                    txn_count=args.txns,
                    client_count=args.clients,
                )
                metrics = run(spec, policy)
                print(f"{metrics.csv_row(spec, policy)},{seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

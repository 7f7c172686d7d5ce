"""Run every table/figure job on one shared SparkSession.

Produces all parquet outputs under ``results/`` and prints each job's
headline tables (its ``PRINT_KEYS``) — the single command behind
EXPERIMENTS.md:

    python jobs/run_all.py
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import make_session, save_and_print

import graph_stats
import table4_distgnn_amortization
import table5_distdgl_amortization

JOBS = [
    ("graph_stats", graph_stats),
    ("table4_distgnn", table4_distgnn_amortization),
    ("table5_distdgl", table5_distdgl_amortization),
]


def main() -> None:
    spark = make_session("run_all")
    for name, job in JOBS:
        t0 = time.time()
        print(f"\n######## {name} ########", flush=True)
        save_and_print(name, job.run(spark), print_keys=job.PRINT_KEYS)
        print(f"[{name}] done in {time.time() - t0:.1f}s", file=sys.stderr, flush=True)
    spark.stop()


if __name__ == "__main__":
    main()

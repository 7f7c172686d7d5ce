"""Run every table/figure job on one shared SparkSession.

Produces all parquet outputs under ``results/`` and prints every headline
table — the single command behind EXPERIMENTS.md:

    python jobs/run_all.py
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import make_session, save_and_print

import fig12_edge_cut
import fig24_scaleout
import fig26_batch_size
import graph_stats
import table4_distgnn_amortization
import table5_distdgl_amortization

JOBS = [
    ("graph_stats", graph_stats.run, True),
    ("table4_distgnn", table4_distgnn_amortization.run, False),
    ("fig12_edge_cut", fig12_edge_cut.run, True),
    ("table5_distdgl", table5_distdgl_amortization.run, True),
    ("fig24_scaleout", fig24_scaleout.run, True),
    ("fig26_batch_size", fig26_batch_size.run, True),
]


def main() -> None:
    spark = make_session("run_all")
    for name, fn, needs_spark in JOBS:
        t0 = time.time()
        print(f"\n######## {name} ########", flush=True)
        out = fn(spark) if needs_spark else fn()
        save_and_print(name, out)
        print(f"[{name}] done in {time.time() - t0:.1f}s", file=sys.stderr, flush=True)
    spark.stop()


if __name__ == "__main__":
    main()

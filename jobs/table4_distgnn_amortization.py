"""Table 4 + Figures 2/4/5/6/7/9/10/11 series: the full DistGNN track.

Runs the DistGNN suite over all five graphs, all six edge partitioners,
4-32 machines and the full Table 3 hyper-parameter grid, then emits:

* ``table4`` — average epochs until partitioning amortizes (paper Table 4);
* ``fig7_speedups`` — mean speedup vs Random per (graph, partitioner, k);
* ``fig9_mem`` — memory in % of Random per (graph, partitioner, k);
* ``fig11_rf_pct`` — replication factor in % of Random per scale-out factor;
* ``oom`` — share of configs out-of-memory per (graph, partitioner)
  (the paper's "DI cannot train under Random" observation);
* ``fig2_quality``, ``fig2_rf``, ``fig4_vb`` — see :func:`fig2_tables`;
* ``suite`` — every raw row.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import save_and_print
from repro.exp import tables
from repro.exp.harness import run_distgnn_suite

EDGE_ROSTER = ["DBH", "2PS-L", "HDRF", "HEP10", "HEP100"]

#: Figures 2/4/5/6: one representative config at the smallest and largest k.
FIG2_ROWS = "feature == 512 and hidden == 64 and layers == 3 and k in (4, 32)"
QUALITY_COLUMNS = [
    "graph", "partitioner", "k", "replication_factor", "vertex_balance",
    "edge_balance", "mem_balance", "partition_seconds", "partition_seconds_norm",
]
PRINT_KEYS = (
    "table4", "fig2_rf", "fig4_vb", "fig7_speedups", "fig9_mem", "fig11_rf_pct", "oom"
)


def fig2_tables(suite: pd.DataFrame) -> dict[str, pd.DataFrame]:
    """Figures 2/4/5/6 series: edge-partitioner quality and partitioning time.

    One row per (graph, edge partitioner, k) of the suite rows selected by
    ``FIG2_ROWS``: replication factor (Fig 2), vertex balance (Fig 4), edge
    balance, memory balance at that config (Fig 5), and measured +
    normalized partitioning time (Fig 6).
    """
    quality = (
        suite.query(FIG2_ROWS)
        .rename(columns={"rf": "replication_factor"})[QUALITY_COLUMNS]
        .reset_index(drop=True)
    )
    index = ["graph", "partitioner"]
    return {
        "fig2_quality": quality,
        "fig2_rf": tables.pivot(quality, index, "k", "replication_factor", 2),
        "fig4_vb": tables.pivot(quality, index, "k", "vertex_balance", 2),
    }


def run(spark=None, *, scale: float = 1e-3, seed: int = 0) -> dict[str, pd.DataFrame]:
    suite = run_distgnn_suite(scale=scale, seed=seed)
    # Paper Table 4 covers the four graphs that train under Random (DI OOMs).
    t4 = tables.amortization_table(suite[suite["graph"] != "DI"], partitioners=EDGE_ROSTER)
    others = suite[suite["partitioner"] != "Random"]
    index = ["graph", "partitioner"]
    return {
        "suite": suite,
        "table4": t4,
        "fig7_speedups": tables.pivot(others, index, "k", "speedup", 2),
        "fig9_mem": tables.pivot(others, index, "k", "mem_pct_of_random", 1),
        "fig11_rf_pct": tables.pivot(others, ["partitioner"], "k", "rf_pct_of_random", 2),
        "oom": tables.pivot(suite, ["graph"], "partitioner", "oom", 2),
        **fig2_tables(suite),
    }


if __name__ == "__main__":
    save_and_print("table4_distgnn", run(), print_keys=PRINT_KEYS)

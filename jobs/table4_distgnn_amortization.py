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

    def by_k(col: str) -> pd.DataFrame:
        return (
            quality.pivot_table(index=["graph", "partitioner"], columns="k", values=col)
            .round(2)
            .reset_index()
        )

    return {
        "fig2_quality": quality,
        "fig2_rf": by_k("replication_factor"),
        "fig4_vb": by_k("vertex_balance"),
    }


def run(spark=None, *, scale: float = 1e-3, seed: int = 0) -> dict[str, pd.DataFrame]:
    suite = run_distgnn_suite(scale=scale, seed=seed)
    # Paper Table 4 covers the four graphs that train under Random (DI OOMs).
    t4 = tables.amortization_table(
        suite[suite["graph"] != "DI"], partitioners=EDGE_ROSTER
    )
    speedups = tables.mean_speedups(suite).pivot_table(
        index=["graph", "partitioner"], columns="k", values="mean"
    ).round(2)
    mem = (
        tables.mean_metric_pct(suite, "mem_pct_of_random")
        .pivot_table(index=["graph", "partitioner"], columns="k", values="mem_pct_of_random")
        .round(1)
    )
    rf_pct = (
        suite[suite["partitioner"] != "Random"]
        .groupby(["partitioner", "k"])["rf_pct_of_random"]
        .mean()
        .unstack()
        .round(2)
    )
    oom = suite.groupby(["graph", "partitioner"])["oom"].mean().unstack().round(2)
    return {
        "suite": suite,
        "table4": t4.map(lambda v: float("nan") if v is None else v),
        "fig7_speedups": speedups.reset_index(),
        "fig9_mem": mem.reset_index(),
        "fig11_rf_pct": rf_pct.reset_index(),
        "oom": oom.reset_index(),
        **fig2_tables(suite),
    }


if __name__ == "__main__":
    save_and_print("table4_distgnn", run(), print_keys=PRINT_KEYS)

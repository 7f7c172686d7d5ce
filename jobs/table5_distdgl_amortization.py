"""Table 5 + Figures 12/13/15/16/19/24/26: the DistDGL track.

Runs every vertex partition of the paper's DistDGL tables once, in four
``run_distdgl_suite`` calls that share no (graph, partitioner, k) cell:

* k=8, all five graphs and six vertex partitioners, GraphSage, global batch
  64, the full feature/hidden/layers grid (Table 5);
* k ∈ {4, 32}, all five graphs, f=512, h=64, L=3 (Figures 12/13/15, and
  the k=4/32 points of Figure 24);
* k=16 on DI/EU at f=512, h=64, L=3 (Figure 24);
* k=16 on OR over Figure 26's grid: f ∈ {64, 512}, h=64, L=3, GraphSage
  and GAT, global batch sizes ``BATCHES`` (Figure 26, and Figure 24's OR
  k=16 point).

Every row is backed by a really-executed sampling epoch (on the driver) and
its partition run's Spark SQL quality query. The job then emits:

* ``table5`` — average epochs until partitioning amortizes (paper Table 5);
* ``fig16_speedups`` — mean/min/max speedup vs Random per (graph, partitioner);
* ``phase_shares`` — sampling / fetch / forward shares at f=512, h=64, L=3
  (paper Figure 19's crossover);
* ``fig12_quality``, ``fig12_cut``, ``fig15_time`` — see :func:`fig12_tables`;
* ``fig24_suite``, ``fig24a_speedup``, ``fig24b_remote_pct``,
  ``fig24c_cut_pct`` — see :func:`fig24_tables`;
* ``fig26_suite``, ``fig26a_speedup``, ``fig26b_net_pct``,
  ``fig26c_remote_pct`` — see :func:`fig26_tables`;
* ``suite`` — every raw row of the k=8 suite.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import make_session, save_and_print
from repro.exp import tables
from repro.exp.harness import DEFAULT_GLOBAL_BATCH, run_distdgl_suite

VERTEX_ROSTER = ["ByteGNN", "KaHIP", "LDG", "Spinner", "Metis"]

#: The one configuration of the Figure 12/13/15 and Figure 24 cells.
FIG_CONFIG = dict(features=(512,), hiddens=(64,), layer_counts=(3,))

#: Figure 24: GraphSage f=512, h=64, L=3 on a road graph and two skewed
#: graphs, one row per (graph, partitioner, k).
FIG24_GRAPHS = ("DI", "EU", "OR")
FIG24_ROWS = (
    f"graph in {FIG24_GRAPHS} and feature == 512 and hidden == 64 and layers == 3"
    f" and kind == 'sage' and global_batch == {DEFAULT_GLOBAL_BATCH}"
)
FIG12_COLUMNS = [
    "graph", "partitioner", "k", "edge_cut", "vertex_balance",
    "train_vertex_balance", "partition_seconds", "partition_seconds_norm",
]

#: Figure 26: the paper's batch sizes 512..32768 are ~0.2-10% of OR's
#: training set; 16..256 covers the same relative range at our scale.
BATCHES = (16, 32, 64, 128, 256)

PRINT_KEYS = (
    "table5", "fig16_speedups", "fig12_cut", "fig15_time", "fig24a_speedup",
    "fig24b_remote_pct", "fig24c_cut_pct", "fig26a_speedup", "fig26b_net_pct",
    "fig26c_remote_pct",
)


def _pivot(rows: pd.DataFrame, index: list[str], columns: str, values: str, digits: int):
    return (
        rows.pivot_table(index=index, columns=columns, values=values)
        .round(digits)
        .reset_index()
    )


def fig12_tables(suite: pd.DataFrame) -> dict[str, pd.DataFrame]:
    """Figures 12/13/15: vertex-partitioner quality and time.

    One ``fig12_quality`` row per (graph, partitioner, k) of ``suite``: the
    Spark SQL edge-cut ratio (Figure 12), vertex and training-vertex balance
    (Figure 13) and partitioning time (Figure 15, log scale in the paper),
    pivoted over k as ``fig12_cut`` and ``fig15_time``.
    """
    q = suite.drop_duplicates(["graph", "partitioner", "k"])[FIG12_COLUMNS].reset_index(drop=True)
    return {
        "fig12_quality": q,
        "fig12_cut": _pivot(q, ["graph", "partitioner"], "k", "edge_cut", 4),
        "fig15_time": _pivot(q, ["graph", "partitioner"], "k", "partition_seconds_norm", 3),
    }


def fig24_tables(*suites: pd.DataFrame) -> dict[str, pd.DataFrame]:
    """Figure 24 series: DistDGL partitioner effectiveness vs scale-out factor.

    Concatenates the ``FIG24_ROWS`` of ``suites`` (the k=8 Table 5 suite and
    the other worker counts) and pivots speedup, remote vertices and
    edge-cut in % of Random per (graph, partitioner) over k. The paper finds
    the effectiveness *increases* with scale-out on DI but slightly
    *decreases* on the skewed graphs.
    """
    suite = pd.concat([s.query(FIG24_ROWS) for s in suites]).sort_values(
        ["graph", "k"], kind="stable", ignore_index=True
    )
    sel = suite[suite["partitioner"] != "Random"]
    index = ["graph", "partitioner"]
    return {
        "fig24_suite": suite,
        "fig24a_speedup": _pivot(sel, index, "k", "speedup", 3),
        "fig24b_remote_pct": _pivot(sel, index, "k", "remote_pct_of_random", 1),
        "fig24c_cut_pct": _pivot(sel, index, "k", "cut_pct_of_random", 1),
    }


def fig26_tables(suite: pd.DataFrame) -> dict[str, pd.DataFrame]:
    """Figure 26 series: influence of the mini-batch size (16 workers, OR).

    Pivots speedup, network traffic and remote vertices in % of Random per
    (kind, partitioner) over the global batch size, at feature 512 (the
    high-communication regime). The paper finds traffic and remote vertices
    in % of Random *drop* as batches grow (overlap inside bigger batches),
    and the speedup *rises* with batch size.
    """
    sel = suite[(suite["partitioner"] != "Random") & (suite["feature"] == 512)]
    index = ["kind", "partitioner"]
    return {
        "fig26_suite": suite,
        "fig26a_speedup": _pivot(sel, index, "global_batch", "speedup", 3),
        "fig26b_net_pct": _pivot(sel, index, "global_batch", "net_pct_of_random", 1),
        "fig26c_remote_pct": _pivot(sel, index, "global_batch", "remote_pct_of_random", 1),
    }


def run(spark, *, scale: float = 1e-3, seed: int = 0) -> dict[str, pd.DataFrame]:
    suite = run_distdgl_suite(spark, ks=(8,), scale=scale, seed=seed)
    fig12 = run_distdgl_suite(spark, ks=(4, 32), **FIG_CONFIG, scale=scale, seed=seed)
    k16 = run_distdgl_suite(
        spark, graphs=("DI", "EU"), ks=(16,), **FIG_CONFIG, scale=scale, seed=seed
    )
    # Each OR partition serves every batch size; GraphSage and GAT rows of
    # one batch size share its sampled epoch (the kind changes only flops).
    fig26 = run_distdgl_suite(
        spark, graphs=("OR",), ks=(16,), features=(64, 512), hiddens=(64,),
        layer_counts=(3,), kinds=("sage", "gat"), global_batch=BATCHES,
        scale=scale, seed=seed,
    )
    t5 = tables.amortization_table(suite, partitioners=VERTEX_ROSTER)
    speedups = (
        tables.mean_speedups(suite, by=("graph", "partitioner"))
        .round(3)
    )
    rep = suite[(suite["feature"] == 512) & (suite["hidden"] == 64) & (suite["layers"] == 3)]
    phases = rep[
        ["graph", "partitioner", "t_sampling", "t_fetch", "t_forward", "t_backward",
         "epoch_seconds", "edge_cut", "remote_inputs", "input_vertex_balance"]
    ].reset_index(drop=True)
    return {
        "suite": suite,
        "table5": t5.map(lambda v: float("nan") if v is None else v),
        "fig16_speedups": speedups,
        "phase_shares": phases,
        **fig12_tables(fig12),
        **fig24_tables(suite, fig12, k16, fig26),
        **fig26_tables(fig26),
    }


if __name__ == "__main__":
    spark = make_session("table5_distdgl")
    save_and_print("table5_distdgl", run(spark), print_keys=PRINT_KEYS)
    spark.stop()

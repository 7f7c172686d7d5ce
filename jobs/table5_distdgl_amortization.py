"""Table 5 + Figures 12/13/15/16/19/24/26: the DistDGL track.

Runs every vertex partition of the paper's DistDGL tables once. Each graph
is loaded once and handed to ``harness.distdgl_cells`` with its
:func:`plan`: the sampling grid each k's rows read, or ``None`` for a
cell that is measured but not sampled:

* k=8, all five graphs: the full feature/hidden/layers grid, GraphSage,
  global batch 64 (Table 5);
* k ∈ {4, 32}, all five graphs: quality and time only (Figures 12/13/15),
  and on ``FIG24_GRAPHS`` f=512, h=64, L=3 (the k=4/32 points of Figure 24);
* k=16 on DI/EU at f=512, h=64, L=3 (Figure 24);
* k=16 on OR over Figure 26's grid: f ∈ {64, 512}, h=64, L=3, GraphSage
  and GAT, global batch sizes ``BATCHES`` (Figure 26, and Figure 24's OR
  k=16 point).

Every partition run's quality comes from one stacked Spark SQL query per
(graph, k), over all of its partitioners' runs, and every suite row is
backed by a really-executed sampling epoch (on the driver). The job then
emits:

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
from repro.exp.harness import (
    DEFAULT_GLOBAL_BATCH,
    FEATURE_SIZES,
    HIDDEN_DIMS,
    NUM_LAYERS,
    distdgl_cells,
    load_bundle,
)
from repro.graphs.datasets import GRAPHS
from repro.partitioning.registry import VERTEX_PARTITIONERS

VERTEX_ROSTER = ["ByteGNN", "KaHIP", "LDG", "Spinner", "Metis"]
#: Every vertex partitioner runs on every cell; Random is the baseline.
PARTITIONERS = tuple(VERTEX_PARTITIONERS)

#: Table 5: GraphSage at global batch 64 over the full Table 3 grid.
TABLE5_GRID = dict(
    features=FEATURE_SIZES, hiddens=HIDDEN_DIMS, layer_counts=NUM_LAYERS,
    kinds=("sage",), global_batch=DEFAULT_GLOBAL_BATCH,
)

#: The one configuration of the Figure 24 cells.
FIG_CONFIG = dict(TABLE5_GRID, features=(512,), hiddens=(64,), layer_counts=(3,))

#: The cluster sizes whose quality and time Figures 12/13/15 show.
FIG12_KS = (4, 32)

#: Figure 24: GraphSage f=512, h=64, L=3 on a road graph and two skewed
#: graphs, one row per (graph, partitioner, k).
FIG24_GRAPHS = ("DI", "EU", "OR")
FIG24_ROWS = (
    f"graph in {FIG24_GRAPHS} and feature == 512 and hidden == 64 and layers == 3"
    f" and kind == 'sage' and global_batch == {DEFAULT_GLOBAL_BATCH}"
)

#: Figure 26: the paper's batch sizes 512..32768 are ~0.2-10% of OR's
#: training set; 16..256 covers the same relative range at our scale.
BATCHES = (16, 32, 64, 128, 256)
#: Each OR partition serves every batch size; GraphSage and GAT rows of one
#: batch size share its sampled epoch (the kind changes only flops).
FIG26_GRID = dict(
    features=(64, 512), hiddens=(64,), layer_counts=(3,), kinds=("sage", "gat"),
    global_batch=BATCHES,
)

PRINT_KEYS = (
    "table5", "fig16_speedups", "fig12_cut", "fig15_time", "fig24a_speedup",
    "fig24b_remote_pct", "fig24c_cut_pct", "fig26a_speedup", "fig26b_net_pct",
    "fig26c_remote_pct",
)


def fig12_tables(q: pd.DataFrame) -> dict[str, pd.DataFrame]:
    """Figures 12/13/15: vertex-partitioner quality and time.

    ``q`` is ``distdgl_cells``' quality rows at ``FIG12_KS``, one per
    (graph, partitioner, k): the Spark SQL edge-cut ratio (Figure 12),
    vertex and training-vertex balance (Figure 13) and partitioning time
    (Figure 15, log scale in the paper). They are ``fig12_quality``,
    pivoted over k as ``fig12_cut`` and ``fig15_time``.
    """
    return {
        "fig12_quality": q,
        "fig12_cut": tables.pivot(q, ["graph", "partitioner"], "k", "edge_cut", 4),
        "fig15_time": tables.pivot(q, ["graph", "partitioner"], "k", "partition_seconds_norm", 3),
    }


def fig24_tables(rows: pd.DataFrame) -> dict[str, pd.DataFrame]:
    """Figure 24 series: DistDGL partitioner effectiveness vs scale-out factor.

    Selects the ``FIG24_ROWS`` of the job's suite ``rows`` (at k=8 they are
    Table 5 rows; at OR k=16, Figure 26 rows) and pivots speedup, remote
    vertices and edge-cut in % of Random per (graph, partitioner) over k.
    The paper finds the effectiveness *increases* with scale-out on DI but
    slightly *decreases* on the skewed graphs.
    """
    suite = rows.query(FIG24_ROWS).sort_values(
        ["graph", "k"], kind="stable", ignore_index=True
    )
    sel = suite[suite["partitioner"] != "Random"]
    index = ["graph", "partitioner"]
    return {
        "fig24_suite": suite,
        "fig24a_speedup": tables.pivot(sel, index, "k", "speedup", 3),
        "fig24b_remote_pct": tables.pivot(sel, index, "k", "remote_pct_of_random", 1),
        "fig24c_cut_pct": tables.pivot(sel, index, "k", "cut_pct_of_random", 1),
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
        "fig26a_speedup": tables.pivot(sel, index, "global_batch", "speedup", 3),
        "fig26b_net_pct": tables.pivot(sel, index, "global_batch", "net_pct_of_random", 1),
        "fig26c_remote_pct": tables.pivot(sel, index, "global_batch", "remote_pct_of_random", 1),
    }


def plan(graph: str) -> dict[int, dict | None]:
    """The sampling grid each k of ``graph`` reads, or ``None`` if no table
    reads an epoch of that k's cells (see the module docstring)."""
    fig24 = FIG_CONFIG if graph in FIG24_GRAPHS else None
    cells = {4: fig24, 8: TABLE5_GRID, 32: fig24}
    if graph in FIG24_GRAPHS:
        cells[16] = FIG26_GRID if graph == "OR" else FIG_CONFIG
    return dict(sorted(cells.items()))


def run(spark, *, scale: float = 1e-3, seed: int = 0) -> dict[str, pd.DataFrame]:
    per_graph = [
        distdgl_cells(
            spark, load_bundle(g, scale=scale, seed=seed),
            partitioners=PARTITIONERS, grids=plan(g), seed=seed,
        )
        for g in GRAPHS
    ]
    cells = pd.concat([c for c, _ in per_graph], ignore_index=True)
    rows = pd.concat([r for _, r in per_graph], ignore_index=True)
    suite = rows[rows["k"] == 8].reset_index(drop=True)
    fig26 = rows.query("graph == 'OR' and k == 16").reset_index(drop=True)
    speedups = (
        suite[suite["partitioner"] != "Random"]
        .groupby(["graph", "partitioner"])["speedup"]
        .agg(["mean", "min", "max"])
        .reset_index()
        .round(3)
    )
    rep = suite[(suite["feature"] == 512) & (suite["hidden"] == 64) & (suite["layers"] == 3)]
    phases = rep[
        ["graph", "partitioner", "t_sampling", "t_fetch", "t_forward", "t_backward",
         "epoch_seconds", "edge_cut", "remote_inputs", "input_vertex_balance"]
    ].reset_index(drop=True)
    return {
        "suite": suite,
        "table5": tables.amortization_table(suite, partitioners=VERTEX_ROSTER),
        "fig16_speedups": speedups,
        "phase_shares": phases,
        **fig12_tables(cells[cells["k"].isin(FIG12_KS)].reset_index(drop=True)),
        **fig24_tables(rows),
        **fig26_tables(fig26),
    }


if __name__ == "__main__":
    spark = make_session("table5_distdgl")
    save_and_print("table5_distdgl", run(spark), print_keys=PRINT_KEYS)
    spark.stop()

"""Table 5 + Figures 16/19/24 series: the DistDGL track.

Runs the DistDGL suite (GraphSage, global batch 64, full feature/hidden/
layers grid) over all five graphs and six vertex partitioners on k=8
workers — every row backed by a really-executed Spark sampling epoch —
plus the Figure 24 scale-out points k ∈ {4, 16, 32} at f=512, h=64, L=3
on DI/EU/OR, then emits:

* ``table5`` — average epochs until partitioning amortizes (paper Table 5);
* ``fig16_speedups`` — mean/min/max speedup vs Random per (graph, partitioner);
* ``phase_shares`` — sampling / fetch / forward shares at f=512, h=64, L=3
  (paper Figure 19's crossover);
* ``fig24_suite``, ``fig24a_speedup``, ``fig24b_remote_pct``,
  ``fig24c_cut_pct`` — see :func:`fig24_tables`;
* ``suite`` — every raw row of the k=8 suite.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import make_session, save_and_print
from repro.exp import tables
from repro.exp.harness import run_distdgl_suite

VERTEX_ROSTER = ["ByteGNN", "KaHIP", "LDG", "Spinner", "Metis"]

#: Figure 24: GraphSage f=512, h=64, L=3 on a road graph and two skewed graphs.
FIG24_GRAPHS = ("DI", "EU", "OR")
FIG24_ROWS = f"graph in {FIG24_GRAPHS} and feature == 512 and hidden == 64 and layers == 3"
PRINT_KEYS = (
    "table5", "fig16_speedups", "fig24a_speedup", "fig24b_remote_pct", "fig24c_cut_pct"
)


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

    def by_k(col: str, digits: int) -> pd.DataFrame:
        return (
            sel.pivot_table(index=["graph", "partitioner"], columns="k", values=col)
            .round(digits)
            .reset_index()
        )

    return {
        "fig24_suite": suite,
        "fig24a_speedup": by_k("speedup", 3),
        "fig24b_remote_pct": by_k("remote_pct_of_random", 1),
        "fig24c_cut_pct": by_k("cut_pct_of_random", 1),
    }


def run(spark, *, scale: float = 1e-3, seed: int = 0) -> dict[str, pd.DataFrame]:
    suite = run_distdgl_suite(spark, ks=(8,), scale=scale, seed=seed)
    scaleout = run_distdgl_suite(
        spark, graphs=FIG24_GRAPHS, ks=(4, 16, 32), features=(512,), hiddens=(64,),
        layer_counts=(3,), scale=scale, seed=seed,
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
        **fig24_tables(suite, scaleout),
    }


if __name__ == "__main__":
    spark = make_session("table5_distdgl")
    save_and_print("table5_distdgl", run(spark), print_keys=PRINT_KEYS)
    spark.stop()

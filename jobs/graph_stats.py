"""Table 1 analog: the five stand-in graphs and their realized statistics.

Prints |V|, |E|, mean/max degree for every graph at bench scale next to
the paper's (scaled) targets — the dataset-substitution audit trail.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import make_session, save_and_print
from repro.graphs.datasets import BENCH_SCALE, GRAPHS, load, summary

PRINT_KEYS = ("table1",)


def run(spark, *, scale: float = BENCH_SCALE, seed: int = 0) -> dict[str, pd.DataFrame]:
    rows = []
    for name, spec in GRAPHS.items():
        n_v, n_e = spec.sizes(scale)
        s = summary(spark, load(spark, name, scale=scale, seed=seed))
        rows.append(
            {
                "graph": name,
                "category": spec.category,
                "directed": spec.directed,
                "paper_vertices": spec.paper_vertices,
                "paper_edges": spec.paper_edges,
                "target_vertices": n_v,
                "target_edges": n_e,
                **s,
            }
        )
    return {"table1": pd.DataFrame(rows)}


if __name__ == "__main__":
    spark = make_session("graph_stats")
    save_and_print("graph_stats", run(spark), print_keys=PRINT_KEYS)
    spark.stop()

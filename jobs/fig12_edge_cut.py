"""Figures 12/13/15 series: vertex-partitioner quality and time.

Edge-cut ratio per (graph, partitioner, k) — paper Figure 12 — plus vertex
balance, training-vertex balance (Figure 13) and partitioning time
(Figure 15, log scale in the paper). Quality is computed with the Spark SQL
metrics over the really-executed assignments.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import make_session, save_and_print
from repro.exp.harness import load_bundle
from repro.graphs.datasets import split_to_spark
from repro.graphs.generators import to_spark
from repro.partitioning import quality
from repro.partitioning.base import assignment_to_spark, run_partitioner
from repro.partitioning.registry import VERTEX_PARTITIONERS, make_vertex_partitioner
from repro.simulate.costmodel import partition_time_model

PRINT_KEYS = ("fig12_cut", "fig15_time")


def run(spark, *, scale: float = 1e-3, seed: int = 0, ks=(4, 32)) -> dict[str, pd.DataFrame]:
    rows = []
    for gname in ("HW", "DI", "EN", "EU", "OR"):
        b = load_bundle(gname, scale=scale, seed=seed)
        edges_sdf = to_spark(spark, b.edges)
        split_sdf = split_to_spark(spark, b.n_vertices, seed=7)
        for k in ks:
            for pname in VERTEX_PARTITIONERS:
                r = run_partitioner(
                    make_vertex_partitioner(pname), b.edges, k,
                    n_vertices=b.n_vertices, seed=seed, split=b.split,
                )
                q = quality.edge_cut_quality(
                    edges_sdf, assignment_to_spark(spark, r), k, split=split_sdf
                )
                rows.append(
                    {
                        "graph": gname,
                        "partitioner": pname,
                        "k": k,
                        "edge_cut": q.edge_cut_ratio,
                        "vertex_balance": q.vertex_balance,
                        "train_vertex_balance": q.train_vertex_balance,
                        "partition_seconds": r.seconds,
                        "partition_seconds_norm": partition_time_model(
                            pname, r.seconds, len(b.edges)
                        ),
                    }
                )
    df = pd.DataFrame(rows)
    cut = df.pivot_table(
        index=["graph", "partitioner"], columns="k", values="edge_cut"
    ).round(4)
    t = df.pivot_table(
        index=["graph", "partitioner"], columns="k", values="partition_seconds_norm"
    ).round(3)
    return {"quality": df, "fig12_cut": cut.reset_index(), "fig15_time": t.reset_index()}


if __name__ == "__main__":
    spark = make_session("fig12_edge_cut")
    save_and_print("fig12_edge_cut", run(spark), print_keys=PRINT_KEYS)
    spark.stop()

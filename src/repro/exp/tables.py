"""Assemble the paper's evaluation tables from harness suite outputs.

Table 4 (DistGNN) and Table 5 (DistDGL) report the average number of
epochs until partitioning time is amortized by faster training, per
(graph, partitioner) — averaged over the hyper-parameter grid, with "no"
when the partitioner slows training down (paper Sections 4.3(5), 5.3(5)).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.simulate.amortization import epochs_to_amortize


def amortization_table(
    suite: pd.DataFrame,
    *,
    partitioners: list[str],
    graphs: list[str] | None = None,
    time_col: str = "partition_seconds_norm",
) -> pd.DataFrame:
    """Average epochs-to-amortize per (graph, partitioner) — Tables 4 / 5.

    For each config row the savings vs Random are computed; the paper
    averages the resulting epoch counts per (graph, partitioner). Configs
    with a slowdown contribute "no amortization"; a (graph, partitioner)
    cell is "no" unless a strict majority of its configs amortize, and
    otherwise averages the epoch counts of the configs that do.
    """
    graphs = graphs or sorted(suite["graph"].unique())
    out = {}
    for g in graphs:
        row = {}
        for p in partitioners:
            sub = suite[(suite["graph"] == g) & (suite["partitioner"] == p)]
            if sub.empty:
                row[p] = None
                continue
            epochs = [
                epochs_to_amortize(
                    r[time_col], r["epoch_seconds_random"], r["epoch_seconds"]
                )
                for _, r in sub.iterrows()
            ]
            realized = [e for e in epochs if e is not None]
            # "no" if the majority of configs cannot amortize.
            row[p] = (
                float(np.mean(realized))
                if len(realized) > len(epochs) / 2
                else None
            )
        out[g] = row
    return pd.DataFrame(out).T[partitioners]


def mean_speedups(
    suite: pd.DataFrame, *, by=("graph", "partitioner", "k")
) -> pd.DataFrame:
    """Average speedup vs Random over the hyper-parameter grid."""
    return (
        suite[suite["partitioner"] != "Random"]
        .groupby(list(by))["speedup"]
        .agg(["mean", "min", "max"])
        .reset_index()
    )


def mean_metric_pct(
    suite: pd.DataFrame, col: str, *, by=("graph", "partitioner", "k")
) -> pd.DataFrame:
    """Average <col> (a %-of-Random column) over the grid."""
    return (
        suite[suite["partitioner"] != "Random"]
        .groupby(list(by))[col]
        .mean()
        .reset_index()
    )

"""Assemble the paper's evaluation tables from harness suite outputs.

Table 4 (DistGNN) and Table 5 (DistDGL) report the average number of
epochs until partitioning time is amortized by faster training, per
(graph, partitioner) — averaged over the hyper-parameter grid, with "no"
when the partitioner slows training down (paper Sections 4.3(5), 5.3(5)).
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def epochs_to_amortize(
    partition_seconds: float,
    epoch_seconds_random: float,
    epoch_seconds_partitioner: float,
) -> float | None:
    """Epochs until the saved training time pays for the partitioning.

    A partitioner amortizes after ``t_part / (T_random - T_p)`` epochs, where
    ``t_part`` is its (normalized) partitioning time and ``T_*`` are
    per-epoch training times; Random partitioning is assumed free (paper
    Section 4.3(5)). A partitioner that slows training down never amortizes
    (the paper prints "no"): ``None``.
    """
    saved = epoch_seconds_random - epoch_seconds_partitioner
    if saved <= 0:
        return None
    return partition_seconds / saved


def amortization_table(suite: pd.DataFrame, *, partitioners: list[str]) -> pd.DataFrame:
    """Average epochs-to-amortize per (graph, partitioner) — Tables 4 / 5.

    For each config row the savings vs Random are computed; the paper
    averages the resulting epoch counts per (graph, partitioner). Configs
    with a slowdown contribute "no amortization"; a (graph, partitioner)
    cell is "no" unless a strict majority of its configs amortize, and
    otherwise averages the epoch counts of the configs that do.
    """
    out = {}
    for g in sorted(suite["graph"].unique()):
        row = {}
        for p in partitioners:
            sub = suite[(suite["graph"] == g) & (suite["partitioner"] == p)]
            if sub.empty:
                row[p] = None
                continue
            epochs = [
                epochs_to_amortize(
                    r["partition_seconds_norm"], r["epoch_seconds_random"],
                    r["epoch_seconds"],
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


def mean_metric_pct(suite: pd.DataFrame, col: str) -> pd.DataFrame:
    """Average <col> (a %-of-Random column) per (graph, partitioner, k) over
    the grid."""
    return (
        suite[suite["partitioner"] != "Random"]
        .groupby(["graph", "partitioner", "k"])[col]
        .mean()
        .reset_index()
    )


def pivot(
    rows: pd.DataFrame, index: list[str], columns: str, values: str, digits: int
) -> pd.DataFrame:
    """``values`` per ``index`` over ``columns`` (the mean of duplicate rows),
    rounded to ``digits``, with ``index`` as columns: one figure series."""
    return (
        rows.pivot_table(index=index, columns=columns, values=values)
        .round(digits)
        .reset_index()
    )

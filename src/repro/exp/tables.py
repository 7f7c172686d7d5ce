"""The paper's evaluation tables, each a groupby over harness suite rows.

:func:`amortization_table` is Table 4 (DistGNN) and Table 5 (DistDGL): per
(graph, partitioner), the mean over the hyper-parameter grid of the epochs
until partitioning time is amortized by faster training, and "no" (NaN)
when the partitioner slows training down (paper Sections 4.3(5), 5.3(5)).
:func:`pivot` is every figure series: a per-config metric averaged over
the grid and laid out over one axis (k, batch size, partitioner).
"""
from __future__ import annotations

import pandas as pd


def amortization_table(suite: pd.DataFrame, *, partitioners: list[str]) -> pd.DataFrame:
    """Average epochs-to-amortize per (graph, partitioner) — Tables 4 / 5.

    A config row amortizes after ``t_part / (T_random - T_p)`` epochs, where
    ``t_part`` is its normalized partitioning time (``partition_seconds_norm``)
    and ``T_*`` are per-epoch training times; Random partitioning is assumed
    free (paper Section 4.3(5)). A row that saves no time (``T_p >= T_random``)
    never amortizes. A (graph, partitioner) cell is NaN — the paper's "no" —
    unless a strict majority of its rows amortize, and otherwise the mean
    epoch count of the rows that do. One row per graph of ``suite``, one
    column per name of ``partitioners`` (NaN for a name without rows).
    """
    saved = suite["epoch_seconds_random"] - suite["epoch_seconds"]
    epochs = (suite["partition_seconds_norm"] / saved).where(saved > 0)
    cells = epochs.groupby([suite["graph"], suite["partitioner"]])
    return (
        cells.mean()
        .where(cells.count() > cells.size() / 2)
        .unstack()
        .reindex(columns=partitioners)
        .rename_axis(index=None, columns=None)
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

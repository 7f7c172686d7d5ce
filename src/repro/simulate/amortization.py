"""Partitioning-time amortization — the paper's Tables 4 and 5.

A partitioner amortizes after ``t_part / (T_random - T_p)`` epochs, where
``t_part`` is its (normalized) partitioning time and ``T_*`` are per-epoch
training times. Random partitioning is assumed free (paper Section 4.3(5)).
If the partitioner *slows training down* there is no amortization — the
paper prints "no"; we return ``None``.
"""
from __future__ import annotations


def epochs_to_amortize(
    partition_seconds: float,
    epoch_seconds_random: float,
    epoch_seconds_partitioner: float,
) -> float | None:
    """Epochs until the saved training time pays for the partitioning."""
    saved = epoch_seconds_random - epoch_seconds_partitioner
    if saved <= 0:
        return None
    return partition_seconds / saved

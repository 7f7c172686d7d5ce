"""Random edge partitioning (vertex-cut) — stateless streaming baseline.

Every edge is hashed to a partition independently of any state. This is the
paper's Random vertex-cut baseline: worst replication factor, perfect edge
balance in expectation, zero partitioning state.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import EdgePartitioner


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer — a high-quality stateless int hash."""
    z = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(1)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def hash_to_part(x: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Deterministic partition id in [0, k) for each int in ``x``."""
    return (splitmix64(x.astype(np.uint64) ^ np.uint64(seed * 0x9E3779B9 + 1)) % np.uint64(k)).astype(
        np.int64
    )


class RandomEdgePartitioner(EdgePartitioner):
    """Hash each (src, dst) pair to a partition."""

    name = "Random"
    category = "stateless streaming"

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        src = edges["src"].to_numpy(np.uint64)
        dst = edges["dst"].to_numpy(np.uint64)
        key = splitmix64(src) ^ (dst * np.uint64(0x9E3779B97F4A7C15))
        return hash_to_part(key, k, seed)


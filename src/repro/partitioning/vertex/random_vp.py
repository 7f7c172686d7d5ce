"""Random vertex partitioning (edge-cut) — stateless streaming baseline.

Hashes every vertex to a partition. Expected edge-cut ratio approaches
``1 - 1/k``; perfect vertex balance in expectation. This is the Random
baseline of the paper's DistDGL track.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import VertexPartitioner
from repro.partitioning.edge.random_ep import hash_to_part


class RandomVertexPartitioner(VertexPartitioner):
    name = "Random"
    category = "stateless streaming"

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        return hash_to_part(np.arange(n_vertices, dtype=np.uint64), k, seed)


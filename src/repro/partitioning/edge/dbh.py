"""DBH — Degree-Based Hashing edge partitioner (Xie et al., NIPS 2014).

Stateless streaming vertex-cut: each edge is assigned by hashing its
*lower-degree* endpoint. Hubs (high-degree vertices) get replicated while
low-degree vertices stay on one partition, which provably lowers the
replication factor on power-law graphs versus random hashing.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import EdgePartitioner, degrees_of
from repro.partitioning.edge.random_ep import hash_to_part


class DBHPartitioner(EdgePartitioner):
    name = "DBH"
    category = "stateless streaming"

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        deg = degrees_of(edges, n_vertices)
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        # Lower-degree endpoint; ties broken toward the smaller vertex id so
        # the choice is deterministic.
        src_wins = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
        chosen = np.where(src_wins, src, dst)
        return hash_to_part(chosen.astype(np.uint64), k, seed)


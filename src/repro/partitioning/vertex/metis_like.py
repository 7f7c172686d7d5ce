"""METIS-like multilevel vertex partitioner (Karypis & Kumar 1996 scheme).

Heavy-edge-matching coarsening, greedy-growing initial partition, and fast
vectorized one-shot boundary refinement at every level. Stands in for the
METIS binary of the paper: same algorithmic class (in-memory multilevel),
same quality/time profile relative to the rest of the roster — low edge-cut
at moderate partitioning time.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import VertexPartitioner
from repro.partitioning.vertex.multilevel import multilevel_partition, refine_oneshot


class MetisLikePartitioner(VertexPartitioner):
    name = "Metis"
    category = "in-memory"

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        return multilevel_partition(
            edges["src"].to_numpy(np.int64),
            edges["dst"].to_numpy(np.int64),
            n_vertices,
            k,
            seed=seed,
            refine=refine_oneshot,
        )

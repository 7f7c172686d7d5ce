"""2PS-L — Two-Phase Streaming edge partitioner with Linear-time scoring
(Mayer, Orujzade, Jacobsen, ICDE 2022).

Phase 1 (clustering pass): a Hollocou-style streaming clustering merges
vertices into volume-capped clusters — for each edge, the endpoint sitting
in the lower-volume cluster migrates into the other endpoint's cluster if
the volume cap allows. Clusters are then packed onto the k partitions with
first-fit-decreasing by volume.

Phase 2 (assignment pass): each edge is assigned in O(1) (no k-way scoring
loop): edges internal to a partition's clusters stay there; for cut edges
the partition of the *lower-degree* endpoint's cluster wins (replicating
the hub, DBH-style), subject to an edge-balance cap alpha * |E| / k.

Because whole clusters land on one partition, the *vertex* balance can get
poor even though the edge balance is capped — exactly the 2PS-L imbalance
the paper highlights (Figures 4 and 8, and the EU slowdown).
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import EdgePartitioner, degrees_of

#: Edge-balance cap factor: a partition takes at most ALPHA * |E| / k edges.
ALPHA = 1.1


class TwoPSLPartitioner(EdgePartitioner):
    name = "2PS-L"
    category = "stateful streaming"

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        m = len(src)
        deg = degrees_of(edges, n_vertices).astype(np.float64)

        # --- Phase 1: streaming clustering (volume = sum of member degrees).
        cluster = np.arange(n_vertices, dtype=np.int64)
        vol = deg.copy()
        vmax = 2.0 * m / k  # a partition's worth of volume
        for i in range(m):
            u, v = src[i], dst[i]
            cu, cv = cluster[u], cluster[v]
            if cu == cv:
                continue
            if vol[cu] <= vol[cv]:
                if vol[cv] + deg[u] <= vmax:
                    cluster[u] = cv
                    vol[cu] -= deg[u]
                    vol[cv] += deg[u]
            else:
                if vol[cu] + deg[v] <= vmax:
                    cluster[v] = cu
                    vol[cv] -= deg[v]
                    vol[cu] += deg[v]

        # --- Pack clusters onto partitions: first-fit-decreasing by volume.
        used = np.unique(cluster)
        cvol = vol[used]
        order = np.argsort(-cvol, kind="stable")
        part_of_cluster = np.zeros(n_vertices, dtype=np.int64)
        part_vol = np.zeros(k, dtype=np.float64)
        for ci in order:
            c = used[ci]
            p = int(np.argmin(part_vol))
            part_of_cluster[c] = p
            part_vol[p] += cvol[ci]

        # --- Phase 2: linear-time edge assignment with edge-balance cap.
        cap = ALPHA * m / k
        loads = np.zeros(k, dtype=np.float64)
        out = np.empty(m, dtype=np.int64)
        pu_all = part_of_cluster[cluster[src]]
        pv_all = part_of_cluster[cluster[dst]]
        for i in range(m):
            u, v = src[i], dst[i]
            pu, pv = pu_all[i], pv_all[i]
            if pu == pv:
                p = pu
            elif deg[u] <= deg[v]:
                p = pu  # keep the low-degree endpoint local, replicate the hub
            else:
                p = pv
            if loads[p] >= cap:
                alt = pv if p == pu else pu
                p = alt if loads[alt] < cap else int(np.argmin(loads))
            out[i] = p
            loads[p] += 1.0
        return out

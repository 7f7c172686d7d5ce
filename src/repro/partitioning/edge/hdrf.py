"""HDRF — High-Degree Replicated First streaming edge partitioner
(Petroni et al., CIKM 2015).

Stateful streaming vertex-cut. For every incoming edge (u, v) it scores all
k partitions with

    C(u, v, p) = g(u, p) + g(v, p) + lambda * (maxload - load_p) / (eps + maxload - minload)

where ``g(x, p) = 1 + (1 - theta(x))`` if x is already replicated on p and 0
otherwise, and ``theta(x)`` is x's normalized *partial* degree (degree seen
so far in the stream). Replicating the lower-partial-degree endpoint is
thereby preferred — hubs get replicated first — and the load term keeps the
edge balance tight. State: per-partition vertex membership, partial
degrees, partition loads. The scoring loop over k per edge is why the
paper's Figure 6 shows HDRF's partitioning time growing with the number of
partitions — our implementation reproduces that. HEP streams its
high-degree edges through the same loop (:func:`stream`).
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import EdgePartitioner

#: Weight of the load term (the paper's lambda), read at call time.
LAM = 1.1
#: Guard of the load term's denominator.
EPS = 1e-9


def stream(
    src: np.ndarray, dst: np.ndarray, member: np.ndarray, loads: np.ndarray
) -> np.ndarray:
    """Stream the edges ``(src[i], dst[i])`` in order; partition id per edge.

    ``member`` (k x n_vertices replica sets) and ``loads`` (edges per
    partition) hold the state the stream starts from and are updated in
    place. Partial degrees count only the streamed edges.
    """
    partial = np.zeros(member.shape[1], dtype=np.float64)
    out = np.empty(len(src), dtype=np.int64)
    lam, eps = LAM, EPS
    for i in range(len(src)):
        u, v = src[i], dst[i]
        partial[u] += 1.0
        partial[v] += 1.0
        du, dv = partial[u], partial[v]
        theta_u = du / (du + dv)
        theta_v = 1.0 - theta_u
        score = member[:, u] * (2.0 - theta_u) + member[:, v] * (2.0 - theta_v)
        maxload = loads.max()
        minload = loads.min()
        if maxload > minload:
            score = score + lam * (maxload - loads) / (eps + maxload - minload)
        p = int(np.argmax(score))
        out[i] = p
        member[p, u] = True
        member[p, v] = True
        loads[p] += 1.0
    return out


class HDRFPartitioner(EdgePartitioner):
    name = "HDRF"
    category = "stateful streaming"

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        return stream(
            edges["src"].to_numpy(np.int64),
            edges["dst"].to_numpy(np.int64),
            np.zeros((k, n_vertices), dtype=bool),
            np.zeros(k, dtype=np.float64),
        )

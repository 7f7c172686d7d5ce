"""DistGNN simulator: full-batch GraphSage over a vertex-cut partitioning.

DistGNN (Md et al., SC'21) keeps one graph partition per machine; every
cut vertex is replicated and its (feature / hidden) state is synchronized
across its replicas in each layer of every epoch. The paper's Section 4
results all reduce to three per-partition quantities which we *measure*
from the real partition assignment:

* ``edges[p]``   — aggregation work on machine p,
* ``vertices[p]`` = ``|V(p)|`` — dense NN work and state held on machine p,
* ``replicas[p]`` = ``|V(p)| - masters(p)`` — state synced via network.

From these, the cluster model of :mod:`repro.simulate.costmodel` derives
epoch time (straggler compute + replica synchronization per layer), network
bytes (∝ RF, the paper's Figure 3 correlation), memory per machine
(features + per-layer intermediates for every held vertex — the paper's
Figure 9/10 results and the replication-factor correlation), and OOM
verdicts against the scaled 64 GB budget (the paper's "DI cannot train
under Random" observation).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.gnn.layers import layer_flops
from repro.simulate import costmodel


@dataclass(frozen=True)
class GNNConfig:
    """One cell of the paper's Table 3 hyper-parameter grid."""

    feature: int
    hidden: int
    layers: int
    kind: str = "sage"

    def dims(self) -> list[int]:
        return [self.feature] + [self.hidden] * self.layers


@dataclass
class PartitionStats:
    """Measured per-partition statistics of a vertex-cut assignment."""

    k: int
    n_vertices: int
    n_edges: int
    edges: np.ndarray      # |p_i|
    vertices: np.ndarray   # |V(p_i)|
    replicas: np.ndarray   # |V(p_i)| - masters(p_i)

    @property
    def replication_factor(self) -> float:
        return float(self.vertices.sum() / max(1, self.n_vertices))

    @property
    def vertex_balance(self) -> float:
        return float(self.vertices.max() / self.vertices.mean())

    @property
    def edge_balance(self) -> float:
        return float(self.edges.max() / self.edges.mean())


def partition_stats(assignment: pd.DataFrame, k: int) -> PartitionStats:
    """Per-partition stats from a (src, dst, part) assignment table.

    The master of a vertex is the lowest-numbered partition covering it
    (DistGNN designates one owner per cut vertex; which one is immaterial
    for the totals).
    """
    cov = pd.concat(
        [
            assignment[["part", "src"]].rename(columns={"src": "v"}),
            assignment[["part", "dst"]].rename(columns={"dst": "v"}),
        ]
    ).drop_duplicates()
    vpp = cov.groupby("part").size().reindex(range(k), fill_value=0).to_numpy()
    masters = (
        cov.groupby("v")["part"].min().value_counts().reindex(range(k), fill_value=0)
    ).to_numpy()
    epp = assignment.groupby("part").size().reindex(range(k), fill_value=0).to_numpy()
    return PartitionStats(
        k=k,
        n_vertices=int(cov["v"].nunique()),
        n_edges=int(len(assignment)),
        edges=epp.astype(np.int64),
        vertices=vpp.astype(np.int64),
        replicas=(vpp - masters).astype(np.int64),
    )


@dataclass
class EpochMetrics:
    """Simulated per-epoch outcome for one (partitioning, config) pair."""

    epoch_seconds: float
    compute_seconds: float
    comm_seconds: float
    network_bytes: float
    mem_per_machine: np.ndarray  # bytes
    oom: bool

    @property
    def mem_balance(self) -> float:
        return float(self.mem_per_machine.max() / self.mem_per_machine.mean())


def epoch_metrics(stats: PartitionStats, cfg: GNNConfig, *, scale: float) -> EpochMetrics:
    """Epoch time / network / memory for one configuration.

    Per layer l (d_in -> d_out): every machine computes aggregation over
    its edges and the dense update for its held vertices (straggler = max);
    every replica's d_out-dimensional state is synchronized (forward) and
    its gradient returned (backward) — 2 transfers per replica per layer.
    """
    dims = cfg.dims()
    compute = 0.0
    comm = 0.0
    net_bytes = 0.0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        fl = np.array(
            [
                layer_flops(cfg.kind, v, e, d_in, d_out)
                for v, e in zip(stats.vertices, stats.edges)
            ]
        )
        # forward + backward ~ 3x forward flops
        compute += float(fl.max()) / costmodel.FLOPS_PER_SEC * 3.0
        layer_bytes = stats.replicas * d_out * costmodel.BYTES_PER_SCALAR * 2
        comm += float(layer_bytes.max()) / costmodel.NET_BANDWIDTH
        net_bytes += float(layer_bytes.sum())
    # Model/gradient all-reduce (small: model-sized).
    model_scalars = sum(2 * a * b for a, b in zip(dims[:-1], dims[1:]))
    comm += model_scalars * costmodel.BYTES_PER_SCALAR / costmodel.NET_BANDWIDTH

    state_per_vertex = (cfg.feature + cfg.hidden * cfg.layers) * costmodel.BYTES_PER_SCALAR
    mem = (
        stats.vertices * state_per_vertex * costmodel.MEM_OVERHEAD
        + stats.edges * 16.0
    )
    return EpochMetrics(
        epoch_seconds=compute + comm + costmodel.UPDATE_COST,
        compute_seconds=compute,
        comm_seconds=comm,
        network_bytes=net_bytes,
        mem_per_machine=mem.astype(np.float64),
        oom=bool(mem.max() > costmodel.mem_budget_bytes(scale)),
    )

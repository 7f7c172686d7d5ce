"""DistDGL simulator: phase times for mini-batch training over an edge-cut.

DistDGL (Zheng et al., IA3'20) keeps one partition per worker. Every
training step has the five phases the paper instruments (Section 5.1):

1. **mini-batch sampling** — local work per sampled edge plus one RPC per
   *remote* frontier vertex (the partition owning the vertex answers);
2. **feature loading** — remote input vertices' feature vectors cross the
   network, local ones are read from memory;
3. **forward pass** — NN flops over the sampled computation graph;
4. **backward pass** — ~2x forward, plus the gradient all-reduce;
5. **model update** — constant (paper: negligible).

Phases 1-3 are straggler-bound (the paper's per-step straggler analysis):
each step waits for the slowest worker. All inputs come from a *really
executed* sampling epoch (:mod:`repro.gnn.sampling`); only the mapping
from counted events to seconds is modeled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.layers import layer_flops
from repro.gnn.sampling import EpochSamplingStats
from repro.simulate import costmodel
from repro.simulate.distgnn import GNNConfig


@dataclass
class StepPhases:
    """Per-epoch phase totals (seconds), straggler-aggregated per step."""

    sampling: float
    feature_fetch: float
    forward: float
    backward: float
    update: float

    @property
    def epoch_seconds(self) -> float:
        return self.sampling + self.feature_fetch + self.forward + self.backward + self.update


def phase_times(stats: EpochSamplingStats, cfg: GNNConfig) -> StepPhases:
    """Simulated epoch phase times from measured sampling statistics."""
    ps = stats.per_step.copy()
    dims = cfg.dims()
    L = stats.n_layers

    # --- per-(worker, step) sampling and fetch seconds.
    ps["t_samp"] = (
        ps["sampled_edges"] * costmodel.SAMP_EDGE_COST
        + ps["remote_accesses"] * costmodel.REMOTE_ACCESS_COST
    )
    local_inputs = ps["input_vertices"] - ps["remote_inputs"]
    ps["t_fetch"] = (
        ps["remote_inputs"] * cfg.feature * costmodel.BYTES_PER_SCALAR / costmodel.NET_BANDWIDTH
        + local_inputs * costmodel.LOCAL_READ_COST
    )

    # --- forward flops per (worker, step): hop h edges feed compute layer
    # (L - h), whose input dim is `feature` for the outermost hop chain.
    # A (worker, step) that sampled no edge computes nothing.
    n_in = ps["input_vertices"].to_numpy()
    flops = np.zeros(len(ps))
    for compute_layer in range(L):  # 0 = input-side layer
        hop = L - 1 - compute_layer
        e = stats.hop_edges[:, hop]
        d_in = dims[compute_layer]
        d_out = dims[compute_layer + 1]
        batch = e + stats.global_batch
        n = np.minimum(n_in, np.where(batch != 0, batch, e + 1))
        flops += layer_flops(cfg.kind, n, e, d_in, d_out)
    ps["flops"] = np.where(ps["sampled_edges"].to_numpy() > 0, flops, 0.0)
    ps["t_fwd"] = ps["flops"] / costmodel.FLOPS_PER_SEC

    # --- straggler per step for phases 1-3 (paper's straggler analysis).
    g = ps.groupby("step")
    sampling = float(g["t_samp"].max().sum())
    fetch = float(g["t_fetch"].max().sum())
    forward = float(g["t_fwd"].max().sum())

    # --- backward: 2x forward (straggler) + per-step gradient all-reduce.
    model_scalars = sum(2 * a * b for a, b in zip(dims[:-1], dims[1:]))
    allreduce = model_scalars * costmodel.BYTES_PER_SCALAR / costmodel.NET_BANDWIDTH
    n_steps = stats.n_steps
    backward = 2.0 * forward + allreduce * n_steps
    update = costmodel.UPDATE_COST * n_steps
    return StepPhases(
        sampling=sampling,
        feature_fetch=fetch,
        forward=forward,
        backward=backward,
        update=update,
    )


def network_bytes(stats: EpochSamplingStats, cfg: GNNConfig) -> float:
    """Feature bytes crossing the network in one epoch (paper Fig 26b)."""
    return float(stats.epoch_total("remote_inputs")) * cfg.feature * costmodel.BYTES_PER_SCALAR

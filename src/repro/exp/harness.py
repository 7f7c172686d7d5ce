"""Experiment harness: sweep graphs x partitioners x cluster sizes x configs.

Two suites mirror the paper's two tracks:

* :func:`run_distgnn_suite` — edge partitioners (vertex-cut), full-batch
  GraphSage; pure driver computation fed by really-executed partition runs.
* :func:`run_distdgl_suite` — vertex partitioners (edge-cut), mini-batch
  GraphSage/GCN/GAT; every row is fed by a really-executed sampling epoch
  on the partitioned graph (on the driver, over a CSR adjacency built once
  per graph) and by the partition run's Spark SQL quality query: edge-cut,
  vertex balance and training-vertex balance (Figs 12/13).

Each suite runs every partitioner once per (graph, k), and the DistDGL
suite samples one epoch per (batch size, layer count) on that run; every
config and model kind in the grid is evaluated on those. Jobs select their tables
from the suite rows and persist them under ``results/`` as parquet.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.datasets import generate, n_vertices_of, split_vertices
from repro.graphs.generators import csr_adjacency, to_spark, undirected_view
from repro.gnn.sampling import FANOUTS, plan_batches, sample_epoch
from repro.partitioning import quality
from repro.partitioning.base import assignment_to_spark, run_partitioner
from repro.partitioning.registry import make_edge_partitioner, make_vertex_partitioner
from repro.simulate import distdgl, distgnn
from repro.simulate.costmodel import ClusterModel, partition_time_model

#: Paper Table 3 hyper-parameter grid.
FEATURE_SIZES = (16, 64, 512)
HIDDEN_DIMS = (16, 64, 512)
NUM_LAYERS = (2, 3, 4)
MACHINES = (4, 8, 16, 32)

#: Paper global batch size 1024 at |V| ~ millions; scaled to our stand-ins
#: (the paper's GBS is ~0.3% of the training set — 64 keeps that order of
#: magnitude at bench scale while leaving multiple steps per epoch).
DEFAULT_GLOBAL_BATCH = 64


def hyper_grid() -> list[distgnn.GNNConfig]:
    return [
        distgnn.GNNConfig(feature=f, hidden=h, layers=l)
        for f, h, l in itertools.product(FEATURE_SIZES, HIDDEN_DIMS, NUM_LAYERS)
    ]


@dataclass
class GraphBundle:
    """One generated graph plus its split, shared across suite rows."""

    name: str
    edges: pd.DataFrame
    n_vertices: int
    split: pd.DataFrame
    train: np.ndarray = field(init=False)

    def __post_init__(self):
        self.train = self.split.loc[self.split["role"] == "train", "vertex"].to_numpy()


def load_bundle(name: str, *, scale: float, seed: int = 0) -> GraphBundle:
    edges = undirected_view(generate(name, scale=scale, seed=seed))
    n = n_vertices_of(edges)
    return GraphBundle(
        name=name, edges=edges, n_vertices=n, split=split_vertices(n, seed=7)
    )


def run_distgnn_suite(
    *,
    graphs=("HW", "DI", "EN", "EU", "OR"),
    partitioners=("Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100"),
    ks=MACHINES,
    configs: list[distgnn.GNNConfig] | None = None,
    scale: float,
    seed: int = 0,
    cluster: ClusterModel | None = None,
) -> pd.DataFrame:
    """DistGNN track: one row per (graph, partitioner, k, config)."""
    cluster = cluster or ClusterModel()
    configs = configs or hyper_grid()
    rows = []
    for gname in graphs:
        b = load_bundle(gname, scale=scale, seed=seed)
        for k in ks:
            for pname in partitioners:
                run = run_partitioner(
                    make_edge_partitioner(pname), b.edges, k,
                    n_vertices=b.n_vertices, seed=seed,
                )
                st = distgnn.partition_stats(run.assignment, k)
                for cfg in configs:
                    m = distgnn.epoch_metrics(st, cfg, cluster, scale=scale)
                    rows.append(
                        {
                            "graph": gname,
                            "partitioner": pname,
                            "k": k,
                            "feature": cfg.feature,
                            "hidden": cfg.hidden,
                            "layers": cfg.layers,
                            "epoch_seconds": m.epoch_seconds,
                            "compute_seconds": m.compute_seconds,
                            "comm_seconds": m.comm_seconds,
                            "network_bytes": m.network_bytes,
                            "mem_max_bytes": float(m.mem_per_machine.max()),
                            "mem_balance": m.mem_balance,
                            "oom": m.oom,
                            "rf": st.replication_factor,
                            "vertex_balance": st.vertex_balance,
                            "edge_balance": st.edge_balance,
                            "partition_seconds": run.seconds,
                            "partition_seconds_norm": partition_time_model(
                                pname, run.seconds, len(b.edges)
                            ),
                        }
                    )
    df = pd.DataFrame(rows)
    return _with_random_baseline(
        df, ["graph", "k", "feature", "hidden", "layers"],
        {
            "network_bytes": "net_pct_of_random",
            "mem_max_bytes": "mem_pct_of_random",
            "rf": "rf_pct_of_random",
        },
    )


def _with_random_baseline(
    df: pd.DataFrame, keys: list[str], pct_of_random: dict[str, str]
) -> pd.DataFrame:
    """Join each row with the Random row of its group on ``keys``.

    Adds ``<metric>_random`` for ``epoch_seconds`` and every metric in
    ``pct_of_random``, the ``speedup`` over Random, and, per ``{metric:
    column}`` entry, the metric as a percentage of Random's.
    """
    base = (
        df[df["partitioner"] == "Random"]
        .set_index(keys)[["epoch_seconds", *pct_of_random]]
        .add_suffix("_random")
    )
    out = df.join(base, on=keys)
    out["speedup"] = out["epoch_seconds_random"] / out["epoch_seconds"]
    for metric, pct in pct_of_random.items():
        out[pct] = 100.0 * out[metric] / out[f"{metric}_random"]
    return out


def run_distdgl_suite(
    spark: SparkSession,
    *,
    graphs=("HW", "DI", "EN", "EU", "OR"),
    partitioners=("Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"),
    ks=(8,),
    features=FEATURE_SIZES,
    hiddens=HIDDEN_DIMS,
    layer_counts=NUM_LAYERS,
    kinds: tuple[str, ...] = ("sage",),
    global_batch: int | tuple[int, ...] = DEFAULT_GLOBAL_BATCH,
    scale: float,
    seed: int = 0,
    cluster: ClusterModel | None = None,
) -> pd.DataFrame:
    """DistDGL track: one row per (graph, partitioner, k, batch, config, kind).

    ``global_batch`` is one size or a tuple of sizes. Each partitioner runs
    once per (graph, k), and that one run serves every batch size: one
    sampling epoch per (batch size, layer count) runs on it. One Spark SQL
    query per run (:func:`quality.edge_cut_quality`, over the graph's edges
    and its train/val/test split) gives the ``edge_cut``, ``vertex_balance``
    and ``train_vertex_balance`` columns of Figs 12/13.
    Every (feature, hidden, kind) row of that epoch reads the same sample:
    these knobs change only the flop and byte counts, not the sampled graph.
    """
    cluster = cluster or ClusterModel()
    rows = []
    for gname in graphs:
        b = load_bundle(gname, scale=scale, seed=seed)
        indptr, indices = csr_adjacency(b.edges, b.n_vertices)
        edges_sdf, split_sdf = to_spark(spark, b.edges), spark.createDataFrame(b.split)
        for k in ks:
            for pname in partitioners:
                run = run_partitioner(
                    make_vertex_partitioner(pname), b.edges, k,
                    n_vertices=b.n_vertices, seed=seed, split=b.split,
                )
                owner = run.assignment["part"].to_numpy()
                q = quality.edge_cut_quality(
                    edges_sdf, assignment_to_spark(spark, run), k, split=split_sdf
                )
                for gbs in np.atleast_1d(global_batch).tolist():
                    seeds = plan_batches(b.train, owner, k, gbs, seed=seed)
                    for L in layer_counts:
                        fanouts = FANOUTS[L]
                        stats = sample_epoch(
                            indptr, indices, seeds, owner, fanouts,
                            seed=seed, global_batch=gbs,
                        )
                        for f, h, kind in itertools.product(features, hiddens, kinds):
                            cfg = distgnn.GNNConfig(feature=f, hidden=h, layers=L, kind=kind)
                            ph = distdgl.phase_times(stats, cfg, cluster, fanouts)
                            rows.append(
                                {
                                    "graph": gname,
                                    "partitioner": pname,
                                    "k": k,
                                    "kind": kind,
                                    "global_batch": gbs,
                                    "feature": f,
                                    "hidden": h,
                                    "layers": L,
                                    "epoch_seconds": ph.epoch_seconds,
                                    "t_sampling": ph.sampling,
                                    "t_fetch": ph.feature_fetch,
                                    "t_forward": ph.forward,
                                    "t_backward": ph.backward,
                                    "network_bytes": distdgl.network_bytes(stats, cfg),
                                    "edge_cut": q.edge_cut_ratio,
                                    "vertex_balance": q.vertex_balance,
                                    "train_vertex_balance": q.train_vertex_balance,
                                    "remote_inputs": stats.epoch_total("remote_inputs"),
                                    "input_vertices": stats.epoch_total("input_vertices"),
                                    "input_vertex_balance": stats.input_vertex_balance(),
                                    "partition_seconds": run.seconds,
                                    "partition_seconds_norm": partition_time_model(
                                        pname, run.seconds, len(b.edges)
                                    ),
                                }
                            )
    df = pd.DataFrame(rows)
    return _with_random_baseline(
        df, ["graph", "k", "kind", "feature", "hidden", "layers", "global_batch"],
        {
            "network_bytes": "net_pct_of_random",
            "remote_inputs": "remote_pct_of_random",
            "edge_cut": "cut_pct_of_random",
        },
    )

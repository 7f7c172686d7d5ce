"""Experiment harness: sweep graphs x partitioners x cluster sizes x configs.

Two tracks, as in the paper:

* :func:`run_distgnn_suite` — edge partitioners (vertex-cut), full-batch
  GraphSage; pure driver computation fed by really-executed partition runs.
* :func:`distdgl_cells` — vertex partitioners (edge-cut), mini-batch
  GraphSage/GCN/GAT on one graph: one stacked Spark SQL quality query per
  k, and a really-executed sampling epoch only on the k that have a grid.
  :func:`run_distdgl_suite` is its uniform case: the same grid on every k.

Each partitioner runs once per (graph, k), and each DistDGL run is sampled
once per (batch size, layer count); every config and model kind of a grid
is evaluated on those. Jobs select their tables from the rows and persist
them under ``results/`` as parquet.
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
from repro.partitioning.base import PartitionRun, assignment_to_spark, run_partitioner
from repro.partitioning.registry import make_edge_partitioner, make_vertex_partitioner
from repro.simulate import distdgl, distgnn
from repro.simulate.costmodel import partition_time_model

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
    scale: float,
    seed: int = 0,
) -> pd.DataFrame:
    """DistGNN track: one row per (graph, partitioner, k, config)."""
    configs = hyper_grid()
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
                    m = distgnn.epoch_metrics(st, cfg, scale=scale)
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


def distdgl_cells(
    spark: SparkSession,
    b: GraphBundle,
    *,
    partitioners: tuple[str, ...],
    grids: dict[int, dict | None],
    seed: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """DistDGL track on one graph: partition, measure and sample its cells.

    Per k of ``grids``, the partitioners run back to back, then one stacked
    Spark SQL query (:func:`quality.edge_cut_qualities`, over the edges and
    the train/val/test split) measures all of their runs. ``grids[k]`` is
    the sampling grid the rows of that k read (``features``, ``hiddens``,
    ``layer_counts``, ``kinds`` and ``global_batch``, one size or a tuple),
    or ``None``: measured, never sampled. A sampled run gets one epoch per
    (batch size, layer count), on the driver over a CSR adjacency built
    once; its (feature, hidden, kind) rows all read that epoch, since these
    knobs change only the flop and byte counts.

    Returns the quality rows, one per (partitioner, k): ``edge_cut``,
    ``vertex_balance``, ``train_vertex_balance`` and partitioning time
    (Figs 12/13/15); and the suite rows, one per (partitioner, k, batch,
    config, kind), with their cell's quality columns and each speedup and
    percentage against the Random row of their group.
    """
    edges_sdf, split_sdf = to_spark(spark, b.edges), spark.createDataFrame(b.split)
    indptr, indices = csr_adjacency(b.edges, b.n_vertices)
    cells, rows = [], []
    for k, grid in grids.items():
        runs = [
            run_partitioner(
                make_vertex_partitioner(pname), b.edges, k,
                n_vertices=b.n_vertices, seed=seed, split=b.split,
            )
            for pname in partitioners
        ]
        qs = quality.edge_cut_qualities(
            edges_sdf, assignment_to_spark(spark, *runs), k, split=split_sdf
        )
        for run in runs:
            q = qs[run.partitioner]
            cell = {
                "edge_cut": q.edge_cut_ratio,
                "vertex_balance": q.vertex_balance,
                "train_vertex_balance": q.train_vertex_balance,
                "partition_seconds": run.seconds,
                "partition_seconds_norm": partition_time_model(
                    run.partitioner, run.seconds, len(b.edges)
                ),
            }
            cells.append({"graph": b.name, "partitioner": run.partitioner, "k": k, **cell})
            if grid is not None:
                rows += _sampled_rows(b, run, cell, indptr, indices, **grid, seed=seed)
    suite = pd.DataFrame(rows)
    if rows:
        suite = _with_random_baseline(
            suite, ["graph", "k", "kind", "feature", "hidden", "layers", "global_batch"],
            {
                "network_bytes": "net_pct_of_random",
                "remote_inputs": "remote_pct_of_random",
                "edge_cut": "cut_pct_of_random",
            },
        )
    return pd.DataFrame(cells), suite


def _sampled_rows(
    b: GraphBundle, run: PartitionRun, cell: dict, indptr, indices, *,
    features, hiddens, layer_counts, kinds, global_batch, seed: int,
) -> list[dict]:
    """The suite rows of one sampled run, with its ``cell``'s quality columns."""
    owner = run.assignment["part"].to_numpy()
    rows = []
    for gbs in np.atleast_1d(global_batch).tolist():
        seeds = plan_batches(b.train, owner, run.k, gbs, seed=seed)
        for L in layer_counts:
            stats = sample_epoch(
                indptr, indices, seeds, owner, FANOUTS[L],
                seed=seed, global_batch=gbs,
            )
            for f, h, kind in itertools.product(features, hiddens, kinds):
                cfg = distgnn.GNNConfig(feature=f, hidden=h, layers=L, kind=kind)
                ph = distdgl.phase_times(stats, cfg)
                rows.append(
                    {
                        "graph": b.name,
                        "partitioner": run.partitioner,
                        "k": run.k,
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
                        "edge_cut": cell["edge_cut"],
                        "vertex_balance": cell["vertex_balance"],
                        "train_vertex_balance": cell["train_vertex_balance"],
                        "remote_inputs": stats.epoch_total("remote_inputs"),
                        "input_vertices": stats.epoch_total("input_vertices"),
                        "input_vertex_balance": stats.input_vertex_balance(),
                        "partition_seconds": cell["partition_seconds"],
                        "partition_seconds_norm": cell["partition_seconds_norm"],
                    }
                )
    return rows


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
) -> pd.DataFrame:
    """DistDGL track: one row per (graph, partitioner, k, batch, config, kind).

    The uniform case of :func:`distdgl_cells`: every k of every graph is
    sampled over the same grid, one graph loaded at a time. ``global_batch``
    is one size or a tuple of sizes.
    """
    grid = dict(
        features=features, hiddens=hiddens, layer_counts=layer_counts,
        kinds=kinds, global_batch=global_batch,
    )
    return pd.concat(
        [
            distdgl_cells(
                spark, load_bundle(g, scale=scale, seed=seed),
                partitioners=partitioners, grids=dict.fromkeys(ks, grid), seed=seed,
            )[1]
            for g in graphs
        ],
        ignore_index=True,
    )

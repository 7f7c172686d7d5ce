"""DistDGL-style k-hop mini-batch neighborhood sampling on Spark.

DistDGL trains mini-batch GNNs over a vertex-partitioned (edge-cut) graph:
each worker owns one partition, samples the k-hop neighborhood of its local
training vertices with per-layer fanouts, then fetches the features of
*remote* input vertices over the network. The paper's DistDGL observables
all come from this pipeline: sampled-edge counts (computation-graph size),
input-vertex balance (Figure 14), remote vertices (Figures 24b, 26c) and
the phase-time decomposition built on top of them.

The sampler here executes the per-layer expansion as a Catalyst plan —
join the frontier against the adjacency, keep ``fanout`` neighbors per
(worker, step, source) via a windowed ``row_number`` — and collects the
(small) sampled-edge table to the driver, where the per-step statistics
are computed with numpy.

* **Hash-ordered.** The neighbors kept are the ``fanout`` smallest by
  ``xxhash64(seed, layer, worker, step, src, dst)``, ties broken by
  ``dst``. The sample is a pure function of its inputs: it does not depend
  on shuffle partitioning, on the master, or on how often Spark evaluates
  a plan.
* **Each hop once.** Each hop's sampled edges and the frontier they grow
  are materialized with ``localCheckpoint()``; later hops and the final
  collect read those blocks instead of re-deriving the hop. The collected
  rows are therefore one consistent computation graph per (worker, step):
  every layer-l source is a seed or a destination sampled at an earlier
  layer. :func:`sample_epoch` releases the blocks before it returns.

Paper fanouts (Section 5.1): 2-layer (25, 20), 3-layer (15, 10, 5), 4-layer
(10, 10, 5, 5); global batch size 1024 split evenly across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

#: Paper Section 5.1 fanout schedules, keyed by number of layers.
FANOUTS: dict[int, tuple[int, ...]] = {
    2: (25, 20),
    3: (15, 10, 5),
    4: (10, 10, 5, 5),
}

SEED_SCHEMA = T.StructType(
    [
        T.StructField("worker", T.LongType(), False),
        T.StructField("step", T.LongType(), False),
        T.StructField("vertex", T.LongType(), False),
    ]
)


@dataclass
class EpochSamplingStats:
    """Per-(worker, step) sampling statistics for one epoch."""

    k: int
    n_layers: int
    global_batch: int
    # columns: worker, step, sampled_edges, input_vertices, remote_inputs,
    # remote_accesses
    per_step: pd.DataFrame
    # raw sampled edges: worker, step, src, dst, layer
    sampled: pd.DataFrame
    # sampled edges per (per_step row, layer), shape (len(per_step), n_layers)
    hop_edges: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.per_step["step"].max()) + 1 if len(self.per_step) else 0

    def epoch_total(self, col: str) -> float:
        return float(self.per_step[col].sum())

    def input_vertex_balance(self) -> float:
        """Paper's input-vertex balance: mean over steps of max/mean."""
        g = self.per_step.groupby("step")["input_vertices"]
        return float((g.max() / g.mean()).mean())


def plan_batches(
    train_vertices: np.ndarray,
    owner_of: np.ndarray,
    k: int,
    global_batch: int,
    *,
    seed: int = 0,
) -> pd.DataFrame:
    """Assign training vertices to (worker, step) mini-batches.

    Each worker draws ``global_batch / k`` seeds per step from its *local*
    training vertices (DistDGL semantics — training vertices live with
    their partition). Workers with small pools wrap around cyclically so
    every worker contributes to every step; the number of steps is
    ``ceil(|train| / global_batch)``.
    """
    rng = np.random.default_rng(seed)
    n_steps = max(1, int(np.ceil(len(train_vertices) / global_batch)))
    per_worker = max(1, global_batch // k)
    rows = []
    for w in range(k):
        local = train_vertices[owner_of[train_vertices] == w]
        if len(local) == 0:
            continue
        local = rng.permutation(local)
        need = n_steps * per_worker
        pool = np.resize(local, need)  # cyclic wrap-around
        steps = np.repeat(np.arange(n_steps), per_worker)
        rows.append(pd.DataFrame({"worker": w, "step": steps, "vertex": pool}))
    out = pd.concat(rows, ignore_index=True)
    # A vertex drawn twice into the same batch collapses to one seed.
    return out.drop_duplicates(["worker", "step", "vertex"]).reset_index(drop=True)


def sample_epoch(
    spark: SparkSession,
    sym_edges: DataFrame,
    seeds: pd.DataFrame,
    owner_of: np.ndarray,
    fanouts: tuple[int, ...],
    *,
    seed: int = 0,
    global_batch: int | None = None,
) -> EpochSamplingStats:
    """Sample one epoch of mini-batches; returns per-step statistics.

    ``sym_edges`` holds both directions of every edge (src, dst) so the
    sampler expands over undirected neighborhoods like DGL does on the
    symmetrized graphs of the study. Layer ``l`` samples from every vertex
    reached so far (the seeds and the destinations of layers < l), as DGL's
    blocks keep their destination vertices among their sources.
    """
    k = int(owner_of.max()) + 1 if len(owner_of) else 1
    checkpoints: list[DataFrame] = []

    def checkpoint(df: DataFrame) -> DataFrame:
        """Compute ``df`` now; later plans read its blocks instead of its plan."""
        checkpoints.append(df.localCheckpoint())
        return checkpoints[-1]

    try:
        # Checkpointed once so no hop recomputes it. The checkpoint does not
        # keep the src partitioning (AQE coalesces the repartition, and the
        # checkpoint reports UnknownPartitioning), so every hop's join
        # shuffles it again.
        adjacency = checkpoint(sym_edges.repartition("src"))
        frontier = spark.createDataFrame(seeds, schema=SEED_SCHEMA)
        layers = []
        for lidx, fan in enumerate(fanouts):
            cand = frontier.withColumnRenamed("vertex", "src").join(adjacency, "src")
            w = Window.partitionBy("worker", "step", "src").orderBy(
                F.xxhash64(F.lit(seed), F.lit(lidx), "worker", "step", "src", "dst"),
                "dst",
            )
            samp = checkpoint(
                cand.withColumn("rn", F.row_number().over(w))
                .where(F.col("rn") <= fan)
                .select("worker", "step", "src", "dst", F.lit(lidx).alias("layer"))
            )
            layers.append(samp)
            if lidx + 1 < len(fanouts):
                frontier = checkpoint(
                    frontier.unionAll(
                        samp.select("worker", "step", F.col("dst").alias("vertex"))
                    ).distinct()
                )
        all_sampled = reduce(DataFrame.unionAll, layers).toPandas()
    finally:
        for df in checkpoints:
            _release_checkpoint(df)
    return _stats_from_sampled(
        seeds, all_sampled, owner_of, len(fanouts), k, global_batch or 0
    )


def _release_checkpoint(df: DataFrame) -> None:
    """Free the blocks behind a ``localCheckpoint()`` result.

    ``DataFrame.unpersist`` does not reach them: a local checkpoint persists
    the RDD under the DataFrame's ``LogicalRDD`` plan, not a cached query.
    Blocking, so no block removal is still running after the sampler returns.
    """
    df._jdf.queryExecution().logical().rdd().unpersist(True)


def _stats_from_sampled(
    seeds: pd.DataFrame,
    sampled: pd.DataFrame,
    owner_of: np.ndarray,
    n_layers: int,
    k: int,
    global_batch: int,
) -> EpochSamplingStats:
    """Numpy reduction of the sampled-edge table into per-step statistics.

    A vertex first reached at frontier-depth ``f`` (seeds: f=0; a neighbor
    sampled in layer l: f=l+1) is part of the sampling frontier for layers
    f..n_layers-1, so a *remote* vertex incurs ``n_layers - f`` remote
    sampling accesses, and every remote input vertex incurs one feature
    fetch.
    """
    first = pd.concat(
        [
            seeds.assign(first=0)[["worker", "step", "vertex", "first"]],
            sampled.rename(columns={"dst": "vertex"}).assign(
                first=lambda d: d["layer"] + 1
            )[["worker", "step", "vertex", "first"]],
        ],
        ignore_index=True,
    )
    first = first.groupby(["worker", "step", "vertex"], as_index=False)["first"].min()
    first["remote"] = (
        owner_of[first["vertex"].to_numpy()] != first["worker"].to_numpy()
    )
    first["remote_accesses"] = (
        np.maximum(0, n_layers - first["first"].to_numpy()) * first["remote"].to_numpy()
    )
    per_step = (
        first.groupby(["worker", "step"])
        .agg(
            input_vertices=("vertex", "size"),
            remote_inputs=("remote", "sum"),
            remote_accesses=("remote_accesses", "sum"),
        )
        .reset_index()
    )
    # Sampled edges per (per_step row, hop): per_step rows are sorted by
    # (worker, step), and every sampled row's (worker, step) has seeds.
    n_steps = int(per_step["step"].max()) + 1 if len(per_step) else 0
    row_key = per_step["worker"].to_numpy() * n_steps + per_step["step"].to_numpy()
    row = np.searchsorted(
        row_key, sampled["worker"].to_numpy() * n_steps + sampled["step"].to_numpy()
    )
    hop_edges = np.bincount(
        row * n_layers + sampled["layer"].to_numpy(),
        minlength=len(per_step) * n_layers,
    ).reshape(len(per_step), n_layers)
    per_step["sampled_edges"] = hop_edges.sum(axis=1).astype(np.int64)
    per_step["remote_inputs"] = per_step["remote_inputs"].astype(np.int64)
    return EpochSamplingStats(
        k=k,
        n_layers=n_layers,
        global_batch=global_batch,
        per_step=per_step,
        sampled=sampled,
        hop_edges=hop_edges,
    )

"""Scaled stand-ins for the paper's five graphs (Table 1) + vertex splits.

Paper Table 1:

| Graph          | Type          | Dir. | |E|   | |V|  |
|----------------|---------------|------|------|------|
| Hollywood-2011 | collaboration | no   | 229M | 2M   |
| Dimacs9-USA    | road          | yes  | 58M  | 24M  |
| Enwiki-2021    | wiki          | yes  | 150M | 6M   |
| Eu-2015-tpd    | web           | yes  | 166M | 7M   |
| Orkut          | social        | no   | 234M | 3M   |

We generate each at ``scale`` x the paper's |V| and |E| (default bench scale
1e-3, test scale 1e-4 — vertex counts floored so graphs stay simple), which
preserves each graph's mean degree and the *relative* sizes across graphs.
Community mixing / degree exponent per category are chosen so the
partitioning-quality spread matches the paper's observations (web crawls
have the strongest locality, social networks the weakest; the road network
is a mesh).

The paper randomly splits vertices into 10% train / 10% validation / 80%
test; :func:`split_vertices` reproduces that split deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs import generators

TEST_SCALE = 1e-4
BENCH_SCALE = 1e-3

TRAIN_FRAC, VAL_FRAC = 0.10, 0.10


@dataclass(frozen=True)
class GraphSpec:
    """Configuration of one paper graph and its synthetic stand-in."""

    name: str
    category: str
    directed: bool
    paper_vertices: int
    paper_edges: int
    kind: str  # "dcsbm" | "road"
    params: dict = field(default_factory=dict)

    def sizes(self, scale: float) -> tuple[int, int]:
        """Scaled (n_vertices, n_edges).

        Edges scale by ``scale``; vertices by ``2 * scale``. Halving the mean
        degree keeps the scaled-down graphs sparse enough that the planted
        community structure survives deduplication (a 1/1000-vertex graph
        with the full mean degree would be so dense that communities
        saturate and all partitioners converge), while preserving the
        paper's *relative* graph sizes and degree skew.
        """
        n_v = max(64, int(round(self.paper_vertices * scale * 2)))
        n_e = max(128, int(round(self.paper_edges * scale)))
        # Keep the graph comfortably simple (dedup must be able to succeed).
        while n_e > (n_v * (n_v - 1)) // 4:
            n_v *= 2
        return n_v, n_e

    def n_communities(self, scale: float) -> int:
        """Community count targeting ~3x-mean-degree community sizes.

        Communities must be a few times larger than the mean degree so that
        within-community edge demand stays below the community's distinct-
        pair capacity; otherwise locality silently evaporates in dedup.
        """
        n_v, n_e = self.sizes(scale)
        mean_deg = max(1.0, 2.0 * n_e / n_v)
        return int(np.clip(n_v / (3.0 * mean_deg), 8, 64))


GRAPHS: dict[str, GraphSpec] = {
    "HW": GraphSpec(
        name="HW", category="collaboration", directed=False,
        paper_vertices=2_000_000, paper_edges=229_000_000, kind="dcsbm",
        params=dict(gamma=2.3, mixing=0.03),
    ),
    "DI": GraphSpec(
        name="DI", category="road", directed=True,
        paper_vertices=24_000_000, paper_edges=58_000_000, kind="road",
        params=dict(),
    ),
    "EN": GraphSpec(
        name="EN", category="wiki", directed=True,
        paper_vertices=6_000_000, paper_edges=150_000_000, kind="dcsbm",
        params=dict(gamma=2.2, mixing=0.12),
    ),
    "EU": GraphSpec(
        name="EU", category="web", directed=True,
        paper_vertices=7_000_000, paper_edges=166_000_000, kind="dcsbm",
        params=dict(gamma=2.1, mixing=0.03),
    ),
    "OR": GraphSpec(
        name="OR", category="social", directed=False,
        paper_vertices=3_000_000, paper_edges=234_000_000, kind="dcsbm",
        params=dict(gamma=2.15, mixing=0.07),
    ),
}


def generate(name: str, *, scale: float = TEST_SCALE, seed: int = 0) -> pd.DataFrame:
    """Generate the stand-in for paper graph ``name`` at ``scale`` (pandas edges)."""
    spec = GRAPHS[name]
    n_v, n_e = spec.sizes(scale)
    if spec.kind == "road":
        return generators.road_grid(
            n_vertices=n_v, directed=spec.directed, seed=seed, **spec.params
        )
    edges, _ = generators.dcsbm_powerlaw(
        n_vertices=n_v,
        n_edges=n_e,
        n_communities=spec.n_communities(scale),
        directed=spec.directed,
        seed=seed,
        **spec.params,
    )
    return edges


def n_vertices_of(edges: pd.DataFrame) -> int:
    """Vertex-universe size: ids are dense-ish, use max id + 1."""
    if len(edges) == 0:
        return 0
    return int(max(edges["src"].max(), edges["dst"].max())) + 1


def split_vertices(n_vertices: int, *, seed: int = 7) -> pd.DataFrame:
    """10/10/80 train/val/test split over vertex ids (paper Section 3).

    Returns columns ``vertex`` and ``role`` in {"train", "val", "test"}.
    """
    rng = np.random.default_rng(seed)
    roles = np.full(n_vertices, "test", dtype=object)
    order = rng.permutation(n_vertices)
    n_train = int(n_vertices * TRAIN_FRAC)
    n_val = int(n_vertices * VAL_FRAC)
    roles[order[:n_train]] = "train"
    roles[order[n_train : n_train + n_val]] = "val"
    return pd.DataFrame({"vertex": np.arange(n_vertices, dtype=np.int64), "role": roles})


def split_to_spark(spark: SparkSession, n_vertices: int, *, seed: int = 7) -> DataFrame:
    """Spark variant of :func:`split_vertices`."""
    return spark.createDataFrame(split_vertices(n_vertices, seed=seed))


def summary(spark: SparkSession, edges: DataFrame) -> dict:
    """Graph summary via Spark SQL: |V|, |E|, mean/max degree (undirected view)."""
    und = (
        edges.select(
            F.least("src", "dst").alias("u"), F.greatest("src", "dst").alias("v")
        )
        .where(F.col("u") != F.col("v"))
        .distinct()
    )
    verts = und.select(F.col("u").alias("vertex")).union(
        und.select(F.col("v").alias("vertex"))
    )
    deg = verts.groupBy("vertex").agg(F.count("*").alias("degree"))
    row = deg.agg(
        F.count("*").alias("n_vertices"),
        F.mean("degree").alias("mean_degree"),
        F.max("degree").alias("max_degree"),
    ).collect()[0]
    return {
        "n_vertices": int(row["n_vertices"]),
        "n_edges": int(und.count()),
        "mean_degree": float(row["mean_degree"]),
        "max_degree": int(row["max_degree"]),
    }

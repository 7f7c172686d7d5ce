"""Partitioner API shared by all 12 algorithms (paper Table 2).

Two families, mirroring Section 2.1 of the paper:

* **Edge partitioning (vertex-cut)** — every *edge* gets a partition;
  vertices incident to edges in several partitions are *replicated*.
  ``EdgePartitioner.assign`` returns one partition id per edge row.
* **Vertex partitioning (edge-cut)** — every *vertex* gets a partition;
  edges whose endpoints land in different partitions are *cut*.
  ``VertexPartitioner.assign`` returns one partition id per vertex id.

All partitioners consume the **canonical undirected simple view** of a graph
(``src < dst``, no loops, no duplicates — see
:func:`repro.graphs.generators.undirected_view`), exactly like the
command-line partitioning tools the paper benchmarks, which symmetrize their
input. Driver-side execution mirrors how those tools run as single-node
preprocessing binaries; the measured wall-clock feeds the amortization
tables (paper Tables 4 and 5).
"""
from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

VERTEX_CUT = "vertex-cut"
EDGE_CUT = "edge-cut"


class EdgePartitioner(ABC):
    """Assigns each edge to one of ``k`` partitions (vertex-cut)."""

    name: str = "abstract-edge-partitioner"
    cut_type = VERTEX_CUT
    category: str = "unspecified"

    @abstractmethod
    def assign(
        self,
        edges: pd.DataFrame,
        k: int,
        *,
        n_vertices: int,
        seed: int = 0,
        split: pd.DataFrame | None = None,
    ) -> np.ndarray:
        """Partition id in ``[0, k)`` for every row of ``edges``."""


class VertexPartitioner(ABC):
    """Assigns each vertex to one of ``k`` partitions (edge-cut)."""

    name: str = "abstract-vertex-partitioner"
    cut_type = EDGE_CUT
    category: str = "unspecified"

    @abstractmethod
    def assign(
        self,
        edges: pd.DataFrame,
        k: int,
        *,
        n_vertices: int,
        seed: int = 0,
        split: pd.DataFrame | None = None,
    ) -> np.ndarray:
        """Partition id in ``[0, k)`` for every vertex id in ``[0, n_vertices)``."""


@dataclass
class PartitionRun:
    """One timed partitioning execution plus its assignment."""

    partitioner: str
    category: str
    cut_type: str
    k: int
    seconds: float
    # vertex-cut: (src, dst, part) aligned with the input edges.
    # edge-cut:   (vertex, part) for every vertex id.
    assignment: pd.DataFrame


def run_partitioner(
    p: EdgePartitioner | VertexPartitioner,
    edges: pd.DataFrame,
    k: int,
    *,
    n_vertices: int,
    seed: int = 0,
    split: pd.DataFrame | None = None,
) -> PartitionRun:
    """Execute ``p`` on ``edges`` and capture wall-clock + assignment table."""
    t0 = time.perf_counter()
    parts = p.assign(edges, k, n_vertices=n_vertices, seed=seed, split=split)
    seconds = time.perf_counter() - t0
    parts = np.asarray(parts, dtype=np.int64)
    if parts.min(initial=0) < 0 or parts.max(initial=0) >= k:
        raise ValueError(f"{p.name}: partition ids outside [0, {k})")
    if p.cut_type == VERTEX_CUT:
        if len(parts) != len(edges):
            raise ValueError(f"{p.name}: expected one id per edge")
        assignment = pd.DataFrame(
            {
                "src": edges["src"].to_numpy(np.int64),
                "dst": edges["dst"].to_numpy(np.int64),
                "part": parts,
            }
        )
    else:
        if len(parts) != n_vertices:
            raise ValueError(f"{p.name}: expected one id per vertex")
        assignment = pd.DataFrame(
            {"vertex": np.arange(n_vertices, dtype=np.int64), "part": parts}
        )
    return PartitionRun(
        partitioner=p.name,
        category=p.category,
        cut_type=p.cut_type,
        k=k,
        seconds=seconds,
        assignment=assignment,
    )


_VERTEX_ASSIGN_SCHEMA = T.StructType(
    [
        T.StructField("vertex", T.LongType(), False),
        T.StructField("part", T.LongType(), False),
    ]
)


def assignment_to_spark(spark: SparkSession, run: PartitionRun) -> DataFrame:
    """Lift a vertex partitioning's (vertex, part) table into Spark for the
    edge-cut metrics."""
    return spark.createDataFrame(run.assignment, schema=_VERTEX_ASSIGN_SCHEMA)


def degrees_of(edges: pd.DataFrame, n_vertices: int) -> np.ndarray:
    """Undirected degree per vertex id as a dense numpy array."""
    deg = np.zeros(n_vertices, dtype=np.int64)
    np.add.at(deg, edges["src"].to_numpy(np.int64), 1)
    np.add.at(deg, edges["dst"].to_numpy(np.int64), 1)
    return deg


def build_csr(edges: pd.DataFrame, n_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, neighbor, edge_id) over the undirected view.

    Every undirected edge appears twice (once per endpoint); ``edge_id`` maps
    each incidence back to its row in ``edges`` so edge partitioners can
    translate vertex-local decisions into edge assignments.
    """
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    m = len(src)
    ends = np.concatenate([src, dst])
    other = np.concatenate([dst, src])
    eid = np.concatenate([np.arange(m), np.arange(m)])
    order = np.argsort(ends, kind="stable")
    ends, other, eid = ends[order], other[order], eid[order]
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.add.at(indptr, ends + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, other, eid

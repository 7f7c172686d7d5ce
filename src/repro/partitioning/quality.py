"""Edge-cut quality metrics (paper Section 2.1) in Spark SQL.

Edge-cut ratio ``λ = |E_cut| / |E|``, vertex balance over partition sizes,
and training-vertex balance (DistDGL section) of vertex assignments. The
vertex-cut metrics (replication factor and balances) are
:func:`repro.simulate.distgnn.partition_stats`, in pandas.

:func:`edge_cut_qualities` collects the one DataFrame :func:`edge_cut_query`
builds over a stacked (partitioner, vertex, part) assignment: per
partitioner, the per-part rows and a totals row (``part`` NULL) together,
from a single aggregation. The experiment harness makes one such query per
(graph, k), over every partitioner's run; :func:`edge_cut_quality` is its
one-run case. The query looks up the part of every edge endpoint and of
every training vertex in broadcasts of the assignment: the sessions disable
automatic broadcast joins, and the query's ``BROADCAST`` hints opt it back
in, so no join shuffles. Its inputs are lifted from pandas as RDD-backed
Arrow relations, as the sessions set
``spark.sql.execution.arrow.localRelationThreshold`` to 0: the plan scans
them, rather than holding their rows as local relations that analysis and
optimization walk again on every query. The tests oracle-check the query
against SQL of their own on DuckDB, and check that its plan holds no data
and no shuffle.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame


@dataclass(frozen=True)
class EdgeCutQuality:
    k: int
    n_vertices: int
    n_edges: int
    edge_cut_ratio: float
    vertex_balance: float
    train_vertex_balance: float
    vertices_per_part: list[int]
    cut_edges: int
    train_per_part: list[int]


def _balance(per_part: list[int], k: int) -> float:
    mean = sum(per_part) / k
    return max(per_part) / mean if mean else float("nan")


def _quality(partitioner: str, rows, k: int) -> EdgeCutQuality:
    """One partitioner's :class:`EdgeCutQuality` from its rows of the query."""
    parts = {int(r["part"]): r for r in rows if r["part"] is not None}
    total = next((r for r in rows if r["part"] is None), None)

    def per_part(col: str) -> list[int]:
        return [int(parts[p][col]) if p in parts else 0 for p in range(k)]

    vertices_per_part, train_per_part = per_part("n_vertices"), per_part("n_train")
    n_edges = int(total["n_edges"]) if total else 0
    cut = int(total["cut_edges"] or 0) if total else 0
    unassigned = int(total["unassigned_edges"]) if total else 0
    if unassigned:
        raise ValueError(
            f"{partitioner}: {unassigned} of {n_edges} edges have an endpoint "
            "without an assignment row"
        )
    return EdgeCutQuality(
        k=k,
        n_vertices=sum(vertices_per_part),
        n_edges=n_edges,
        edge_cut_ratio=cut / n_edges if n_edges else float("nan"),
        vertex_balance=_balance(vertices_per_part, k),
        train_vertex_balance=_balance(train_per_part, k),
        vertices_per_part=vertices_per_part,
        cut_edges=cut,
        train_per_part=train_per_part,
    )


#: The Spark SQL of :func:`edge_cut_query`. Each UNION ALL branch fills its
#: own kind's columns and leaves the others NULL: the edge rows carry no
#: ``part``, so they aggregate into their partitioner's totals row. The
#: hints broadcast the assignment and the partitioner names (the sessions
#: disable automatic broadcast joins), so no join shuffles; and they read
#: the assignment and each aggregate's input as one partition, so no
#: aggregate shuffles and each broadcast is built by a single task.
_EDGE_CUT_SQL = """
WITH assignment AS (SELECT /*+ COALESCE(1) */ partitioner, vertex, part FROM {assign}),
names AS (SELECT DISTINCT partitioner FROM assignment),
stacked AS (
  SELECT partitioner, part, 1 AS n_vertices, 0 AS n_train,
         NULL AS n_edges, NULL AS cut_edges, NULL AS unassigned_edges
  FROM assignment
  UNION ALL
  SELECT /*+ BROADCAST(a) */ a.partitioner, a.part, 0, 1, NULL, NULL, NULL
  FROM {split} s JOIN assignment a ON a.vertex = s.vertex
  WHERE s.role = 'train'
  UNION ALL
  SELECT /*+ BROADCAST(n, ps, pd) */ n.partitioner, NULL, NULL, NULL, 1,
         CAST(ps.part <> pd.part AS INT),
         CAST(ps.part IS NULL OR pd.part IS NULL AS INT)
  FROM {edges} e CROSS JOIN names n
  LEFT JOIN assignment ps ON ps.partitioner = n.partitioner AND ps.vertex = e.src
  LEFT JOIN assignment pd ON pd.partitioner = n.partitioner AND pd.vertex = e.dst
)
SELECT partitioner, part, SUM(n_vertices) AS n_vertices, SUM(n_train) AS n_train,
       SUM(n_edges) AS n_edges, SUM(cut_edges) AS cut_edges,
       SUM(unassigned_edges) AS unassigned_edges
FROM (SELECT /*+ COALESCE(1) */ * FROM stacked)
GROUP BY partitioner, part
"""


def edge_cut_query(edges: DataFrame, assign: DataFrame, *, split: DataFrame) -> DataFrame:
    """Rows of a stacked vertex assignment (partitioner, vertex, part) over
    the undirected ``edges``.

    Per partitioner, one row per part with ``n_vertices`` and ``n_train``
    (its vertices with role "train" in ``split``), plus a totals row with
    ``part`` NULL, ``n_edges``, ``cut_edges`` and ``unassigned_edges``
    (edges with an endpoint that has no assignment row of that
    partitioner). Every edge is paired with each partitioner of ``assign``
    and looks up both endpoints by (partitioner, vertex), so one
    partitioner's parts never meet another's. It is one SQL statement,
    analyzed once.
    """
    return edges.sparkSession.sql(_EDGE_CUT_SQL, edges=edges, assign=assign, split=split)


def edge_cut_qualities(
    edges: DataFrame, assign: DataFrame, k: int, *, split: DataFrame
) -> dict[str, EdgeCutQuality]:
    """Quality of every vertex-partitioning run stacked in ``assign``, by
    partitioner, from one query and one collect.

    ``edges`` is the undirected view; ``assign`` has (partitioner, vertex,
    part) rows of runs into ``k`` parts
    (:func:`repro.partitioning.base.assignment_to_spark`);
    ``split`` has (vertex, role), for the training-vertex balance the paper
    measures for DistDGL. Raises ``ValueError``, naming the partitioner,
    when an edge endpoint has no assignment row of that partitioner.
    """
    rows: dict[str, list] = {}
    for r in edge_cut_query(edges, assign, split=split).collect():
        rows.setdefault(r["partitioner"], []).append(r)
    return {name: _quality(name, rs, k) for name, rs in rows.items()}


def edge_cut_quality(
    edges: DataFrame, assign: DataFrame, k: int, *, split: DataFrame
) -> EdgeCutQuality:
    """Quality of one vertex-partitioning run: :func:`edge_cut_qualities`
    over an ``assign`` that stacks a single run."""
    (q,) = edge_cut_qualities(edges, assign, k, split=split).values()
    return q

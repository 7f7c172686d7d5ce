"""Edge-cut quality metrics (paper Section 2.1) in Spark SQL.

Edge-cut ratio ``λ = |E_cut| / |E|``, vertex balance over partition sizes,
and training-vertex balance (DistDGL section) of a vertex assignment. The
vertex-cut metrics (replication factor and balances) are
:func:`repro.simulate.distgnn.partition_stats`, in pandas.

:func:`edge_cut_quality` collects the one DataFrame :func:`edge_cut_query`
builds: the per-part rows and a totals row (``part`` NULL) together, from a
single aggregation. The query looks up the part of every edge endpoint and
of every training vertex in one broadcast of the vertex assignment: the
sessions disable automatic broadcast joins, and the ``F.broadcast`` hint
opts this query back in, so no join shuffles. The tests oracle-check the
query against the same SQL on DuckDB.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


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


def _split_totals(rows, k: int):
    """``n_vertices`` and ``n_train`` per part 0..k-1, and the totals row of a query's rows."""
    parts = {int(r["part"]): r for r in rows if r["part"] is not None}
    total = next((r for r in rows if r["part"] is None), None)

    def per_part(col: str) -> list[int]:
        return [int(parts[p][col]) if p in parts else 0 for p in range(k)]

    return per_part("n_vertices"), per_part("n_train"), total


def edge_cut_query(edges: DataFrame, assign: DataFrame, *, split: DataFrame) -> DataFrame:
    """Rows of a vertex assignment (vertex, part) over the undirected ``edges``.

    One row per part with ``n_vertices`` and ``n_train`` (its vertices with
    role "train" in ``split``), plus a totals row with ``part`` NULL,
    ``n_edges``, ``cut_edges`` and ``unassigned_edges`` (edges with an
    endpoint that has no assignment row). Each row leaves the other kind's
    columns NULL: the edge rows carry no ``part``, so the union gives them a
    NULL one and they aggregate into the totals row. The src, dst and
    training-vertex lookups all probe one broadcast of the assignment.
    """
    part_of = F.broadcast(assign.select("vertex", "part"))
    ps, pd_ = part_of.alias("ps"), part_of.alias("pd")
    src_part, dst_part = F.col("ps.part"), F.col("pd.part")
    edge_rows = (
        edges.alias("e")
        .join(ps, F.col("e.src") == F.col("ps.vertex"), "left")
        .join(pd_, F.col("e.dst") == F.col("pd.vertex"), "left")
        .select(
            F.lit(1).alias("n_edges"),
            (src_part != dst_part).cast("int").alias("cut_edges"),
            (src_part.isNull() | dst_part.isNull()).cast("int").alias("unassigned_edges"),
        )
    )
    train = split.where(F.col("role") == "train").join(part_of, "vertex")
    rows = assign.select(
        "part", F.lit(1).alias("n_vertices"), F.lit(0).alias("n_train")
    ).unionByName(
        train.select("part", F.lit(0).alias("n_vertices"), F.lit(1).alias("n_train"))
    )
    # One partition satisfies the aggregate's distribution, so it needs no
    # shuffle: the query is one broadcast job plus one single-task job. Its
    # input is one row per edge and vertex of a graph the driver already
    # holds, and the aggregate's output is k + 1 rows.
    rows = rows.unionByName(edge_rows, allowMissingColumns=True).coalesce(1)
    return rows.groupBy("part").agg(
        *(F.sum(c).alias(c) for c in rows.columns if c != "part")
    )


def edge_cut_quality(
    edges: DataFrame, assign: DataFrame, k: int, *, split: DataFrame
) -> EdgeCutQuality:
    """Quality of a vertex-partitioning run.

    ``edges`` is the undirected view; ``assign`` has (vertex, part);
    ``split`` has (vertex, role), for the training-vertex balance the paper
    measures for DistDGL. Raises ``ValueError`` when an edge endpoint has
    no assignment row.
    """
    vertices_per_part, train_per_part, total = _split_totals(
        edge_cut_query(edges, assign, split=split).collect(), k
    )
    n_edges = int(total["n_edges"]) if total else 0
    cut = int(total["cut_edges"] or 0) if total else 0
    unassigned = int(total["unassigned_edges"]) if total else 0
    if unassigned:
        raise ValueError(
            f"{unassigned} of {n_edges} edges have an endpoint without an assignment row"
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

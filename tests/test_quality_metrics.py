"""Partitioning-quality metrics, oracle-checked against DuckDB (paper Sec 2.1)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.datasets import generate, n_vertices_of, split_to_spark, split_vertices
from repro.graphs.generators import to_spark, undirected_view
from repro.oracle import assert_equivalent
from repro.partitioning import quality
from repro.partitioning.base import assignment_to_spark, run_partitioner
from repro.partitioning.edge.dbh import DBHPartitioner
from repro.partitioning.vertex.random_vp import RandomVertexPartitioner
from repro.simulate import distgnn


@pytest.fixture(scope="module")
def graph(spark):
    edges = undirected_view(generate("EN", scale=1e-4, seed=0))
    n = n_vertices_of(edges)
    return edges, n


class TestPartitionStats:
    """The vertex-cut metrics every job uses: ``distgnn.partition_stats``."""

    def test_partition_stats_matches_duckdb(self, graph):
        edges, n = graph
        run = run_partitioner(DBHPartitioner(), edges, 4, n_vertices=n)
        st = distgnn.partition_stats(run.assignment, 4)
        got = pd.DataFrame(
            {
                "part": [*range(4), None],
                "edges": [*st.edges, st.n_edges],
                "vertices": [*st.vertices, st.n_vertices],
                "replicas": [*st.replicas, st.replicas.sum()],
            }
        )
        # A vertex's master is the lowest part that covers it; each of its
        # other covering parts holds a replica.
        assert_equivalent(
            got,
            """
            WITH cover AS (
              SELECT DISTINCT part, vertex FROM (
                SELECT part, src AS vertex FROM assign
                UNION ALL
                SELECT part, dst AS vertex FROM assign
              )
            ),
            masters AS (SELECT MIN(part) AS part FROM cover GROUP BY vertex)
            SELECT part, edges, vertices, vertices - COALESCE(n_masters, 0) AS replicas
            FROM (SELECT part, COUNT(*) AS edges FROM assign GROUP BY part)
            JOIN (SELECT part, COUNT(*) AS vertices FROM cover GROUP BY part) USING (part)
            LEFT JOIN (SELECT part, COUNT(*) AS n_masters FROM masters GROUP BY part) USING (part)
            UNION ALL
            SELECT NULL, (SELECT COUNT(*) FROM assign),
                   (SELECT COUNT(DISTINCT vertex) FROM cover),
                   (SELECT COUNT(*) FROM cover) - (SELECT COUNT(DISTINCT vertex) FROM cover)
            """,
            assign=run.assignment,
        )

    def test_perfect_partition_rf_is_one(self):
        # Two disjoint triangles, each on its own partition: RF == 1.
        a = pd.DataFrame(
            {
                "src": [0, 1, 0, 3, 4, 3],
                "dst": [1, 2, 2, 4, 5, 5],
                "part": [0, 0, 0, 1, 1, 1],
            }
        )
        st = distgnn.partition_stats(a, 2)
        assert st.replication_factor == 1.0
        assert st.edge_balance == 1.0
        assert st.vertex_balance == 1.0
        assert (st.replicas == 0).all()


class TestEdgeCutQuality:
    EDGE_CUT_SQL = """
        SELECT a.part, COUNT(*) AS n_vertices, COUNT(t.vertex) AS n_train,
               NULL AS n_edges, NULL AS cut_edges, NULL AS unassigned_edges
        FROM assign a
        LEFT JOIN (SELECT vertex FROM split WHERE role = 'train') t ON a.vertex = t.vertex
        GROUP BY a.part
        UNION ALL
        SELECT NULL, NULL, NULL, COUNT(*),
               SUM(CASE WHEN pa.part <> pb.part THEN 1 ELSE 0 END),
               SUM(CASE WHEN pa.part IS NULL OR pb.part IS NULL THEN 1 ELSE 0 END)
        FROM edges e
        LEFT JOIN assign pa ON e.src = pa.vertex
        LEFT JOIN assign pb ON e.dst = pb.vertex
    """

    def test_edge_cut_query_matches_duckdb(self, spark, graph):
        edges, n = graph
        run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        split = split_vertices(n, seed=7)
        got = quality.edge_cut_query(
            to_spark(spark, edges),
            assignment_to_spark(spark, run),
            split=spark.createDataFrame(split),
        )
        assert_equivalent(
            got, self.EDGE_CUT_SQL, edges=edges, assign=run.assignment, split=split
        )

    def test_unassigned_endpoint_raises(self, spark, graph):
        edges, n = graph
        run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        missing = int(edges["src"].iloc[0])
        a = run.assignment[run.assignment["vertex"] != missing]
        split = split_vertices(n, seed=7)
        edges_sdf, assign_sdf = to_spark(spark, edges), spark.createDataFrame(a)
        got = quality.edge_cut_query(edges_sdf, assign_sdf, split=spark.createDataFrame(split))
        assert_equivalent(got, self.EDGE_CUT_SQL, edges=edges, assign=a, split=split)
        unassigned = int(((edges["src"] == missing) | (edges["dst"] == missing)).sum())
        assert got.where("part IS NULL").first()["unassigned_edges"] == unassigned > 0
        with pytest.raises(ValueError, match=f"{unassigned} of {len(edges)} edges"):
            quality.edge_cut_quality(
                edges_sdf, assign_sdf, 4, split=spark.createDataFrame(split)
            )

    def test_edge_cut_quality_matches_pandas(self, spark, graph):
        edges, n = graph
        run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run), 4,
            split=split_to_spark(spark, n, seed=7),
        )
        part = run.assignment.set_index("vertex")["part"]
        cut = (part[edges["src"]].to_numpy() != part[edges["dst"]].to_numpy()).sum()
        assert q.cut_edges == cut
        assert np.isclose(q.edge_cut_ratio, cut / len(edges))
        vpp = run.assignment.groupby("part").size().reindex(range(4), fill_value=0)
        assert q.vertices_per_part == vpp.tolist()
        assert np.isclose(q.vertex_balance, vpp.max() / vpp.mean())

    def test_train_vertex_balance(self, spark, graph):
        edges, n = graph
        run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        split = split_to_spark(spark, n, seed=7)
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run), 4, split=split
        )
        s = split_vertices(n, seed=7)
        train = run.assignment[run.assignment["vertex"].isin(s.loc[s["role"] == "train", "vertex"])]
        tpp = train.groupby("part").size().reindex(range(4), fill_value=0).tolist()
        assert q.train_per_part == tpp
        assert q.train_vertex_balance == max(tpp) / (sum(tpp) / 4)

    def test_single_partition_has_zero_cut(self, spark):
        edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
        a = pd.DataFrame({"vertex": [0, 1, 2, 3], "part": [0, 0, 0, 0]})
        split = pd.DataFrame({"vertex": [0, 1, 2, 3], "role": ["train", "test", "val", "test"]})
        run_like = type("R", (), {"cut_type": "edge-cut", "assignment": a})()
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run_like), 1,
            split=spark.createDataFrame(split),
        )
        assert q.edge_cut_ratio == 0.0
        assert q.cut_edges == 0

    def test_part_without_training_vertices_counts_zero(self, spark):
        edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
        a = pd.DataFrame({"vertex": [0, 1, 2, 3], "part": [0, 0, 1, 1]})
        split = pd.DataFrame({"vertex": [0, 1, 2, 3], "role": ["train", "test", "val", "test"]})
        run_like = type("R", (), {"cut_type": "edge-cut", "assignment": a})()
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run_like), 2,
            split=spark.createDataFrame(split),
        )
        assert q.train_per_part == [1, 0]
        assert q.train_vertex_balance == 2.0
        assert q.cut_edges == 1


def test_results_independent_of_physical_settings(spark, graph):
    """Same metrics at 16 and 64 shuffle partitions, broadcast off and default."""
    edges, n = graph
    run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
    edges_sdf, split = to_spark(spark, edges), split_to_spark(spark, n, seed=7)
    assign = assignment_to_spark(spark, run)
    keys = ("spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold")
    old = {key: spark.conf.get(key) for key in keys}
    results = {}
    try:
        for partitions in (16, 64):
            for threshold in ("-1", None):
                spark.conf.set(keys[0], partitions)
                if threshold is None:
                    spark.conf.unset(keys[1])
                else:
                    spark.conf.set(keys[1], threshold)
                results[partitions, threshold] = quality.edge_cut_quality(
                    edges_sdf, assign, 4, split=split
                )
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)
    assert {key: spark.conf.get(key) for key in keys} == old
    first = results[16, "-1"]
    for got in results.values():
        assert got == first

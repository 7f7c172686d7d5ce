"""Partitioning-quality metrics, oracle-checked against DuckDB (paper Sec 2.1)."""
import itertools
import re

import numpy as np
import pandas as pd
import pytest

from repro.graphs.datasets import (
    generate, n_vertices_of, split_to_spark, split_vertices, summary,
)
from repro.graphs.generators import to_spark, undirected_view
from repro.oracle import assert_equivalent
from repro.partitioning import quality
from repro.partitioning.base import PartitionRun, assignment_to_spark, run_partitioner
from repro.partitioning.edge.dbh import DBHPartitioner
from repro.partitioning.registry import make_vertex_partitioner
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


def _stacked(*runs) -> pd.DataFrame:
    """The pandas twin of ``assignment_to_spark(spark, *runs)``."""
    return pd.concat(
        [r.assignment.assign(partitioner=r.partitioner) for r in runs], ignore_index=True
    )[["partitioner", "vertex", "part"]]


class TestEdgeCutQuality:
    EDGE_CUT_SQL = """
        SELECT a.partitioner, a.part, COUNT(*) AS n_vertices, COUNT(t.vertex) AS n_train,
               NULL AS n_edges, NULL AS cut_edges, NULL AS unassigned_edges
        FROM assign a
        LEFT JOIN (SELECT vertex FROM split WHERE role = 'train') t ON a.vertex = t.vertex
        GROUP BY a.partitioner, a.part
        UNION ALL
        SELECT n.partitioner, NULL, NULL, NULL, COUNT(*),
               SUM(CASE WHEN pa.part <> pb.part THEN 1 ELSE 0 END),
               SUM(CASE WHEN pa.part IS NULL OR pb.part IS NULL THEN 1 ELSE 0 END)
        FROM edges e
        CROSS JOIN (SELECT DISTINCT partitioner FROM assign) n
        LEFT JOIN assign pa ON n.partitioner = pa.partitioner AND e.src = pa.vertex
        LEFT JOIN assign pb ON n.partitioner = pb.partitioner AND e.dst = pb.vertex
        GROUP BY n.partitioner
    """

    @pytest.fixture(scope="class")
    def runs(self, graph):
        edges, n = graph
        split = split_vertices(n, seed=7)
        return [
            run_partitioner(make_vertex_partitioner(p), edges, 4, n_vertices=n, split=split)
            for p in ("Random", "Metis")
        ]

    def test_edge_cut_query_matches_duckdb(self, spark, graph, runs):
        edges, n = graph
        split = split_vertices(n, seed=7)
        got = quality.edge_cut_query(
            to_spark(spark, edges),
            assignment_to_spark(spark, *runs),
            split=spark.createDataFrame(split),
        )
        assert_equivalent(
            got, self.EDGE_CUT_SQL, edges=edges, assign=_stacked(*runs), split=split
        )

    def test_plan_holds_no_data_and_no_shuffle(self, spark, graph, runs):
        # The lifted inputs are RDD-backed, not local relations that carry
        # their rows in the plan; every join reads a broadcast and every
        # aggregate one partition, so the only exchanges are broadcasts.
        edges, n = graph
        got = quality.edge_cut_query(
            to_spark(spark, edges),
            assignment_to_spark(spark, *runs),
            split=split_to_spark(spark, n, seed=7),
        )
        got.collect()
        optimized = got._jdf.queryExecution().optimizedPlan().toString()
        assert "LocalRelation" not in optimized
        assert "LogicalRDD" in optimized
        final = got._jdf.queryExecution().executedPlan().executedPlan().toString()
        nodes = re.findall(r"^[\s:|+-]*(?:\*\(\d+\) )?(\w+)", final, flags=re.MULTILINE)
        exchanges = {node for node in nodes if node.endswith("Exchange")}
        assert "BroadcastExchange" in exchanges
        assert exchanges <= {"BroadcastExchange", "ReusedExchange"}, final
        assert "ShuffleQueryStage" not in nodes, final

    def test_stacked_query_equals_one_query_per_run(self, spark, graph, runs):
        edges, n = graph
        edges_sdf, split = to_spark(spark, edges), split_to_spark(spark, n, seed=7)
        stacked = quality.edge_cut_qualities(
            edges_sdf, assignment_to_spark(spark, *runs), 4, split=split
        )
        assert sorted(stacked) == ["Metis", "Random"]
        for run in runs:
            one = quality.edge_cut_quality(
                edges_sdf, assignment_to_spark(spark, run), 4, split=split
            )
            assert stacked[run.partitioner] == one, run.partitioner

    def test_stacking_never_mixes_partitioners(self, spark, graph):
        # Each partitioner puts every vertex in one part, a different one:
        # both cuts are 0 unless an edge pairs one run's part with the other's.
        edges, n = graph
        runs = [
            PartitionRun(p, "edge-cut", 2, 0.0, pd.DataFrame({"vertex": range(n), "part": part}))
            for p, part in (("A", 0), ("B", 1))
        ]
        qs = quality.edge_cut_qualities(
            to_spark(spark, edges), assignment_to_spark(spark, *runs), 2,
            split=split_to_spark(spark, n, seed=7),
        )
        assert {p: q.cut_edges for p, q in qs.items()} == {"A": 0, "B": 0}
        assert qs["A"].vertices_per_part == [n, 0]
        assert qs["B"].vertices_per_part == [0, n]

    def test_unassigned_endpoint_raises(self, spark, graph, runs):
        edges, n = graph
        missing = int(edges["src"].iloc[0])
        random, metis = runs
        a = random.assignment
        dropped = PartitionRun(
            random.partitioner, random.cut_type, 4, random.seconds, a[a["vertex"] != missing]
        )
        split = split_vertices(n, seed=7)
        edges_sdf, split_sdf = to_spark(spark, edges), spark.createDataFrame(split)
        stacked = assignment_to_spark(spark, dropped, metis)
        got = quality.edge_cut_query(edges_sdf, stacked, split=split_sdf)
        assert_equivalent(
            got, self.EDGE_CUT_SQL, edges=edges, assign=_stacked(dropped, metis), split=split
        )
        unassigned = int(((edges["src"] == missing) | (edges["dst"] == missing)).sum())
        totals = {
            r["partitioner"]: (r["n_edges"], r["unassigned_edges"])
            for r in got.where("part IS NULL").collect()
        }
        assert totals == {"Random": (len(edges), unassigned), "Metis": (len(edges), 0)}
        assert unassigned > 0
        message = f"Random: {unassigned} of {len(edges)} edges"
        with pytest.raises(ValueError, match=message):
            quality.edge_cut_qualities(edges_sdf, stacked, 4, split=split_sdf)
        with pytest.raises(ValueError, match=message):
            quality.edge_cut_quality(
                edges_sdf, assignment_to_spark(spark, dropped), 4, split=split_sdf
            )
        q = quality.edge_cut_quality(
            edges_sdf, assignment_to_spark(spark, metis), 4, split=split_sdf
        )
        assert q.n_edges == len(edges)

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
        run_like = PartitionRun("one", "edge-cut", 1, 0.0, a)
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
        run_like = PartitionRun("two", "edge-cut", 2, 0.0, a)
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run_like), 2,
            split=spark.createDataFrame(split),
        )
        assert q.train_per_part == [1, 0]
        assert q.train_vertex_balance == 2.0
        assert q.cut_edges == 1


def test_results_independent_of_physical_settings(spark, graph):
    """Same metrics at 16 and 64 shuffle partitions, broadcast off and
    default, and inputs lifted as RDD-backed or local relations."""
    edges, n = graph
    split_pdf = split_vertices(n, seed=7)
    runs = [
        run_partitioner(make_vertex_partitioner(p), edges, 4, n_vertices=n, split=split_pdf)
        for p in ("Random", "LDG", "Metis")
    ]
    keys = (
        "spark.sql.shuffle.partitions",
        "spark.sql.autoBroadcastJoinThreshold",
        "spark.sql.execution.arrow.localRelationThreshold",
    )
    old = {key: spark.conf.get(key) for key in keys}
    results, summaries, local_relation = {}, {}, {}
    try:
        for setting in itertools.product((16, 64), ("-1", None), ("0", None)):
            for key, value in zip(keys, setting):
                if value is None:
                    spark.conf.unset(key)
                else:
                    spark.conf.set(key, value)
            # Lifted here, so the local-relation threshold reaches them.
            edges_sdf = to_spark(spark, edges)
            results[setting] = quality.edge_cut_qualities(
                edges_sdf, assignment_to_spark(spark, *runs), 4,
                split=split_to_spark(spark, n, seed=7),
            )
            summaries[setting] = summary(spark, edges_sdf)
            plan = edges_sdf._jdf.queryExecution().optimizedPlan().toString()
            local_relation[setting[2]] = "LocalRelation" in plan
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)
    assert {key: spark.conf.get(key) for key in keys} == old
    assert len(results) == 8
    assert local_relation == {"0": False, None: True}
    first = results[16, "-1", "0"]
    assert sorted(first) == ["LDG", "Metis", "Random"]
    for got in results.values():
        assert got == first
    for got in summaries.values():
        assert got == summaries[16, "-1", "0"]

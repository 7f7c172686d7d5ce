"""Benchmark backing the Figure 12 edge-cut series (edge-cut metrics).

Measures the Spark SQL edge-cut computation (with the training-vertex
balance over the graph's split) over a real METIS-like assignment of the
road graph. Regenerate the series with
``python jobs/table5_distdgl_amortization.py``.
"""
import pytest

from repro.exp.harness import load_bundle
from repro.graphs.generators import to_spark
from repro.partitioning.base import assignment_to_spark, run_partitioner
from repro.partitioning.quality import edge_cut_quality
from repro.partitioning.vertex.metis_like import MetisLikePartitioner

SCALE = 1e-3
K = 8


@pytest.fixture(scope="module")
def prepared(spark):
    b = load_bundle("DI", scale=SCALE, seed=0)
    run = run_partitioner(
        MetisLikePartitioner(), b.edges, K, n_vertices=b.n_vertices, seed=0
    )
    sdfs = (
        to_spark(spark, b.edges),
        assignment_to_spark(spark, run),
        spark.createDataFrame(b.split),
    )
    for sdf in sdfs:
        sdf.cache().count()
    return sdfs


def test_bench_fig12_cut(benchmark, prepared):
    edges_sdf, assign_sdf, split_sdf = prepared
    q = benchmark.pedantic(
        edge_cut_quality, args=(edges_sdf, assign_sdf, K),
        kwargs={"split": split_sdf}, rounds=3, iterations=1,
    )
    assert q.edge_cut_ratio < 0.2  # multilevel on a road mesh cuts little

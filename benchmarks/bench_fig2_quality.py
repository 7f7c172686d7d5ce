"""Benchmark of the Spark SQL vertex-cut metrics (paper Figure 2/4 quantities).

Measures ``vertex_cut_quality`` — replication factor and balances from one
query — over a real DBH assignment. The Figure 2/4 series themselves come
from ``distgnn.partition_stats``; regenerate them with
``python jobs/fig2_replication_factors.py``.
"""
import pytest

from repro.exp.harness import load_bundle
from repro.partitioning.base import assignment_to_spark, run_partitioner
from repro.partitioning.edge.dbh import DBHPartitioner
from repro.partitioning.quality import vertex_cut_quality

SCALE = 1e-3
K = 8


@pytest.fixture(scope="module")
def assignment(spark):
    b = load_bundle("EU", scale=SCALE, seed=0)
    run = run_partitioner(DBHPartitioner(), b.edges, K, n_vertices=b.n_vertices, seed=0)
    sdf = assignment_to_spark(spark, run)
    sdf.cache().count()
    return sdf


def test_bench_fig2_quality(benchmark, assignment):
    q = benchmark.pedantic(
        vertex_cut_quality, args=(assignment, K), rounds=3, iterations=1
    )
    assert 1.0 <= q.replication_factor <= K

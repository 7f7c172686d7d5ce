"""Benchmark of the vertex-cut metrics (paper Figure 2/4 quantities).

Measures ``distgnn.partition_stats`` — per-part edges, covered vertices and
replicas, from which the replication factor and balances follow — over a
real DBH assignment. The Figure 2/4 series and Table 4 come from this
function; regenerate them with ``python jobs/table4_distgnn_amortization.py``.
"""
import pytest

from repro.exp.harness import load_bundle
from repro.partitioning.base import run_partitioner
from repro.partitioning.edge.dbh import DBHPartitioner
from repro.simulate.distgnn import partition_stats

SCALE = 1e-3
K = 8


@pytest.fixture(scope="module")
def assignment():
    b = load_bundle("EU", scale=SCALE, seed=0)
    run = run_partitioner(DBHPartitioner(), b.edges, K, n_vertices=b.n_vertices, seed=0)
    return run.assignment


def test_bench_fig2_quality(benchmark, assignment):
    st = benchmark.pedantic(
        partition_stats, args=(assignment, K), rounds=3, iterations=1
    )
    assert 1.0 <= st.replication_factor <= K

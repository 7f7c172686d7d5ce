"""Benchmark backing Table 5 (DistDGL track).

Measures one Table 5 cell end to end: partition the EN stand-in with the
METIS-like partitioner, plan the epoch's mini-batches, run one sampling
epoch over the CSR adjacency (3-layer GraphSage fanouts), and evaluate the
phase-time model. Regenerate the full table with
``python jobs/table5_distdgl_amortization.py``.
"""
import pytest

from repro.exp.harness import load_bundle
from repro.graphs.generators import csr_adjacency
from repro.gnn.sampling import FANOUTS, plan_batches, sample_epoch
from repro.partitioning.base import run_partitioner
from repro.partitioning.vertex.metis_like import MetisLikePartitioner
from repro.simulate.costmodel import ClusterModel
from repro.simulate.distdgl import phase_times
from repro.simulate.distgnn import GNNConfig

SCALE = 1e-3
K = 8
GBS = 64


@pytest.fixture(scope="module")
def prepared():
    b = load_bundle("EN", scale=SCALE, seed=0)
    run = run_partitioner(
        MetisLikePartitioner(), b.edges, K, n_vertices=b.n_vertices, seed=0
    )
    owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
    return b, owner, csr_adjacency(b.edges, b.n_vertices)


def table5_cell(b, owner, csr):
    seeds = plan_batches(b.train, owner, K, GBS, seed=0)
    stats = sample_epoch(*csr, seeds, owner, FANOUTS[3], seed=0, global_batch=GBS)
    ph = phase_times(stats, GNNConfig(64, 64, 3), ClusterModel(), FANOUTS[3])
    return ph.epoch_seconds


def test_bench_table5_cell(benchmark, prepared):
    epoch_s = benchmark.pedantic(table5_cell, args=prepared, rounds=3, iterations=1)
    assert epoch_s > 0

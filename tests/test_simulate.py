"""Tests for the cost model, DistGNN/DistDGL simulators and amortization."""
import pytest

from repro.graphs.datasets import generate, n_vertices_of, split_vertices
from repro.graphs.generators import csr_adjacency, undirected_view
from repro.gnn.sampling import FANOUTS, plan_batches, sample_epoch
from repro.partitioning.base import run_partitioner
from repro.partitioning.edge.hep import hep100
from repro.partitioning.edge.random_ep import RandomEdgePartitioner
from repro.partitioning.registry import make_vertex_partitioner
from repro.simulate import amortization, distdgl, distgnn
from repro.simulate.costmodel import (
    PYTHON_PENALTY,
    ClusterModel,
    normalized_partition_seconds,
)

CLUSTER = ClusterModel()
SCALE = 1e-4


@pytest.fixture(scope="module")
def eu_runs():
    edges = undirected_view(generate("EU", scale=SCALE, seed=0))
    n = n_vertices_of(edges)
    rnd = run_partitioner(RandomEdgePartitioner(), edges, 8, n_vertices=n)
    hep = run_partitioner(hep100(), edges, 8, n_vertices=n)
    return edges, n, rnd, hep


class TestPartitionStats:
    def test_totals_consistent(self, eu_runs):
        edges, n, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        assert st.n_edges == len(edges)
        assert st.edges.sum() == len(edges)
        assert st.n_vertices <= n
        # masters partition the vertex set: replicas = covered - |V|
        assert st.replicas.sum() == st.vertices.sum() - st.n_vertices

    def test_rf_matches_definition(self, eu_runs):
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        assert st.replication_factor == pytest.approx(
            st.vertices.sum() / st.n_vertices
        )

    def test_hep_has_lower_rf(self, eu_runs):
        _, _, rnd, hep = eu_runs
        assert (
            distgnn.partition_stats(hep.assignment, 8).replication_factor
            < distgnn.partition_stats(rnd.assignment, 8).replication_factor
        )


class TestDistGNNEpochMetrics:
    def cfg(self, **kw):
        base = dict(feature=64, hidden=64, layers=2)
        base.update(kw)
        return distgnn.GNNConfig(**base)

    def test_better_partitioning_is_faster_and_leaner(self, eu_runs):
        _, _, rnd, hep = eu_runs
        st_r = distgnn.partition_stats(rnd.assignment, 8)
        st_h = distgnn.partition_stats(hep.assignment, 8)
        m_r = distgnn.epoch_metrics(st_r, self.cfg(), CLUSTER, scale=SCALE)
        m_h = distgnn.epoch_metrics(st_h, self.cfg(), CLUSTER, scale=SCALE)
        assert m_h.epoch_seconds < m_r.epoch_seconds
        assert m_h.network_bytes < m_r.network_bytes
        assert m_h.mem_per_machine.max() < m_r.mem_per_machine.max()

    def test_network_proportional_to_replicas(self, eu_runs):
        # The paper's Figure 3 correlation is structural in the simulator.
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        m1 = distgnn.epoch_metrics(st, self.cfg(hidden=16), CLUSTER, scale=SCALE)
        m2 = distgnn.epoch_metrics(st, self.cfg(hidden=32), CLUSTER, scale=SCALE)
        # doubling hidden dim ~ doubles synced bytes (2 of 2 layers hidden-sized)
        assert m2.network_bytes == pytest.approx(2 * m1.network_bytes, rel=0.01)

    def test_memory_grows_with_feature_and_layers(self, eu_runs):
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        base = distgnn.epoch_metrics(st, self.cfg(), CLUSTER, scale=SCALE)
        big_f = distgnn.epoch_metrics(st, self.cfg(feature=512), CLUSTER, scale=SCALE)
        more_l = distgnn.epoch_metrics(st, self.cfg(layers=4), CLUSTER, scale=SCALE)
        assert big_f.mem_per_machine.max() > base.mem_per_machine.max()
        assert more_l.mem_per_machine.max() > base.mem_per_machine.max()

    def test_mem_balance_tracks_vertex_balance(self, eu_runs):
        # Paper Figure 5: vertex imbalance == memory imbalance (at large
        # feature sizes where vertex state dominates the edge structure).
        _, _, _, hep = eu_runs
        st = distgnn.partition_stats(hep.assignment, 8)
        m = distgnn.epoch_metrics(st, self.cfg(feature=512), CLUSTER, scale=SCALE)
        assert m.mem_balance == pytest.approx(st.vertex_balance, rel=0.1)

    def test_oom_flag_respects_budget(self, eu_runs):
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        tight = ClusterModel(machine_mem_bytes=1.0)  # impossible budget
        m = distgnn.epoch_metrics(st, self.cfg(), tight, scale=SCALE)
        assert m.oom
        roomy = ClusterModel(machine_mem_bytes=1e18)
        assert not distgnn.epoch_metrics(st, self.cfg(), roomy, scale=SCALE).oom

    def test_comm_dominates_for_random(self, eu_runs):
        # DistGNN is communication-bound under poor partitioning — the
        # precondition for the paper's large speedups.
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        m = distgnn.epoch_metrics(st, self.cfg(feature=512, hidden=64), CLUSTER, scale=SCALE)
        assert m.comm_seconds > m.compute_seconds


class TestDistDGLPhases:
    @pytest.fixture(scope="class")
    def sampled(self):
        edges = undirected_view(generate("EN", scale=SCALE, seed=0))
        n = n_vertices_of(edges)
        split = split_vertices(n, seed=7)
        train = split.loc[split["role"] == "train", "vertex"].to_numpy()
        run = run_partitioner(
            make_vertex_partitioner("Metis"), edges, 4, n_vertices=n
        )
        owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        return sample_epoch(
            *csr_adjacency(edges, n), seeds, owner, FANOUTS[3], seed=0, global_batch=64
        )

    def cfg(self, **kw):
        base = dict(feature=64, hidden=64, layers=3)
        base.update(kw)
        return distgnn.GNNConfig(**base)

    def test_phases_positive_and_sum(self, sampled):
        ph = distdgl.phase_times(sampled, self.cfg(), CLUSTER, FANOUTS[3])
        for v in (ph.sampling, ph.feature_fetch, ph.forward, ph.backward, ph.update):
            assert v > 0
        assert ph.epoch_seconds == pytest.approx(
            ph.sampling + ph.feature_fetch + ph.forward + ph.backward + ph.update
        )

    def test_fetch_grows_with_feature_sampling_constant(self, sampled):
        # Paper Fig 19a: feature size moves only the fetch phase.
        small = distdgl.phase_times(sampled, self.cfg(feature=16), CLUSTER, FANOUTS[3])
        big = distdgl.phase_times(sampled, self.cfg(feature=512), CLUSTER, FANOUTS[3])
        assert big.feature_fetch > 5 * small.feature_fetch
        assert big.sampling == pytest.approx(small.sampling)

    def test_fetch_dominates_sampling_at_512(self, sampled):
        # Paper: crossover between f=64 and f=512 on skewed graphs.
        ph = distdgl.phase_times(sampled, self.cfg(feature=512), CLUSTER, FANOUTS[3])
        assert ph.feature_fetch > ph.sampling
        ph16 = distdgl.phase_times(sampled, self.cfg(feature=16), CLUSTER, FANOUTS[3])
        assert ph16.sampling > ph16.feature_fetch

    def test_hidden_dim_moves_only_compute(self, sampled):
        small = distdgl.phase_times(sampled, self.cfg(hidden=16), CLUSTER, FANOUTS[3])
        big = distdgl.phase_times(sampled, self.cfg(hidden=512), CLUSTER, FANOUTS[3])
        assert big.forward > small.forward
        assert big.sampling == pytest.approx(small.sampling)
        assert big.feature_fetch == pytest.approx(small.feature_fetch)

    def test_network_bytes_formula(self, sampled):
        nb = distdgl.network_bytes(sampled, self.cfg(feature=32))
        assert nb == sampled.epoch_total("remote_inputs") * 32 * 4


class TestAmortization:
    def test_basic_division(self):
        assert amortization.epochs_to_amortize(10.0, 3.0, 1.0) == pytest.approx(5.0)

    def test_slowdown_returns_none(self):
        assert amortization.epochs_to_amortize(10.0, 1.0, 2.0) is None
        assert amortization.epochs_to_amortize(10.0, 1.0, 1.0) is None

    def test_penalty_normalization(self):
        assert normalized_partition_seconds("HDRF", 40.0) == pytest.approx(
            40.0 / PYTHON_PENALTY["HDRF"]
        )
        assert normalized_partition_seconds("Random", 40.0) == pytest.approx(40.0)
        assert set(PYTHON_PENALTY) >= {
            "Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100",
            "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP",
        }

    def test_partition_time_model_adds_io_floor(self):
        from repro.simulate.costmodel import IO_COST_PER_EDGE, partition_time_model

        t = partition_time_model("HDRF", 40.0, 1_000_000)
        assert t == pytest.approx(
            1_000_000 * IO_COST_PER_EDGE + 40.0 / PYTHON_PENALTY["HDRF"]
        )

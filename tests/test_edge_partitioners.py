"""Unit tests for the six edge partitioners (vertex-cut, paper Table 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.datasets import generate, n_vertices_of
from repro.graphs.generators import undirected_view
from repro.partitioning.base import VERTEX_CUT, run_partitioner
from repro.partitioning.edge.dbh import DBHPartitioner
from repro.partitioning.edge import hdrf
from repro.partitioning.edge.hdrf import HDRFPartitioner
from repro.partitioning.edge.hep import HEPPartitioner, hep10, hep100
from repro.partitioning.edge.random_ep import RandomEdgePartitioner, hash_to_part, splitmix64
from repro.partitioning.edge.twops_l import TwoPSLPartitioner

ALL = [
    RandomEdgePartitioner,
    DBHPartitioner,
    HDRFPartitioner,
    TwoPSLPartitioner,
    hep10,
    hep100,
]


@pytest.fixture(scope="module")
def or_graph():
    edges = undirected_view(generate("OR", scale=1e-4, seed=0))
    return edges, n_vertices_of(edges)


@pytest.fixture(scope="module")
def eu_graph():
    edges = undirected_view(generate("EU", scale=1e-4, seed=0))
    return edges, n_vertices_of(edges)


def _quality(assign: pd.DataFrame, k: int):
    epp = assign.groupby("part").size().reindex(range(k), fill_value=0)
    cov = pd.concat(
        [
            assign[["part", "src"]].rename(columns={"src": "v"}),
            assign[["part", "dst"]].rename(columns={"dst": "v"}),
        ]
    ).drop_duplicates()
    vpp = cov.groupby("part").size().reindex(range(k), fill_value=0)
    rf = vpp.sum() / cov["v"].nunique()
    return rf, epp.max() / epp.mean(), vpp.max() / vpp.mean()


@pytest.mark.parametrize("factory", ALL)
class TestCommonProperties:
    def test_every_edge_assigned_in_range(self, or_graph, factory):
        edges, n = or_graph
        p = factory()
        parts = p.assign(edges, 4, n_vertices=n, seed=0)
        assert len(parts) == len(edges)
        assert parts.min() >= 0 and parts.max() < 4

    def test_deterministic(self, or_graph, factory):
        edges, n = or_graph
        a = factory().assign(edges, 4, n_vertices=n, seed=0)
        b = factory().assign(edges, 4, n_vertices=n, seed=0)
        np.testing.assert_array_equal(a, b)

    def test_edge_balance_capped(self, or_graph, factory):
        # Paper observes alpha <= 1.11 for all edge partitioners (Sec 4.2).
        edges, n = or_graph
        p = factory()
        run = run_partitioner(p, edges, 8, n_vertices=n, seed=0)
        _, eb, _ = _quality(run.assignment, 8)
        assert eb <= 1.2, f"{p.name} edge balance {eb}"

    def test_run_partitioner_metadata(self, or_graph, factory):
        edges, n = or_graph
        p = factory()
        run = run_partitioner(p, edges, 4, n_vertices=n, seed=0)
        assert run.cut_type == VERTEX_CUT
        assert run.k == 4
        assert run.seconds > 0
        assert list(run.assignment.columns) == ["src", "dst", "part"]

    def test_all_partitions_nonempty(self, eu_graph, factory):
        edges, n = eu_graph
        parts = factory().assign(edges, 8, n_vertices=n, seed=0)
        assert set(np.unique(parts)) == set(range(8))


class TestHashes:
    def test_splitmix64_is_deterministic_and_spreads(self):
        x = np.arange(1000, dtype=np.uint64)
        h1, h2 = splitmix64(x), splitmix64(x)
        np.testing.assert_array_equal(h1, h2)
        assert len(np.unique(h1)) == 1000

    def test_hash_to_part_uniform(self):
        parts = hash_to_part(np.arange(40000, dtype=np.uint64), 8, seed=1)
        counts = np.bincount(parts, minlength=8)
        assert counts.min() > 0.9 * 40000 / 8
        assert counts.max() < 1.1 * 40000 / 8

    def test_hash_to_part_seed_changes_assignment(self):
        x = np.arange(1000, dtype=np.uint64)
        assert (hash_to_part(x, 8, 0) != hash_to_part(x, 8, 1)).any()


class TestQualityOrdering:
    """The paper's central quality ordering (Figures 2, 11c) must emerge."""

    @pytest.mark.parametrize("k", [4, 8])
    def test_rf_ordering_on_web_graph(self, eu_graph, k):
        edges, n = eu_graph
        rf = {}
        for factory in ALL:
            p = factory()
            run = run_partitioner(p, edges, k, n_vertices=n, seed=0)
            rf[p.name], _, _ = _quality(run.assignment, k)
        # Strong locality graph: full ordering as in the paper.
        assert rf["HEP100"] < rf["HDRF"] < rf["DBH"] < rf["Random"]
        assert rf["HEP10"] < rf["DBH"]
        assert rf["2PS-L"] < rf["DBH"]

    def test_rf_ordering_on_social_graph(self, or_graph):
        edges, n = or_graph
        rf = {}
        for factory in [RandomEdgePartitioner, DBHPartitioner, HDRFPartitioner, hep100]:
            p = factory()
            run = run_partitioner(p, edges, 8, n_vertices=n, seed=0)
            rf[p.name], _, _ = _quality(run.assignment, 8)
        assert rf["HEP100"] <= rf["HDRF"] < rf["DBH"] < rf["Random"]

    def test_more_partitions_raise_rf(self, eu_graph):
        edges, n = eu_graph
        for factory in [RandomEdgePartitioner, HDRFPartitioner, hep100]:
            p = factory()
            rf4, _, _ = _quality(run_partitioner(p, edges, 4, n_vertices=n).assignment, 4)
            rf16, _, _ = _quality(run_partitioner(p, edges, 16, n_vertices=n).assignment, 16)
            assert rf16 > rf4, p.name

    def test_random_rf_approaches_k(self, or_graph):
        # Dense graph: random assignment replicates almost every vertex
        # everywhere, RF -> k (paper: 22.2 at k=32 on OR).
        edges, n = or_graph
        run = run_partitioner(RandomEdgePartitioner(), edges, 8, n_vertices=n)
        rf, _, _ = _quality(run.assignment, 8)
        assert rf > 7.5

    def test_hep_vertex_imbalance(self, eu_graph):
        # Paper Figure 4: HEP's expansion phase trades vertex balance for RF.
        edges, n = eu_graph
        _, _, vb_hep = _quality(run_partitioner(hep100(), edges, 8, n_vertices=n).assignment, 8)
        _, _, vb_dbh = _quality(run_partitioner(DBHPartitioner(), edges, 8, n_vertices=n).assignment, 8)
        assert vb_hep > vb_dbh
        assert vb_hep > 1.15

    def test_2psl_vertex_imbalance_on_web_graph(self, eu_graph):
        # Paper Figure 8 / EU slowdown: 2PS-L clusters pack vertices unevenly.
        edges, n = eu_graph
        _, _, vb = _quality(run_partitioner(TwoPSLPartitioner(), edges, 8, n_vertices=n).assignment, 8)
        assert vb > 1.2


class TestDBH:
    def test_hashes_lower_degree_endpoint(self):
        # Star graph: hub 0 with leaves 1..20 plus a chain among leaves.
        edges = pd.DataFrame({"src": [0] * 20, "dst": list(range(1, 21))})
        parts = DBHPartitioner().assign(edges, 4, n_vertices=21, seed=0)
        # Each edge hashed by its leaf (degree 1 < hub degree 20): the hub is
        # replicated but each leaf appears on exactly one partition.
        leaf_part = {}
        for (s, d), p in zip(edges.itertuples(index=False), parts):
            leaf_part.setdefault(d, set()).add(p)
        assert all(len(v) == 1 for v in leaf_part.values())

    def test_beats_random_on_powerlaw(self, or_graph):
        edges, n = or_graph
        rf_dbh, _, _ = _quality(run_partitioner(DBHPartitioner(), edges, 8, n_vertices=n).assignment, 8)
        rf_rnd, _, _ = _quality(run_partitioner(RandomEdgePartitioner(), edges, 8, n_vertices=n).assignment, 8)
        assert rf_dbh < rf_rnd


class TestHDRF:
    def test_colocates_edges_of_low_degree_vertex(self):
        # A path vertex's two edges should land together (replication avoided).
        edges = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4]})
        parts = HDRFPartitioner().assign(edges, 2, n_vertices=5, seed=0)
        # The path's 4 edges use at most 2 cut vertices; RF must stay low.
        a = pd.DataFrame({"src": edges["src"], "dst": edges["dst"], "part": parts})
        rf, _, _ = _quality(a, 2)
        assert rf <= 1.4

    def test_lambda_zero_ignores_balance(self, eu_graph, monkeypatch):
        edges, n = eu_graph
        eb_lam = _quality(
            run_partitioner(HDRFPartitioner(), edges, 8, n_vertices=n).assignment, 8
        )[1]
        monkeypatch.setattr(hdrf, "LAM", 0.0)
        eb_lam0 = _quality(
            run_partitioner(HDRFPartitioner(), edges, 8, n_vertices=n).assignment, 8
        )[1]
        assert eb_lam <= eb_lam0 + 1e-9


class TestHEP:
    def test_tau_threshold_splits_graph(self, eu_graph):
        edges, n = eu_graph
        # tau=0.01 -> virtually everything streamed; tau=100 -> all in-memory.
        rf_stream = _quality(
            run_partitioner(HEPPartitioner(tau=0.01), edges, 8, n_vertices=n).assignment, 8
        )[0]
        rf_mem = _quality(
            run_partitioner(HEPPartitioner(tau=100.0), edges, 8, n_vertices=n).assignment, 8
        )[0]
        assert rf_mem < rf_stream

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("graph", ["EU", "OR", "DI"])
    def test_tau_zero_streams_everything_like_hdrf(self, graph, k):
        # At tau=0 every vertex with an edge is high-degree, so the NE phase
        # gets no edge and HEP is HDRF's stream from empty state.
        edges = undirected_view(generate(graph, scale=1e-4, seed=0))
        n = n_vertices_of(edges)
        np.testing.assert_array_equal(
            HEPPartitioner(tau=0.0).assign(edges, k, n_vertices=n, seed=0),
            HDRFPartitioner().assign(edges, k, n_vertices=n, seed=0),
        )

    def test_hep_name_includes_tau(self):
        assert hep10().name == "HEP10"
        assert hep100().name == "HEP100"

    def test_hep_best_rf_on_locality_graph(self, eu_graph):
        edges, n = eu_graph
        rf_hep = _quality(run_partitioner(hep100(), edges, 8, n_vertices=n).assignment, 8)[0]
        rf_hdrf = _quality(run_partitioner(HDRFPartitioner(), edges, 8, n_vertices=n).assignment, 8)[0]
        assert rf_hep < rf_hdrf


class TestTwoPSL:
    def test_clusters_respect_volume_cap_loosely(self, eu_graph):
        edges, n = eu_graph
        run = run_partitioner(TwoPSLPartitioner(), edges, 8, n_vertices=n)
        _, eb, _ = _quality(run.assignment, 8)
        assert eb <= 1.15  # alpha=1.1 cap plus last-resort spill

    def test_faster_than_hdrf(self, or_graph):
        # The paper's point about 2PS-L: linear-time scoring, much faster
        # than HDRF's k-way scoring (Figure 6).
        edges, n = or_graph
        t_2ps = run_partitioner(TwoPSLPartitioner(), edges, 16, n_vertices=n).seconds
        t_hdrf = run_partitioner(HDRFPartitioner(), edges, 16, n_vertices=n).seconds
        assert t_2ps < t_hdrf

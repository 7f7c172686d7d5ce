"""Unit tests for the six vertex partitioners (edge-cut, paper Table 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.datasets import generate, n_vertices_of, split_vertices
from repro.graphs.generators import undirected_view
from repro.partitioning.base import EDGE_CUT, run_partitioner
from repro.partitioning.registry import VERTEX_PARTITIONERS, make_vertex_partitioner
from repro.partitioning.vertex.bytegnn import ByteGNNPartitioner
from repro.partitioning.vertex.kahip_like import KaHIPLikePartitioner
from repro.partitioning.vertex.ldg import LDGPartitioner
from repro.partitioning.vertex.metis_like import MetisLikePartitioner
from repro.partitioning.vertex.multilevel import (
    coarsen,
    cut_weight,
    initial_partition,
    multilevel_partition,
    refine_fm,
    refine_oneshot,
)
from repro.partitioning.vertex.random_vp import RandomVertexPartitioner
from repro.partitioning.vertex.spinner import SpinnerPartitioner


@pytest.fixture(scope="module")
def eu_graph():
    edges = undirected_view(generate("EU", scale=1e-4, seed=0))
    return edges, n_vertices_of(edges)


@pytest.fixture(scope="module")
def di_graph():
    edges = undirected_view(generate("DI", scale=1e-4, seed=0))
    return edges, n_vertices_of(edges)


def _cut_ratio(edges, assignment):
    part = assignment.set_index("vertex")["part"]
    return float(
        (part[edges["src"]].to_numpy() != part[edges["dst"]].to_numpy()).mean()
    )


def _vb(assignment, k):
    vpp = assignment.groupby("part").size().reindex(range(k), fill_value=0)
    return float(vpp.max() / vpp.mean())


@pytest.mark.parametrize("name", list(VERTEX_PARTITIONERS))
class TestCommonProperties:
    def test_every_vertex_assigned_in_range(self, eu_graph, name):
        edges, n = eu_graph
        parts = make_vertex_partitioner(name).assign(edges, 4, n_vertices=n, seed=0)
        assert len(parts) == n
        assert parts.min() >= 0 and parts.max() < 4

    def test_deterministic(self, eu_graph, name):
        edges, n = eu_graph
        a = make_vertex_partitioner(name).assign(edges, 4, n_vertices=n, seed=1)
        b = make_vertex_partitioner(name).assign(edges, 4, n_vertices=n, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_run_partitioner_metadata(self, eu_graph, name):
        edges, n = eu_graph
        run = run_partitioner(make_vertex_partitioner(name), edges, 4, n_vertices=n)
        assert run.cut_type == EDGE_CUT
        assert list(run.assignment.columns) == ["vertex", "part"]
        assert len(run.assignment) == n

    def test_vertex_balance_reasonable(self, eu_graph, name):
        edges, n = eu_graph
        run = run_partitioner(make_vertex_partitioner(name), edges, 8, n_vertices=n)
        assert _vb(run.assignment, 8) <= 1.6, name

    def test_beats_or_ties_random_cut(self, eu_graph, name):
        edges, n = eu_graph
        run = run_partitioner(make_vertex_partitioner(name), edges, 8, n_vertices=n)
        rnd = run_partitioner(RandomVertexPartitioner(), edges, 8, n_vertices=n)
        assert _cut_ratio(edges, run.assignment) <= _cut_ratio(edges, rnd.assignment) + 0.02


class TestCutOrdering:
    """Paper Figure 12's qualitative ordering must emerge."""

    def test_kahip_beats_metis_beats_random(self, eu_graph):
        edges, n = eu_graph
        cuts = {
            name: _cut_ratio(
                edges, run_partitioner(make_vertex_partitioner(name), edges, 8, n_vertices=n).assignment
            )
            for name in ["Random", "Metis", "KaHIP"]
        }
        assert cuts["KaHIP"] < cuts["Metis"] < cuts["Random"]

    def test_road_graph_has_tiny_cut_for_multilevel(self, di_graph):
        # Paper: KaHIP reaches < 0.001 on DI while Random is ~0.68.
        edges, n = di_graph
        cut_kahip = _cut_ratio(
            edges, run_partitioner(KaHIPLikePartitioner(restarts=2), edges, 8, n_vertices=n).assignment
        )
        cut_rnd = _cut_ratio(
            edges, run_partitioner(RandomVertexPartitioner(), edges, 8, n_vertices=n).assignment
        )
        assert cut_kahip < 0.1
        assert cut_rnd > 0.8

    def test_spinner_is_much_worse_on_road_than_metis(self, di_graph):
        # Paper Sec 5.3(4): on DI the edge-cut of Spinner is far higher than
        # the other non-random partitioners.
        edges, n = di_graph
        cut_spin = _cut_ratio(
            edges, run_partitioner(SpinnerPartitioner(), edges, 8, n_vertices=n).assignment
        )
        cut_metis = _cut_ratio(
            edges, run_partitioner(MetisLikePartitioner(), edges, 8, n_vertices=n).assignment
        )
        assert cut_spin > 3 * cut_metis

    def test_more_partitions_increase_cut(self, eu_graph):
        edges, n = eu_graph
        for name in ["Random", "LDG", "Metis"]:
            p4 = run_partitioner(make_vertex_partitioner(name), edges, 4, n_vertices=n)
            p16 = run_partitioner(make_vertex_partitioner(name), edges, 16, n_vertices=n)
            assert _cut_ratio(edges, p16.assignment) > _cut_ratio(edges, p4.assignment), name

    def test_kahip_slowest_metis_moderate(self, eu_graph):
        # Paper Figure 15 (log scale): KaHIP has the highest partitioning time.
        edges, n = eu_graph
        t = {
            name: run_partitioner(make_vertex_partitioner(name), edges, 8, n_vertices=n).seconds
            for name in ["LDG", "Metis", "KaHIP"]
        }
        assert t["KaHIP"] > t["Metis"]
        assert t["KaHIP"] > t["LDG"]


class TestLDG:
    def test_respects_capacity(self, eu_graph):
        edges, n = eu_graph
        run = run_partitioner(LDGPartitioner(alpha=1.05), edges, 8, n_vertices=n)
        vpp = run.assignment.groupby("part").size()
        assert vpp.max() <= 1.06 * n / 8 + 1

    def test_clusters_neighbors_together(self):
        # Two disjoint cliques, k=2: LDG should separate them perfectly.
        import itertools

        c1 = list(itertools.combinations(range(6), 2))
        c2 = list(itertools.combinations(range(6, 12), 2))
        edges = pd.DataFrame(c1 + c2, columns=["src", "dst"])
        parts = LDGPartitioner().assign(edges, 2, n_vertices=12, seed=0)
        assert len(set(parts[:6])) == 1
        assert len(set(parts[6:])) == 1
        assert parts[0] != parts[6]


class TestSpinner:
    def test_balance_enforced(self, eu_graph):
        edges, n = eu_graph
        run = run_partitioner(SpinnerPartitioner(), edges, 8, n_vertices=n)
        assert _vb(run.assignment, 8) <= 1.1

    def test_more_iterations_do_not_hurt(self, eu_graph):
        edges, n = eu_graph
        c1 = _cut_ratio(
            edges,
            run_partitioner(SpinnerPartitioner(iterations=1), edges, 8, n_vertices=n).assignment,
        )
        c15 = _cut_ratio(
            edges,
            run_partitioner(SpinnerPartitioner(iterations=15), edges, 8, n_vertices=n).assignment,
        )
        assert c15 <= c1 + 0.02


class TestMultilevel:
    def test_coarsen_shrinks_and_preserves_weight(self, eu_graph):
        edges, n = eu_graph
        rng = np.random.default_rng(0)
        levels = coarsen(
            edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64), n, 4, rng
        )
        assert len(levels) > 1
        for lvl in levels:
            assert lvl.vwgt.sum() == n  # vertex weight conserved
        assert len(levels[-1].vwgt) < len(levels[0].vwgt)

    def test_initial_partition_covers_all(self, eu_graph):
        edges, n = eu_graph
        rng = np.random.default_rng(0)
        levels = coarsen(
            edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64), n, 4, rng
        )
        part = initial_partition(levels[-1], 4, rng)
        assert part.min() >= 0 and part.max() < 4

    @pytest.mark.parametrize("refiner", [refine_oneshot, refine_fm])
    def test_refinement_never_worsens_cut(self, eu_graph, refiner):
        edges, n = eu_graph
        eu = edges["src"].to_numpy(np.int64)
        ev = edges["dst"].to_numpy(np.int64)
        rng = np.random.default_rng(0)
        levels = coarsen(eu, ev, n, 4, rng)
        lvl = levels[-1]
        part = initial_partition(lvl, 4, rng)
        before = cut_weight(lvl.eu, lvl.ev, lvl.ew, part)
        after_part = refiner(lvl, part, 4)
        after = cut_weight(lvl.eu, lvl.ev, lvl.ew, after_part)
        assert after <= before

    def test_best_of_restarts_beats_single_metis_run(self, eu_graph):
        # The KaHIP-like quality edge comes from best-of-N restarts over FM
        # refinement; a single FM run can lose to one-shot on a given seed.
        edges, n = eu_graph
        eu = edges["src"].to_numpy(np.int64)
        ev = edges["dst"].to_numpy(np.int64)
        ew = np.ones(len(eu))
        best_fm = min(
            cut_weight(eu, ev, ew, multilevel_partition(eu, ev, n, 4, seed=s, refiner="fm"))
            for s in (1, 2, 3, 4)
        )
        one = cut_weight(eu, ev, ew, multilevel_partition(eu, ev, n, 4, seed=1, refiner="oneshot"))
        assert best_fm <= one * 1.05

    def test_two_cliques_split_perfectly(self):
        import itertools

        c1 = list(itertools.combinations(range(8), 2))
        c2 = list(itertools.combinations(range(8, 16), 2))
        bridge = [(0, 8)]
        edges = pd.DataFrame(c1 + c2 + bridge, columns=["src", "dst"])
        part = MetisLikePartitioner().assign(edges, 2, n_vertices=16, seed=0)
        assert len(set(part[:8])) == 1
        assert len(set(part[8:])) == 1
        assert part[0] != part[8]


class TestByteGNN:
    def test_train_vertex_balance_is_tight(self, eu_graph):
        edges, n = eu_graph
        split = split_vertices(n, seed=7)
        run = run_partitioner(ByteGNNPartitioner(), edges, 8, n_vertices=n, split=split)
        train = split.loc[split["role"] == "train", "vertex"]
        part = run.assignment.set_index("vertex")["part"]
        tl = part[train].value_counts().reindex(range(8), fill_value=0)
        assert tl.max() / tl.mean() <= 1.25

    def test_works_without_split(self, eu_graph):
        edges, n = eu_graph
        parts = ByteGNNPartitioner().assign(edges, 4, n_vertices=n, seed=0)
        assert len(parts) == n


class TestKaHIP:
    def test_more_restarts_never_worse(self, eu_graph):
        edges, n = eu_graph
        c1 = _cut_ratio(
            edges,
            run_partitioner(KaHIPLikePartitioner(restarts=1), edges, 4, n_vertices=n).assignment,
        )
        c4 = _cut_ratio(
            edges,
            run_partitioner(KaHIPLikePartitioner(restarts=4), edges, 4, n_vertices=n).assignment,
        )
        assert c4 <= c1

"""Unit tests for the synthetic graph generators (numpy level, no Spark)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators
from repro.graphs.datasets import GRAPHS, generate, n_vertices_of, split_vertices


class TestDcsbmPowerlaw:
    def test_edge_count_close_to_target(self):
        df = generators.dcsbm_powerlaw(n_vertices=500, n_edges=5000, seed=1)
        assert 0.9 * 5000 <= len(df) <= 5000

    def test_simple_graph_no_self_loops(self):
        df = generators.dcsbm_powerlaw(n_vertices=300, n_edges=3000, seed=2)
        assert (df["src"] != df["dst"]).all()

    def test_simple_graph_no_duplicates(self):
        df = generators.dcsbm_powerlaw(n_vertices=300, n_edges=3000, seed=3)
        assert not df.duplicated(["src", "dst"]).any()

    def test_undirected_canonical_orientation(self):
        df = generators.dcsbm_powerlaw(n_vertices=300, n_edges=2000, directed=False, seed=4)
        assert (df["src"] < df["dst"]).all()

    def test_directed_has_both_orientations(self):
        df = generators.dcsbm_powerlaw(n_vertices=300, n_edges=4000, directed=True, seed=5)
        assert (df["src"] > df["dst"]).any() and (df["src"] < df["dst"]).any()

    def test_deterministic_in_seed(self):
        a = generators.dcsbm_powerlaw(n_vertices=200, n_edges=1000, seed=9)
        b = generators.dcsbm_powerlaw(n_vertices=200, n_edges=1000, seed=9)
        pd.testing.assert_frame_equal(a, b)

    def test_different_seeds_differ(self):
        a = generators.dcsbm_powerlaw(n_vertices=200, n_edges=1000, seed=9)
        b = generators.dcsbm_powerlaw(n_vertices=200, n_edges=1000, seed=10)
        assert not a.equals(b)

    def test_degree_distribution_is_skewed(self):
        df = generators.dcsbm_powerlaw(n_vertices=1000, n_edges=10000, gamma=2.1, seed=6)
        deg = pd.concat([df["src"], df["dst"]]).value_counts()
        assert deg.max() / deg.mean() > 5  # power-law hub exists

    def test_low_mixing_concentrates_edges_within_communities(self):
        def intra_frac(mixing):
            df, comm = generators.dcsbm_powerlaw(
                n_vertices=600,
                n_edges=6000,
                mixing=mixing,
                n_communities=12,
                seed=7,
                return_communities=True,
            )
            return (comm[df["src"]] == comm[df["dst"]]).mean()

        lo, hi = intra_frac(0.05), intra_frac(1.0)
        assert lo > 0.8  # strong planted locality
        assert hi < 0.3  # Chung-Lu background has little locality
        assert lo > hi

    def test_raises_on_tiny_vertex_count(self):
        with pytest.raises(ValueError):
            generators.dcsbm_powerlaw(n_vertices=1, n_edges=10)


class TestRoadGrid:
    def test_mean_degree_is_roadlike(self):
        df = generators.road_grid(n_vertices=2500, seed=1)
        deg = pd.concat([df["src"], df["dst"]]).value_counts()
        assert 1.5 <= deg.mean() <= 4.5

    def test_no_self_loops_or_duplicates(self):
        df = generators.road_grid(n_vertices=900, seed=2)
        assert (df["src"] != df["dst"]).all()
        assert not df.duplicated(["src", "dst"]).any()

    def test_deterministic(self):
        a = generators.road_grid(n_vertices=400, seed=3)
        b = generators.road_grid(n_vertices=400, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_max_degree_is_bounded(self):
        df = generators.road_grid(n_vertices=2500, seed=4)
        deg = pd.concat([df["src"], df["dst"]]).value_counts()
        assert deg.max() <= 10  # 4-neighborhood + few shortcuts


class TestViews:
    def test_undirected_view_canonical(self):
        df = pd.DataFrame({"src": [1, 2, 2, 3], "dst": [2, 1, 3, 3]})
        und = generators.undirected_view(df)
        assert (und["src"] < und["dst"]).all()
        assert len(und) == 2  # (1,2) deduped, (3,3) loop dropped

    def test_symmetrized_doubles_undirected(self):
        df = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        sym = generators.symmetrized(df)
        assert len(sym) == 4
        pairs = set(zip(sym["src"], sym["dst"]))
        assert (1, 0) in pairs and (2, 1) in pairs

    def test_csr_adjacency_rows_are_sorted_symmetrized_neighbourhoods(self):
        # Duplicate (1, 3)/(3, 1), a self-loop on 4; vertices 0, 4 and 6 have
        # no edges, and 6 lies past every edge endpoint.
        df = pd.DataFrame({"src": [3, 1, 5, 3, 2, 4], "dst": [1, 3, 1, 2, 5, 4]})
        indptr, indices = generators.csr_adjacency(df, 7)
        sym = generators.symmetrized(df)
        assert indptr[0] == 0 and indptr[-1] == len(indices) == len(sym)
        for v in range(7):
            want = np.sort(sym.loc[sym["src"] == v, "dst"].to_numpy())
            np.testing.assert_array_equal(indices[indptr[v]:indptr[v + 1]], want)
        assert [v for v in range(7) if indptr[v] == indptr[v + 1]] == [0, 4, 6]


@pytest.mark.parametrize("name", list(GRAPHS))
class TestDatasets:
    def test_generate_nonempty_and_simple(self, name):
        df = generate(name, scale=1e-4, seed=0)
        assert len(df) > 50
        assert (df["src"] != df["dst"]).all()
        assert not df.duplicated(["src", "dst"]).any()

    def test_relative_sizes_match_paper(self, name):
        spec = GRAPHS[name]
        n_v, n_e = spec.sizes(1e-4)
        df = generate(name, scale=1e-4, seed=0)
        # road grids round up to a full rows x cols lattice
        assert n_vertices_of(df) <= n_v + int(np.sqrt(n_v)) + 1
        # road grids derive edge count from the lattice, skip the edge bound
        if spec.kind != "road":
            assert 0.75 * n_e <= len(df) <= n_e

    def test_deterministic(self, name):
        a = generate(name, scale=1e-4, seed=0)
        b = generate(name, scale=1e-4, seed=0)
        pd.testing.assert_frame_equal(a, b)


class TestSplit:
    def test_split_fractions(self):
        s = split_vertices(1000, seed=1)
        counts = s["role"].value_counts()
        assert counts["train"] == 100
        assert counts["val"] == 100
        assert counts["test"] == 800

    def test_split_deterministic(self):
        a = split_vertices(500, seed=2)
        b = split_vertices(500, seed=2)
        pd.testing.assert_frame_equal(a, b)

    def test_split_covers_all_vertices(self):
        s = split_vertices(321, seed=3)
        assert sorted(s["vertex"]) == list(range(321))


class TestSparkIntegration:
    def test_to_spark_schema(self, spark):
        df = generators.to_spark(spark, pd.DataFrame({"src": [0, 1], "dst": [1, 2]}))
        assert [f.name for f in df.schema.fields] == ["src", "dst"]
        assert df.count() == 2

    def test_summary_matches_pandas(self, spark):
        from repro.graphs.datasets import load, summary

        pdf = generate("OR", scale=1e-4, seed=0)
        s = summary(spark, generators.to_spark(spark, pdf))
        deg = pd.concat([pdf["src"], pdf["dst"]]).value_counts()
        assert s["n_edges"] == len(pdf)
        assert s["n_vertices"] == len(deg)
        assert s["max_degree"] == deg.max()
        assert np.isclose(s["mean_degree"], deg.mean())
        assert load(spark, "OR", scale=1e-4, seed=0).count() == len(pdf)

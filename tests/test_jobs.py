"""Smoke tests: every job entrypoint runs end to end at test scale."""
import sys
import warnings
from pathlib import Path

import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))

import _common
import fig12_edge_cut
import graph_stats
import table4_distgnn_amortization
import table5_distdgl_amortization
from repro.exp.harness import run_distdgl_suite, run_distgnn_suite
from repro.simulate.distgnn import GNNConfig

SCALE = 1e-4


class TestGraphStatsJob:
    def test_emits_all_five_graphs(self, spark):
        out = graph_stats.run(spark, scale=SCALE)
        t1 = out["table1"]
        assert set(t1["graph"]) == {"HW", "DI", "EN", "EU", "OR"}
        assert (t1["n_edges"] > 0).all()
        # relative ordering of graph sizes matches the paper's Table 1
        sizes = t1.set_index("graph")["n_edges"]
        assert sizes["DI"] < sizes["EN"] <= sizes["EU"] <= sizes["OR"].max()


class TestFig2Job:
    """Fig 2/4/5 tables, selected by the Table 4 job from its suite rows."""

    @pytest.fixture(scope="class")
    def out(self):
        suite = run_distgnn_suite(ks=(4,), configs=[GNNConfig(512, 64, 3)], scale=SCALE)
        return table4_distgnn_amortization.fig2_tables(suite)

    def test_quality_columns(self, out):
        assert list(out["fig2_quality"].columns) == [
            "graph", "partitioner", "k", "replication_factor", "vertex_balance",
            "edge_balance", "mem_balance", "partition_seconds",
            "partition_seconds_norm",
        ]

    def test_all_partitioners_covered(self, out):
        q = out["fig2_quality"]
        assert set(q["partitioner"]) == {
            "Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100"
        }

    def test_random_has_worst_rf(self, out):
        q = out["fig2_quality"]
        for g, sub in q.groupby("graph"):
            rnd = sub.loc[sub["partitioner"] == "Random", "replication_factor"].iloc[0]
            assert rnd >= sub["replication_factor"].max() - 1e-9, g

    def test_mem_balance_tracks_vertex_balance(self, out):
        q = out["fig2_quality"]
        corr = q["mem_balance"].corr(q["vertex_balance"])
        assert corr > 0.95  # paper Figure 5: near-perfect correlation


class TestFig12Job:
    @pytest.fixture(scope="class")
    def out(self, spark):
        return fig12_edge_cut.run(spark, scale=SCALE, ks=(4,))

    def test_all_partitioners_covered(self, out):
        q = out["quality"]
        assert set(q["partitioner"]) == {
            "Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"
        }

    def test_random_has_worst_cut(self, out):
        q = out["quality"]
        for g, sub in q.groupby("graph"):
            rnd = sub.loc[sub["partitioner"] == "Random", "edge_cut"].iloc[0]
            assert rnd >= sub["edge_cut"].max() - 0.02, g

    def test_road_graph_has_lowest_multilevel_cut(self, out):
        q = out["quality"]
        kahip = q[q["partitioner"] == "KaHIP"].set_index("graph")["edge_cut"]
        assert kahip["DI"] == kahip.min()


class TestTable5Job:
    def test_restricted_run_produces_table(self, spark, monkeypatch):
        # Full job is bench-scale; smoke-test the pipeline on one graph by
        # calling the underlying suite with job-equivalent parameters.
        from repro.exp import tables

        suite = run_distdgl_suite(
            spark,
            graphs=("EU",),
            partitioners=("Random", "LDG", "Metis"),
            ks=(4,),
            features=(64,),
            hiddens=(64,),
            layer_counts=(2,),
            scale=SCALE,
            seed=0,
        )
        t5 = tables.amortization_table(
            suite, partitioners=["LDG", "Metis"]
        )
        assert list(t5.index) == ["EU"]
        assert list(t5.columns) == ["LDG", "Metis"]

    def test_roster_matches_paper_table5(self):
        assert table5_distdgl_amortization.VERTEX_ROSTER == [
            "ByteGNN", "KaHIP", "LDG", "Spinner", "Metis"
        ]


class TestFig24Tables:
    """Fig 24 from the Table 5 job: its k=8 points are Table 5 suite rows."""

    @pytest.fixture(scope="class")
    def job(self, spark):
        # The job's two suite calls, cut down to EU, Random+Metis, h=64, L=3.
        job = table5_distdgl_amortization
        suites = []

        def small_suite(spark, **kwargs):
            kwargs.update(
                graphs=("EU",), partitioners=("Random", "Metis"), hiddens=(64,),
                layer_counts=(3,),
            )
            suites.append(run_distdgl_suite(spark, **kwargs))
            return suites[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(job, "run_distdgl_suite", small_suite)
            out = job.run(spark, scale=SCALE)
        return out, suites

    def test_k_columns_in_order(self, job):
        _, (t5, scaleout) = job
        for name, df in table5_distdgl_amortization.fig24_tables(t5, scaleout).items():
            if name != "fig24_suite":
                assert list(df.columns) == ["graph", "partitioner", 4, 8, 16, 32]

    def test_k8_column_is_table5_speedup(self, job):
        _, (t5, scaleout) = job
        sp = table5_distdgl_amortization.fig24_tables(t5, scaleout)["fig24a_speedup"]
        rows = t5.query("partitioner != 'Random' and feature == 512 and layers == 3")
        assert list(sp[8]) == list(rows["speedup"].round(3))

    def test_k8_rows_are_the_table5_suite_rows(self, job):
        out, _ = job
        fig24 = out["fig24_suite"]
        pd.testing.assert_frame_equal(
            fig24[fig24["k"] == 8].reset_index(drop=True),
            out["suite"].query(table5_distdgl_amortization.FIG24_ROWS)
            .reset_index(drop=True),
        )
        assert sorted(fig24["k"].unique()) == [4, 8, 16, 32]


class TestSaveAndPrint:
    def test_pivot_columns_roundtrip_as_strings(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        pivot = pd.DataFrame(
            {"graph": ["EU"], "partitioner": ["Metis"], 4: [1.5], 32: [1.2]}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _common.save_and_print("job", {"pivot": pivot}, print_keys=("pivot",))
        back = pd.read_parquet(tmp_path / "job__pivot.parquet")
        assert list(back.columns) == ["graph", "partitioner", "4", "32"]

"""Smoke tests: every job entrypoint runs end to end at test scale."""
import sys
import warnings
from collections import Counter
from pathlib import Path

import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))

import _common
import graph_stats
import table4_distgnn_amortization
import table5_distdgl_amortization
from repro.exp import harness
from repro.exp.harness import run_distdgl_suite, run_distgnn_suite
from repro.gnn.sampling import sample_epoch
from repro.graphs.datasets import GRAPHS
from repro.partitioning import quality
from repro.partitioning.base import run_partitioner
from repro.partitioning.quality import edge_cut_qualities
from repro.partitioning.registry import VERTEX_PARTITIONERS

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
        suite = run_distgnn_suite(ks=(4,), scale=SCALE)
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
    """Figs 12/13/15, selected by the Table 5 job from its quality rows."""

    @pytest.fixture(scope="class")
    def out(self, spark):
        cells = [
            harness.distdgl_cells(
                spark, harness.load_bundle(g, scale=SCALE), grids={4: None}, seed=0,
                partitioners=tuple(VERTEX_PARTITIONERS),
            )[0]
            for g in GRAPHS
        ]
        return table5_distdgl_amortization.fig12_tables(pd.concat(cells, ignore_index=True))

    def test_all_partitioners_covered(self, out):
        q = out["fig12_quality"]
        assert set(q["partitioner"]) == {
            "Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"
        }

    def test_random_has_worst_cut(self, out):
        q = out["fig12_quality"]
        for g, sub in q.groupby("graph"):
            rnd = sub.loc[sub["partitioner"] == "Random", "edge_cut"].iloc[0]
            assert rnd >= sub["edge_cut"].max() - 0.02, g

    def test_road_graph_has_lowest_multilevel_cut(self, out):
        q = out["fig12_quality"]
        kahip = q[q["partitioner"] == "KaHIP"].set_index("graph")["edge_cut"]
        assert kahip["DI"] == kahip.min()


#: The graphs of the ``job`` fixture: EN is outside ``FIG24_GRAPHS``.
JOB_GRAPHS = ("EN", "EU", "OR")


@pytest.fixture(scope="module")
def job(spark):
    """The Table 5 job, cut down to EN/EU/OR, Random+Metis, h=64, L=3.

    Also counts the graph loads, and, per (graph, k), the partition runs per
    partitioner, the stacked quality queries and the sampled epochs.
    """
    job = table5_distdgl_amortization
    graph_of = {harness.load_bundle(g, scale=SCALE).n_vertices: g for g in JOB_GRAPHS}
    assert len(graph_of) == len(JOB_GRAPHS)
    loads, calls, queries, epochs = Counter(), Counter(), Counter(), Counter()

    def counted_load(name, **kwargs):
        loads[name] += 1
        return harness.load_bundle(name, **kwargs)

    def counted(p, edges, k, **kwargs):
        calls[graph_of[kwargs["n_vertices"]], p.name, k] += 1
        return run_partitioner(p, edges, k, **kwargs)

    def counted_query(edges, assign, k, *, split):
        queries[graph_of[split.count()], k] += 1
        return edge_cut_qualities(edges, assign, k, split=split)

    def counted_epoch(indptr, indices, seeds, owner, fanouts, **kwargs):
        stats = sample_epoch(indptr, indices, seeds, owner, fanouts, **kwargs)
        epochs[graph_of[len(indptr) - 1], stats.k] += 1
        return stats

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(job, "GRAPHS", JOB_GRAPHS)
        mp.setattr(job, "PARTITIONERS", ("Random", "Metis"))
        mp.setattr(job, "TABLE5_GRID", dict(job.TABLE5_GRID, hiddens=(64,), layer_counts=(3,)))
        mp.setattr(job, "load_bundle", counted_load)
        mp.setattr(harness, "run_partitioner", counted)
        mp.setattr(harness, "sample_epoch", counted_epoch)
        mp.setattr(quality, "edge_cut_qualities", counted_query)
        out = job.run(spark, scale=SCALE)
    return out, loads, calls, queries, epochs


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

    def test_fig16_speedups_exclude_random(self, job):
        sp = job[0]["fig16_speedups"]
        assert list(sp.columns) == ["graph", "partitioner", "mean", "min", "max"]
        assert list(zip(sp["graph"], sp["partitioner"])) == [(g, "Metis") for g in JOB_GRAPHS]
        assert (sp["min"] <= sp["mean"]).all() and (sp["mean"] <= sp["max"]).all()

    def test_each_graph_loaded_once(self, job):
        _, loads, _, _, _ = job
        assert loads == dict.fromkeys(JOB_GRAPHS, 1)

    def test_each_cell_partitioned_once(self, job):
        _, _, calls, _, _ = job
        # 2 partitioners x (EU, OR at k in {4, 8, 16, 32} + EN at k in {4, 8, 32}),
        # no cell twice.
        assert len(calls) == 22
        assert set(calls.values()) == {1}

    def test_one_quality_query_per_graph_and_k(self, job):
        _, _, calls, queries, _ = job
        assert set(queries) == {(g, k) for g, _, k in calls}
        assert set(queries.values()) == {1}

    def test_no_epoch_that_no_table_reads(self, job):
        _, _, _, _, epochs = job
        # L=3 only: one epoch per partitioner, and OR k=16 once per Fig 26 batch size.
        assert epochs == {
            **{(g, k): 2 for g in JOB_GRAPHS for k in (4, 8, 32) if g != "EN"},
            ("EN", 8): 2, ("EU", 16): 2,
            ("OR", 16): 2 * len(table5_distdgl_amortization.BATCHES),
        }


class TestFig24Tables:
    """Fig 24 from the Table 5 job: its k=8 points are Table 5 suite rows."""

    def test_k_columns_in_order(self, job):
        out = job[0]
        for name in ("fig24a_speedup", "fig24b_remote_pct", "fig24c_cut_pct"):
            assert list(out[name].columns) == ["graph", "partitioner", 4, 8, 16, 32]

    def test_k8_column_is_table5_speedup(self, job):
        out = job[0]
        rows = out["suite"].query(
            f"{table5_distdgl_amortization.FIG24_ROWS} and partitioner != 'Random'"
        )
        assert list(out["fig24a_speedup"][8]) == list(rows["speedup"].round(3))

    def test_k8_rows_are_the_table5_suite_rows(self, job):
        out = job[0]
        fig24 = out["fig24_suite"]
        pd.testing.assert_frame_equal(
            fig24[fig24["k"] == 8].reset_index(drop=True),
            out["suite"].query(table5_distdgl_amortization.FIG24_ROWS)
            .reset_index(drop=True),
        )
        assert sorted(fig24["k"].unique()) == [4, 8, 16, 32]

    def test_or_k16_rows_are_the_fig26_rows(self, job):
        out = job[0]
        fig24 = out["fig24_suite"]
        assert not fig24.duplicated(["graph", "partitioner", "k"]).any()
        pd.testing.assert_frame_equal(
            fig24.query("graph == 'OR' and k == 16").reset_index(drop=True),
            out["fig26_suite"].query("kind == 'sage' and feature == 512 and global_batch == 64")
            .reset_index(drop=True),
        )


class TestFig26Tables:
    def test_pivots_kinds_over_batch_sizes(self, job):
        out = job[0]
        batches = list(table5_distdgl_amortization.BATCHES)
        for name in ("fig26a_speedup", "fig26b_net_pct", "fig26c_remote_pct"):
            df = out[name]
            assert list(df.columns) == ["kind", "partitioner", *batches]
            assert list(zip(df["kind"], df["partitioner"])) == [
                ("gat", "Metis"), ("sage", "Metis")
            ]


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

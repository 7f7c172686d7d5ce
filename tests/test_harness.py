"""Integration tests for the experiment harness and table assembly."""
import numpy as np
import pandas as pd
import pytest

from repro.exp import harness, tables
from repro.exp.harness import (
    DEFAULT_GLOBAL_BATCH,
    hyper_grid,
    load_bundle,
    run_distdgl_suite,
    run_distgnn_suite,
)
from repro.partitioning.base import run_partitioner
from repro.partitioning.registry import make_vertex_partitioner
from repro.simulate.distgnn import GNNConfig

SCALE = 1e-4

#: Every column of a suite row; the jobs and tables read them by name.
GNN_COLUMNS = [
    "graph", "partitioner", "k", "feature", "hidden", "layers", "epoch_seconds",
    "compute_seconds", "comm_seconds", "network_bytes", "mem_max_bytes",
    "mem_balance", "oom", "rf", "vertex_balance", "edge_balance",
    "partition_seconds", "partition_seconds_norm", "epoch_seconds_random",
    "network_bytes_random", "mem_max_bytes_random", "rf_random", "speedup",
    "mem_pct_of_random", "net_pct_of_random", "rf_pct_of_random",
]
DGL_COLUMNS = [
    "graph", "partitioner", "k", "kind", "global_batch", "feature", "hidden",
    "layers", "epoch_seconds", "t_sampling", "t_fetch", "t_forward", "t_backward",
    "network_bytes", "edge_cut", "vertex_balance", "train_vertex_balance",
    "remote_inputs", "input_vertices",
    "input_vertex_balance", "partition_seconds", "partition_seconds_norm",
    "epoch_seconds_random", "network_bytes_random", "remote_inputs_random",
    "edge_cut_random", "speedup", "net_pct_of_random", "remote_pct_of_random",
    "cut_pct_of_random",
]


@pytest.fixture(scope="module")
def gnn_suite():
    return run_distgnn_suite(
        graphs=("EU",),
        ks=(4, 8),
        configs=[GNNConfig(64, 64, 2), GNNConfig(512, 64, 3)],
        scale=SCALE,
        seed=0,
    )


@pytest.fixture(scope="module")
def dgl_suite(spark):
    return run_distdgl_suite(
        spark,
        graphs=("EN",),
        partitioners=("Random", "LDG", "Metis"),
        ks=(4,),
        features=(16, 512),
        hiddens=(64,),
        layer_counts=(2,),
        scale=SCALE,
        seed=0,
    )


class TestHyperGrid:
    def test_full_grid_size(self):
        assert len(hyper_grid()) == 27  # 3 x 3 x 3 (paper Table 3)

    def test_bundle_loads(self):
        b = load_bundle("OR", scale=SCALE, seed=0)
        assert b.n_vertices > 0
        assert len(b.train) == int(b.n_vertices * 0.1)


class TestDistGNNSuite:
    def test_row_count(self, gnn_suite):
        # 1 graph x 2 ks x 6 partitioners x 2 configs
        assert len(gnn_suite) == 24

    def test_columns(self, gnn_suite):
        assert sorted(gnn_suite.columns) == sorted(GNN_COLUMNS)

    def test_random_has_speedup_one(self, gnn_suite):
        rnd = gnn_suite[gnn_suite["partitioner"] == "Random"]
        assert np.allclose(rnd["speedup"], 1.0)

    def test_hep_beats_random(self, gnn_suite):
        hep = gnn_suite[gnn_suite["partitioner"] == "HEP100"]
        assert (hep["speedup"] > 1.0).all()
        assert (hep["mem_pct_of_random"] < 100.0).all()

    def test_quality_constant_across_configs(self, gnn_suite):
        # RF depends only on (graph, partitioner, k), not on GNN params.
        g = gnn_suite.groupby(["graph", "partitioner", "k"])["rf"].nunique()
        assert (g == 1).all()

    def test_speedup_column_consistent(self, gnn_suite):
        row = gnn_suite[gnn_suite["partitioner"] == "HDRF"].iloc[0]
        assert row["speedup"] == pytest.approx(
            row["epoch_seconds_random"] / row["epoch_seconds"]
        )


class TestDistDGLSuite:
    def test_row_count(self, dgl_suite):
        # 1 graph x 1 k x 3 partitioners x 2 features x 1 hidden x 1 layer
        assert len(dgl_suite) == 6

    def test_columns(self, dgl_suite):
        assert sorted(dgl_suite.columns) == sorted(DGL_COLUMNS)

    def test_edge_cut_matches_spark_sql_metric(self, dgl_suite):
        # The suite's edge-cut and balances are the Spark SQL metrics of
        # Figs 12/13; a pandas recount on the same partition run must give
        # the same values.
        b = load_bundle("EN", scale=SCALE, seed=0)
        src, dst = b.edges["src"].to_numpy(), b.edges["dst"].to_numpy()

        def balance(per_part):
            return per_part.max() / (per_part.sum() / 4)

        for p, grp in dgl_suite.groupby("partitioner"):
            run = run_partitioner(
                make_vertex_partitioner(p), b.edges, 4,
                n_vertices=b.n_vertices, seed=0, split=b.split,
            )
            owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
            assert (grp["edge_cut"] == (owner[src] != owner[dst]).mean()).all(), p
            vb = balance(np.bincount(owner, minlength=4))
            tvb = balance(np.bincount(owner[b.train], minlength=4))
            assert (grp["vertex_balance"] == vb).all(), p
            assert (grp["train_vertex_balance"] == tvb).all(), p

    def test_random_speedup_one(self, dgl_suite):
        rnd = dgl_suite[dgl_suite["partitioner"] == "Random"]
        assert np.allclose(rnd["speedup"], 1.0)

    def test_metis_reduces_remote_and_cut(self, dgl_suite):
        m = dgl_suite[dgl_suite["partitioner"] == "Metis"]
        assert (m["remote_pct_of_random"] < 100).all()
        assert (m["cut_pct_of_random"] < 100).all()

    def test_epoch_decomposition(self, dgl_suite):
        row = dgl_suite.iloc[0]
        total = (
            row["t_sampling"] + row["t_fetch"] + row["t_forward"] + row["t_backward"]
        )
        assert row["epoch_seconds"] >= total  # + update
        assert row["epoch_seconds"] == pytest.approx(total, rel=0.2)

    def test_global_batch_recorded(self, dgl_suite):
        assert (dgl_suite["global_batch"] == DEFAULT_GLOBAL_BATCH).all()


class TestDistDGLKinds:
    """Several model kinds share one partition run and one epoch per layer count."""

    SAMPLING_COLUMNS = [
        "edge_cut", "remote_inputs", "input_vertices", "input_vertex_balance",
        "t_sampling", "t_fetch", "network_bytes",
    ]

    @pytest.fixture(scope="class")
    def suites(self, spark):
        def suite(kinds):
            df = run_distdgl_suite(
                spark, graphs=("EN",), partitioners=("Random", "Metis"), ks=(4,),
                features=(16, 512), hiddens=(64,), layer_counts=(2,), kinds=kinds,
                scale=SCALE, seed=0,
            )
            return df.drop(columns=["partition_seconds", "partition_seconds_norm"])

        return suite(("sage", "gat")), suite(("sage",))

    def test_sage_rows_equal_a_sage_only_suite(self, suites):
        both, sage = suites
        pd.testing.assert_frame_equal(
            both[both["kind"] == "sage"].reset_index(drop=True), sage
        )

    def test_gat_rows_share_the_sampled_epoch(self, suites):
        both, _ = suites
        keys = ["graph", "partitioner", "k", "feature", "hidden", "layers"]
        by_kind = {
            kind: grp.set_index(keys).sort_index()[self.SAMPLING_COLUMNS]
            for kind, grp in both.groupby("kind")
        }
        assert len(by_kind["gat"]) == len(by_kind["sage"]) == 4
        pd.testing.assert_frame_equal(by_kind["gat"], by_kind["sage"])

    def test_random_speedup_one_per_kind(self, suites):
        both, _ = suites
        rnd = both[both["partitioner"] == "Random"]
        assert sorted(rnd["kind"]) == ["gat", "gat", "sage", "sage"]
        assert (rnd["speedup"] == 1.0).all()


class TestDistDGLBatchSizes:
    """Several batch sizes share one partition run per (graph, partitioner, k)."""

    TIMING_COLUMNS = ["partition_seconds", "partition_seconds_norm"]

    @pytest.fixture(scope="class")
    def suites(self, spark):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return run_partitioner(*args, **kwargs)

        def suite(global_batch):
            return run_distdgl_suite(
                spark, graphs=("EN",), partitioners=("Random", "Metis"), ks=(4,),
                features=(16, 512), hiddens=(64,), layer_counts=(2,),
                global_batch=global_batch, scale=SCALE, seed=0,
            )

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "run_partitioner", counted)
            both = suite((32, 64))
        return both, suite(64), len(calls)

    def test_rows_equal_a_single_batch_suite(self, suites):
        both, single, _ = suites
        pd.testing.assert_frame_equal(
            both[both["global_batch"] == 64].drop(columns=self.TIMING_COLUMNS)
            .reset_index(drop=True),
            single.drop(columns=self.TIMING_COLUMNS),
        )

    def test_one_partition_timing_per_run(self, suites):
        both, _, _ = suites
        assert sorted(both["global_batch"].unique()) == [32, 64]
        per_run = both.groupby(["graph", "partitioner", "k"])[self.TIMING_COLUMNS]
        assert (per_run.nunique() == 1).all().all()

    def test_partitioned_once_for_all_batch_sizes(self, suites):
        _, _, calls = suites
        assert calls == 2  # Random and Metis, not once per batch size


class TestTables:
    def test_amortization_table_shape(self, gnn_suite):
        t = tables.amortization_table(
            gnn_suite, partitioners=["DBH", "HDRF", "HEP100"]
        )
        assert list(t.columns) == ["DBH", "HDRF", "HEP100"]
        assert list(t.index) == ["EU"]

    def test_amortization_values_positive(self, gnn_suite):
        t = tables.amortization_table(gnn_suite, partitioners=["HEP100"])
        v = t.loc["EU", "HEP100"]
        assert v is None or v > 0

    def test_mean_speedups_excludes_random(self, gnn_suite):
        sp = tables.mean_speedups(gnn_suite)
        assert "Random" not in set(sp["partitioner"])

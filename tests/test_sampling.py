"""Tests for the DistDGL-style mini-batch sampler (numpy CSR kernel + stats).

Spark is the sampler's oracle: its hash is checked against ``F.xxhash64``
and its epochs against the Spark window plan it replaced.
"""
import dataclasses
from functools import reduce

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.graphs.datasets import generate, n_vertices_of, split_vertices
from repro.graphs.generators import csr_adjacency, symmetrized, to_spark, undirected_view
from repro.gnn import sampling
from repro.gnn.layers import layer_flops
from repro.gnn.sampling import (
    FANOUTS,
    EpochSamplingStats,
    _stats_from_sampled,
    plan_batches,
    sample_epoch,
)
from repro.partitioning.base import run_partitioner
from repro.partitioning.vertex.metis_like import MetisLikePartitioner
from repro.partitioning.vertex.random_vp import RandomVertexPartitioner
from repro.simulate.costmodel import BYTES_PER_SCALAR, ClusterModel
from repro.simulate.distdgl import StepPhases, phase_times
from repro.simulate.distgnn import GNNConfig


@pytest.fixture(scope="module")
def setup():
    edges = undirected_view(generate("EN", scale=1e-4, seed=0))
    n = n_vertices_of(edges)
    split = split_vertices(n, seed=7)
    train = split.loc[split["role"] == "train", "vertex"].to_numpy()
    run = run_partitioner(MetisLikePartitioner(), edges, 4, n_vertices=n)
    owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
    return edges, n, train, owner, csr_adjacency(edges, n)


class TestPlanBatches:
    def test_each_worker_contributes_each_step(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        counts = seeds.groupby(["worker", "step"]).size()
        assert set(seeds["worker"].unique()) == set(range(4))
        assert counts.max() <= 16  # global_batch / k

    def test_steps_cover_training_set(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        n_steps = seeds["step"].max() + 1
        assert n_steps == int(np.ceil(len(train) / 64))

    def test_seeds_are_local_to_their_worker(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        assert (owner[seeds["vertex"]] == seeds["worker"]).all()

    def test_deterministic(self, setup):
        _, _, train, owner, _ = setup
        a = plan_batches(train, owner, 4, 64, seed=3)
        b = plan_batches(train, owner, 4, 64, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_only_train_vertices_used(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        assert set(seeds["vertex"]).issubset(set(train))


class TestSampleEpoch:
    @pytest.fixture(scope="class")
    def stats(self, setup) -> EpochSamplingStats:
        _, _, train, owner, csr = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        return sample_epoch(*csr, seeds, owner, FANOUTS[3], seed=0, global_batch=64)

    def test_fanout_cap_respected(self, stats):
        per_src = stats.sampled.groupby(["worker", "step", "layer", "src"]).size()
        for layer, fan in enumerate(FANOUTS[3]):
            layer_counts = per_src.xs(layer, level="layer")
            assert layer_counts.max() <= fan

    def test_sampled_edges_exist_in_graph(self, setup, stats):
        edges, _, _, _, _ = setup
        sym_pairs = set(
            map(tuple, symmetrized(edges)[["src", "dst"]].to_numpy())
        )
        got = set(map(tuple, stats.sampled[["src", "dst"]].to_numpy()))
        assert got.issubset(sym_pairs)

    def test_remote_inputs_bounded_by_inputs(self, stats):
        assert (stats.per_step["remote_inputs"] <= stats.per_step["input_vertices"]).all()

    def test_remote_accesses_bounded(self, stats):
        # Each remote input vertex can be accessed at most n_layers times.
        assert (
            stats.per_step["remote_accesses"]
            <= stats.n_layers * stats.per_step["remote_inputs"]
        ).all()

    def test_input_vertex_balance_at_least_one(self, stats):
        assert stats.input_vertex_balance() >= 1.0

    def test_per_layer_counts_sum_to_total(self, stats):
        assert stats.hop_edges.sum() == len(stats.sampled)
        assert stats.hop_edges.sum() == stats.epoch_total("sampled_edges")


class TestSamplingSemantics:
    def test_single_partition_has_no_remote(self, setup):
        edges, n, train, _, csr = setup
        owner = np.zeros(n, dtype=np.int64)
        seeds = plan_batches(train, owner, 1, 64, seed=0)
        st = sample_epoch(*csr, seeds, owner, FANOUTS[2], seed=0)
        assert st.epoch_total("remote_inputs") == 0
        assert st.epoch_total("remote_accesses") == 0

    def test_worse_partitioning_means_more_remote(self, setup):
        edges, n, train, owner_metis, csr = setup
        rnd = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        owner_rnd = rnd.assignment.set_index("vertex")["part"].sort_index().to_numpy()
        seeds_m = plan_batches(train, owner_metis, 4, 64, seed=0)
        seeds_r = plan_batches(train, owner_rnd, 4, 64, seed=0)
        st_m = sample_epoch(*csr, seeds_m, owner_metis, FANOUTS[2], seed=0)
        st_r = sample_epoch(*csr, seeds_r, owner_rnd, FANOUTS[2], seed=0)
        frac_m = st_m.epoch_total("remote_inputs") / st_m.epoch_total("input_vertices")
        frac_r = st_r.epoch_total("remote_inputs") / st_r.epoch_total("input_vertices")
        assert frac_m < frac_r

    def test_more_layers_sample_more(self, setup):
        _, _, train, owner, csr = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        st2 = sample_epoch(*csr, seeds, owner, FANOUTS[2], seed=0)
        st4 = sample_epoch(*csr, seeds, owner, FANOUTS[4], seed=0)
        assert st4.epoch_total("sampled_edges") > st2.epoch_total("sampled_edges")
        assert st4.epoch_total("input_vertices") > st2.epoch_total("input_vertices")

    def test_deterministic_in_seed(self, setup):
        _, _, train, owner, csr = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        a = sample_epoch(*csr, seeds, owner, FANOUTS[2], seed=5)
        b = sample_epoch(*csr, seeds, owner, FANOUTS[2], seed=5)
        pd.testing.assert_frame_equal(
            a.per_step.sort_values(["worker", "step"]).reset_index(drop=True),
            b.per_step.sort_values(["worker", "step"]).reset_index(drop=True),
        )

    def test_larger_batch_fewer_remote_per_seed(self, setup):
        # Paper Sec 5.4: bigger batches overlap more, so remote vertices
        # *per seed* drop.
        _, _, train, owner, csr = setup
        small = plan_batches(train, owner, 4, 32, seed=0)
        large = plan_batches(train, owner, 4, 256, seed=0)
        st_s = sample_epoch(*csr, small, owner, FANOUTS[3], seed=0)
        st_l = sample_epoch(*csr, large, owner, FANOUTS[3], seed=0)
        per_seed_s = st_s.epoch_total("remote_inputs") / len(small)
        per_seed_l = st_l.epoch_total("remote_inputs") / len(large)
        assert per_seed_l < per_seed_s


def _orphan_rows(seeds: pd.DataFrame, sampled: pd.DataFrame) -> int:
    """Rows whose source is neither a seed nor a destination of an earlier layer."""
    keys = ["worker", "step"]
    reached = pd.concat(
        [
            seeds[keys + ["vertex"]].assign(depth=0),
            sampled.rename(columns={"dst": "vertex"})
            .assign(depth=lambda d: d["layer"] + 1)[keys + ["vertex", "depth"]],
        ],
        ignore_index=True,
    ).groupby(keys + ["vertex"], as_index=False)["depth"].min()
    src = sampled[keys + ["src", "layer"]].merge(
        reached.rename(columns={"vertex": "src"}), on=keys + ["src"], how="left"
    )
    return int((src["depth"].isna() | (src["depth"] > src["layer"])).sum())


def _sorted_rows(sampled: pd.DataFrame) -> pd.DataFrame:
    cols = ["worker", "step", "layer", "src", "dst"]
    return sampled[cols].sort_values(cols).reset_index(drop=True)


class TestConsistentComputationGraph:
    """One computation graph per (worker, step), whatever the row order."""

    @pytest.fixture(scope="class")
    def seeds(self, setup):
        _, _, train, owner, _ = setup
        return plan_batches(train, owner, 4, 64, seed=0)

    def test_per_step_independent_of_seed_order(self, setup, seeds):
        _, _, _, owner, csr = setup
        shuffled = seeds.sample(frac=1.0, random_state=0).reset_index(drop=True)
        assert not shuffled.equals(seeds)
        a = sample_epoch(*csr, seeds, owner, FANOUTS[3], seed=0, global_batch=64)
        b = sample_epoch(*csr, shuffled, owner, FANOUTS[3], seed=0, global_batch=64)
        pd.testing.assert_frame_equal(a.per_step, b.per_step)

    @pytest.mark.parametrize("n_layers", [3, 4])
    def test_no_orphan_sources(self, setup, seeds, n_layers):
        _, _, _, owner, csr = setup
        st = sample_epoch(*csr, seeds, owner, FANOUTS[n_layers], seed=0)
        assert set(st.sampled["layer"]) == set(range(n_layers))
        assert _orphan_rows(seeds, st.sampled) == 0

    def test_same_epoch_collects_same_rows(self, setup, seeds):
        _, _, _, owner, csr = setup
        a = sample_epoch(*csr, seeds, owner, FANOUTS[3], seed=2)
        b = sample_epoch(*csr, seeds, owner, FANOUTS[3], seed=2)
        pd.testing.assert_frame_equal(_sorted_rows(a.sampled), _sorted_rows(b.sampled))

    def test_seed_changes_sample(self, setup, seeds):
        _, _, _, owner, csr = setup
        a = sample_epoch(*csr, seeds, owner, FANOUTS[2], seed=0)
        b = sample_epoch(*csr, seeds, owner, FANOUTS[2], seed=1)
        assert not _sorted_rows(a.sampled).equals(_sorted_rows(b.sampled))


# --- Spark as the oracle ------------------------------------------------------

LONG_COLUMNS = ("worker", "step", "src", "dst")
SEED_SCHEMA = T.StructType(
    [T.StructField(c, T.LongType(), False) for c in ("worker", "step", "vertex")]
)


def _spark_window_plan(spark, edges, seeds, fanouts, seed) -> pd.DataFrame:
    """The Spark sampler the numpy kernel replaced, as a reference.

    Per hop: join the frontier with the symmetrized adjacency, keep
    ``fanout`` rows per (worker, step, src) by ``row_number`` over
    ``xxhash64(seed, layer, worker, step, src, dst)`` then ``dst``, and grow
    the frontier with the sampled destinations. Each hop is checkpointed
    once, and the blocks are released before returning.
    """
    checkpoints = []

    def checkpoint(df: DataFrame) -> DataFrame:
        checkpoints.append(df.localCheckpoint())
        return checkpoints[-1]

    try:
        adjacency = checkpoint(to_spark(spark, symmetrized(edges)).repartition("src"))
        frontier = spark.createDataFrame(seeds[["worker", "step", "vertex"]], schema=SEED_SCHEMA)
        layers = []
        for lidx, fan in enumerate(fanouts):
            cand = frontier.withColumnRenamed("vertex", "src").join(adjacency, "src")
            w = Window.partitionBy("worker", "step", "src").orderBy(
                F.xxhash64(F.lit(seed), F.lit(lidx), "worker", "step", "src", "dst"),
                "dst",
            )
            samp = checkpoint(
                cand.withColumn("rn", F.row_number().over(w))
                .where(F.col("rn") <= fan)
                .select("worker", "step", "src", "dst", F.lit(lidx).alias("layer"))
            )
            layers.append(samp)
            if lidx + 1 < len(fanouts):
                frontier = checkpoint(
                    frontier.unionAll(
                        samp.select("worker", "step", F.col("dst").alias("vertex"))
                    ).distinct()
                )
        return reduce(DataFrame.unionAll, layers).toPandas()
    finally:
        for df in checkpoints:
            df._jdf.queryExecution().logical().rdd().unpersist(True)


@pytest.mark.parametrize("seed", [0, 11, 2**31])
def test_xxhash64_matches_spark(spark, seed):
    rng = np.random.default_rng(seed % 97)
    extremes = np.array(
        [0, 1, -1, 2**31 - 1, -(2**31), 2**31, 2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1],
        dtype=np.int64,
    )
    n = 64 + len(extremes) * len(LONG_COLUMNS)
    rows = pd.DataFrame(
        {c: rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True)
         for c in LONG_COLUMNS}
    )
    for i, c in enumerate(LONG_COLUMNS):
        # Each extreme value in each column, the other columns random.
        at = 64 + i * len(extremes)
        rows.loc[at:at + len(extremes) - 1, c] = extremes
    sdf = spark.createDataFrame(
        rows, schema=T.StructType([T.StructField(c, T.LongType(), False) for c in LONG_COLUMNS])
    )
    for layer in (0, 3):
        got = sdf.select(
            F.xxhash64(F.lit(seed), F.lit(layer), *LONG_COLUMNS).alias("h")
        ).toPandas()["h"].to_numpy()
        # The two steps the sampler takes: fold (seed, layer, worker, step,
        # src) per frontier row, then one hashLong of each candidate dst.
        state = sampling._fold_rows(seed, layer, *(rows[c].to_numpy() for c in LONG_COLUMNS[:3]))
        want = sampling._hash_long(sampling._u64(rows["dst"]), state).view(np.int64)
        np.testing.assert_array_equal(want, got)


def test_order_in_rows_breaks_top_bit_ties_by_full_hash():
    # 6 and 5 share every bit the packed key keeps; the two 7s tie outright
    # and stay in input (dst) order.
    r = np.array([0, 0, 0, 1, 1])
    h = np.array([6, 5, -(2**63), 7, 7])
    np.testing.assert_array_equal(sampling._order_in_rows(r, h), [2, 1, 0, 3, 4])


class TestMatchesSparkWindowPlan:
    """The numpy kernel samples exactly what the Spark window plan samples."""

    @pytest.fixture(scope="class")
    def owners(self, setup):
        edges, n, _, metis, _ = setup
        rnd = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        return {
            "Random": rnd.assignment.set_index("vertex")["part"].sort_index().to_numpy(),
            "Metis": metis,
        }

    @pytest.fixture(scope="class")
    def oracle(self, spark, setup, owners):
        edges, _, train, _, _ = setup
        cache = {}

        def run(owner_name, n_layers):
            if (owner_name, n_layers) not in cache:
                owner = owners[owner_name]
                seeds = plan_batches(train, owner, 4, 64, seed=3)
                sampled = _spark_window_plan(spark, edges, seeds, FANOUTS[n_layers], 3)
                cache[owner_name, n_layers] = (seeds, owner, sampled)
            return cache[owner_name, n_layers]

        return run

    def check(self, setup, seeds, owner, sampled, n_layers):
        csr = setup[4]
        got = sample_epoch(*csr, seeds, owner, FANOUTS[n_layers], seed=3, global_batch=64)
        want = _stats_from_sampled(seeds, sampled, owner, n_layers, 4, 64)
        pd.testing.assert_frame_equal(_sorted_rows(got.sampled), _sorted_rows(sampled))
        pd.testing.assert_frame_equal(got.per_step, want.per_step)
        np.testing.assert_array_equal(got.hop_edges, want.hop_edges)

    @pytest.mark.parametrize("owner_name", ["Random", "Metis"])
    @pytest.mark.parametrize("n_layers", [2, 3, 4])
    def test_same_epoch(self, setup, oracle, owner_name, n_layers):
        self.check(setup, *oracle(owner_name, n_layers), n_layers)

    def test_same_epoch_through_fallback_and_chunks(self, setup, oracle, monkeypatch):
        # One expected survivor per fanout slot leaves about half the ranked
        # rows short, and 256-candidate chunks split hops (and hubs) apart.
        filled = []
        fallback = sampling._fallback

        def counted(keep, row, n_rows, fan):
            out = fallback(keep, row, n_rows, fan)
            filled.append(int((out & ~keep).sum()))
            return out

        monkeypatch.setattr(sampling, "OVERSAMPLE", 1)
        monkeypatch.setattr(sampling, "CHUNK", 256)
        monkeypatch.setattr(sampling, "_fallback", counted)
        self.check(setup, *oracle("Metis", 3), 3)
        assert sum(filled) > 0
        assert len(filled) > 3


def _per_step_reference(seeds, sampled, owner_of, n_layers):
    """The per-group reduction the vectorised ``_stats_from_sampled`` replaces."""
    first = pd.concat(
        [
            seeds.assign(first=0)[["worker", "step", "vertex", "first"]],
            sampled.rename(columns={"dst": "vertex"}).assign(
                first=lambda d: d["layer"] + 1
            )[["worker", "step", "vertex", "first"]],
        ],
        ignore_index=True,
    )
    first = first.groupby(["worker", "step", "vertex"], as_index=False)["first"].min()
    first["remote"] = owner_of[first["vertex"].to_numpy()] != first["worker"].to_numpy()
    first["accesses"] = np.maximum(0, n_layers - first["first"].to_numpy())
    per_step = (
        first.groupby(["worker", "step"])
        .agg(
            input_vertices=("vertex", "size"),
            remote_inputs=("remote", "sum"),
            remote_accesses=(
                "accesses",
                lambda s: int((s * first.loc[s.index, "remote"]).sum()),
            ),
        )
        .reset_index()
    )
    edge_counts = (
        sampled.groupby(["worker", "step"]).size().rename("sampled_edges").reset_index()
    )
    per_step = per_step.merge(edge_counts, on=["worker", "step"], how="left").fillna(
        {"sampled_edges": 0}
    )
    per_step["sampled_edges"] = per_step["sampled_edges"].astype(np.int64)
    per_step["remote_inputs"] = per_step["remote_inputs"].astype(np.int64)
    return per_step


def _phase_times_reference(stats, cfg, cluster, fanouts):
    """Per-(worker, step) loop form of ``distdgl.phase_times``."""
    ps = stats.per_step.copy()
    dims = cfg.dims()
    L = len(fanouts)
    ps["t_samp"] = (
        ps["sampled_edges"] * cluster.samp_edge_cost
        + ps["remote_accesses"] * cluster.remote_access_cost
    )
    local_inputs = ps["input_vertices"] - ps["remote_inputs"]
    ps["t_fetch"] = (
        ps["remote_inputs"] * cfg.feature * BYTES_PER_SCALAR / cluster.net_bandwidth
        + local_inputs * cluster.local_read_cost
    )
    per_layer = (
        stats.sampled.groupby(["worker", "step", "layer"]).size().rename("n").reset_index()
    )
    flop_rows = []
    for (w, s), grp in per_layer.groupby(["worker", "step"]):
        edges_by_hop = dict(zip(grp["layer"], grp["n"]))
        inputs = ps.loc[(ps["worker"] == w) & (ps["step"] == s), "input_vertices"]
        n_in = int(inputs.iloc[0]) if len(inputs) else 0
        fl = 0.0
        for compute_layer in range(L):
            hop = L - 1 - compute_layer
            e = int(edges_by_hop.get(hop, 0))
            n = min(n_in, e + stats.global_batch or e + 1)
            fl += layer_flops(cfg.kind, n, e, dims[compute_layer], dims[compute_layer + 1])
        flop_rows.append({"worker": w, "step": s, "flops": fl})
    ps = ps.merge(pd.DataFrame(flop_rows), on=["worker", "step"], how="left").fillna(
        {"flops": 0.0}
    )
    ps["t_fwd"] = ps["flops"] / cluster.flops_per_sec
    g = ps.groupby("step")
    forward = float(g["t_fwd"].max().sum())
    model_scalars = sum(2 * a * b for a, b in zip(dims[:-1], dims[1:]))
    allreduce = model_scalars * BYTES_PER_SCALAR / cluster.net_bandwidth
    return StepPhases(
        sampling=float(g["t_samp"].max().sum()),
        feature_fetch=float(g["t_fetch"].max().sum()),
        forward=forward,
        backward=2.0 * forward + allreduce * stats.n_steps,
        update=cluster.update_cost * stats.n_steps,
    )


class TestVectorisedReductions:
    @pytest.fixture(scope="class")
    def epoch(self, setup):
        _, _, train, owner, csr = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        st = sample_epoch(*csr, seeds, owner, FANOUTS[3], seed=0, global_batch=64)
        return seeds, owner, st

    @pytest.fixture(scope="class", params=["all", "one_step_without_edges"])
    def stats(self, request, epoch) -> EpochSamplingStats:
        seeds, owner, st = epoch
        sampled = st.sampled
        if request.param == "one_step_without_edges":
            sampled = sampled[(sampled["worker"] != 1) | (sampled["step"] != 0)]
        return _stats_from_sampled(seeds, sampled, owner, 3, 4, 64)

    def test_per_step_matches_reference(self, epoch, stats):
        seeds, owner, _ = epoch
        pd.testing.assert_frame_equal(
            stats.per_step, _per_step_reference(seeds, stats.sampled, owner, 3)
        )

    @pytest.mark.parametrize("kind", ["sage", "gcn", "gat"])
    @pytest.mark.parametrize("global_batch", [64, 0])
    def test_phase_times_match_loop_reference(self, stats, kind, global_batch):
        stats = dataclasses.replace(stats, global_batch=global_batch)
        cluster = ClusterModel()
        for f, h in [(16, 16), (64, 512), (512, 64)]:
            cfg = GNNConfig(feature=f, hidden=h, layers=3, kind=kind)
            assert phase_times(stats, cfg, cluster, FANOUTS[3]) == _phase_times_reference(
                stats, cfg, cluster, FANOUTS[3]
            )

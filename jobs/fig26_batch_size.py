"""Figure 26 series: influence of the mini-batch size (DistDGL, 16 workers).

The paper fixes 16 workers and sweeps the global batch size for a 3-layer
GraphSage and GAT on OR in two regimes (feature 64 = low communication,
feature 512 = high communication). It finds: network traffic and remote
vertices in % of Random *drop* as batches grow (overlap inside bigger
batches), and for feature 512 the speedup *rises* with batch size.

Paper batch sizes 512..32768 are ~0.2-10% of OR's training set; our scaled
sweep 16..256 covers the same relative range.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import make_session, save_and_print
from repro.exp.harness import run_distdgl_suite

BATCHES = (16, 32, 64, 128, 256)
PRINT_KEYS = ("fig26a_speedup", "fig26b_net_pct", "fig26c_remote_pct")


def run(spark, *, scale: float = 1e-3, seed: int = 0) -> dict[str, pd.DataFrame]:
    # Each partitioner runs once and serves every batch size; GraphSage and
    # GAT rows of one batch size share its sampled epoch: the model kind
    # changes only the flop count.
    suite = run_distdgl_suite(
        spark,
        graphs=("OR",),
        ks=(16,),
        features=(64, 512),
        hiddens=(64,),
        layer_counts=(3,),
        kinds=("sage", "gat"),
        global_batch=BATCHES,
        scale=scale,
        seed=seed,
    )
    sel = suite[suite["partitioner"] != "Random"]
    speedup = sel[sel["feature"] == 512].pivot_table(
        index=["kind", "partitioner"], columns="global_batch", values="speedup"
    ).round(3)
    net = sel[sel["feature"] == 512].pivot_table(
        index=["kind", "partitioner"], columns="global_batch", values="net_pct_of_random"
    ).round(1)
    remote = sel[sel["feature"] == 512].pivot_table(
        index=["kind", "partitioner"], columns="global_batch",
        values="remote_pct_of_random",
    ).round(1)
    return {
        "suite": suite,
        "fig26a_speedup": speedup.reset_index(),
        "fig26b_net_pct": net.reset_index(),
        "fig26c_remote_pct": remote.reset_index(),
    }


if __name__ == "__main__":
    spark = make_session("fig26_batch_size")
    save_and_print("fig26_batch_size", run(spark), print_keys=PRINT_KEYS)
    spark.stop()

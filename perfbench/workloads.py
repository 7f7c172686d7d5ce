"""The benchmark's two workloads, slices of the paper's tables and figures.

A workload is a timed ``run(spark, seed)`` through the same public entry
points the jobs use, and an untimed ``check(output)`` that validates every
cell and extracts the cell's deterministic outputs for the reference
comparison. A cell is one (graph, partitioner, k[, L]) unit; it fails when
its call raises or its output fails a check.

Each workload generates its graphs at its own ``scale`` (README.md says
why); the seed feeds graph generation, the partitioners and the sampler.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from repro.exp import harness, tables
from repro.graphs.datasets import BENCH_SCALE, TEST_SCALE, split_to_spark
from repro.graphs.generators import to_spark
from repro.partitioning import quality
from repro.partitioning.base import assignment_to_spark
from repro.partitioning.registry import VERTEX_PARTITIONERS, make_vertex_partitioner

EDGE_ROSTER = ("Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100")


@dataclass
class Outcome:
    """Checked result of one workload iteration."""

    values: dict[str, dict] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)

    def add(self, cell: str, values: dict, problems: list[str]) -> None:
        self.values[cell] = values
        if problems:
            self.problems[cell] = problems


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    cells: tuple[str, ...]
    run: Callable  # (spark, seed) -> output; the timed part
    check: Callable  # (output) -> Outcome
    #: Span names the traced run must record at least once.
    spans: tuple[str, ...]
    #: Span-name prefixes the traced run must not record: layers bypassed.
    bypass: tuple[str, ...]
    #: Whether Spark may run tasks outside ``partitioning.quality`` spans.
    spark_outside_quality: bool


def _finite_positive(xs) -> bool:
    xs = np.asarray(xs, dtype=float)
    return bool(np.isfinite(xs).all() and (xs > 0).all())


def _random_speedup_problems(partitioner: str, grp: pd.DataFrame) -> list[str]:
    if partitioner == "Random" and not (grp["speedup"] == 1.0).all():
        return ["Random speedup != 1"]
    return []


def _check_table(out: Outcome, table: pd.DataFrame, graphs, roster) -> None:
    if sorted(table.index) != sorted(graphs) or list(table.columns) != list(roster):
        out.problems.setdefault("table", []).append("amortization table has wrong shape")


# --- Table 4 slice: edge partitioners and the DistGNN model -----------------

GNN_GRAPHS = ("HW", "EN", "EU", "OR")
GNN_KS = (8, 32)


def _run_gnn(seed):
    suite = harness.run_distgnn_suite(
        graphs=GNN_GRAPHS, partitioners=EDGE_ROSTER, ks=GNN_KS, scale=TEST_SCALE,
        seed=seed,
    )
    table = tables.amortization_table(suite, partitioners=list(EDGE_ROSTER[1:]))
    return suite, table


def _check_gnn(output, out: Outcome) -> None:
    suite, table = output
    for (g, p, k), grp in suite.groupby(["graph", "partitioner", "k"]):
        r = grp.iloc[0]
        problems = _random_speedup_problems(p, grp)
        if not 1.0 <= r["rf"] <= k:
            problems.append(f"rf {r['rf']} outside [1, {k}]")
        if not (r["vertex_balance"] >= 1.0 and r["edge_balance"] >= 1.0):
            problems.append("balance below 1")
        if not _finite_positive(grp["epoch_seconds"]):
            problems.append("epoch_seconds not finite and positive")
        out.add(
            f"table4/{g}/{p}/{k}",
            {
                "rf": r["rf"],
                "vertex_balance": r["vertex_balance"],
                "edge_balance": r["edge_balance"],
                "epoch_seconds": grp.sort_values(["feature", "hidden", "layers"])[
                    "epoch_seconds"
                ].tolist(),
            },
            problems,
        )
    _check_table(out, table, GNN_GRAPHS, EDGE_ROSTER[1:])


# --- dgl_deep: Table 5 cell at 3 hops, at the jobs' scale -----------------

DGL_GRAPH = "EN"
DGL_ROSTER = ("Random", "Metis")
DGL_K = 8
DGL_LAYERS = 3


def _run_dgl(spark, seed):
    suite = harness.run_distdgl_suite(
        spark, graphs=(DGL_GRAPH,), partitioners=DGL_ROSTER, ks=(DGL_K,),
        layer_counts=(DGL_LAYERS,), global_batch=64, scale=BENCH_SCALE, seed=seed,
    )
    table = tables.amortization_table(suite, partitioners=list(DGL_ROSTER[1:]))
    return suite, table


def _check_dgl(output) -> Outcome:
    suite, table = output
    out = Outcome()
    for (g, p, k, L), grp in suite.groupby(["graph", "partitioner", "k", "layers"]):
        r = grp.iloc[0]
        problems = _random_speedup_problems(p, grp)
        if not 0.0 <= r["edge_cut"] <= 1.0:
            problems.append(f"edge_cut {r['edge_cut']} outside [0, 1]")
        if not r["remote_inputs"] <= r["input_vertices"]:
            problems.append("remote_inputs > input_vertices")
        if not _finite_positive(grp["epoch_seconds"]):
            problems.append("epoch_seconds not finite and positive")
        out.add(
            f"table5/{g}/{p}/{k}/{L}",
            {
                "edge_cut": r["edge_cut"],
                "remote_inputs": r["remote_inputs"],
                "input_vertices": r["input_vertices"],
                "input_vertex_balance": r["input_vertex_balance"],
                "epoch_seconds": grp.sort_values(["feature", "hidden"])["epoch_seconds"].tolist(),
            },
            problems,
        )
    _check_table(out, table, (DGL_GRAPH,), DGL_ROSTER[1:])
    return out


# --- Fig 12 cells: vertex partitioners and the Spark SQL quality layer, ------
# --- driven like jobs/fig12_edge_cut.run -------------------------------------

CUT_GRAPH = "EU"
CUT_KS = (32,)


def _run_cut(spark, seed):
    b = harness.load_bundle(CUT_GRAPH, scale=TEST_SCALE, seed=seed)
    edges_sdf = to_spark(spark, b.edges)
    split_sdf = split_to_spark(spark, b.n_vertices, seed=7)
    cells = {}
    for k in CUT_KS:
        for pname in VERTEX_PARTITIONERS:
            r = harness.run_partitioner(
                make_vertex_partitioner(pname), b.edges, k,
                n_vertices=b.n_vertices, seed=seed, split=b.split,
            )
            q = quality.edge_cut_quality(
                edges_sdf, assignment_to_spark(spark, r), k, split=split_sdf
            )
            cells[f"fig12/{CUT_GRAPH}/{pname}/{k}"] = (r, q)
    fig12 = pd.DataFrame(
        [
            {"graph": CUT_GRAPH, "partitioner": r.partitioner, "k": q.k,
             "edge_cut": q.edge_cut_ratio}
            for r, q in cells.values()
        ]
    ).pivot_table(index=["graph", "partitioner"], columns="k", values="edge_cut")
    return b, cells, fig12


def _pandas_cut(edges: pd.DataFrame, assignment: pd.DataFrame) -> np.ndarray:
    """Per-edge cut flags, recounted the way ``run_distdgl_suite`` computes ``cut``."""
    part_of = assignment.set_index("vertex")["part"]
    return part_of[edges["src"]].to_numpy() != part_of[edges["dst"]].to_numpy()


def _check_cut(output, out: Outcome) -> None:
    b, cells, fig12 = output
    for cell, (r, q) in cells.items():
        problems = []
        if not 0.0 <= q.edge_cut_ratio <= 1.0:
            problems.append(f"edge_cut {q.edge_cut_ratio} outside [0, 1]")
        if not (q.vertex_balance >= 1.0 and q.train_vertex_balance >= 1.0):
            problems.append("balance below 1")
        flags = _pandas_cut(b.edges, r.assignment)
        if (
            q.n_edges != len(flags)
            or q.cut_edges != int(flags.sum())
            or not np.isclose(q.edge_cut_ratio, float(flags.mean()), rtol=1e-12, atol=0)
        ):
            problems.append(
                f"Spark SQL edge-cut {q.cut_edges}/{q.n_edges} != pandas "
                f"{int(flags.sum())}/{len(flags)}"
            )
        out.add(
            cell,
            {
                "edge_cut": q.edge_cut_ratio,
                "vertex_balance": q.vertex_balance,
                "train_vertex_balance": q.train_vertex_balance,
            },
            problems,
        )
    if fig12.shape != (len(VERTEX_PARTITIONERS), len(CUT_KS)):
        out.problems.setdefault("table", []).append("fig12 slice has wrong shape")


# --- partitioners: Table 4 slice, then the Fig 12 cells ----------------------


def _run_partitioners(spark, seed):
    return _run_gnn(seed), _run_cut(spark, seed)


def _check_partitioners(output) -> Outcome:
    out = Outcome()
    _check_gnn(output[0], out)
    _check_cut(output[1], out)
    return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "partitioners",
            TEST_SCALE,
            tuple(
                f"table4/{g}/{p}/{k}"
                for g, p, k in itertools.product(GNN_GRAPHS, EDGE_ROSTER, GNN_KS)
            )
            + tuple(f"fig12/{CUT_GRAPH}/{p}/{k}" for k in CUT_KS for p in VERTEX_PARTITIONERS),
            _run_partitioners,
            _check_partitioners,
            ("graphs.load", "simulate.partition_stats", "simulate.epoch_metrics", "exp.tables",
             "partitioning.quality")
            + tuple(f"partitioning.edge.{p}" for p in EDGE_ROSTER)
            + tuple(f"partitioning.vertex.{p}" for p in VERTEX_PARTITIONERS),
            ("sampling.",),
            False,
        ),
        Workload(
            "dgl_deep",
            BENCH_SCALE,
            tuple(f"table5/{DGL_GRAPH}/{p}/{DGL_K}/{DGL_LAYERS}" for p in DGL_ROSTER),
            _run_dgl,
            _check_dgl,
            ("graphs.load", "sampling.plan", "sampling.epoch", "simulate.phase_times",
             "exp.tables") + tuple(f"partitioning.vertex.{p}" for p in DGL_ROSTER),
            ("partitioning.edge.",),
            True,
        ),
    )
}


def warm_up(spark) -> None:
    """One sampling epoch on a test-scale graph: JVM, codegen and Arrow warm-up."""
    harness.run_distdgl_suite(
        spark, graphs=("EN",), partitioners=("Random",), ks=(4,), layer_counts=(2,),
        features=(16,), hiddens=(16,), scale=TEST_SCALE, seed=0,
    )

"""Synthetic graph generators standing in for the paper's five datasets.

The paper (Table 1) evaluates on five real graphs: Hollywood-2011
(collaboration), Dimacs9-USA (road), Enwiki-2021 (wiki), Eu-2015-tpd (web)
and Orkut (social). Those are 58-234 M-edge downloads we cannot fetch
offline, so we generate scaled stand-ins that preserve the two properties
the partitioning study actually exercises:

* a skewed (power-law) degree distribution with planted community
  structure for the four social-like graphs — this is what lets in-memory
  partitioners (METIS/KaHIP/HEP) find far better cuts than streaming ones,
  exactly the spread the paper measures; and
* a near-planar, low-degree, high-diameter mesh for the road network —
  this is why the paper sees edge-cuts < 0.001 on DI and why sampling
  dominates feature fetching there.

Generation is pure vectorized numpy (deterministic in ``seed``); the public
functions return pandas DataFrames with ``src``/``dst`` int64 columns so
callers can either feed the driver-side partitioners directly or lift them
into Spark with :func:`to_spark`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

EDGE_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
    ]
)


def to_spark(spark: SparkSession, edges: pd.DataFrame) -> DataFrame:
    """Lift a pandas edge list into a Spark DataFrame with a fixed schema."""
    return spark.createDataFrame(edges[["src", "dst"]], schema=EDGE_SCHEMA)


def _dedup_simple(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicate (src, dst) pairs, preserving order-independence.

    Pairs are packed into a single int64 key (valid while n < 2**31).
    """
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = src.astype(np.int64) * n + dst
    _, idx = np.unique(key, return_index=True)
    idx.sort()
    return src[idx], dst[idx]


def dcsbm_powerlaw(
    *,
    n_vertices: int,
    n_edges: int,
    n_communities: int = 32,
    mixing: float = 0.1,
    gamma: float = 2.2,
    directed: bool = False,
    seed: int = 0,
    return_communities: bool = False,
) -> pd.DataFrame | tuple[pd.DataFrame, np.ndarray]:
    """Degree-corrected stochastic-block-model graph with power-law degrees.

    Endpoints are drawn from a Zipf-like weight vector (``w_i ~ i^(-1/(gamma-1))``,
    the Chung-Lu construction for a power-law degree distribution with
    exponent ``gamma``); with probability ``1 - mixing`` the destination is
    drawn from the *source's community*, otherwise from the whole graph.
    Low ``mixing`` ⇒ strong locality ⇒ good partitioners find small cuts.

    Returns a simple graph (no self-loops / duplicate pairs); undirected
    graphs are canonicalized to ``src < dst``. The realized edge count can
    fall slightly short of ``n_edges`` after dedup — callers read ``len(df)``.
    """
    if n_vertices < 2:
        raise ValueError("need at least 2 vertices")
    rng = np.random.default_rng(seed)
    beta = 1.0 / (gamma - 1.0)
    w = np.arange(1, n_vertices + 1, dtype=np.float64) ** (-beta)
    # Shuffle weights so vertex id does not encode degree (real graph ids don't).
    perm = rng.permutation(n_vertices)
    w = w[perm]
    p = w / w.sum()

    comm = rng.integers(0, n_communities, n_vertices)
    members: list[np.ndarray] = [np.flatnonzero(comm == c) for c in range(n_communities)]
    member_p: list[np.ndarray | None] = []
    for m in members:
        wp = w[m]
        member_p.append(wp / wp.sum() if wp.sum() > 0 else None)

    def _sample_batch(size: int) -> tuple[np.ndarray, np.ndarray]:
        src = rng.choice(n_vertices, size=size, p=p)
        dst = np.empty(size, dtype=np.int64)
        within = rng.random(size) >= mixing
        global_mask = ~within
        dst[global_mask] = rng.choice(n_vertices, size=int(global_mask.sum()), p=p)
        src_comm = comm[src]
        for c in range(n_communities):
            sel = within & (src_comm == c)
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            m = members[c]
            if len(m) == 0 or member_p[c] is None:
                dst[sel] = rng.choice(n_vertices, size=cnt, p=p)
            else:
                dst[sel] = m[rng.choice(len(m), size=cnt, p=member_p[c])]
        return src.astype(np.int64), dst

    # Power-law hubs make duplicate pairs common, so a single oversampled
    # draw can fall far short after dedup. Accumulate distinct pairs over
    # rounds until the target (or saturation) is reached.
    m_target = n_edges
    acc_src = np.empty(0, dtype=np.int64)
    acc_dst = np.empty(0, dtype=np.int64)
    for _ in range(64):
        missing = m_target - len(acc_src)
        if missing <= 0:
            break
        src, dst = _sample_batch(int(missing * 1.6) + 32)
        src = np.concatenate([acc_src, src])
        dst = np.concatenate([acc_dst, dst])
        if not directed:
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi
        acc_src, acc_dst = _dedup_simple(src, dst, n_vertices)
    if len(acc_src) > m_target:
        acc_src, acc_dst = acc_src[:m_target], acc_dst[:m_target]
    # Shuffle so streaming partitioners don't see a sorted-by-key stream.
    order = rng.permutation(len(acc_src))
    df = pd.DataFrame({"src": acc_src[order], "dst": acc_dst[order]})
    return (df, comm) if return_communities else df


def road_grid(
    *,
    n_vertices: int,
    drop_frac: float = 0.08,
    shortcut_frac: float = 0.002,
    directed: bool = True,
    seed: int = 0,
) -> pd.DataFrame:
    """Perturbed 2-D grid standing in for the Dimacs9-USA road network.

    A ``rows x cols`` lattice (4-neighborhood) with a fraction of edges
    removed and a few long-range "highway" shortcuts added. Mean degree ~2-4
    and near-planarity match road networks; good vertex partitioners achieve
    near-zero edge-cut on it, as the paper reports for DI.
    """
    rng = np.random.default_rng(seed)
    rows = int(np.sqrt(n_vertices))
    cols = (n_vertices + rows - 1) // rows
    n = rows * cols
    idx = np.arange(n).reshape(rows, cols)

    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    edges = np.concatenate([right, down])
    keep = rng.random(len(edges)) >= drop_frac
    edges = edges[keep]

    n_short = max(1, int(len(edges) * shortcut_frac))
    sa = rng.integers(0, n, n_short)
    sb = rng.integers(0, n, n_short)
    edges = np.concatenate([edges, np.stack([sa, sb], axis=1)])

    src, dst = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    if not directed:
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        src, dst = lo, hi
    src, dst = _dedup_simple(src, dst, n)
    return pd.DataFrame({"src": src, "dst": dst})


def undirected_view(edges: pd.DataFrame) -> pd.DataFrame:
    """Canonical undirected simple view: src < dst, duplicates dropped.

    All partitioners in this repo (like the tools in the paper, which
    partition the symmetrized structure) operate on this view.
    """
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    n = int(max(lo.max(initial=0), hi.max(initial=0))) + 1 if len(lo) else 1
    lo, hi = _dedup_simple(lo, hi, n)
    return pd.DataFrame({"src": lo, "dst": hi})


def symmetrized(edges: pd.DataFrame) -> pd.DataFrame:
    """Both directions of every edge — the adjacency used by samplers/GNNs."""
    und = undirected_view(edges)
    fwd = und
    bwd = und.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]
    return pd.concat([fwd, bwd], ignore_index=True)


def csr_adjacency(edges: pd.DataFrame, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of :func:`symmetrized` over vertices ``0..n_vertices-1``.

    ``indices[indptr[v]:indptr[v + 1]]`` is v's neighbourhood, ascending;
    a vertex without edges has an empty one.
    """
    sym = symmetrized(edges)
    src = sym["src"].to_numpy(np.int64)
    dst = sym["dst"].to_numpy(np.int64)
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_vertices), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]

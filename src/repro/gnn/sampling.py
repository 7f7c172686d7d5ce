"""DistDGL-style k-hop mini-batch neighborhood sampling over a CSR adjacency.

DistDGL trains mini-batch GNNs over a vertex-partitioned (edge-cut) graph:
each worker owns one partition, samples the k-hop neighborhood of its local
training vertices with per-layer fanouts, then fetches the features of
*remote* input vertices over the network. The paper's DistDGL observables
all come from this pipeline: sampled-edge counts (computation-graph size),
input-vertex balance (Figure 14), remote vertices (Figures 24b, 26c) and
the phase-time decomposition built on top of them.

The sampler runs on the driver, as DistDGL samples from in-memory CSR
partitions: each hop expands every (worker, step, vertex) frontier row to
its neighbours in the CSR adjacency (``indptr``, ``indices``) and keeps
``fanout`` of them; the per-step statistics are then reduced with numpy.

* **Hash-ordered.** The neighbors kept are the ``fanout`` smallest by
  ``xxhash64(seed, layer, worker, step, src, dst)`` as a signed long, ties
  broken by ``dst``. The hash is a numpy port of Spark's
  ``F.xxhash64(F.lit(seed), F.lit(layer), ...)`` over long columns, and the
  sample equals a Spark window plan that ranks with it (the tests compare
  both). The sample is a pure function of its inputs, whatever the order of
  the seed rows.
* **Each hop once.** Layer ``l`` samples from every vertex reached so far
  (the seeds and the destinations of layers < l), so the sampled rows are
  one consistent computation graph per (worker, step): every layer-l source
  is a seed or a destination sampled at an earlier layer.
* **Ranks only what can be kept.** A row whose degree is at most its
  fanout keeps its whole neighbourhood unranked. Other rows drop the
  candidates above a per-row hash threshold, which leaves about
  ``OVERSAMPLE * fanout`` of them, before the one sort that ranks them; a
  row left with fewer than ``fanout`` keeps all its candidates, so the
  result is exact. Candidates are expanded ``CHUNK`` at a time, which
  bounds the driver memory a hop takes.

Paper fanouts (Section 5.1): 2-layer (25, 20), 3-layer (15, 10, 5), 4-layer
(10, 10, 5, 5); global batch size 1024 split evenly across workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

#: Paper Section 5.1 fanout schedules, keyed by number of layers.
FANOUTS: dict[int, tuple[int, ...]] = {
    2: (25, 20),
    3: (15, 10, 5),
    4: (10, 10, 5, 5),
}

#: Expected candidates a ranked row keeps through the hash prefilter, as a
#: multiple of its fanout. At 4x, a row falls short of its fanout (and is
#: ranked whole) with a probability far below one in a million for fanouts >= 5.
OVERSAMPLE = 4
#: Candidate (frontier row, neighbour) pairs hashed at once.
CHUNK = 1 << 19

# Spark's XXH64 (org.apache.spark.sql.catalyst.expressions.XXH64).
_P1 = np.uint64(0x9E3779B185EBCA87)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)
_P3 = np.uint64(0x165667B19E3779F9)
_P4 = np.uint64(0x85EBCA77C2B2AE63)
_P5 = np.uint64(0x27D4EB2F165667C5)
#: Spark's ``xxhash64`` expression seed.
_SPARK_SEED = 42


@dataclass
class EpochSamplingStats:
    """Per-(worker, step) sampling statistics for one epoch."""

    k: int
    n_layers: int
    global_batch: int
    # columns: worker, step, sampled_edges, input_vertices, remote_inputs,
    # remote_accesses
    per_step: pd.DataFrame
    # raw sampled edges: worker, step, src, dst, layer
    sampled: pd.DataFrame
    # sampled edges per (per_step row, layer), shape (len(per_step), n_layers)
    hop_edges: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.per_step["step"].max()) + 1 if len(self.per_step) else 0

    def epoch_total(self, col: str) -> float:
        return float(self.per_step[col].sum())

    def input_vertex_balance(self) -> float:
        """Paper's input-vertex balance: mean over steps of max/mean."""
        g = self.per_step.groupby("step")["input_vertices"]
        return float((g.max() / g.mean()).mean())


def plan_batches(
    train_vertices: np.ndarray,
    owner_of: np.ndarray,
    k: int,
    global_batch: int,
    *,
    seed: int = 0,
) -> pd.DataFrame:
    """Assign training vertices to (worker, step) mini-batches.

    Each worker draws ``global_batch / k`` seeds per step from its *local*
    training vertices (DistDGL semantics — training vertices live with
    their partition). Workers with small pools wrap around cyclically so
    every worker contributes to every step; the number of steps is
    ``ceil(|train| / global_batch)``.
    """
    rng = np.random.default_rng(seed)
    n_steps = max(1, int(np.ceil(len(train_vertices) / global_batch)))
    per_worker = max(1, global_batch // k)
    rows = []
    for w in range(k):
        local = train_vertices[owner_of[train_vertices] == w]
        if len(local) == 0:
            continue
        local = rng.permutation(local)
        need = n_steps * per_worker
        pool = np.resize(local, need)  # cyclic wrap-around
        steps = np.repeat(np.arange(n_steps), per_worker)
        rows.append(pd.DataFrame({"worker": w, "step": steps, "vertex": pool}))
    out = pd.concat(rows, ignore_index=True)
    # A vertex drawn twice into the same batch collapses to one seed.
    return out.drop_duplicates(["worker", "step", "vertex"]).reset_index(drop=True)


# --- Spark's xxhash64 in numpy ------------------------------------------------


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    """Rotate ``x`` left by ``r`` bits, in place."""
    high = x >> np.uint64(64 - r)
    x <<= np.uint64(r)
    x |= high
    return x


def _fmix(h: np.ndarray) -> np.ndarray:
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    h ^= h >> np.uint64(32)
    return h


def _hash_int(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``XXH64.hashInt``: ``x`` holds the int's 32 bits, unsigned."""
    t = x * _P1
    t ^= h + (_P5 + np.uint64(4))
    _rotl(t, 23)
    t *= _P2
    t += _P3
    return _fmix(t)


def _hash_long(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``XXH64.hashLong``: ``x`` holds the long's 64 bits, unsigned."""
    t = _rotl(x * _P2, 31)
    t *= _P1
    t ^= h + (_P5 + np.uint64(8))
    _rotl(t, 27)
    t *= _P1
    t += _P4
    return _fmix(t)


def _hash_literal(value: int, h: np.ndarray) -> np.ndarray:
    """Fold a Python int as ``F.lit`` types it: int in int32 range, else long."""
    if -(2**31) <= value < 2**31:
        return _hash_int(np.array([value & 0xFFFFFFFF], dtype=np.uint64), h)
    return _hash_long(np.array([value], dtype=np.int64).view(np.uint64), h)


def _u64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).view(np.uint64)


def _fold_rows(seed: int, layer: int, worker, step, src) -> np.ndarray:
    """The hash state after ``(seed, layer, worker, step, src)``, per row."""
    h = np.array([_SPARK_SEED], dtype=np.uint64)
    h = _hash_literal(layer, _hash_literal(seed, h))
    for col in (worker, step, src):
        h = _hash_long(_u64(col), h)
    return h


# --- the sampler --------------------------------------------------------------


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + n)`` for each (s, n)."""
    offsets = np.cumsum(length) - length
    return np.repeat(start - offsets, length) + np.arange(int(length.sum()))


def _fallback(keep: np.ndarray, row: np.ndarray, n_rows: int, fan: int) -> np.ndarray:
    """Rows left with fewer than ``fan`` candidates by the prefilter keep them all."""
    short = np.bincount(row[keep], minlength=n_rows) < fan
    return keep | short[row]


def _order_in_rows(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Indices that sort candidates by (row ``r``, signed hash ``h``).

    ``r`` is ascending and, within a row, candidates come in ``dst`` order
    (the CSR neighbourhoods are sorted), so the stable sorts keep equal
    hashes in ``dst`` order. One packed int64 key is sorted: the row above
    the hash's top bits. If two candidates of a row share those bits, the
    candidates are ranked by the full hash instead. The single-key sort is
    kept because ``np.lexsort((h, r))`` alone, exact but two sort passes,
    makes a 3-hop EN epoch (scale 1e-3, k=8, batch 64; ~1 s on a 4-core
    host) 0.3-0.6 s slower.
    """
    hbits = 63 - int(r[-1]).bit_length()
    top = (h.view(np.uint64) ^ np.uint64(1 << 63)) >> np.uint64(64 - hbits)
    key = (r << hbits) | top.view(np.int64)
    order = np.argsort(key, kind="stable")
    if (np.diff(key[order]) == 0).any():
        order = np.lexsort((h, r))
    return order


def _sample_hop(
    indptr: np.ndarray,
    indices: np.ndarray,
    worker: np.ndarray,
    step: np.ndarray,
    src: np.ndarray,
    seed: int,
    layer: int,
    fan: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(frontier row, dst) of the ``fan`` neighbours each frontier row keeps."""
    start = indptr[src]
    deg = indptr[src + 1] - start
    whole = np.flatnonzero(deg <= fan)
    rows = [np.repeat(whole, deg[whole])]
    dsts = [indices[_ranges(start[whole], deg[whole])]]

    ranked = np.flatnonzero(deg > fan)
    h0 = _fold_rows(seed, layer, worker[ranked], step[ranked], src[ranked])
    # Keep a candidate when its signed hash is <= the row's threshold, the
    # (OVERSAMPLE * fan / deg) quantile of the uniform long range; a row with
    # deg <= OVERSAMPLE * fan keeps every candidate. The cast cannot
    # overflow: frac <= 1 - 1/deg bounds the threshold below 2**63 - 2**33.
    frac = OVERSAMPLE * fan / deg[ranked]
    thr = np.full(len(ranked), np.iinfo(np.int64).max)
    filtered = frac < 1
    thr[filtered] = (frac[filtered] * 2.0**64 - 2.0**63).astype(np.int64)

    cum = np.cumsum(deg[ranked])
    a = 0
    while a < len(ranked):
        base = cum[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(cum, base + CHUNK, side="right")))
        r = np.repeat(np.arange(b - a), deg[ranked[a:b]])
        dst = indices[_ranges(start[ranked[a:b]], deg[ranked[a:b]])]
        h = _hash_long(_u64(dst), h0[a:b][r]).view(np.int64)
        keep = _fallback(h <= thr[a:b][r], r, b - a, fan)
        r, dst, h = r[keep], dst[keep], h[keep]
        order = _order_in_rows(r, h)
        r, dst = r[order], dst[order]
        counts = np.bincount(r, minlength=b - a)
        rank = np.arange(len(r)) - (np.cumsum(counts) - counts)[r]
        top = rank < fan
        rows.append(ranked[a:b][r[top]])
        dsts.append(dst[top])
        a = b
    return np.concatenate(rows), np.concatenate(dsts)


def sample_epoch(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: pd.DataFrame,
    owner_of: np.ndarray,
    fanouts: tuple[int, ...],
    *,
    seed: int = 0,
    global_batch: int | None = None,
) -> EpochSamplingStats:
    """Sample one epoch of mini-batches; returns per-step statistics.

    ``indptr``/``indices`` is the CSR adjacency of the symmetrized graph
    (:func:`repro.graphs.generators.csr_adjacency`), so the sampler expands
    over undirected neighborhoods like DGL does on the symmetrized graphs of
    the study. Layer ``l`` samples from every vertex reached so far (the
    seeds and the destinations of layers < l), as DGL's blocks keep their
    destination vertices among their sources.
    """
    k = int(owner_of.max()) + 1 if len(owner_of) else 1
    n = len(indptr) - 1
    n_steps = int(seeds["step"].max()) + 1
    # Frontier rows as sorted distinct keys (worker * n_steps + step) * n + vertex.
    frontier = np.unique(
        (seeds["worker"].to_numpy(np.int64) * n_steps + seeds["step"].to_numpy(np.int64)) * n
        + seeds["vertex"].to_numpy(np.int64)
    )
    hops = []
    for layer, fan in enumerate(fanouts):
        group, src = np.divmod(frontier, n)
        row, dst = _sample_hop(
            indptr, indices, group // n_steps, group % n_steps, src, seed, layer, fan
        )
        hops.append((group[row], src[row], dst))
        if layer + 1 < len(fanouts):
            frontier = np.union1d(frontier, group[row] * n + dst)
    group = np.concatenate([g for g, _, _ in hops])
    sampled = pd.DataFrame(
        {
            "worker": group // n_steps,
            "step": group % n_steps,
            "src": np.concatenate([s for _, s, _ in hops]),
            "dst": np.concatenate([d for _, _, d in hops]),
            "layer": np.repeat(
                np.arange(len(fanouts), dtype=np.int32), [len(d) for _, _, d in hops]
            ),
        },
        copy=False,
    )
    del hops, group  # free the per-hop pieces before the reduction
    return _stats_from_sampled(
        seeds, sampled, owner_of, len(fanouts), k, global_batch or 0
    )


def _stats_from_sampled(
    seeds: pd.DataFrame,
    sampled: pd.DataFrame,
    owner_of: np.ndarray,
    n_layers: int,
    k: int,
    global_batch: int,
) -> EpochSamplingStats:
    """Numpy reduction of the sampled-edge table into per-step statistics.

    A vertex first reached at frontier-depth ``f`` (seeds: f=0; a neighbor
    sampled in layer l: f=l+1) is part of the sampling frontier for layers
    f..n_layers-1, so a *remote* vertex incurs ``n_layers - f`` remote
    sampling accesses, and every remote input vertex incurs one feature
    fetch.
    """
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
    first["remote"] = (
        owner_of[first["vertex"].to_numpy()] != first["worker"].to_numpy()
    )
    first["remote_accesses"] = (
        np.maximum(0, n_layers - first["first"].to_numpy()) * first["remote"].to_numpy()
    )
    per_step = (
        first.groupby(["worker", "step"])
        .agg(
            input_vertices=("vertex", "size"),
            remote_inputs=("remote", "sum"),
            remote_accesses=("remote_accesses", "sum"),
        )
        .reset_index()
    )
    # Sampled edges per (per_step row, hop): per_step rows are sorted by
    # (worker, step), and every sampled row's (worker, step) has seeds.
    n_steps = int(per_step["step"].max()) + 1 if len(per_step) else 0
    row_key = per_step["worker"].to_numpy() * n_steps + per_step["step"].to_numpy()
    row = np.searchsorted(
        row_key, sampled["worker"].to_numpy() * n_steps + sampled["step"].to_numpy()
    )
    hop_edges = np.bincount(
        row * n_layers + sampled["layer"].to_numpy(),
        minlength=len(per_step) * n_layers,
    ).reshape(len(per_step), n_layers)
    per_step["sampled_edges"] = hop_edges.sum(axis=1).astype(np.int64)
    per_step["remote_inputs"] = per_step["remote_inputs"].astype(np.int64)
    return EpochSamplingStats(
        k=k,
        n_layers=n_layers,
        global_batch=global_batch,
        per_step=per_step,
        sampled=sampled,
        hop_edges=hop_edges,
    )

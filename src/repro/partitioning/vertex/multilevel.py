"""Shared multilevel graph-partitioning machinery (METIS/KaHIP family).

The classic three phases (Karypis & Kumar 1996; Sanders & Schulz 2013):

1. **Coarsening** — repeated heavy-edge matching contracts the graph until
   it is small (~``COARSE_PER_PART`` vertices per partition), accumulating
   edge and vertex weights;
2. **Initial partitioning** — greedy region growing on the coarsest graph
   (BFS from seeds until the vertex-weight target is met);
3. **Uncoarsening + refinement** — project the partition up level by level
   and improve it with boundary moves. Two refinement engines are provided:
   a *vectorized one-shot gain pass* (fast, used by the METIS-like
   partitioner) and a *sequential FM pass with exact gain updates* (slow,
   higher quality, used by the KaHIP-like partitioner — also the honest
   reason KaHIP's partitioning time dwarfs METIS's in the paper's Figure 15
   and Table 5).

Graphs at each level are stored as undirected weighted edge lists
(``u < v``) plus a vertex-weight array; everything is numpy except the
inherently sequential matching/FM loops.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.partitioning.base import build_csr

COARSE_PER_PART = 24
#: Refinement passes (FM rounds) per level.
PASSES = 3
#: Balance caps: METIS's default slack for the one-shot pass, KaHIP's
#: tighter one for FM.
ONESHOT_ALPHA = 1.05
FM_ALPHA = 1.03


@dataclass
class _Level:
    eu: np.ndarray  # edge endpoint (u < v)
    ev: np.ndarray
    ew: np.ndarray  # edge weight
    vwgt: np.ndarray  # vertex weight
    cmap: np.ndarray | None  # fine-vertex -> this level's vertex (None at finest)


def _contract(
    eu: np.ndarray, ev: np.ndarray, ew: np.ndarray, vwgt: np.ndarray, rng: np.random.Generator
) -> _Level | None:
    """One heavy-edge-matching contraction; None if it no longer shrinks."""
    n = len(vwgt)
    indptr, nbr, eid = build_csr(eu, ev, n)
    w = ew[eid]
    match = np.full(n, -1, dtype=np.int64)
    for v in rng.permutation(n):
        if match[v] >= 0:
            continue
        best, bw = -1, -1.0
        for j in range(indptr[v], indptr[v + 1]):
            u = nbr[j]
            if u != v and match[u] < 0 and w[j] > bw:
                bw, best = w[j], u
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    cid = np.full(n, -1, dtype=np.int64)
    c = 0
    for v in range(n):
        if cid[v] < 0:
            cid[v] = c
            cid[match[v]] = c
            c += 1
    if c >= n:  # nothing matched — give up
        return None
    cvw = np.zeros(c, dtype=np.int64)
    np.add.at(cvw, cid, vwgt)
    cu, cv = cid[eu], cid[ev]
    keep = cu != cv
    lo = np.minimum(cu[keep], cv[keep])
    hi = np.maximum(cu[keep], cv[keep])
    key = lo * c + hi
    uniq, inv = np.unique(key, return_inverse=True)
    wsum = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(wsum, inv, ew[keep])
    return _Level(eu=uniq // c, ev=uniq % c, ew=wsum, vwgt=cvw, cmap=cid)


def coarsen(
    eu: np.ndarray, ev: np.ndarray, n_vertices: int, k: int, rng: np.random.Generator
) -> list[_Level]:
    """Coarsening hierarchy, finest first."""
    levels = [
        _Level(eu=eu, ev=ev, ew=np.ones(len(eu)), vwgt=np.ones(n_vertices, dtype=np.int64), cmap=None)
    ]
    target = max(COARSE_PER_PART * k, 64)
    while len(levels[-1].vwgt) > target:
        nxt = _contract(levels[-1].eu, levels[-1].ev, levels[-1].ew, levels[-1].vwgt, rng)
        if nxt is None or len(nxt.vwgt) > 0.95 * len(levels[-1].vwgt):
            break
        levels.append(nxt)
    return levels


def initial_partition(level: _Level, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy region growing on the coarsest graph."""
    n = len(level.vwgt)
    indptr, nbr, _ = build_csr(level.eu, level.ev, n)
    part = np.full(n, -1, dtype=np.int64)
    total = level.vwgt.sum()
    target = total / k
    order = rng.permutation(n)
    oi = 0
    for p in range(k - 1):
        load = 0
        frontier: list[int] = []
        while load < target:
            if not frontier:
                while oi < n and part[order[oi]] >= 0:
                    oi += 1
                if oi >= n:
                    break
                v = int(order[oi])
            else:
                v = frontier.pop()
                if part[v] >= 0:
                    continue
            part[v] = p
            load += level.vwgt[v]
            for j in range(indptr[v], indptr[v + 1]):
                u = nbr[j]
                if part[u] < 0:
                    frontier.append(int(u))
        if oi >= n:
            break
    part[part < 0] = k - 1
    return part


def _cap(vwgt: np.ndarray, k: int, alpha: float) -> float:
    """Balance cap with the standard floor of one max-weight vertex of slack.

    Without the floor, refinement on small (or coarse) graphs deadlocks:
    a perfectly balanced but badly cut partition cannot start a swap because
    the first move would exceed ``alpha * W / k``.
    """
    total = float(vwgt.sum())
    return max(alpha * total / k, total / k + float(vwgt.max(initial=1)))


def neighbor_weight_matrix(
    n: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray, part: np.ndarray, k: int
) -> np.ndarray:
    """W[v, p] = total edge weight from v into partition p."""
    W = np.zeros((n, k), dtype=np.float64)
    np.add.at(W, (eu, part[ev]), ew)
    np.add.at(W, (ev, part[eu]), ew)
    return W


def cut_weight(eu: np.ndarray, ev: np.ndarray, ew: np.ndarray, part: np.ndarray) -> float:
    return float(ew[part[eu] != part[ev]].sum())


def refine_oneshot(level: _Level, part: np.ndarray, k: int) -> np.ndarray:
    """Vectorized one-shot gain passes (METIS-flavour refinement).

    Each pass computes all boundary gains from a frozen partition, then
    applies positive-gain moves in descending gain order while tracking
    balance. Cheap, good-enough cuts.
    """
    n = len(level.vwgt)
    cap = _cap(level.vwgt, k, ONESHOT_ALPHA)
    part = part.copy()
    for _ in range(PASSES):
        W = neighbor_weight_matrix(n, level.eu, level.ev, level.ew, part, k)
        own = W[np.arange(n), part]
        Wother = W.copy()
        Wother[np.arange(n), part] = -np.inf
        best = Wother.argmax(axis=1)
        gain = Wother[np.arange(n), best] - own
        load = np.zeros(k, dtype=np.float64)
        np.add.at(load, part, level.vwgt)
        movers = np.flatnonzero(gain > 1e-12)
        if len(movers) == 0:
            break
        movers = movers[np.argsort(-gain[movers], kind="stable")]
        moved = 0
        for v in movers:
            p_new, p_old = best[v], part[v]
            vw = level.vwgt[v]
            if load[p_new] + vw <= cap:
                part[v] = p_new
                load[p_new] += vw
                load[p_old] -= vw
                moved += 1
        if moved == 0:
            break
    return part


def refine_fm(level: _Level, part: np.ndarray, k: int) -> np.ndarray:
    """Sequential FM-style refinement with exact gain updates (KaHIP-flavour).

    After every accepted move the gains of the moved vertex's neighbors are
    recomputed, so later moves see the true partition — better cuts than the
    one-shot pass, at a much higher (and honestly spent) cost. Moves with
    zero gain are also accepted when they improve balance, which lets the
    search escape plateaus.
    """
    import heapq

    n = len(level.vwgt)
    indptr, nbr, eid = build_csr(level.eu, level.ev, n)
    w = level.ew[eid]
    cap = _cap(level.vwgt, k, FM_ALPHA)
    part = part.copy()
    load = np.zeros(k, dtype=np.float64)
    np.add.at(load, part, level.vwgt)

    def gains_of(v: int) -> tuple[float, int]:
        Wv = np.zeros(k)
        for j in range(indptr[v], indptr[v + 1]):
            Wv[part[nbr[j]]] += w[j]
        own = Wv[part[v]]
        Wv[part[v]] = -np.inf
        b = int(Wv.argmax())
        return float(Wv[b] - own), b

    for _ in range(PASSES):
        heap: list[tuple[float, int, int]] = []
        for v in range(n):
            g, b = gains_of(v)
            if g > -1e12:
                heapq.heappush(heap, (-g, v, b))
        improved = False
        seen = np.zeros(n, dtype=bool)
        while heap:
            negg, v, b = heapq.heappop(heap)
            g = -negg
            if seen[v]:
                continue
            cg, cb = gains_of(v)  # recompute: heap entry may be stale
            if abs(cg - g) > 1e-9 or cb != b:
                heapq.heappush(heap, (-cg, v, cb))
                continue
            if g < 0:
                break
            p_old = part[v]
            vw = level.vwgt[v]
            better_balance = load[b] + vw < load[p_old]
            if load[b] + vw > cap or (g == 0 and not better_balance):
                seen[v] = True
                continue
            part[v] = b
            load[b] += vw
            load[p_old] -= vw
            seen[v] = True
            improved = improved or g > 0
            for j in range(indptr[v], indptr[v + 1]):
                u = nbr[j]
                if not seen[u]:
                    gu, bu = gains_of(int(u))
                    heapq.heappush(heap, (-gu, int(u), bu))
        if not improved:
            break
    return part


def multilevel_partition(
    eu: np.ndarray,
    ev: np.ndarray,
    n_vertices: int,
    k: int,
    *,
    seed: int = 0,
    refine: Callable[[_Level, np.ndarray, int], np.ndarray],
) -> np.ndarray:
    """Full multilevel pipeline, refining every level with ``refine``
    (:func:`refine_oneshot` or :func:`refine_fm`)."""
    rng = np.random.default_rng(seed)
    levels = coarsen(eu, ev, n_vertices, k, rng)
    part = initial_partition(levels[-1], k, rng)
    for lvl in range(len(levels) - 1, -1, -1):
        part = refine(levels[lvl], part, k)
        if lvl > 0:
            part = part[levels[lvl].cmap]
    return part

"""Spinner — balanced label propagation partitioning (Martella et al., ICDE 2017).

In-memory edge-cut partitioner: every vertex carries a label (= partition);
iteratively each vertex adopts the label maximizing

    score(v, l) = (#neighbors of v with label l) / deg(v) + c_bal * (1 - load_l / C)

with capacity ``C = alpha * n / k``. Synchronous iterations with a
probabilistic update (only a fraction of improvable vertices move per round)
prevent label oscillation, as in the original Giraph implementation.
:meth:`SpinnerPartitioner.assign` runs the iterations as a vectorized numpy
loop on the driver.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import VertexPartitioner


class SpinnerPartitioner(VertexPartitioner):
    name = "Spinner"
    category = "in-memory"

    def __init__(self, iterations: int = 15, alpha: float = 1.05, c_bal: float = 0.5, move_frac: float = 0.5):
        self.iterations = int(iterations)
        self.alpha = float(alpha)
        self.c_bal = float(c_bal)
        self.move_frac = float(move_frac)

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        rng = np.random.default_rng(seed)
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        a = np.concatenate([src, dst])
        b = np.concatenate([dst, src])
        deg = np.maximum(1, np.bincount(a, minlength=n_vertices)).astype(np.float64)
        label = rng.integers(0, k, n_vertices)
        cap = self.alpha * n_vertices / k
        for _ in range(self.iterations):
            counts = np.zeros((n_vertices, k), dtype=np.float64)
            np.add.at(counts, (a, label[b]), 1.0)
            load = np.bincount(label, minlength=k).astype(np.float64)
            penalty = self.c_bal * (1.0 - load / cap)
            score = counts / deg[:, None] + penalty[None, :]
            # Hard capacity: full partitions accept no newcomers (a vertex
            # may always stay where it is).
            score[:, load >= cap] = -np.inf
            score[np.arange(n_vertices), label] = (
                counts[np.arange(n_vertices), label] / deg + penalty[label]
            )
            cand = score.argmax(axis=1)
            cur = score[np.arange(n_vertices), label]
            new = score[np.arange(n_vertices), cand]
            move = (new > cur + 1e-12) & (rng.random(n_vertices) < self.move_frac)
            if not move.any():
                break
            # Admit movers per target partition only up to the remaining
            # capacity, so a synchronous round cannot overshoot the cap.
            movers = np.flatnonzero(move)
            order = rng.permutation(len(movers))
            for p in range(k):
                into_p = movers[order][cand[movers[order]] == p]
                room = int(max(0, cap - load[p]))
                for v in into_p[room:]:
                    move[v] = False
            label[move] = cand[move]
        return label.astype(np.int64)


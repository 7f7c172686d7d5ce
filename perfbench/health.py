"""Sampler-health counters over one epoch's raw sampled-edge table.

* ``fanout_overruns`` — rows above the layer's fanout per (worker, step,
  layer, src); any overrun fails the cell.
* ``missing_edges`` — sampled (src, dst) pairs that are not edges of the
  symmetrized graph; any fails the cell.
* ``orphan_rows`` — sampled rows whose source was not reached at an earlier
  depth of the same (worker, step): neither a seed nor the destination of a
  row of an earlier layer. Reported, not gated: the sampler re-derives
  earlier hops with fresh random draws, so the rows it reports do not form
  one computation graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.generators import symmetrized

KEYS = ["worker", "step"]


@dataclass(frozen=True)
class SamplerHealth:
    rows: int
    fanout_overruns: int
    missing_edges: int
    orphan_rows: int


def sampler_health(
    seeds: pd.DataFrame,
    sampled: pd.DataFrame,
    fanouts: tuple[int, ...],
    edges: pd.DataFrame,
) -> SamplerHealth:
    per_src = sampled.groupby(KEYS + ["layer", "src"]).size()
    cap = np.asarray(fanouts)[per_src.index.get_level_values("layer").to_numpy()]
    overruns = int(np.clip(per_src.to_numpy() - cap, 0, None).sum())

    sym = symmetrized(edges)
    n = int(max(sym["src"].max(), sym["dst"].max(), sampled["src"].max(),
                sampled["dst"].max())) + 1
    sym_keys = sym["src"].to_numpy(np.int64) * n + sym["dst"].to_numpy(np.int64)
    keys = sampled["src"].to_numpy(np.int64) * n + sampled["dst"].to_numpy(np.int64)
    missing = int((~np.isin(keys, sym_keys)).sum())

    # Depth at which each (worker, step, vertex) is first reached: seeds at
    # 0, the destination of a layer-l row at l + 1.
    reached = pd.concat(
        [
            seeds[KEYS + ["vertex"]].assign(depth=0),
            sampled[KEYS + ["dst", "layer"]]
            .rename(columns={"dst": "vertex"})
            .assign(depth=lambda d: d["layer"] + 1)
            .drop(columns="layer"),
        ],
        ignore_index=True,
    ).groupby(KEYS + ["vertex"], as_index=False)["depth"].min()
    src_depth = sampled[KEYS + ["src", "layer"]].merge(
        reached.rename(columns={"vertex": "src"}), on=KEYS + ["src"], how="left"
    )
    orphans = int((src_depth["depth"].isna() | (src_depth["depth"] > src_depth["layer"])).sum())
    return SamplerHealth(len(sampled), overruns, missing, orphans)

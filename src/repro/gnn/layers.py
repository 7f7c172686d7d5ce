"""Per-layer flop counts of the GNN layers in the study.

The paper's workloads are GraphSage (both systems), plus GCN and GAT for
DistDGL. :func:`layer_flops` gives each layer's forward flops; the DistGNN
and DistDGL models in ``repro.simulate`` turn them into compute time.
"""
from __future__ import annotations


def layer_flops(
    kind: str, n_vertices: int, n_edges: int, d_in: int, d_out: int
) -> float:
    """Approximate forward flops of one layer — anchors the cost model.

    Dense transform: 2 * n * d_in * d_out (x2 for GraphSage's two weight
    matrices); aggregation: ~2 * m * d; GAT pays an extra attention term
    per edge.
    """
    dense = 2.0 * n_vertices * d_in * d_out
    agg = 2.0 * n_edges * d_in
    if kind == "sage":
        return 2 * dense + agg
    if kind == "gcn":
        return dense + agg
    if kind == "gat":
        return dense + 2.0 * n_edges * (2 * d_out + 4) + agg
    raise ValueError(kind)

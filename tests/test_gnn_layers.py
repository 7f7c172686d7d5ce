"""Unit tests for the per-layer flop counts."""
import pytest

from repro.gnn import layers


class TestLayerFlops:
    def test_monotone_in_edges(self):
        for kind in ("sage", "gcn", "gat"):
            assert layers.layer_flops(kind, 100, 2000, 16, 16) > layers.layer_flops(
                kind, 100, 1000, 16, 16
            )

    def test_sage_doubles_dense_cost(self):
        sage = layers.layer_flops("sage", 100, 0, 16, 16)
        gcn = layers.layer_flops("gcn", 100, 0, 16, 16)
        assert sage == 2 * gcn

    def test_gat_pays_attention_premium(self):
        assert layers.layer_flops("gat", 100, 5000, 16, 16) > layers.layer_flops(
            "gcn", 100, 5000, 16, 16
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            layers.layer_flops("mlp", 1, 1, 1, 1)

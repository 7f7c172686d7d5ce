"""The roster must match the paper's Table 2 exactly."""
import pandas as pd
import pytest

from repro.graphs.datasets import split_vertices
from repro.partitioning.base import EDGE_CUT, VERTEX_CUT
from repro.partitioning.registry import (
    EDGE_PARTITIONERS,
    VERTEX_PARTITIONERS,
    make_edge_partitioner,
    make_vertex_partitioner,
)

# Paper Table 2: partitioner -> (cut type, category).
PAPER_TABLE2 = {
    ("Random", VERTEX_CUT): "stateless streaming",
    ("DBH", VERTEX_CUT): "stateless streaming",
    ("HDRF", VERTEX_CUT): "stateful streaming",
    ("2PS-L", VERTEX_CUT): "stateful streaming",
    ("HEP10", VERTEX_CUT): "hybrid",
    ("HEP100", VERTEX_CUT): "hybrid",
    ("Random", EDGE_CUT): "stateless streaming",
    ("LDG", EDGE_CUT): "stateful streaming",
    ("Spinner", EDGE_CUT): "in-memory",
    ("Metis", EDGE_CUT): "in-memory",
    ("ByteGNN", EDGE_CUT): "in-memory",
    ("KaHIP", EDGE_CUT): "in-memory",
}


class TestRoster:
    def test_twelve_partitioners(self):
        assert len(EDGE_PARTITIONERS) + len(VERTEX_PARTITIONERS) == 12

    @pytest.mark.parametrize("name", list(EDGE_PARTITIONERS))
    def test_edge_partitioner_matches_table2(self, name):
        p = make_edge_partitioner(name)
        assert p.name == name
        assert p.cut_type == VERTEX_CUT
        assert p.category == PAPER_TABLE2[(name, VERTEX_CUT)]

    @pytest.mark.parametrize("name", list(VERTEX_PARTITIONERS))
    def test_vertex_partitioner_matches_table2(self, name):
        p = make_vertex_partitioner(name)
        assert p.name == name
        assert p.cut_type == EDGE_CUT
        assert p.category == PAPER_TABLE2[(name, EDGE_CUT)]

    def test_factories_return_fresh_instances(self):
        a = make_edge_partitioner("HDRF")
        b = make_edge_partitioner("HDRF")
        assert a is not b

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_edge_partitioner("Leiden")
        with pytest.raises(KeyError):
            make_vertex_partitioner("Louvain")


class TestDegenerateInputs:
    """k=1 and tiny graphs must behave for every algorithm."""

    TRIANGLE = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]})
    SPLIT = split_vertices(3)

    @pytest.mark.parametrize("name", list(EDGE_PARTITIONERS))
    def test_edge_partitioner_k1(self, name):
        parts = make_edge_partitioner(name).assign(
            self.TRIANGLE, 1, n_vertices=3, seed=0
        )
        assert (parts == 0).all()

    @pytest.mark.parametrize("name", list(VERTEX_PARTITIONERS))
    def test_vertex_partitioner_k1(self, name):
        parts = make_vertex_partitioner(name).assign(
            self.TRIANGLE, 1, n_vertices=3, seed=0, split=self.SPLIT
        )
        assert (parts == 0).all()

    @pytest.mark.parametrize("name", list(EDGE_PARTITIONERS))
    def test_edge_partitioner_more_parts_than_edges(self, name):
        parts = make_edge_partitioner(name).assign(
            self.TRIANGLE, 8, n_vertices=3, seed=0
        )
        assert len(parts) == 3
        assert parts.min() >= 0 and parts.max() < 8

    @pytest.mark.parametrize("name", list(VERTEX_PARTITIONERS))
    def test_vertex_partitioner_more_parts_than_vertices(self, name):
        parts = make_vertex_partitioner(name).assign(
            self.TRIANGLE, 8, n_vertices=3, seed=0, split=self.SPLIT
        )
        assert len(parts) == 3
        assert parts.min() >= 0 and parts.max() < 8

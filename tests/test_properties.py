"""Property-based tests (hypothesis) for partitioners and graph views."""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import symmetrized, undirected_view
from repro.partitioning.base import build_csr, degrees_of, run_partitioner
from repro.partitioning.edge.hdrf import HDRFPartitioner
from repro.partitioning.edge.random_ep import splitmix64
from repro.partitioning.vertex.ldg import LDGPartitioner
from repro.partitioning.vertex.metis_like import MetisLikePartitioner


@st.composite
def edge_lists(draw, max_vertices=30, max_edges=60):
    n = draw(st.integers(3, max_vertices))
    m = draw(st.integers(1, max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return pd.DataFrame({"src": src, "dst": dst}), n


@given(edge_lists())
@settings(max_examples=25, deadline=None)
def test_undirected_view_is_canonical_and_idempotent(data):
    edges, _ = data
    und = undirected_view(edges)
    assert (und["src"] < und["dst"]).all()
    again = undirected_view(und)
    pd.testing.assert_frame_equal(
        und.sort_values(["src", "dst"]).reset_index(drop=True),
        again.sort_values(["src", "dst"]).reset_index(drop=True),
    )


@given(edge_lists())
@settings(max_examples=25, deadline=None)
def test_symmetrized_has_both_directions(data):
    edges, _ = data
    sym = symmetrized(edges)
    pairs = set(zip(sym["src"], sym["dst"]))
    assert all((b, a) in pairs for a, b in pairs)


@given(edge_lists())
@settings(max_examples=25, deadline=None)
def test_degrees_sum_to_twice_edges(data):
    edges, n = data
    und = undirected_view(edges)
    deg = degrees_of(und, n)
    assert deg.sum() == 2 * len(und)


@given(edge_lists())
@settings(max_examples=25, deadline=None)
def test_build_csr_lists_each_edge_from_both_ends_in_row_order(data):
    # LDG, ByteGNN, HEP and the multilevel matching read neighbours in this
    # order, so it fixes their assignments.
    edges, n = data
    src, dst = edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64)
    indptr, nbr, eid = build_csr(src, dst, n)
    assert indptr[0] == 0 and indptr[-1] == 2 * len(edges)
    assert (np.bincount(eid, minlength=len(edges)) == 2).all()
    owner = np.repeat(np.arange(n), np.diff(indptr))
    np.testing.assert_array_equal(nbr, np.where(src[eid] == owner, dst[eid], src[eid]))
    for v in range(n):
        np.testing.assert_array_equal(
            eid[indptr[v] : indptr[v + 1]],
            np.concatenate([np.flatnonzero(src == v), np.flatnonzero(dst == v)]),
        )


@given(edge_lists(), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_hdrf_partitions_every_edge(data, k):
    edges, n = data
    und = undirected_view(edges)
    if len(und) == 0:
        return
    run = run_partitioner(HDRFPartitioner(), und, k, n_vertices=n)
    assert len(run.assignment) == len(und)
    assert run.assignment["part"].between(0, k - 1).all()


@given(edge_lists(), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_ldg_assigns_every_vertex_once(data, k):
    edges, n = data
    und = undirected_view(edges)
    parts = LDGPartitioner().assign(und, k, n_vertices=n, seed=0)
    assert len(parts) == n
    assert ((parts >= 0) & (parts < k)).all()


@given(edge_lists(), st.integers(2, 4))
@settings(max_examples=10, deadline=None)
def test_metis_like_total_vertices_conserved(data, k):
    edges, n = data
    und = undirected_view(edges)
    if len(und) == 0:
        return
    parts = MetisLikePartitioner().assign(und, k, n_vertices=n, seed=0)
    assert len(parts) == n
    assert np.bincount(parts, minlength=k).sum() == n


@given(st.lists(st.integers(0, 2**62), min_size=1, max_size=200, unique=True))
@settings(max_examples=25, deadline=None)
def test_splitmix64_no_collisions_on_distinct_inputs(xs):
    h = splitmix64(np.array(xs, dtype=np.uint64))
    assert len(np.unique(h)) == len(xs)

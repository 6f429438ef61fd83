from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from kempe.graph import (
    Graph,
    InvalidSplitError,
    SplitSpec,
    bit_positions,
    builtin_fixture,
    complete_graph,
    cycle_graph,
    full_deficiency_pairs,
    is_overfull,
    split_vertex,
)
from kempe.classify import vizing_plus_one_coloring
from kempe.coloring import PartialEdgeColoring
from kempe.iso import enumerate_mask_graphs


def test_edges_do_not_depend_on_build_order():
    """Equal graphs list their edges in the same sorted order however they
    were built, so a coloring serializes the same way on either, and the
    fan-rotation coloring, which colors edges in that order, is the same."""
    a, b = Graph(10, [(0, 9), (0, 1)]), Graph(10, [(0, 1), (0, 9)])
    assert a == b
    assert a.edges() == b.edges() == [(0, 1), (0, 9)]
    col = vizing_plus_one_coloring(a)
    assert vizing_plus_one_coloring(b) == col
    twin = PartialEdgeColoring(b, col.k)
    for e, c in col.colored_edges().items():
        twin.color_edge(e, c)
    assert twin.serialize() == col.serialize()
    for name in ("petersen", "pstar"):
        g = builtin_fixture(name)
        assert g.edges() == sorted(g.edges())


def test_bit_positions():
    assert bit_positions(0) == ()
    assert bit_positions(0b101001) == (0, 3, 5)
    assert bit_positions(1 << 70) == (70,)
    # a negative int has infinitely many set bits
    for mask in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError, match="non-negative"):
            bit_positions(mask)


def test_from_masks_inverts_adjacency_masks():
    for name in ("petersen", "pstar", "cube", "splitk4", "c5"):
        g = builtin_fixture(name)
        h = Graph.from_masks(g.adjacency_masks())
        assert h == g and h.edges() == g.edges()
    assert Graph.from_masks([]) == Graph(0)
    for masks, message in [
        ((2, 0), "not a simple graph"),  # 0 -> 1 without 1 -> 0
        ((1,), "not a simple graph"),  # a loop
        ((4, 0), "not a simple graph"),  # a vertex past n
        ((-1,), "non-negative"),
    ]:
        with pytest.raises(ValueError, match=message):
            Graph.from_masks(masks)


def test_max_degree_fixtures(triangle, pstar, splitk4):
    assert triangle.max_degree() == 2
    assert pstar.max_degree() == 3
    assert splitk4.max_degree() == 3
    assert Graph(0).max_degree() == Graph(1).max_degree() == 0


def test_overfull_fixtures(triangle, pstar, splitk4):
    assert is_overfull(triangle)  # 3 > 2*1
    assert not is_overfull(pstar)  # 12 > 12 fails
    assert is_overfull(splitk4)  # 7 > 3*2


def test_overfull_regular_odd_order():
    for g in (cycle_graph(5), complete_graph(5), complete_graph(7)):
        assert is_overfull(g)


def test_overfull_implies_odd_order_small():
    for n in range(1, 7):
        for masks in enumerate_mask_graphs(n):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if masks[u] >> v & 1
            ]
            g = Graph(n, edges)
            if g.edge_count() and is_overfull(g):
                assert n % 2 == 1


def test_split_k4_shape(splitk4):
    assert splitk4.n == 5
    assert splitk4.edge_count() == 7
    assert sorted(splitk4.degrees()) == [2, 3, 3, 3, 3]


def test_split_regular_degree_arithmetic(k6):
    for s in (1, 2, 3, 4):
        spec = SplitSpec(0, frozenset(range(1, s + 1)))
        h = split_vertex(k6, spec)
        degs = sorted(h.degrees())
        assert h.n == 7 and h.edge_count() == 16
        assert degs.count(s + 1) >= 1 and degs.count(5 - s + 1) >= 1
        assert h.degree(0) == s + 1 and h.degree(6) == 5 - s + 1


def test_split_c5():
    h = split_vertex(cycle_graph(5), SplitSpec(0, frozenset({1})))
    assert h.n == 6 and h.edge_count() == 6
    assert sorted(h.degrees()) == [2, 2, 2, 2, 2, 2]


def test_split_invalid_parts(k4):
    with pytest.raises(InvalidSplitError):
        split_vertex(k4, SplitSpec(0, frozenset()))
    with pytest.raises(InvalidSplitError):
        split_vertex(k4, SplitSpec(0, frozenset({1, 2, 3})))


def contract_split(h: Graph, v: int, copy: int) -> nx.MultiGraph:
    """`h` as a networkx multigraph with `copy` contracted into `v` and the
    edge between them dropped: a neighbor joined to both copies would show
    as a parallel edge."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(range(h.n))
    mg.add_edges_from(h.edges())
    return nx.contracted_nodes(mg, v, copy, self_loops=False)


def multigraph_edges(mg: nx.MultiGraph) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in mg.edges())


def test_identify_inverts_split(splitk4, k4):
    merged = contract_split(splitk4, 0, 4)
    assert sorted(merged.nodes) == list(range(4))
    assert multigraph_edges(merged) == k4.edges()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_split_then_identify_is_identity(data):
    """The split vertex keeps its index and the new copy gets index n, so
    contracting the copies restores g with its own labels."""
    n = data.draw(st.integers(4, 8))
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda t: (min(t), max(t))
            ).filter(lambda t: t[0] != t[1]),
            max_size=n * (n - 1) // 2,
        )
    )
    g = Graph(n, edges)
    candidates = [v for v in range(n) if g.degree(v) >= 2]
    if not candidates:
        return
    v = data.draw(st.sampled_from(candidates))
    nbrs = sorted(g.neighbors(v))
    s = data.draw(st.integers(1, len(nbrs) - 1))
    h = split_vertex(g, SplitSpec(v, frozenset(nbrs[:s])))
    assert h.n == g.n + 1 and h.edge_count() == g.edge_count() + 1
    merged = contract_split(h, v, g.n)
    assert sorted(merged.nodes) == list(range(g.n))
    assert multigraph_edges(merged) == g.edges()


def test_full_deficiency_pairs(triangle, splitk4, k4):
    assert full_deficiency_pairs(triangle) == [(0, 1), (0, 2), (1, 2)]
    assert full_deficiency_pairs(splitk4) == [(0, 1), (0, 4)]
    assert full_deficiency_pairs(k4) == []


def test_builtin_fixtures(pstar, k6, splitk4):
    assert pstar.n == 9 and pstar.edge_count() == 12
    assert sorted(pstar.degrees()) == [2, 2, 2, 3, 3, 3, 3, 3, 3]
    assert k6.n == 6 and k6.edge_count() == 15
    assert sorted(splitk4.degrees()) == [2, 3, 3, 3, 3]
    with pytest.raises(KeyError):
        builtin_fixture("noSuchGraph")


"""The canonical form of `kempe.iso` against networkx as the oracle."""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from kempe.graph import Graph
from kempe.iso import certificate, enumerate_mask_graphs, graphs_isomorphic


def to_graph(G: nx.Graph) -> Graph:
    G = nx.convert_node_labels_to_integers(G, ordering="sorted")
    return Graph(G.number_of_nodes(), list(G.edges()))


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def masks_to_nx(masks: tuple[int, ...]) -> nx.Graph:
    G = nx.empty_graph(len(masks))
    G.add_edges_from(
        (u, v) for u, v in combinations(range(len(masks)), 2) if masks[u] >> v & 1
    )
    return G


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def graphs(draw, max_n: int = 8) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def swap_edges(g: Graph, rng: random.Random) -> Graph:
    """Replace edges ab, cd by ad, cb when that keeps the graph simple: the
    degrees stay, the isomorphism class may or may not."""
    edges = set(g.edges())
    for _ in range(10):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & edges:
            return Graph(g.n, sorted((edges - {(a, b), (c, d)}) | new))
    return g


SYMMETRIC = {
    "empty8": nx.empty_graph(8),
    "K8": nx.complete_graph(8),
    "K4,4": nx.complete_bipartite_graph(4, 4),
    "cube": nx.hypercube_graph(3),
    "C8": nx.cycle_graph(8),
    # same degrees as one of the above, different graphs
    "2C4": nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(4)),
    "2K4": nx.disjoint_union(nx.complete_graph(4), nx.complete_graph(4)),
    "wagner": nx.circulant_graph(8, [1, 4]),
    "circulant-1-3": nx.circulant_graph(8, [1, 3]),  # K4,4 relabelled
}


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_certificate_is_invariant_and_a_relabelling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    form = certificate(g.adjacency_masks())
    assert certificate(relabel(g, perm).adjacency_masks()) == form
    assert nx.is_isomorphic(masks_to_nx(form), to_nx(g))


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_isomorphic_matches_networkx_on_degree_preserving_pairs(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(swap_edges(g, rng), perm)
    assert graphs_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))


@given(graphs(max_n=5), graphs(max_n=5))
@settings(max_examples=200, deadline=None)
def test_isomorphic_matches_networkx_on_random_pairs(g, h):
    assert graphs_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_graphs(name):
    g = to_graph(SYMMETRIC[name])
    form = certificate(g.adjacency_masks())
    assert nx.is_isomorphic(masks_to_nx(form), SYMMETRIC[name])
    rng = random.Random(name)
    for _ in range(20):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certificate(relabel(g, perm).adjacency_masks()) == form
    for other, G in SYMMETRIC.items():
        assert graphs_isomorphic(g, to_graph(G)) == nx.is_isomorphic(
            SYMMETRIC[name], G
        ), other


def test_enumerated_graphs_are_distinct_by_networkx():
    for n in range(1, 8):
        buckets = defaultdict(list)
        for masks in enumerate_mask_graphs(n):
            G = masks_to_nx(masks)
            degrees = sorted(d for _, d in G.degree())
            buckets[(*degrees, *sorted(nx.triangles(G).values()))].append(G)
        for bucket in buckets.values():
            for G, H in combinations(bucket, 2):
                assert not nx.is_isomorphic(G, H)


def test_regular_graphs_on_8_vertices():
    """Degrees split nothing here, so every certificate comes from the
    individualise-refine search and its automorphism pruning."""
    rng = random.Random(8)
    for d in (2, 3, 4, 5):
        classes: list[nx.Graph] = []
        forms = set()
        for seed in range(150):
            G = nx.random_regular_graph(d, 8, seed=seed)
            g = to_graph(G)
            form = certificate(g.adjacency_masks())
            perm = list(range(8))
            rng.shuffle(perm)
            assert certificate(relabel(g, perm).adjacency_masks()) == form
            forms.add(form)
            if not any(nx.is_isomorphic(G, H) for H in classes):
                classes.append(G)
        assert len(forms) == len(classes)

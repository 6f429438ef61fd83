"""The canonical form of `kempe.iso` against networkx as the oracle."""

from __future__ import annotations

import functools
import os
import random
from collections import defaultdict
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from kempe.graph import Graph
import kempe.iso as iso
from kempe.iso import (
    _leaves,
    automorphism_group,
    automorphisms,
    certificate,
    enumerate_mask_graphs,
    masks_isomorphic,
    refinement_colors,
)

from test_shares import assert_no_child_left, record_forks, use_cpus


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
    assert masks_isomorphic(g.adjacency_masks(), h.adjacency_masks()) == nx.is_isomorphic(
        to_nx(g), to_nx(h)
    )


@given(graphs(max_n=5), graphs(max_n=5))
@settings(max_examples=200, deadline=None)
def test_isomorphic_matches_networkx_on_random_pairs(g, h):
    assert masks_isomorphic(g.adjacency_masks(), h.adjacency_masks()) == nx.is_isomorphic(
        to_nx(g), to_nx(h)
    )


def confirming_refinement(masks: tuple[int, ...], colors: list[int]) -> list[int]:
    """Refine by (own color, neighbor-color counts from the highest color
    down) until a round splits no class, however many classes there are,
    and number the classes in sorted order of signature."""
    n = len(masks)
    classes = len(set(colors))
    while True:
        top = max(colors, default=0)
        sigs = [
            (
                colors[v],
                tuple(
                    sum(1 for u in range(n) if masks[v] >> u & 1 and colors[u] == c)
                    for c in range(top, -1, -1)
                ),
            )
            for v in range(n)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [rank[sig] for sig in sigs]
        if len(rank) == classes:
            return colors
        classes = len(rank)


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_refinement_matches_an_always_confirming_reference(g, rng):
    """Returning as soon as the coloring is discrete changes no output,
    also for the colors up to 2n - 1 that individualising produces."""
    masks = g.adjacency_masks()
    colors = [rng.randrange(2 * g.n) for _ in range(g.n)]
    assert refinement_colors(masks, list(colors)) == confirming_refinement(masks, colors)
    degrees = [bin(m).count("1") for m in masks]
    assert refinement_colors(masks) == confirming_refinement(masks, degrees)


# C3 + C4 and its complement: in a scan of the n <= 7 enumeration, the only
# graphs where a search exploring just the first vertex of each target cell
# yields forms that depend on the labelling
C3_C4 = nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(4))


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@example(to_graph(C3_C4), random.Random(0))
@example(to_graph(nx.complement(C3_C4)), random.Random(0))
@settings(max_examples=200, deadline=None)
def test_leaf_forms_are_a_relabelling_invariant(g, rng):
    """Enumeration keeps a child when its first leaf form is new: that is
    exact because the pruned search yields the same set of forms for every
    labelling of a graph, with the certificate its least."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    forms = set(_leaves(g.adjacency_masks(), []))
    assert set(_leaves(relabel(g, perm).adjacency_masks(), [])) == forms
    assert min(forms) == certificate(g.adjacency_masks())


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
        assert masks_isomorphic(
            g.adjacency_masks(), to_graph(G).adjacency_masks()
        ) == nx.is_isomorphic(
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


def group_order(generators: list[tuple[int, ...]], n: int) -> int:
    """The size of the group the permutations generate, by closure."""
    identity = tuple(range(n))
    group, stack = {identity}, [identity]
    while stack:
        p = stack.pop()
        for gamma in generators:
            q = tuple(gamma[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                stack.append(q)
    return len(group)


def nx_group_order(G: nx.Graph) -> int:
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter())


def preserves_edges(G: nx.Graph, gamma: tuple[int, ...]) -> bool:
    return all(G.has_edge(gamma[u], gamma[v]) for u, v in G.edges())


# an asymmetric graph: a path 0-1-2-3-4-5 with the chord 1-3 and the
# pendant 6 on 3
TRIVIAL7 = nx.Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (3, 6)])

GROUPS = {
    "empty7": nx.empty_graph(7),
    "K7": nx.complete_graph(7),
    "C7": nx.cycle_graph(7),
    "K3,4": nx.complete_bipartite_graph(3, 4),
    "prism": nx.circular_ladder_graph(3),
    "trivial": TRIVIAL7,
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_automorphisms_generate_the_networkx_group(name):
    G = GROUPS[name]
    g = to_graph(G)
    gens = automorphisms(g.adjacency_masks())
    assert all(preserves_edges(to_nx(g), gamma) for gamma in gens)
    assert group_order(gens, g.n) == nx_group_order(G)
    if name == "trivial":
        assert nx_group_order(G) == 1


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_automorphism_group_lists_the_networkx_group(name):
    """Every automorphism once, the identity first: as many elements as
    networkx finds, each preserving the edges."""
    G = GROUPS[name]
    g = to_graph(G)
    group = automorphism_group(g.adjacency_masks())
    assert group[0] == tuple(range(g.n))
    assert len(set(group)) == len(group) == nx_group_order(G)
    assert all(preserves_edges(to_nx(g), gamma) for gamma in group)


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_automorphisms_survive_relabelling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    order = nx_group_order(to_nx(g))
    for graph in (g, h):
        gens = automorphisms(graph.adjacency_masks())
        assert all(preserves_edges(to_nx(graph), gamma) for gamma in gens)
        assert group_order(gens, graph.n) == order


def test_corrupted_leaf_raises(monkeypatch):
    """The search keeps its best leaf; swapping two of its colors once a
    second leaf of the same form is reached makes the permutation between
    them a non-automorphism of the path 0-1-2, which must raise."""
    leaves = []
    refine = iso.refinement_colors

    def corrupting(masks, colors=None):
        out = refine(masks, colors)
        if len(set(out)) == len(out):
            if leaves:
                first = leaves[0]
                first[0], first[1] = first[1], first[0]
            leaves.append(out)
        return out

    path = Graph(3, [(0, 1), (1, 2)]).adjacency_masks()
    assert automorphisms(path) == [(2, 1, 0)]
    monkeypatch.setattr(iso, "refinement_colors", corrupting)
    with pytest.raises(RuntimeError, match="not an automorphism"):
        automorphisms(path)


@functools.cache
def every_subset_enumeration(n: int) -> tuple[tuple[int, ...], ...]:
    """Augment each graph on n - 1 vertices by every neighbor subset of a
    new vertex and keep the children with new certificates."""
    if n == 1:
        return ((0,),)
    out, seen = [], set()
    new = n - 1
    for parent in every_subset_enumeration(n - 1):
        for subset in range(1 << new):
            child = tuple(
                parent[v] | (1 << new if subset >> v & 1 else 0) for v in range(new)
            ) + (subset,)
            key = certificate(child)
            if key not in seen:
                seen.add(key)
                out.append(child)
    return tuple(out)


def certificates(graphs) -> list[tuple[int, ...]]:
    return [certificate(masks) for masks in graphs]


def test_enumeration_has_the_classes_of_every_subset():
    """The degree test keeps every class: the outputs' certificates are
    those of the unfiltered reference, no two outputs share one, and each
    output's last vertex, the one its parent gained, has maximum degree."""
    for n in range(1, 8):
        graphs = enumerate_mask_graphs(n)
        forms = certificates(graphs)
        assert len(set(forms)) == len(forms)
        assert set(forms) == set(certificates(every_subset_enumeration(n)))
        for masks in graphs:
            assert masks[-1].bit_count() == max(m.bit_count() for m in masks)


def test_enumeration_makes_no_certificate_call(monkeypatch):
    """Duplicates are found by leaf forms, not by full canonical forms; the
    work is pinned by the refinement count: one root refinement per child
    left after parent-orbit pruning, plus the searches of the parents and
    of the buckets that are hit."""
    expected = set(certificates(every_subset_enumeration(7)))
    calls = []
    refine = iso.refinement_colors

    def counted(masks, colors=None):
        calls.append(1)
        return refine(masks, colors)

    def no_certificate(masks):
        raise AssertionError("enumeration computed a certificate")

    monkeypatch.setattr(iso, "certificate", no_certificate)
    monkeypatch.setattr(iso, "refinement_colors", counted)
    monkeypatch.setattr(iso, "_ENUM_CACHE", {})
    use_cpus(monkeypatch, 1)  # a forked share's calls would not be counted
    graphs = enumerate_mask_graphs(7)
    assert len(calls) == 4768
    assert set(certificates(graphs)) == expected


def test_enumeration_searches_each_parent_once(monkeypatch):
    """In one process, each parent's automorphisms are searched once, for
    the orbits of its neighbor subsets: 208 parents on 1..6 vertices for a
    cold n = 7."""
    parents = []
    search = iso.automorphisms

    def counted(masks):
        parents.append(masks)
        return search(masks)

    monkeypatch.setattr(iso, "automorphisms", counted)
    monkeypatch.setattr(iso, "_ENUM_CACHE", {})
    use_cpus(monkeypatch, 1)  # a forked share's calls would not be counted
    assert len(enumerate_mask_graphs(7)) == 1044
    assert len(parents) == len(set(parents)) == 208
    assert set(parents) == {
        masks for n in range(1, 7) for masks in enumerate_mask_graphs(n)
    }


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_enumeration_does_not_depend_on_the_cpus(monkeypatch, cpus):
    """Each step dealt by edge count to one share per CPU, up to one per
    parent, gives the one-process tuple; step n forks one child per share
    past the first."""
    expected = [enumerate_mask_graphs(n) for n in range(8)]
    monkeypatch.setattr(iso, "_ENUM_CACHE", {})
    use_cpus(monkeypatch, cpus)
    forks = record_forks(monkeypatch)
    assert [enumerate_mask_graphs(n) for n in range(8)] == expected
    assert len(forks) == sum(min(cpus, 8, len(expected[n - 1])) - 1 for n in range(2, 8))
    assert_no_child_left()


def test_enumeration_searches_each_parent_once_per_share(monkeypatch, tmp_path):
    """Over 3 shares, no process searches a parent twice, and every parent
    is searched by some share. The calls are appended to a file, which
    every forked share writes too."""
    log = tmp_path / "searched"
    search = iso.automorphisms

    def logged(masks):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {masks}\n")
        return search(masks)

    monkeypatch.setattr(iso, "automorphisms", logged)
    monkeypatch.setattr(iso, "_ENUM_CACHE", {})
    use_cpus(monkeypatch, 3)
    assert len(enumerate_mask_graphs(7)) == 1044
    calls = log.read_text().splitlines()
    assert len(calls) == len(set(calls))
    assert {call.split(" ", 1)[1] for call in calls} == {
        str(masks) for n in range(1, 7) for masks in enumerate_mask_graphs(n)
    }
    assert len({call.split()[0] for call in calls}) > 1
    assert_no_child_left()


def test_a_failing_enumeration_share_raises_its_traceback(monkeypatch):
    parent, refine = os.getpid(), iso.refinement_colors

    def failing_in_children(masks, colors=None):
        if os.getpid() != parent:
            raise ValueError("planted failure in a forked share")
        return refine(masks, colors)

    monkeypatch.setattr(iso, "refinement_colors", failing_in_children)
    monkeypatch.setattr(iso, "_ENUM_CACHE", {})
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="forked share 1 failed") as info:
        enumerate_mask_graphs(5)
    assert "ValueError: planted failure in a forked share" in str(info.value)
    assert_no_child_left()


def test_enumeration_does_not_depend_on_the_bucket_key(monkeypatch):
    """The bucket key only decides which children are searched: with every
    non-discrete child in one bucket, the representatives and their order
    are those of the real key."""
    expected = [enumerate_mask_graphs(n) for n in range(8)]
    monkeypatch.setattr(iso, "_ENUM_CACHE", {})
    monkeypatch.setattr(iso, "_bucket_key", lambda masks, colors: 0)
    assert [enumerate_mask_graphs(n) for n in range(8)] == expected


def test_enumeration_resumes_a_pending_search(monkeypatch):
    """A pending child's search stops at the form a hit asks for, and the
    child stays pending until its search ends. With one bucket per class
    and the j-th hit of a class leading with its j-th leaf form, later hits
    ask for forms past where earlier ones stopped; the representatives and
    their order stay those of the real enumeration. n = 8 because below it
    no class with two or more leaf forms has two hits."""
    expected = enumerate_mask_graphs(8)
    leaves = iso._leaves
    hits = defaultdict(int)

    def shifted(masks, found, root=None):
        forms = list(leaves(masks, found, root))
        if root is None:  # certificates and pending searches: search order
            return iter(forms)
        j = hits[min(forms)] % len(forms)
        hits[min(forms)] += 1
        return iter(forms[j:] + forms[:j])

    monkeypatch.setattr(iso, "_ENUM_CACHE", {})
    monkeypatch.setattr(iso, "_leaves", shifted)
    monkeypatch.setattr(iso, "_bucket_key", lambda masks, colors: hash(certificate(masks)))
    assert enumerate_mask_graphs(8) == expected

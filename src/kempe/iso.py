"""Isomorphism for small graphs by canonical form.

`certificate` is a complete invariant: the least relabelled adjacency-mask
tuple over the leaves of an individualise-refine search (McKay & Piperno,
*Practical graph isomorphism II*, 2014), with the search pruned by the
automorphisms its leaves reveal. Two graphs are isomorphic exactly when
their certificates are equal, and enumeration up to isomorphism keeps a set
of them. Adequate for the desk-scale enumeration (n <= 8); makes no attempt
at large-graph performance.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph

Masks = tuple[int, ...]


@lru_cache(maxsize=1 << 12)
def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`: a vertex's neighbors."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


def refinement_colors(masks: Masks, colors: list[int] | None = None) -> list[int]:
    """Iterated refinement of the non-negative `colors` (by default the
    degrees) by the multiset of neighbor colors, to a stable coloring
    numbered 0..k-1 in the order of the input colors. Relabelling the graph
    and the input coloring together relabels the output the same way."""
    n = len(masks)
    adj = [_bits(m) for m in masks]
    if colors is None:
        colors = [len(a) for a in adj]
    # a neighbor of color c adds 1 << (c * width); every count is below
    # n < 1 << width, so the sum encodes the multiset of neighbor colors
    width = n.bit_length()
    classes = len(set(colors))
    while True:
        weight = [1 << c * width for c in colors]
        sigs = [(colors[v], sum([weight[u] for u in adj[v]])) for v in range(n)]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [relabel[s] for s in sigs]
        if len(relabel) == classes:
            return colors
        classes = len(relabel)


def _orbit(seeds: list[int], generators: list[list[int]]) -> set[int]:
    orbit, stack = set(seeds), list(seeds)
    while stack:
        v = stack.pop()
        for gamma in generators:
            if gamma[v] not in orbit:
                orbit.add(gamma[v])
                stack.append(gamma[v])
    return orbit


def certificate(masks: Masks) -> Masks:
    """The canonical form, a complete invariant: the least mask tuple got
    by relabelling each vertex v to leaf[v], over the discrete colorings
    `leaf` that refining and individualising each vertex of the first
    non-singleton cell reach. Two leaves with one form give an
    automorphism; a vertex in the orbit of an explored sibling under the
    automorphisms fixing the individualised prefix is not explored."""
    n = len(masks)
    best: Masks | None = None
    best_leaf: list[int] = []
    automorphisms: list[list[int]] = []

    def search(colors: list[int] | None, prefix: list[int]) -> None:
        nonlocal best, best_leaf
        colors = refinement_colors(masks, colors)
        if len(set(colors)) == n:
            form = [0] * n
            for v in range(n):
                form[colors[v]] = sum([1 << colors[u] for u in _bits(masks[v])])
            form = tuple(form)
            if best is None or form < best:
                best, best_leaf = form, colors
            elif form == best:
                vertex_at = {c: v for v, c in enumerate(best_leaf)}
                automorphisms.append([vertex_at[c] for c in colors])
            return
        cell = min(c for c in colors if colors.count(c) > 1)
        explored: list[int] = []
        for v in range(n):
            if colors[v] != cell:
                continue
            fixing = [g for g in automorphisms if all(g[p] == p for p in prefix)]
            if v in _orbit(explored, fixing):
                continue
            explored.append(v)
            search([2 * c + (u == v) for u, c in enumerate(colors)], prefix + [v])

    search(None, [])
    return best


def masks_isomorphic(m1: Masks, m2: Masks) -> bool:
    return certificate(m1) == certificate(m2)


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    return masks_isomorphic(g1.adjacency_masks(), g2.adjacency_masks())


_ENUM_CACHE: dict[int, tuple[Masks, ...]] = {}


def enumerate_mask_graphs(n: int) -> tuple[Masks, ...]:
    """All simple graphs on n vertices up to isomorphism, as adjacency-mask
    tuples, by augmenting the (n-1)-vertex list with one new vertex per
    neighbor subset and keeping each child whose certificate is new. The
    result is an immutable tuple, so callers cannot alter the cache."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]
    if n == 0:
        return ((),)
    if n == 1:
        return ((0,),)
    out: list[Masks] = []
    seen: set[Masks] = set()
    new = n - 1
    for parent in enumerate_mask_graphs(n - 1):
        for subset in range(1 << new):
            child = tuple(
                parent[v] | (1 << new if subset >> v & 1 else 0)
                for v in range(new)
            ) + (subset,)
            key = certificate(child)
            if key not in seen:
                seen.add(key)
                out.append(child)
    _ENUM_CACHE[n] = tuple(out)
    return _ENUM_CACHE[n]

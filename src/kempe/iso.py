"""Isomorphism for small graphs by canonical form.

`certificate` is a complete invariant: the least relabelled adjacency-mask
tuple over the leaves of an individualise-refine search (McKay & Piperno,
*Practical graph isomorphism II*, 2014), with the search pruned by the
automorphisms its leaves reveal. Two graphs are isomorphic exactly when
their certificates are equal, and enumeration up to isomorphism keeps a set
of them. `automorphisms` returns the generators the same search records,
so a loop over a graph's vertices, edges or neighbor subsets can do its
work once per orbit (`orbit_representatives`). Adequate for the
desk-scale enumeration (n <= 8); makes no attempt at large-graph
performance.
"""

from __future__ import annotations

from functools import lru_cache

Masks = tuple[int, ...]
Perm = tuple[int, ...]  # vertex v goes to perm[v]


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


def _orbit(seeds: list[int], generators: list[Perm]) -> set[int]:
    orbit, stack = set(seeds), list(seeds)
    while stack:
        v = stack.pop()
        for gamma in generators:
            if gamma[v] not in orbit:
                orbit.add(gamma[v])
                stack.append(gamma[v])
    return orbit


def orbit_representatives(size: int, generators: list[Perm]) -> list[int]:
    """The least element of each orbit of range(size) under the group that
    the permutations `generators` of range(size) generate, in increasing
    order."""
    if not generators:
        return list(range(size))
    reps: list[int] = []
    covered: set[int] = set()
    for x in range(size):
        if x not in covered:
            reps.append(x)
            covered |= _orbit([x], generators)
    return reps


def _search(masks: Masks) -> tuple[Masks, list[Perm]]:
    """The canonical form and the automorphisms found on the way: the least
    mask tuple got by relabelling each vertex v to leaf[v], over the
    discrete colorings `leaf` that refining and individualising each vertex
    of the first non-singleton cell reach. A leaf with the best form so far
    gives an automorphism to the best leaf; a vertex in the orbit of an
    explored sibling under the automorphisms fixing the individualised
    prefix is not explored. The automorphisms found generate the whole
    group (McKay, *Practical graph isomorphism*, 1981): along the path to
    the first leaf of the final best form, each vertex that an automorphism
    fixing the prefix can put in place of the path's next vertex is either
    explored after it, reaching a leaf of that form, or skipped for
    automorphisms already found."""
    n = len(masks)
    best: Masks | None = None
    best_leaf: list[int] = []
    found: list[Perm] = []

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
                found.append(tuple(vertex_at[c] for c in colors))
            return
        cell = min(c for c in colors if colors.count(c) > 1)
        explored: list[int] = []
        for v in range(n):
            if colors[v] != cell:
                continue
            fixing = [g for g in found if all(g[p] == p for p in prefix)]
            if v in _orbit(explored, fixing):
                continue
            explored.append(v)
            search([2 * c + (u == v) for u, c in enumerate(colors)], prefix + [v])

    search(None, [])
    return best, found


def certificate(masks: Masks) -> Masks:
    """The canonical form, a complete invariant: two mask tuples have one
    certificate exactly when their graphs are isomorphic."""
    return _search(masks)[0]


def automorphisms(masks: Masks) -> list[Perm]:
    """Generators of the automorphism group: the automorphisms that
    `certificate`'s search records, each a tuple taking vertex v to
    gamma[v]; empty when the group is trivial. Each is checked to map
    every neighborhood onto the neighborhood of the image vertex."""
    generators = _search(masks)[1]
    for gamma in generators:
        for v, mask in enumerate(masks):
            if sum([1 << gamma[u] for u in _bits(mask)]) != masks[gamma[v]]:
                raise RuntimeError(f"{gamma} is not an automorphism")
    return generators


def masks_isomorphic(m1: Masks, m2: Masks) -> bool:
    return certificate(m1) == certificate(m2)


_ENUM_CACHE: dict[int, tuple[Masks, ...]] = {}


def _subset_action(gamma: Perm) -> Perm:
    """gamma acting on the subsets of its vertices, as bit masks."""
    image = [0] * (1 << len(gamma))
    for subset in range(1, 1 << len(gamma)):
        low = subset & -subset
        image[subset] = image[subset ^ low] | 1 << gamma[low.bit_length() - 1]
    return tuple(image)


def enumerate_mask_graphs(n: int) -> tuple[Masks, ...]:
    """All simple graphs on n vertices up to isomorphism, as adjacency-mask
    tuples, by augmenting the (n-1)-vertex list with one new vertex and
    keeping each child whose certificate is new. A parent automorphism
    taking one neighbor subset to another makes their children isomorphic,
    so only the least subset of each orbit under the parent's
    `automorphisms` is tried (McKay, *Isomorph-free exhaustive
    generation*, 1998): a skipped subset's child has the certificate of
    one tried before it, so the output is that of trying every subset.
    The result is an immutable tuple, so callers cannot alter the cache."""
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
        actions = [_subset_action(gamma) for gamma in automorphisms(parent)]
        for subset in orbit_representatives(1 << new, actions):
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

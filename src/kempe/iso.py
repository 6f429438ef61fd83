"""Isomorphism for small graphs by canonical form.

`certificate` is a complete invariant: the least relabelled adjacency-mask
tuple over the leaves of an individualise-refine search (McKay & Piperno,
*Practical graph isomorphism II*, 2014), with the search pruned by the
automorphisms its leaves reveal. Two graphs are isomorphic exactly when
their certificates are equal. Enumeration up to isomorphism needs less: it
joins a new vertex of maximum degree to each graph one vertex smaller, in
one way per orbit of the parent's automorphisms on neighbor subsets, and
refines each child once. A child with a discrete refinement has one leaf
form, read off it. Any other child is searched only when another child
shares its invariant bucket: a later child of the bucket is a duplicate
when its first leaf form is among the leaf forms of the graphs kept so
far, the bucket's first child searched only as far as needed. Each step
deals its children by edge count to one share per usable CPU
(`kempe.shares`); isomorphic children have one edge count, so the shares
together keep what one process keeps. `automorphisms`
returns the generators the search records, so a loop over a graph's
vertices or edges can do its work once per orbit (`orbit_representatives`;
edges through `edge_actions`), and `automorphism_group` lists the group.
Adequate for the desk-scale enumeration (n <= 8); makes no attempt at
large-graph performance.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Edge, bit_positions, edge_key
from .shares import job_count, run_shares, units

Masks = tuple[int, ...]
Perm = tuple[int, ...]  # vertex v goes to perm[v]


def refinement_colors(masks: Masks, colors: list[int] | None = None) -> list[int]:
    """Iterated refinement of the non-negative `colors` (by default the
    degrees) by the multiset of neighbor colors, to a stable coloring
    numbered 0..k-1 in the order of the input colors. Relabelling the graph
    and the input coloring together relabels the output the same way."""
    n = len(masks)
    adj = [bit_positions(m) for m in masks]
    if colors is None:
        colors = [len(a) for a in adj]
    # a neighbor of color c adds 1 << (c * width); every count is below
    # n < 1 << width, so the sum encodes the multiset of neighbor colors,
    # and a vertex's own color sits above every count of that sum
    width = n.bit_length()
    classes = len(set(colors))
    while True:
        weight = [1 << c * width for c in colors].__getitem__
        own = (max(colors, default=0) + 1) * width
        sigs = [c << own | sum(map(weight, a)) for c, a in zip(colors, adj)]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [relabel[s] for s in sigs]
        # a discrete coloring is stable: no confirming round is needed
        if len(relabel) == classes or len(relabel) == n:
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


def _form(masks: Masks, leaf: list[int]) -> Masks:
    """The mask tuple got by relabelling each vertex v to leaf[v], for a
    discrete coloring `leaf`."""
    bit = [1 << c for c in leaf].__getitem__
    form = [0] * len(masks)
    for c, mask in zip(leaf, masks):
        form[c] = sum(map(bit, bit_positions(mask)))
    return tuple(form)


def _leaves(
    masks: Masks, found: list[Perm], root: list[int] | None = None
) -> Iterator[Masks]:
    """The forms of the leaves of an individualise-refine search, lazily, in
    search order: each leaf is a discrete coloring `leaf` that refining and
    individualising each vertex of the first non-singleton cell reach, and
    its form is `_form(masks, leaf)`. `root`, when given, is the root's
    refinement `refinement_colors(masks)`, which the search then reuses.
    A leaf with the best form so far gives an automorphism to the best leaf,
    appended to `found`; a vertex in the orbit of an explored sibling under
    the automorphisms fixing the individualised prefix is not explored. A
    skipped subtree is the image of an explored one under an automorphism,
    so the leaves yield every form of the unpruned tree, and since the
    search is label-equivariant, isomorphic graphs yield the same set of
    forms. Once the generator is exhausted, `found` generates the whole
    group (McKay, *Practical graph isomorphism*, 1981): along the path to
    the first leaf of the final best form, each vertex that an automorphism
    fixing the prefix can put in place of the path's next vertex is either
    explored after it, reaching a leaf of that form, or skipped for
    automorphisms already found."""
    n = len(masks)
    best: Masks | None = None
    best_leaf: list[int] = []

    def search(colors: list[int], prefix: list[int]) -> Iterator[Masks]:
        # `colors` is stable: the refinement of its node's coloring
        nonlocal best, best_leaf
        if len(set(colors)) == n:
            form = _form(masks, colors)
            if best is None or form < best:
                best, best_leaf = form, colors
            elif form == best:
                vertex_at = {c: v for v, c in enumerate(best_leaf)}
                found.append(tuple(vertex_at[c] for c in colors))
            yield form
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
            child = [2 * c + (u == v) for u, c in enumerate(colors)]
            yield from search(refinement_colors(masks, child), prefix + [v])

    return search(refinement_colors(masks) if root is None else root, [])


def certificate(masks: Masks) -> Masks:
    """The canonical form, a complete invariant: the least form over the
    search's leaves. Two mask tuples have one certificate exactly when
    their graphs are isomorphic."""
    return min(_leaves(masks, []))


def automorphisms(masks: Masks) -> list[Perm]:
    """Generators of the automorphism group: the automorphisms that the
    search behind `certificate` records, each a tuple taking vertex v to
    gamma[v]; empty when the group is trivial. Each is checked to map
    every neighborhood onto the neighborhood of the image vertex."""
    generators: list[Perm] = []
    for _ in _leaves(masks, generators):
        pass
    for gamma in generators:
        for v, mask in enumerate(masks):
            if sum([1 << gamma[u] for u in bit_positions(mask)]) != masks[gamma[v]]:
                raise RuntimeError(f"{gamma} is not an automorphism")
    return generators


def automorphism_group(masks: Masks) -> list[Perm]:
    """Every element of the automorphism group, each once, the identity
    first: the closure of `automorphisms(masks)` under composition."""
    identity = tuple(range(len(masks)))
    generators = automorphisms(masks)
    group, seen = [identity], {identity}
    for p in group:  # the list grows while it is read
        for gamma in generators:
            q = tuple(gamma[v] for v in p)
            if q not in seen:
                seen.add(q)
                group.append(q)
    return group


def edge_actions(edges: list[Edge], perms: list[Perm]) -> list[Perm]:
    """Each vertex permutation in `perms` acting on the positions of
    `edges`: position i goes to the position of (gamma u, gamma v) for
    edges[i] = (u, v). `edges` must hold every image."""
    index = {e: i for i, e in enumerate(edges)}
    return [
        tuple(index[edge_key(gamma[u], gamma[v])] for u, v in edges)
        for gamma in perms
    ]


def masks_isomorphic(m1: Masks, m2: Masks) -> bool:
    return certificate(m1) == certificate(m2)


def _subset_action(gamma: Perm) -> Perm:
    """The permutation `gamma` acting on the subsets of its points, as bit
    masks: position s goes to the mask of the images of s's members."""
    image = [0]
    for g in gamma:  # g = gamma[v]: s + 2^v, s < 2^v, goes to image[s] | 2^g
        image += [s | 1 << g for s in image]
    return tuple(image)


def _bucket_key(masks: Masks, colors: list[int]) -> int:
    """A hash of an isomorphism invariant read off the stable refinement
    `colors` of `masks`: the cell sizes, then for each color the multiset
    of colors around one member, the same around every member since the
    coloring is stable. The colors are numbered from the degrees alone, so
    isomorphic graphs share the key."""
    width = len(masks).bit_length()
    weight = [1 << c * width for c in colors].__getitem__
    member = dict(zip(colors, masks))
    return hash((
        *sorted(colors),
        *[sum(map(weight, bit_positions(member[c]))) for c in range(len(member))],
    ))


_ENUM_CACHE: dict[int, tuple[Masks, ...]] = {}


def _child(parent: Masks, subset: int) -> Masks:
    """`parent` with a new last vertex joined to the vertices in `subset`."""
    new = len(parent)
    return (
        *[m | 1 << new if subset >> v & 1 else m for v, m in enumerate(parent)],
        subset,
    )


def _step_share(parents: tuple[Masks, ...], share: int, jobs: int) -> list[list[int]]:
    """The [parent index, subset] of each child that the step from
    `parents` keeps among the children whose edge count is `share` mod
    `jobs`, in parent-then-subset order (see `enumerate_mask_graphs`)."""
    new = len(parents[0])
    n = new + 1
    kept: list[list[int]] = []
    seen: set[Masks] = set()
    # bucket key -> its first child while that child's search is unfinished
    pending: dict[int, Masks | None] = {}
    for index, parent in units(enumerate(parents)):
        deg = [m.bit_count() for m in parent]
        top = max(deg, default=0)
        full = sum([1 << v for v in range(new) if deg[v] == top])
        edges = sum(deg) // 2
        # the sizes of S that give the new vertex maximum degree and the
        # child an edge count in this share
        sizes = [
            size
            for size in range(top, n)
            if (size > top or new - full.bit_count() >= top)
            and (edges + size) % jobs == share
        ]
        if not sizes:
            continue
        actions = [_subset_action(gamma) for gamma in automorphisms(parent)]
        tried: set[int] = set()  # the orbits of the subsets tried so far
        for subset in range(1 << new):
            size = subset.bit_count()
            if size not in sizes or size == top and subset & full or subset in tried:
                continue
            tried |= _orbit([subset], actions)
            child = _child(parent, subset)
            root = refinement_colors(child)
            if len(set(root)) == n:
                form = _form(child, root)
                if form not in seen:
                    kept.append([index, subset])
                    seen.add(form)
                continue
            key = _bucket_key(child, root)
            if key not in pending:
                kept.append([index, subset])
                pending[key] = child
                continue
            leaves = _leaves(child, [], root)
            first = next(leaves)
            if first not in seen and pending[key] is not None:
                # search the pending child only as far as this form
                for form in _leaves(pending[key], []):
                    seen.add(form)
                    if form == first:
                        break
                else:
                    pending[key] = None
            if first not in seen:
                kept.append([index, subset])
                seen.add(first)
                seen.update(leaves)
    return kept


def enumerate_mask_graphs(n: int) -> tuple[Masks, ...]:
    """All simple graphs on n vertices up to isomorphism, as adjacency-mask
    tuples: each graph on n - 1 vertices gains a new vertex of maximum
    degree in every way, and a child isomorphic to one kept before it is
    dropped, so the first child of each class is kept, in parent-then-subset
    order. Every graph is G' + v with v of maximum degree and G' listed up
    to isomorphism, so no class is missed (the vertex-invariant half of
    McKay's canonical deletion, *Isomorph-free exhaustive generation*,
    1998). With D the parent's maximum degree and F its vertices of degree
    D, neighbor set S gives the new vertex maximum degree exactly when
    |S| > D, or |S| == D and S misses F.

    The children are dealt to `shares.job_count(len(parents))` shares by
    edge count (the parent's edges plus |S|) mod the number of shares, and
    each share runs the loop of `_step_share` over its own children; share
    0 runs here and each other share in a forked child
    (`shares.run_shares`). Whether a child is kept depends only on
    the children before it that are isomorphic to it, and isomorphic
    children have one edge count, so each class lies in one share, which
    keeps its first child. The sorted union of the shares' (parent index,
    subset) pairs is therefore the one-share result, on any number of
    CPUs. A share searches a parent's automorphisms only when the parent
    has a child in it, so a parent may be searched once per share. On more
    than one CPU this forks, so call it from a process that runs no other
    thread.

    A duplicate is found at three costs. An automorphism of the parent that
    maps a smaller subset to S makes the child of S isomorphic to one
    decided before it, so within a share each parent's automorphisms are
    searched once and only the least subset of each orbit is tried (the
    degree test and the edge count hold on a whole orbit or on none of it).
    Each child tried is refined once. If that refinement is discrete, it is
    the child's one leaf, and its form is looked up among `seen`, the leaf
    forms of the kept children found so far. Otherwise `_bucket_key` puts
    the child in a bucket. The first child of a bucket is kept unsearched,
    as pending. A later one is a duplicate when its first leaf form is in
    `seen`, or is a leaf form (`_leaves`) of the bucket's pending child,
    whose search adds its forms to `seen` and stops at that form; a pending
    child whose search ends is no longer pending. A child kept then adds
    all its leaf forms. Every labelling of a graph has the same leaf forms,
    non-isomorphic graphs share none, and isomorphic graphs share a key,
    so the key changes the work, never the result. The result is an
    immutable tuple, so callers cannot alter the cache."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]
    if n == 0:
        return ((),)
    if n == 1:
        return ((0,),)
    parents = enumerate_mask_graphs(n - 1)
    jobs = job_count(len(parents))
    shares = run_shares(jobs, lambda share: _step_share(parents, share, jobs))
    kept = sorted(pair for pairs in shares for pair in pairs)
    _ENUM_CACHE[n] = tuple(_child(parents[index], subset) for index, subset in kept)
    return _ENUM_CACHE[n]

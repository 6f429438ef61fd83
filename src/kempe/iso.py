"""Isomorphism utilities for small graphs: refinement certificates and an
exact backtracking test. Adequate for the desk-scale enumeration (n <= 8);
makes no attempt at large-graph performance.
"""

from __future__ import annotations

from .graph import Graph

Masks = tuple[int, ...]


def _neighbors_of(masks: Masks, v: int) -> list[int]:
    out = []
    m = masks[v]
    while m:
        bit = m & -m
        out.append(bit.bit_length() - 1)
        m ^= bit
    return out


def refinement_colors(masks: Masks) -> list[int]:
    """Stable vertex colors under iterated neighborhood-multiset
    refinement, canonically numbered (isomorphism-invariant)."""
    n = len(masks)
    adj = [_neighbors_of(masks, v) for v in range(n)]
    colors = [len(adj[v]) for v in range(n)]
    classes = len(set(colors))
    for _ in range(n):
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in range(n)
        ]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [relabel[s] for s in sigs]
        new_classes = len(set(colors))
        if new_classes == classes:
            break
        classes = new_classes
    return colors


def certificate(masks: Masks) -> tuple:
    """A cheap isomorphism-invariant key: vertex colors plus the multiset
    of endpoint-color pairs over edges. Equal for isomorphic graphs; used
    to bucket candidates before exact testing."""
    n = len(masks)
    colors = refinement_colors(masks)
    edge_profile = sorted(
        (min(colors[u], colors[v]), max(colors[u], colors[v]))
        for u in range(n)
        for v in _neighbors_of(masks, u)
        if u < v
    )
    return (n, tuple(sorted(colors)), tuple(edge_profile))


def masks_isomorphic(m1: Masks, m2: Masks) -> bool:
    """Exact isomorphism by backtracking over refinement-compatible maps."""
    n = len(m1)
    if n != len(m2):
        return False
    if sorted(bin(x).count("1") for x in m1) != sorted(
        bin(x).count("1") for x in m2
    ):
        return False
    c1 = refinement_colors(m1)
    c2 = refinement_colors(m2)
    if sorted(c1) != sorted(c2):
        return False

    # order the first graph's vertices: rare colors first, then stay
    # adjacent to the mapped prefix for early pruning
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(c2):
        by_color.setdefault(c, []).append(v)
    order: list[int] = []
    placed = set()
    while len(order) < n:
        best = None
        for v in range(n):
            if v in placed:
                continue
            attached = bin(m1[v] & _to_mask(order)).count("1")
            key = (-attached, len(by_color[c1[v]]), v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        placed.add(best[1])

    mapping = [-1] * n
    used = 0

    def dfs(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        want = c1[v]
        for w in by_color[want]:
            bit = 1 << w
            if used & bit:
                continue
            ok = True
            for x in order[:i]:
                if bool(m1[v] >> x & 1) != bool(m2[w] >> mapping[x] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used |= bit
                if dfs(i + 1):
                    return True
                used &= ~bit
                mapping[v] = -1
        return False

    return dfs(0)


def _to_mask(vertices: list[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    return masks_isomorphic(g1.adjacency_masks(), g2.adjacency_masks())


_ENUM_CACHE: dict[int, tuple[Masks, ...]] = {}


def enumerate_mask_graphs(n: int) -> tuple[Masks, ...]:
    """All simple graphs on n vertices up to isomorphism, as adjacency-mask
    tuples, by augmenting the (n-1)-vertex list with one new vertex per
    neighbor subset and deduplicating within certificate buckets. The
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
    buckets: dict[tuple, list[Masks]] = {}
    new = n - 1
    for parent in enumerate_mask_graphs(n - 1):
        for subset in range(1 << new):
            child = tuple(
                parent[v] | (1 << new if subset >> v & 1 else 0)
                for v in range(new)
            ) + (subset,)
            key = certificate(child)
            bucket = buckets.setdefault(key, [])
            if not any(masks_isomorphic(child, seen) for seen in bucket):
                bucket.append(child)
                out.append(child)
    _ENUM_CACHE[n] = tuple(out)
    return _ENUM_CACHE[n]

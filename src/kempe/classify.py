"""Chromatic-index machinery: constructive (Delta+1)-coloring via fan
rotation, an exact backtracking solver, and criticality tests.

For a simple graph the chromatic index is Delta or Delta+1, so the exact
question reduces to one decision: does a Delta-coloring exist?
"""

from __future__ import annotations

import functools
import random
from enum import Enum
from heapq import heapify, heappop, heappush
from struct import Struct
from typing import Callable

from .coloring import ColoringError, PartialEdgeColoring, kempe_walk
from .graph import Edge, Graph, edge_key
from .iso import automorphisms, edge_actions, orbit_representatives
from .shares import PassedBack


class GraphClass(Enum):
    CLASS1 = 1
    CLASS2 = 2

    def __str__(self) -> str:
        return f"Class {self.value}"


class BudgetExceededError(PassedBack, RuntimeError):
    """The solver hit its node cap; carries progress for diagnostics. A
    forked share raises it in its parent as itself (`shares.PassedBack`)."""

    def __init__(self, nodes: int, partial: dict[Edge, int]):
        super().__init__(f"solver budget exceeded after {nodes} nodes")
        self.nodes = nodes
        self.partial = partial

    def __reduce__(self):
        return type(self), (self.nodes, self.partial)


DEFAULT_NODE_BUDGET = 50_000_000

# A search keeps the residual states it has exhausted only during its
# first 2^14 nodes, then drops them. A flower snark's refutation meets the
# same states again and again and ends within a few thousand nodes. A long
# tight search (a K10 split minus an edge, k = 9) kept 667,510 states
# without this bound, a peak RSS of 189 MB against 15 MB, for one hit in
# 13 nodes.
_FAILED_WINDOW = 1 << 14


# ---------------------------------------------------------------------------
# Constructive (Delta+1)-coloring: fan rotation plus one Kempe inversion
# ---------------------------------------------------------------------------


def vizing_plus_one_coloring(g: Graph) -> PartialEdgeColoring:
    """Proper full coloring with k = Delta + 1 colors.

    Classic fan argument: for each uncolored edge build a maximal fan at
    one endpoint, invert one two-colored path, rotate a fan prefix, and
    color the freed edge. Deterministic: ties broken by smallest index.
    """
    k = g.max_degree() + 1
    col = PartialEdgeColoring(g, k)
    for e in g.edges():
        _color_one_edge(col, e)
    if not (col.is_full() and col.validate()):
        raise ColoringError("fan rotation left the coloring partial or improper")
    return col


def _color_one_edge(col: PartialEdgeColoring, e: Edge) -> None:
    g = col.graph
    x, f = e

    # fan: neighbors f = F[0], F[1], ... where each edge (x, F[i+1]) carries
    # a color missing at F[i]
    fan = [f]
    in_fan = {f}
    while True:
        last = fan[-1]
        nxt = None
        for z in sorted(g.neighbors(x)):
            if z in in_fan:
                continue
            c = col.color_of((x, z))
            if c is not None and col.is_missing(last, c):
                nxt = z
                break
        if nxt is None:
            break
        fan.append(nxt)
        in_fan.add(nxt)

    tip_free = col.missing(fan[-1])
    if not tip_free:
        raise ColoringError(f"fan tip {fan[-1]} has no free color")
    c_free = min(col.missing(x))
    d_free = min(tip_free)
    if c_free != d_free and not col.is_missing(x, d_free):
        # invert the (c, d)-path starting at x; afterwards d is free at x
        col.kempe_swap_at(x, c_free, d_free)

    w_idx = _fan_prefix_with(col, x, fan, d_free)
    if w_idx is None:
        # d became free at the fan tip only through c; retry with the tip
        raise ColoringError("fan rotation invariant violated")
    # rotate the prefix: shift each edge color one step toward F[0]
    for i in range(w_idx):
        nxt_color = col.color_of((x, fan[i + 1]))
        col.uncolor_edge((x, fan[i + 1]))
        col.color_edge((x, fan[i]), nxt_color)
    col.color_edge((x, fan[w_idx]), d_free)


def _fan_prefix_with(
    col: PartialEdgeColoring, x: int, fan: list[int], d: int
) -> int | None:
    """Largest-prefix scan: the first fan index w such that d is missing at
    fan[w] and fan[0..w] is still a valid fan under the current coloring."""
    for i, v in enumerate(fan):
        if i > 0:
            c = col.color_of((x, fan[i]))
            if c is None or not col.is_missing(fan[i - 1], c):
                return None
        if col.is_missing(v, d):
            return i
    return None


# ---------------------------------------------------------------------------
# Exact solver: DFS over edges with forward pruning and symmetry breaking
# ---------------------------------------------------------------------------


def find_edge_coloring(
    g: Graph,
    k: int,
    seed: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PartialEdgeColoring | None:
    """A proper edge k-coloring of g, or None when none exists.

    DFS over edges with most-constrained-edge selection and first-use
    color symmetry breaking. A seed permutes vertex labels to diversify
    which coloring is found; the search itself stays deterministic for a
    fixed seed. Raises BudgetExceededError when the search needs more
    than node_budget nodes; its partial coloring is in g's labels.
    """
    if k < 0:
        raise ValueError("color count must be non-negative")
    m = g.edge_count()
    if m == 0:
        return PartialEdgeColoring(g, k)
    if g.max_degree() > k:
        return None
    # each color class is a matching with at most floor(n/2) edges
    if m > k * (g.n // 2):
        return None
    # a colouring holds at most 64 colours: a larger k raises here, so no
    # search is made for a result that could not be returned
    if k > 64:
        raise ValueError("color count must be in 0..64")

    edges, label = g.edges(), range(g.n)
    if seed is not None:
        perm, label = _seeded_relabelling(g.n, seed)
        edges = [edge_key(perm[u], perm[v]) for u, v in edges]
    try:
        assignment = _search(g.n, edges, k, node_budget)
    except BudgetExceededError as exc:
        exc.partial = {
            edge_key(label[u], label[v]): c for (u, v), c in exc.partial.items()
        }
        raise
    if assignment is None:
        return None
    colors = sorted(assignment.items())
    return PartialEdgeColoring.from_assignment(
        g, k, {edge_key(label[u], label[v]): c for (u, v), c in colors}
    )


@functools.lru_cache(maxsize=512)
def _seeded_relabelling(n: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertex permutation of a seeded solve, perm[v] being v's new
    name, as `random.Random(seed).shuffle` gives it, and its inverse."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    label = [0] * n
    for v, pv in enumerate(perm):
        label[pv] = v
    return tuple(perm), tuple(label)


def _degeneracy_rank(n: int, edges: list[Edge]) -> list[int]:
    """Rank the vertices 0..n-1 of a graph with these edges by iterated
    minimum-degree removal, ties going to the smallest vertex; high rank =
    removed late. The candidates are a heap of deg * n + v, so its least
    entry has the least degree, then the least vertex; an entry whose
    vertex is ranked or whose degree has since dropped is skipped."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(s) for s in nbrs]
    heap = [d * n + v for v, d in enumerate(deg)]
    heapify(heap)
    rank = [-1] * n
    for r in range(n):
        d, v = divmod(heappop(heap), n)
        while rank[v] >= 0 or d != deg[v]:
            d, v = divmod(heappop(heap), n)
        rank[v] = r
        for w in nbrs[v]:
            if rank[w] < 0:
                deg[w] -= 1
                heappush(heap, deg[w] * n + w)
    return rank


@functools.lru_cache(maxsize=512)
def _state_codec(n: int, top: int) -> tuple[bytes, Callable[..., bytes]]:
    """For `_search`'s state keys: the translation that reads every count
    byte above top, a coloured edge's, as 255, and a packer of n free
    colour masks."""
    return bytes(range(top + 1)) + b"\xff" * (255 - top), Struct(f"{n}Q").pack


def _search(
    n: int, edges: list[Edge], k: int, node_budget: int
) -> dict[Edge, int] | None:
    """A proper k-colouring, as a dict, of the graph on 0..n-1 with these
    edges (normalized, in any order), or None; k <= 64.

    Each node takes the first uncoloured edge, in a fixed order, with the
    fewest colour options and tries them in ascending order; it fails at
    once when some edge has no option.

    The options are counted without a loop over the edges. Every colour
    on the DFS path is at most `used`, so the higher colours are free at
    every vertex, and an uncoloured edge has lim - s options, where
    lim = min(used + 1, k) is the first-use limit and s counts the
    distinct colours at its two ends. Edge i keeps s in byte i of the
    integer `seen`, so colouring an edge raises s on all its neighbours
    with one addition, and `find` on its bytes, from the highest count
    down, gives the first most-constrained edge. A byte never overflows:
    s <= top = min(k, 2 * Delta - 2), and a coloured edge's byte is set
    to top + 1, above every count searched, and then raised at most
    2 * Delta - 2 times, so it stays under 256 for Delta <= k <= 64.

    A vertex loses one free colour per coloured edge at it, so its free
    colours never fall below its uncoloured edges (k >= Delta): a prune
    on those two counts could never fire, and there is none.

    What a node does depends only on its residual state: lim, which edges
    are coloured, and the free colours at each vertex. The free colours
    fix lim as well (the colours placed so far are those missing from some
    vertex's free set), so a state's key holds only the other two. A state
    whose subtree failed fails again wherever it recurs, so the search
    keeps the exhausted ones in `failed` and fails at once when it reaches
    one again. Past _FAILED_WINDOW nodes `failed` is None: nothing more is
    stored or looked up, and the table's memory is freed. Only nodes with
    two or more options are looked up and stored; a forced colour leads
    to the next such node, with the same outcome. The table skips only
    failed subtrees, so the search finds the same first colouring in the
    same order, and a None still means an exhausted search.

    The search is one loop over an explicit stack, `path`, of one frame
    per coloured edge, so its depth is bounded by memory, not by the
    interpreter's recursion limit, and its speed does not depend on how
    deep in the stack it is called.
    """
    rank = _degeneracy_rank(n, edges)
    # color edges among late-surviving (dense) vertices first
    edges = sorted(edges, key=lambda e: (-(rank[e[0]] + rank[e[1]]), e))
    m = len(edges)
    at = [0] * n  # at[x]: 1 in the byte of each edge at x
    for i, (u, v) in enumerate(edges):
        at[u] |= 1 << 8 * i
        at[v] |= 1 << 8 * i
    ones = int.from_bytes(b"\1" * m, "little")
    # free_ends[c]: per edge byte, how many of its ends have c free
    free_ends = [2 * ones] * (k + 1)
    # each edge at x sets one bit of at[x], so that bit count is x's degree
    top = min(k, 2 * max(a.bit_count() for a in at) - 2)
    free = [(1 << k) - 1] * n
    mark, pack = _state_codec(n, top)
    failed: set[bytes] | None = set()
    # one frame per coloured edge: options left, colour bit tried, the
    # free_ends entry it replaced, edge i, its ends u and v, near, ends, and
    # the node's used, seen (with edge i marked), and counts if it is stored
    path: list[tuple] = []
    # `used` is the highest colour placed so far and `seen` holds the
    # counts for the colouring as it stands
    used = seen = nodes = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            partial = {edges[f[3]]: f[1].bit_length() for f in path}
            raise BudgetExceededError(nodes, partial)
        # the unused colors are interchangeable: offer only the first of them
        lim = used + 1 if used < k else k
        counts = seen.to_bytes(m, "little")
        opts = stored = 0
        if lim > top or lim not in counts:
            for level in range(min(lim - 1, top), -1, -1):
                i = counts.find(level)
                if i >= 0:
                    break
            else:
                return {edges[f[3]]: f[1].bit_length() for f in path}
            # a node with two or more options is stored when it fails, keyed
            # by its residual state: the counts with the coloured edges
            # marked, and the free colours of every vertex
            stored = counts if level < lim - 1 else 0
            if failed and stored and stored.translate(mark) + pack(*free) in failed:
                stored = 0
            else:
                u, v = edges[i]
                opts = free[u] & free[v] & ((1 << lim) - 1)
                seen += (top + 1 - level) << 8 * i
                near, ends = at[u] | at[v], at[u] + at[v]
        # when the node has no colour left, go back to the deepest frame
        # that has one
        while not opts:
            if stored and failed is not None:
                if nodes <= _FAILED_WINDOW:
                    failed.add(stored.translate(mark) + pack(*free))
                else:
                    failed = None
            if not path:
                return None
            opts, bit, before, i, u, v, near, ends, used, seen, stored = path.pop()
            free_ends[bit.bit_length()] = before
            free[u] |= bit
            free[v] |= bit
        bit = opts & -opts
        c = bit.bit_length()
        free[u] ^= bit
        free[v] ^= bit
        before = free_ends[c]
        after = free_ends[c] = before - ends
        path.append((opts ^ bit, bit, before, i, u, v, near, ends, used, seen, stored))
        # (after | after >> 1) & ones marks the edges with c free at an end;
        # next to edge i that end is the far one, so they see c anew
        seen += near & (after | after >> 1) & ones
        used = c if c > used else used


# ---------------------------------------------------------------------------
# Classification and criticality
# ---------------------------------------------------------------------------


def walk_then_search(g: Graph, k: int, seed: int = 0) -> PartialEdgeColoring | None:
    """A proper k-coloring of g (k >= Delta), or None when none exists:
    `kempe_walk` colors g from the empty coloring with `seed`, in one step
    per edge plus 8 * k, and `find_edge_coloring` answers only when it
    gives up, so every None is a refutation."""
    col = kempe_walk(g, k, seed, g.edge_count() + 8 * k)
    return col if col is not None else find_edge_coloring(g, k)


def exact_chromatic_index(g: Graph) -> int:
    """Delta if a Delta-coloring exists, else Delta + 1."""
    delta = g.max_degree()
    found = walk_then_search(g, delta)
    return delta if found is not None else delta + 1


def classify(g: Graph) -> GraphClass:
    chi = exact_chromatic_index(g)
    return GraphClass.CLASS1 if chi == g.max_degree() else GraphClass.CLASS2


def is_critical_edge(g: Graph, e: tuple[int, int]) -> bool:
    """Does deleting e drop the chromatic index below Delta + 1?

    Only meaningful on Class 2 graphs; calling it on a Class 1 graph is a
    precondition error, and so is an edge not in g."""
    h = g.without_edge(e)
    if classify(g) is GraphClass.CLASS1:
        raise ValueError("criticality is defined for Class 2 graphs only")
    return walk_then_search(h, g.max_degree()) is not None


def all_edges_critical(g: Graph) -> bool:
    """For a Class 2 graph g: is every edge critical, that is, is g - e
    Delta(g)-colorable for each edge e? The caller supplies the Class 2
    fact. An automorphism taking e to f makes g - e and g - f isomorphic,
    so only the first edge of each orbit under `iso.automorphisms`, in
    `g.edges()` order, is tried, by `walk_then_search` seeded with that
    edge's position in `g.edges()`."""
    delta = g.max_degree()
    edges = g.edges()
    actions = edge_actions(edges, automorphisms(g.adjacency_masks()))
    return all(
        walk_then_search(g.without_edge(edges[i]), delta, i) is not None
        for i in orbit_representatives(len(edges), actions)
    )


def is_delta_critical(g: Graph) -> bool:
    """Connected, Class 2, and every edge critical."""
    if g.n == 0 or g.edge_count() == 0 or not g.is_connected():
        return False
    return classify(g) is GraphClass.CLASS2 and all_edges_critical(g)


def delta_coloring_of_minus_e(
    g: Graph, e: tuple[int, int], seed: int | None = 0
) -> PartialEdgeColoring:
    """A proper Delta(g)-coloring of g with exactly e uncolored.

    Deterministic given the seed. Raises ValueError exactly when g - e has
    no Delta(g)-coloring (for a Class 2 graph: when e is not critical)."""
    e = edge_key(*e)
    delta = g.max_degree()
    base = find_edge_coloring(g.without_edge(e), delta, seed=seed)
    if base is None:
        raise ValueError(
            f"no {delta}-coloring of the graph minus {e}: edge is not critical"
        )
    # G - e has G's vertices, so its colouring is re-hosted on G as it is
    col = PartialEdgeColoring.from_assignment(
        g, delta, dict(sorted(base.colored_edges().items()))
    )
    if col.uncolored_count() != 1 or col.is_colored(e):
        raise ColoringError(f"coloring of the graph minus {e} is not full elsewhere")
    return col

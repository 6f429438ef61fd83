"""Chromatic-index machinery: constructive (Delta+1)-coloring via fan
rotation, an exact backtracking solver, and criticality tests.

For a simple graph the chromatic index is Delta or Delta+1, so the exact
question reduces to one decision: does a Delta-coloring exist?
"""

from __future__ import annotations

import random
from enum import Enum

from .coloring import ColoringError, PartialEdgeColoring
from .graph import Edge, Graph, edge_key
from .iso import automorphisms, orbit_representatives


class GraphClass(Enum):
    CLASS1 = 1
    CLASS2 = 2

    def __str__(self) -> str:
        return f"Class {self.value}"


class BudgetExceededError(RuntimeError):
    """The solver hit its node cap; carries progress for diagnostics."""

    def __init__(self, nodes: int, partial: dict[Edge, int]):
        super().__init__(f"solver budget exceeded after {nodes} nodes")
        self.nodes = nodes
        self.partial = partial


DEFAULT_NODE_BUDGET = 50_000_000


# ---------------------------------------------------------------------------
# Constructive (Delta+1)-coloring: fan rotation plus one Kempe inversion
# ---------------------------------------------------------------------------


def vizing_plus_one_coloring(g: Graph) -> PartialEdgeColoring:
    """Proper full coloring with k = Delta + 1 colors.

    Classic fan argument: for each uncolored edge build a maximal fan at
    one endpoint, invert one two-colored path, rotate a fan prefix, and
    color the freed edge. Deterministic: ties broken by smallest index.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
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

    DFS over edges with most-constrained-edge selection, per-vertex
    free-color counting, and first-use color symmetry breaking. A seed
    permutes vertex labels to diversify which coloring is found; the
    search itself stays deterministic for a fixed seed. Raises
    BudgetExceededError when the search needs more than node_budget
    nodes.
    """
    if k < 0:
        raise ValueError("color count must be non-negative")
    if g.edge_count() == 0:
        return PartialEdgeColoring(g, k)
    if g.max_degree() > k:
        return None
    # each color class is a matching with at most floor(n/2) edges
    if g.edge_count() > k * (g.n // 2):
        return None

    perm = list(range(g.n))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    assignment = _search(g.relabeled(perm), k, node_budget)
    if assignment is None:
        return None
    col = PartialEdgeColoring(g, k)
    inv = [0] * g.n
    for v, pv in enumerate(perm):
        inv[pv] = v
    for (u, v), c in sorted(assignment.items()):
        col.color_edge((inv[u], inv[v]), c)
    if not col.validate():
        raise ColoringError("solver returned an improper coloring")
    return col


def _degeneracy_rank(g: Graph) -> list[int]:
    """Rank by iterated minimum-degree removal; high rank = removed late."""
    deg = list(g.degrees())
    alive = set(range(g.n))
    rank = [0] * g.n
    for r in range(g.n):
        v = min(alive, key=lambda w: (deg[w], w))
        alive.remove(v)
        rank[v] = r
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
    return rank


def _search(g: Graph, k: int, node_budget: int) -> dict[Edge, int] | None:
    edges = g.edges()
    rank = _degeneracy_rank(g)
    # color edges among late-surviving (dense) vertices first
    edges.sort(key=lambda e: (-(rank[e[0]] + rank[e[1]]), e))
    free = [(1 << k) - 1] * g.n
    uncolored_deg = list(g.degrees())
    colors: dict[Edge, int] = {}
    nodes = 0

    def dfs(used: int) -> bool:
        """Extend the coloring; `used` is the highest color placed so far."""
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(nodes, dict(colors))
        # the unused colors are interchangeable: offer only the first of them
        limit = (1 << min(used + 1, k)) - 1
        best, best_opts, best_count = None, 0, k + 1
        for e in edges:
            if e in colors:
                continue
            opts = free[e[0]] & free[e[1]] & limit
            count = opts.bit_count()
            if count == 0:
                return False
            if count < best_count:
                best, best_opts, best_count = e, opts, count
        if best is None:
            return True
        u, v = best
        while best_opts:
            bit = best_opts & -best_opts
            best_opts ^= bit
            c = bit.bit_length()
            colors[best] = c
            free[u] &= ~bit
            free[v] &= ~bit
            uncolored_deg[u] -= 1
            uncolored_deg[v] -= 1
            if (
                free[u].bit_count() >= uncolored_deg[u]
                and free[v].bit_count() >= uncolored_deg[v]
                and dfs(max(used, c))
            ):
                return True
            del colors[best]
            free[u] |= bit
            free[v] |= bit
            uncolored_deg[u] += 1
            uncolored_deg[v] += 1
        return False

    return dict(colors) if dfs(0) else None


# ---------------------------------------------------------------------------
# Classification and criticality
# ---------------------------------------------------------------------------


def exact_chromatic_index(g: Graph) -> int:
    """Delta if a Delta-coloring exists, else Delta + 1."""
    if g.edge_count() == 0:
        return 0
    delta = g.max_degree()
    return delta if find_edge_coloring(g, delta) is not None else delta + 1


def classify(g: Graph) -> GraphClass:
    if g.edge_count() == 0:
        return GraphClass.CLASS1
    chi = exact_chromatic_index(g)
    return GraphClass.CLASS1 if chi == g.max_degree() else GraphClass.CLASS2


def is_critical_edge(g: Graph, e: tuple[int, int]) -> bool:
    """Does deleting e drop the chromatic index below Delta + 1?

    Only meaningful on Class 2 graphs; calling it on a Class 1 graph is a
    precondition error."""
    e = edge_key(*e)
    if classify(g) is GraphClass.CLASS1:
        raise ValueError("criticality is defined for Class 2 graphs only")
    return find_edge_coloring(g.without_edge(e), g.max_degree()) is not None


def all_edges_critical(g: Graph) -> bool:
    """For a Class 2 graph g: is every edge critical, that is, is g - e
    Delta(g)-colorable for each edge e? The caller supplies the Class 2
    fact. An automorphism taking e to f makes g - e and g - f isomorphic,
    so only the first edge of each orbit under `iso.automorphisms`, in
    `g.edges()` order, is solved."""
    delta = g.max_degree()
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    actions = [
        tuple(index[edge_key(gamma[u], gamma[v])] for u, v in edges)
        for gamma in automorphisms(g.adjacency_masks())
    ]
    return all(
        find_edge_coloring(g.without_edge(edges[i]), delta) is not None
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

    Deterministic given the seed. Raises ValueError when no such coloring
    exists (the edge is not critical, or the graph is not Class 2)."""
    e = edge_key(*e)
    delta = g.max_degree()
    base = find_edge_coloring(g.without_edge(e), delta, seed=seed)
    if base is None:
        raise ValueError(
            f"no {delta}-coloring of the graph minus {e}: edge is not critical"
        )
    col = PartialEdgeColoring(g, delta)
    for f, c in sorted(base.colored_edges().items()):
        col.color_edge(f, c)
    if col.uncolored_edges() != [e]:
        raise ColoringError(f"coloring of the graph minus {e} is not full elsewhere")
    return col

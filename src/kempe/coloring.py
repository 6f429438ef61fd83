"""Partial proper edge colorings, Kempe chains, swap scripts, and a seeded
Kempe walk that can only answer "colorable".

Colors are integers 1..k. Missing-color sets are maintained incrementally
as per-vertex bitmasks (bit c-1 set when color c is present), so k is
limited to 64 — plenty at desk scale.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graph import Edge, Graph, bit_positions, edge_key


class ColoringError(Exception):
    """Improper state or violated precondition in a coloring operation."""


class ChainError(ColoringError):
    """A Kempe-chain operation could not be applied (stale chain,
    unlinked endpoints, ambiguous cycle segment, ...)."""


class ScriptError(ColoringError):
    """A swap-script step failed; records which one and why."""

    def __init__(self, step_index: int, reason: str):
        super().__init__(f"script step {step_index}: {reason}")
        self.step_index = step_index
        self.reason = reason


@dataclass(frozen=True)
class KempeChain:
    """A maximal component of the subgraph induced by two colors.

    Paths are listed endpoint to endpoint; cycles start and end at the
    same vertex in `vertices` but list each edge once. A vertex missing
    both colors forms a trivial single-vertex path.
    """

    colors: tuple[int, int]
    kind: str  # "path" | "cycle"
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def has_edge(self, e: tuple[int, int]) -> bool:
        return edge_key(*e) in self.edges


class PartialEdgeColoring:
    """A proper edge k-coloring of a graph minus its uncolored edge set."""

    __slots__ = ("graph", "k", "_assign", "_present")

    def __init__(self, graph: Graph, k: int):
        if k < 0 or k > 64:
            raise ValueError("color count must be in 0..64")
        self.graph = graph
        self.k = k
        self._assign: dict[Edge, int] = {}
        self._present: list[int] = [0] * graph.n

    @classmethod
    def from_assignment(
        cls, graph: Graph, k: int, assignment: dict[Edge, int]
    ) -> "PartialEdgeColoring":
        """The coloring with exactly `assignment` colored, in its order.

        One pass: each key must be a normalized edge (u, v), u < v, of
        graph, each color in 1..k and missing at both ends so far; anything
        else raises ColoringError."""
        col = cls(graph, k)
        present = col._present
        has_edge = graph.has_edge
        for e, c in assignment.items():
            u, v = e
            if u >= v:
                raise ColoringError(f"edge {e} is not normalized")
            if not has_edge(u, v):
                raise ColoringError(f"edge {e} not in graph")
            if not 1 <= c <= k:
                raise ColoringError(f"color {c} outside 1..{k}")
            bit = 1 << (c - 1)
            if (present[u] | present[v]) & bit:
                raise ColoringError(f"color {c} already present at an end of {e}")
            present[u] |= bit
            present[v] |= bit
        col._assign = dict(assignment)
        return col

    # -- basic queries ------------------------------------------------------

    def color_of(self, e: tuple[int, int]) -> int | None:
        return self._assign.get(edge_key(*e))

    def is_colored(self, e: tuple[int, int]) -> bool:
        return edge_key(*e) in self._assign

    def colored_edges(self) -> dict[Edge, int]:
        return dict(self._assign)

    def color_bytes(self, edges: Iterable[Edge]) -> bytes:
        """The color of each of `edges`, normalized edges of the graph, in
        order, with 0 for an uncolored edge."""
        get = self._assign.get
        return bytes([get(e, 0) for e in edges])

    def uncolored_edges(self) -> list[Edge]:
        return [e for e in self.graph.edges() if e not in self._assign]

    def uncolored_count(self) -> int:
        return self.graph.edge_count() - len(self._assign)

    def is_full(self) -> bool:
        return len(self._assign) == self.graph.edge_count()

    def missing_mask(self, v: int) -> int:
        return ~self._present[v] & ((1 << self.k) - 1)

    def missing(self, v: int) -> set[int]:
        """Colors of 1..k absent from every edge at v."""
        return set(bit_positions(self.missing_mask(v) << 1))

    def is_missing(self, v: int, c: int) -> bool:
        return not self._present[v] >> (c - 1) & 1

    def is_elementary(self, vertices: Iterable[int]) -> bool:
        """True iff the missing sets of the given vertices are pairwise
        disjoint."""
        seen = 0
        for v in vertices:
            m = self.missing_mask(v)
            if seen & m:
                return False
            seen |= m
        return True

    def edge_at(self, v: int, c: int) -> Edge | None:
        """The unique edge at v colored c, if any."""
        if self.is_missing(v, c):
            return None
        for u in self.graph.neighbors(v):
            e = edge_key(u, v)
            if self._assign.get(e) == c:
                return e
        return None

    # -- mutations ----------------------------------------------------------

    def _check_color(self, c: int) -> None:
        if not 1 <= c <= self.k:
            raise ColoringError(f"color {c} outside 1..{self.k}")

    def color_edge(self, e: tuple[int, int], c: int) -> None:
        """Assign color c to an uncolored edge; c must be missing at both
        endpoints."""
        self._check_color(c)
        u, v = e = edge_key(*e)
        if e in self._assign:
            raise ColoringError(f"edge {e} already colored")
        if not self.graph.has_edge(u, v):
            raise ColoringError(f"edge {e} not in graph")
        bit = 1 << (c - 1)
        if (self._present[u] | self._present[v]) & bit:
            raise ColoringError(f"color {c} already present at an end of {e}")
        self._assign[e] = c
        self._present[u] |= bit
        self._present[v] |= bit

    def uncolor_edge(self, e: tuple[int, int]) -> None:
        e = edge_key(*e)
        if self._assign.pop(e, None) is None:
            raise ColoringError(f"edge {e} is not colored")
        self._recount(e)

    def _set_color_raw(self, e: tuple[int, int], c: int) -> None:
        """Recolor without the propriety precondition (script transactions
        may pass through improper states; the final validation gates them)."""
        self._check_color(c)
        u, v = e = edge_key(*e)
        if e not in self._assign:
            raise ColoringError(f"edge {e} is not colored")
        self._assign[e] = c
        self._recount(e)

    def _recount(self, vertices: Iterable[int]) -> None:
        """Rebuild the present-color masks of `vertices` from their edges,
        which stays right even while a script passes an improper state."""
        for w in vertices:
            mask = 0
            for z in self.graph.neighbors(w):
                col = self._assign.get(edge_key(w, z))
                if col is not None:
                    mask |= 1 << (col - 1)
            self._present[w] = mask

    # -- Kempe machinery ----------------------------------------------------

    def _check_pair(self, alpha: int, beta: int) -> None:
        self._check_color(alpha)
        self._check_color(beta)
        if alpha == beta:
            raise ColoringError("chain colors must differ")

    def _walk(
        self, x: int, e: Edge, alpha: int, beta: int
    ) -> tuple[list[int], list[Edge]]:
        """The alternating walk from x along its (alpha, beta)-edge e: at
        each vertex reached, the next edge is the one `edge_at` gives in
        the other color, until there is none or the walk is back at x.
        Returns the vertices (x first) and the edges in walk order.

        A step depends only on the vertex reached and the color wanted, so
        a walk of 2n edges has repeated a step and would never end. Only an
        improper coloring, inside a script transaction, makes one; it
        raises ChainError."""
        verts, edges = [x], []
        cur = x
        limit = 2 * self.graph.n
        while e is not None:
            if len(edges) == limit:
                raise ChainError(f"the ({alpha},{beta})-walk from {x} never ends")
            edges.append(e)
            a, b = e
            cur = b if a == cur else a
            verts.append(cur)
            if cur == x:
                break
            e = self.edge_at(cur, beta if self._assign[e] == alpha else alpha)
        return verts, edges

    def chain_through(self, v: int, alpha: int, beta: int) -> KempeChain:
        """The maximal (alpha, beta)-component containing v.

        A vertex missing both colors yields a trivial one-vertex path.
        """
        self._check_pair(alpha, beta)
        e1 = self.edge_at(v, alpha)
        e2 = self.edge_at(v, beta)
        local = [e for e in (e1, e2) if e is not None]
        if not local:
            return KempeChain(
                (alpha, beta), "path", (v,), ()
            )
        verts1, edges1 = self._walk(v, local[0], alpha, beta)
        if verts1[-1] == v:
            return KempeChain((alpha, beta), "cycle", tuple(verts1), tuple(edges1))
        if len(local) == 1:
            return KempeChain((alpha, beta), "path", tuple(verts1), tuple(edges1))
        # v is interior: extend the other way and splice
        verts2, edges2 = self._walk(v, local[1], alpha, beta)
        vertices = tuple(reversed(verts2)) + tuple(verts1[1:])
        edges = tuple(reversed(edges2)) + tuple(edges1)
        return KempeChain((alpha, beta), "path", vertices, edges)

    def are_linked(self, x: int, y: int, alpha: int, beta: int) -> bool:
        """True iff x and y lie in the same (alpha, beta)-component."""
        if x == y:
            return True
        return y in self.chain_through(x, alpha, beta).vertices

    def _chain_is_current(self, chain: KempeChain) -> bool:
        """True iff the chain is still a component: the fresh chain through
        its first vertex has its edges. A recolored or uncolored edge of the
        chain is on no fresh chain, so it makes the edge sets differ."""
        if not chain.edges:
            return True
        fresh = self.chain_through(chain.vertices[0], *chain.colors)
        return set(fresh.edges) == set(chain.edges)

    def swap_chain(self, chain: KempeChain) -> None:
        """Kempe change: exchange the two colors along a full chain.

        Propriety is preserved; swapping the same chain twice restores the
        original coloring."""
        if not self._chain_is_current(chain):
            raise ChainError("stale chain: not a current component")
        alpha, beta = chain.colors
        self._swap_edges(chain.edges, alpha, beta)

    def _swap_edges(self, edges: Sequence[Edge], alpha: int, beta: int) -> None:
        for e in edges:
            c = self._assign[e]
            self._assign[e] = beta if c == alpha else alpha
        self._recount({v for e in edges for v in e})

    def kempe_swap_at(self, v: int, alpha: int, beta: int) -> KempeChain:
        """Swap the full (alpha, beta)-chain containing v, where v must miss
        at least one of the two colors (so it is a path end or trivial).
        Returns the swapped chain. Swapping a trivial chain, or a pair of
        equal colors, does nothing (the conventional no-op swap)."""
        if alpha == beta:
            return KempeChain((alpha, beta), "path", (v,), ())
        if not (self.is_missing(v, alpha) or self.is_missing(v, beta)):
            raise ChainError(
                f"vertex {v} misses neither color {alpha} nor {beta}; "
                "interior swaps need an explicit segment"
            )
        chain = self.chain_through(v, alpha, beta)
        self._swap_edges(chain.edges, alpha, beta)
        return chain

    def swap_subchain(self, x: int, y: int, alpha: int, beta: int) -> tuple[Edge, ...]:
        """Exchange colors on the x..y segment of their common (alpha, beta)
        path.

        The result can be improper at the segment boundary unless the
        boundary vertices miss the right colors; callers outside a script
        transaction must re-validate. Cycles are rejected (the segment
        would be ambiguous)."""
        chain = self.chain_through(x, alpha, beta)
        if chain.kind == "cycle":
            raise ChainError("subchain of a cycle is ambiguous")
        if y not in chain.vertices:
            raise ChainError(f"{x} and {y} are not ({alpha},{beta})-linked")
        if x == y:
            return ()
        vi = chain.vertices.index(x)
        vj = chain.vertices.index(y)
        lo, hi = min(vi, vj), max(vi, vj)
        segment = chain.edges[lo:hi]
        self._swap_edges(segment, alpha, beta)
        return segment

    def half_chain_from(
        self, x: int, alpha: int, beta: int, first_edge: tuple[int, int]
    ) -> tuple[Edge, ...]:
        """The two-colored segment from x along `first_edge` to its end.

        Walks the alternation directly from the given edge, so it stays
        well defined even while a script transaction is transiently
        improper elsewhere. Rejects closed walks back to x."""
        self._check_pair(alpha, beta)
        fe = edge_key(*first_edge)
        if self._assign.get(fe) not in (alpha, beta) or x not in fe:
            raise ChainError(f"{fe} is not an ({alpha},{beta})-edge at {x}")
        verts, edges = self._walk(x, fe, alpha, beta)
        if verts[-1] == x:
            raise ChainError("half chain closed into a cycle")
        return tuple(edges)

    def swap_half_chain(
        self, x: int, alpha: int, beta: int, first_edge: tuple[int, int]
    ) -> tuple[Edge, ...]:
        """Exchange colors from x along `first_edge` to the chain's end.

        Propriety can break at x when x carries the other color too; script
        transactions must restore it before the final validation."""
        segment = self.half_chain_from(x, alpha, beta, first_edge)
        self._swap_edges(segment, alpha, beta)
        return segment

    def swap_explicit_path(self, vertices: Sequence[int], alpha: int, beta: int) -> None:
        """Exchange colors along an explicitly listed alternating path."""
        edges = []
        for u, v in zip(vertices, vertices[1:]):
            e = edge_key(u, v)
            if self._assign.get(e) not in (alpha, beta):
                raise ChainError(f"edge {e} is not colored {alpha} or {beta}")
            edges.append(e)
        self._swap_edges(edges, alpha, beta)

    # -- validation, copying, serialization ----------------------------------

    def validate(self) -> bool:
        """True iff proper and the incremental bookkeeping is consistent."""
        masks = [0] * self.graph.n
        for (u, v), c in self._assign.items():
            if not self.graph.has_edge(u, v) or not 1 <= c <= self.k:
                return False
            bit = 1 << (c - 1)
            if masks[u] & bit or masks[v] & bit:
                return False
            masks[u] |= bit
            masks[v] |= bit
        return masks == self._present

    def copy(self) -> "PartialEdgeColoring":
        dup = PartialEdgeColoring(self.graph, self.k)
        dup._assign = dict(self._assign)
        dup._present = list(self._present)
        return dup

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartialEdgeColoring)
            and self.graph == other.graph
            and self.k == other.k
            and self._assign == other._assign
        )

    def __repr__(self) -> str:
        return (
            f"PartialEdgeColoring(k={self.k}, colored={len(self._assign)}, "
            f"uncolored={self.uncolored_count()})"
        )

    def serialize(self) -> str:
        """Text form: header `k=<int> uncolored=<count>`, then one line per
        edge `u v c` (c is '-' for uncolored edges)."""
        lines = [f"k={self.k} uncolored={self.uncolored_count()}"]
        for u, v in self.graph.edges():
            c = self._assign.get((u, v))
            lines.append(f"{u} {v} {'-' if c is None else c}")
        return "\n".join(lines) + "\n"


def parse_coloring(graph: Graph, text: str) -> PartialEdgeColoring:
    """Inverse of PartialEdgeColoring.serialize for a known graph: the
    header `k=<int> uncolored=<count>`, then one line per edge of the graph,
    each edge exactly once. Anything else raises ValueError or
    ColoringError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = re.fullmatch(r"k=(\d+) uncolored=(\d+)", lines[0].strip()) if lines else None
    if head is None:
        raise ValueError("missing coloring header 'k=<int> uncolored=<count>'")
    k, uncolored = map(int, head.groups())
    col = PartialEdgeColoring(graph, k)
    listed: set[Edge] = set()
    for ln in lines[1:]:
        u, v, c = ln.split()
        e = edge_key(int(u), int(v))
        if not graph.has_edge(*e):
            raise ColoringError(f"edge {e} not in graph")
        if e in listed:
            raise ValueError(f"edge {e} listed twice")
        listed.add(e)
        if c != "-":
            col.color_edge(e, int(c))
    missed = [e for e in graph.edges() if e not in listed]
    if missed:
        raise ValueError(f"edges {missed} not listed")
    if col.uncolored_count() != uncolored:
        raise ValueError("uncolored count does not match header")
    return col


# ---------------------------------------------------------------------------
# A seeded Kempe walk: a heuristic that can only answer "colorable"
# ---------------------------------------------------------------------------


def kempe_walk(
    graph: Graph,
    k: int,
    assign: dict[Edge, int],
    queue: list[Edge],
    rng: random.Random,
    steps: int,
) -> PartialEdgeColoring | None:
    """Extend the proper partial k-coloring `assign` (normalized edge ->
    color; changed in place) to the uncolored edges `queue` by Kempe
    changes, as in Vizing's argument, in at most `steps` steps. Returns the
    full coloring, or None when the steps run out: a None says nothing
    about whether a k-coloring exists. k must be at least Delta, so each
    end of an uncolored edge misses a color; a smaller k is a ValueError.

    A step pops an uncolored edge uv. If u and v miss a common color, uv
    takes the least one. Otherwise it picks a missing at u and b missing at
    v, at random. v is an end of its (a, b)-path; when the path does not
    end at u, swapping it frees a at v and uv takes a. When it does end at
    u, a random colored edge at u is uncolored, and both edges go back on
    the queue, uv on top.

    The walk keeps, per vertex, a map from each color present to the
    neighbor across that edge, so a path is followed with one lookup per
    edge. Its result comes from `PartialEdgeColoring.from_assignment`,
    which raises ColoringError on an improper coloring, and a coloring
    missing an edge of graph raises ColoringError too."""
    if k < graph.max_degree():
        raise ValueError(f"a walk needs k >= Delta = {graph.max_degree()}, got {k}")
    # at[v]: color -> the neighbor across v's edge of that color;
    # present[v]: bit c set when color c is at v
    at: list[dict[int, int]] = [{} for _ in range(graph.n)]
    present = [0] * graph.n
    for (u, v), c in assign.items():
        at[u][c] = v
        at[v][c] = u
        present[u] |= 1 << c
        present[v] |= 1 << c
    full = (1 << k + 1) - 2
    pending = list(queue)
    for _ in range(steps):
        if not pending:
            break
        u, v = pending.pop()
        common = full & ~(present[u] | present[v])
        if common:
            c = (common & -common).bit_length() - 1
        else:
            a = rng.choice(bit_positions(full & ~present[u]))
            b = rng.choice(bit_positions(full & ~present[v]))
            path = []
            x, c, d = v, a, b
            while c in at[x]:
                y = at[x][c]
                path.append((x, y, c))
                x, c, d = y, d, c
            if x == u:
                c = rng.choice(bit_positions(present[u]))
                w = at[u].pop(c)
                del at[w][c]
                present[u] ^= 1 << c
                present[w] ^= 1 << c
                e = edge_key(u, w)
                del assign[e]
                pending += (e, (u, v))
                continue
            for y, z, c in path:
                del at[y][c], at[z][c]
            for y, z, c in path:
                c = a + b - c
                at[y][c] = z
                at[z][c] = y
                assign[edge_key(y, z)] = c
            # only the path's ends change which of a and b they hold
            present[v] ^= 1 << a | 1 << b
            present[x] ^= 1 << a | 1 << b
            c = a
        at[u][c] = v
        at[v][c] = u
        present[u] |= 1 << c
        present[v] |= 1 << c
        assign[u, v] = c
    if pending:
        return None
    if len(assign) != graph.edge_count():
        raise ColoringError("the walk left an edge of the graph uncolored")
    return PartialEdgeColoring.from_assignment(graph, k, assign)


# ---------------------------------------------------------------------------
# Swap scripts: the two-row operation matrices as executable step lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwapSubchain:
    """Exchange two colors on the segment between x and y of their common
    chain (may transiently break propriety at the segment boundary)."""

    x: int
    y: int
    alpha: int
    beta: int

    def render(self) -> tuple[str, str]:
        return f"P[{self.x},{self.y}]({self.alpha},{self.beta})", f"{self.alpha}/{self.beta}"


@dataclass(frozen=True)
class SwapChainAt:
    """Kempe change on the full chain containing x (x must miss one color)."""

    x: int
    alpha: int
    beta: int

    def render(self) -> tuple[str, str]:
        return f"P{self.x}({self.alpha},{self.beta})", f"{self.alpha}/{self.beta}"


@dataclass(frozen=True)
class SwapHalfChain:
    """Exchange two colors from x along `first` to the chain's end."""

    x: int
    alpha: int
    beta: int
    first: Edge

    def render(self) -> tuple[str, str]:
        u, v = self.first
        return (
            f"P{self.x}({self.alpha},{self.beta})|{u}-{v}",
            f"{self.alpha}/{self.beta}",
        )


@dataclass(frozen=True)
class SwapPath:
    """Exchange two colors along an explicitly listed path of vertices."""

    vertices: tuple[int, ...]
    alpha: int
    beta: int

    def render(self) -> tuple[str, str]:
        return "".join(map(str, self.vertices)), f"{self.alpha}/{self.beta}"


@dataclass(frozen=True)
class RecolorEdge:
    edge: Edge
    old: int
    new: int

    def render(self) -> tuple[str, str]:
        u, v = self.edge
        return f"{u}-{v}", f"{self.old}->{self.new}"


@dataclass(frozen=True)
class AssignColor:
    edge: Edge
    color: int

    def render(self) -> tuple[str, str]:
        u, v = self.edge
        return f"{u}-{v}", f"{self.color}"


Step = (
    SwapSubchain
    | SwapChainAt
    | SwapHalfChain
    | SwapPath
    | RecolorEdge
    | AssignColor
)


@dataclass
class SwapScript:
    """An ordered sequence of recoloring steps, applied left to right."""

    steps: list[Step] = field(default_factory=list)

    def append(self, step: Step) -> None:
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def render(self) -> str:
        """Two aligned rows: targets above actions."""
        if not self.steps:
            return "(empty script)"
        cells = [s.render() for s in self.steps]
        widths = [max(len(t), len(a)) for t, a in cells]
        row1 = "  ".join(t.ljust(w) for (t, _), w in zip(cells, widths))
        row2 = "  ".join(a.ljust(w) for (_, a), w in zip(cells, widths))
        return row1.rstrip() + "\n" + row2.rstrip()


def apply_step(col: PartialEdgeColoring, step: Step) -> None:
    if isinstance(step, SwapSubchain):
        col.swap_subchain(step.x, step.y, step.alpha, step.beta)
    elif isinstance(step, SwapChainAt):
        col.kempe_swap_at(step.x, step.alpha, step.beta)
    elif isinstance(step, SwapHalfChain):
        col.swap_half_chain(step.x, step.alpha, step.beta, step.first)
    elif isinstance(step, SwapPath):
        col.swap_explicit_path(step.vertices, step.alpha, step.beta)
    elif isinstance(step, RecolorEdge):
        actual = col.color_of(step.edge)
        if actual != step.old:
            raise ColoringError(
                f"edge {step.edge} is colored {actual}, expected {step.old}"
            )
        # scripts may recolor through transient conflicts; the script's
        # final validation is the propriety gate
        col._set_color_raw(step.edge, step.new)
    elif isinstance(step, AssignColor):
        col.color_edge(step.edge, step.color)
    else:  # pragma: no cover
        raise TypeError(f"unknown step {step!r}")


def apply_script(
    col: PartialEdgeColoring, script: SwapScript
) -> tuple[PartialEdgeColoring, list[str]]:
    """Apply a script to a copy of the coloring.

    Returns the resulting coloring and a step-by-step trace. Subchain swaps
    may pass through improper intermediate states, but the final coloring
    must validate. The first inapplicable step raises ScriptError with its
    index."""
    work = col.copy()
    trace: list[str] = []
    for i, step in enumerate(script):
        try:
            apply_step(work, step)
        except ColoringError as exc:
            raise ScriptError(i, str(exc)) from exc
        target, action = step.render()
        trace.append(f"[{i}] {target} : {action}")
    if not work.validate():
        raise ScriptError(len(script.steps), "final coloring is improper")
    return work, trace

"""Simple undirected graphs, graph6 I/O, and degree-based constructions.

Vertices are dense integers 0..n-1 and stay stable under edge deletions.
Graphs are immutable; mutating operations return new Graph values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

Edge = tuple[int, int]

GRAPH6_MAX_N = 62


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


@lru_cache(maxsize=1 << 12)
def bit_positions(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, in increasing order: the
    neighbors in an adjacency mask, or the colors in a color mask shifted
    up by one (color c at bit c)."""
    if mask < 0:
        raise ValueError(f"a bit mask is non-negative, got {mask}")
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            u, v = edge_key(u, v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Graph":
        """The graph whose `adjacency_masks()` are `masks`: bit w of entry v
        set when vw is an edge. Masks that are not symmetric, have a loop or
        name a vertex outside 0..n-1 raise ValueError."""
        masks = tuple(masks)
        if any(m < 0 for m in masks):
            raise ValueError("adjacency masks must be non-negative")
        adj = tuple(frozenset(bit_positions(m)) for m in masks)
        n = len(adj)
        for v, s in enumerate(adj):
            for w in s:
                if w >= n or v not in adj[w] or w == v:
                    raise ValueError(f"masks are not a simple graph at ({v},{w})")
        g = cls.__new__(cls)
        g.n = n
        g._adj = adj
        return g

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def adjacency_masks(self) -> tuple[int, ...]:
        """The bitmask adjacency the isomorphism code takes: bit w of
        entry v is set when vw is an edge. Built on each call."""
        return tuple(sum(1 << w for w in s) for s in self._adj)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff uv is an edge; False when either end is outside
        0..n-1."""
        return 0 <= u < self.n and v in self._adj[u]

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, sorted: a frozenset's iteration
        order can follow insertion order, so equal graphs built from
        permuted edge lists would otherwise list their edges differently."""
        return sorted([(u, v) for u in range(self.n) for v in self._adj[u] if u < v])

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def without_edge(self, e: tuple[int, int]) -> "Graph":
        """The graph minus one of its edges, built from this graph's
        adjacency: only the two ends' neighbourhoods change."""
        u, v = edge_key(*e)
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not in graph")
        adj = list(self._adj)
        adj[u] = adj[u] - {v}
        adj[v] = adj[v] - {u}
        h = Graph.__new__(Graph)
        h.n = self.n
        h._adj = tuple(adj)
        return h

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


@dataclass(frozen=True)
class SplitSpec:
    """A vertex split: `vertex` is replaced by two adjacent vertices, with
    `part_one` (a non-empty proper subset of its neighborhood) attached to
    the first copy and the rest to the second."""

    vertex: int
    part_one: frozenset[int]

    def validate_for(self, g: Graph) -> None:
        if not (0 <= self.vertex < g.n):
            raise InvalidSplitError(f"vertex {self.vertex} out of range")
        nbrs = g.neighbors(self.vertex)
        if not self.part_one or not self.part_one < nbrs:
            raise InvalidSplitError(
                "part_one must be a non-empty proper subset of the "
                f"neighborhood of {self.vertex}"
            )


class InvalidSplitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graph6 encoding (McKay's format, n <= 62, one graph per line)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Encode as a canonical-length graph6 string (no header, no newline).

    Bit order follows the format: columns of the upper triangle, i.e.
    pairs (0,1), (0,2), (1,2), (0,3), ...
    """
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 output limited to n <= {GRAPH6_MAX_N}")
    out = [chr(n + 63)]
    bits = 0
    nbits = 0
    for v in range(1, n):
        for u in range(v):
            bits = (bits << 1) | (1 if g.has_edge(u, v) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    """Parse one graph6 line into a Graph.

    Accepts an optional '>>graph6<<' header and surrounding whitespace.
    Raises Graph6Error with a byte offset on malformed input.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error(
            f"multi-byte vertex counts (n > {GRAPH6_MAX_N}) not supported", 0
        )
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid size byte {s[0]!r}", 0)
    n = first - 63
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated graph6 string: need {need} data bytes, got {len(body)}",
            len(s),
        )
    if len(body) > need:
        raise Graph6Error("trailing bytes after graph6 data", 1 + need)
    edges = []
    bitpos = 0
    for v in range(1, n):
        for u in range(v):
            byte = ord(body[bitpos // 6])
            if not 63 <= byte <= 126:
                raise Graph6Error(
                    f"invalid data byte {body[bitpos // 6]!r}", 1 + bitpos // 6
                )
            if (byte - 63) >> (5 - bitpos % 6) & 1:
                edges.append((u, v))
            bitpos += 1
    # padding bits must be zero
    if bitpos % 6:
        byte = ord(body[-1]) - 63
        if byte & ((1 << (6 - bitpos % 6)) - 1):
            raise Graph6Error("nonzero padding bits", len(s) - 1)
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Degree-based queries and constructions
# ---------------------------------------------------------------------------


def is_overfull(g: Graph) -> bool:
    """True iff the graph has more edges than Delta * floor(n/2).

    Any proper edge coloring needs each color class to be a matching of at
    most floor(n/2) edges, so an overfull graph cannot be Delta-colored.
    Only odd-order graphs can be overfull.
    """
    return g.edge_count() > g.max_degree() * (g.n // 2)


def split_vertex(g: Graph, spec: SplitSpec) -> Graph:
    """Split a vertex in two adjacent copies partitioning its neighborhood.

    The first copy keeps the original index and is joined to part_one; the
    second copy gets the new index n and is joined to the rest. The copies
    are adjacent, so the edge count grows by one.
    """
    spec.validate_for(g)
    v = spec.vertex
    v2 = g.n
    edges = [e for e in g.edges() if v not in e]
    for u in g.neighbors(v):
        edges.append((v, u) if u in spec.part_one else (v2, u))
    edges.append((v, v2))
    return Graph(g.n + 1, edges)


def full_deficiency_pairs(g: Graph) -> list[tuple[int, int]]:
    """All adjacent pairs (u, v), u < v, with d(u) + d(v) = Delta + 2."""
    target = g.max_degree() + 2
    return [
        (u, v)
        for u, v in g.edges()
        if g.degree(u) + g.degree(v) == target
    ]


def meets_degree_bound(delta: int, n: int) -> bool:
    """The paper's degree bound Delta >= 3(n - 1)/4, in integers."""
    return 4 * delta >= 3 * (n - 1)


def near_full_vertices(g: Graph, a: int, b: int) -> list[int]:
    """The vertices outside the pair {a, b} with degree Delta - 1."""
    target = g.max_degree() - 1
    return [x for x in range(g.n) if x not in (a, b) and g.degree(x) == target]


# ---------------------------------------------------------------------------
# Built-in fixtures (vertex numbering fixed so graph6 output is reproducible)
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube_graph(d: int) -> Graph:
    n = 1 << d
    return Graph(
        n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    )


def petersen_graph() -> Graph:
    """Outer cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def pstar_graph() -> Graph:
    """Petersen graph minus vertex 0; old vertex v becomes v - 1."""
    pet = petersen_graph()
    return Graph(9, [(u - 1, v - 1) for u, v in pet.edges() if 0 not in (u, v)])


def splitk4_graph() -> Graph:
    """K4 split at vertex 0 with part_one = {1}."""
    return split_vertex(complete_graph(4), SplitSpec(0, frozenset({1})))


_FIXTURES = {
    "triangle": lambda: complete_graph(3),
    "k3": lambda: complete_graph(3),
    "k4": lambda: complete_graph(4),
    "k5": lambda: complete_graph(5),
    "k6": lambda: complete_graph(6),
    "k7": lambda: complete_graph(7),
    "c4": lambda: cycle_graph(4),
    "c5": lambda: cycle_graph(5),
    "c7": lambda: cycle_graph(7),
    "petersen": petersen_graph,
    "pstar": pstar_graph,
    "splitk4": splitk4_graph,
    "cube": lambda: hypercube_graph(3),
}


def builtin_fixture(name: str) -> Graph:
    """Look up a named fixture graph; raises KeyError on unknown names."""
    try:
        factory = _FIXTURES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; known: {', '.join(sorted(_FIXTURES))}"
        ) from None
    return factory()


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)

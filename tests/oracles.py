"""Independent oracles kept in the test tree.

Both counting routes are deliberately separate from the library's
enumeration: a labeled brute force over every edge subset with
permutation-minimum dedup, and the orbit-counting (Burnside) formula over
the symmetric group acting on vertex pairs. The reference lemma sweep runs
every structure check on every seed's coloring, apart from the library
sweep's one pass per color class. The reference solver wrappers rebuild
each colouring the long way: a validated relabelled `Graph`, one checked
`color_edge` per edge, `validate()`, and an edge-by-edge copy onto G; the
search itself is checked against a plain recursion over the edges, and
its vertex ranking against the plain scan it replaced. The pair
identification of the full-deficiency theorem is rebuilt as a networkx
contraction.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import factorial

import networkx as nx

from kempe.classify import _search
from kempe.coloring import PartialEdgeColoring
from kempe.graph import Graph, edge_key, full_deficiency_pairs
from kempe.harness import SWEEP_CHECKS
from kempe.report import vacuous
from kempe.structures import (
    check_fan_lemmas,
    check_fork_absence,
    check_fulldpair_lemma,
    check_k5_claims,
    check_kierstead4,
    check_kite,
    check_shortkite,
    check_val,
    find_kierstead_paths,
    find_structure_witnesses,
    grow_multifan,
)


def bruteforce_unlabeled_count(n: int) -> int:
    """Count graphs on n vertices up to isomorphism by brute force over all
    labeled graphs, deduplicating by the minimum edge-set encoding over
    every vertex permutation. Feasible for n <= 5."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    seen = set()
    for bits in range(1 << len(pairs)):
        best = None
        for perm in perms:
            relabeled = 0
            for i, (u, v) in enumerate(pairs):
                if bits >> i & 1:
                    pu, pv = perm[u], perm[v]
                    relabeled |= 1 << index[(min(pu, pv), max(pu, pv))]
            if best is None or relabeled < best:
                best = relabeled
        seen.add(best)
    return len(seen)


def burnside_unlabeled_count(n: int) -> int:
    """Count graphs on n vertices up to isomorphism via orbit counting:
    average over all vertex permutations of 2^(pair-cycles)."""
    pairs = list(combinations(range(n), 2))
    total = 0
    for perm in permutations(range(n)):
        remaining = set(pairs)
        cycles = 0
        while remaining:
            start = next(iter(remaining))
            cur = start
            cycles += 1
            while True:
                remaining.discard(cur)
                u, v = perm[cur[0]], perm[cur[1]]
                cur = (min(u, v), max(u, v))
                if cur == start:
                    break
        total += 1 << cycles
    count, rem = divmod(total, factorial(n))
    assert rem == 0
    return count


# A000088: graphs on n unlabeled vertices
KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def reference_lemma_sweep(corpus, seeds, coloring):
    """The lemma sweep with no memo: every check runs on `coloring(g, e,
    seed=seed)` for every edge and seed, and each report is merged in the
    order it is made. Returns the reports in `SWEEP_CHECKS` order and the
    (g, e, seed, path, coloring) instances whose 5-vertex path meets the
    overlap-3 hypothesis."""
    acc = {}
    instances = []

    def add(rep):
        acc[rep.check] = acc[rep.check].merge(rep) if rep.check in acc else rep

    for g in corpus:
        for e in g.edges():
            add(check_val(g, e))
        for a, b in full_deficiency_pairs(g):
            add(check_fulldpair_lemma(g, a, b))
        for e in g.edges():
            for seed in range(seeds):
                col = coloring(g, e, seed=seed)
                for r, s1 in (e, e[::-1]):
                    add(check_fan_lemmas(col, grow_multifan(col, r, s1)))
                for kp in find_kierstead_paths(col, 3):
                    add(check_kierstead4(col, kp))
                for kp in find_kierstead_paths(col, 4):
                    rep = check_k5_claims(col, kp)
                    add(rep)
                    if rep.details["overlap3_met"]:
                        instances.append((g, e, seed, kp, col))
                for wit in find_structure_witnesses(col, "shortkite"):
                    add(check_shortkite(col, wit))
                for wit in find_structure_witnesses(col, "kite"):
                    add(check_kite(col, wit))
                add(check_fork_absence(col))
    reports = [
        acc.get(name) or vacuous(name, reason="no-instances-in-corpus")
        for name in SWEEP_CHECKS
    ]
    return reports, instances


def bruteforce_edge_colorable(g, k):
    """Does g have a proper edge colouring with k colours? Plain recursion
    over g's edges in order, each trying every colour that neither end has
    yet: no edge ordering, no pruning and no symmetry breaking."""
    edges = g.edges()
    used = [0] * g.n  # bit c: colour c is on an edge at the vertex

    def extend(i):
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(k):
            bit = 1 << c
            if not (used[u] | used[v]) & bit:
                used[u] |= bit
                used[v] |= bit
                if extend(i + 1):
                    return True
                used[u] ^= bit
                used[v] ^= bit
        return False

    return extend(0)


def reference_find_edge_coloring(g, k, seed=None):
    """`find_edge_coloring` without a node budget, the colouring rebuilt
    the long way around the library's `_search`: a seed relabels g into a
    new validated `Graph`, and each found colour goes in by `color_edge`,
    in the sorted order of the searched graph's edges. It calls the same
    `_search`, so it checks the relabelling and the building of the
    result, not the search; `bruteforce_edge_colorable` checks that."""
    if g.edge_count() == 0:
        return PartialEdgeColoring(g, k)
    if g.max_degree() > k or g.edge_count() > k * (g.n // 2):
        return None
    col = PartialEdgeColoring(g, k)
    h, label = g, list(range(g.n))
    if seed is not None:
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for v, pv in enumerate(perm):
            label[pv] = v
    assignment = _search(h.n, h.edges(), k, 10**9)
    if assignment is None:
        return None
    for (u, v), c in sorted(assignment.items()):
        col.color_edge((label[u], label[v]), c)
    if not col.validate():
        raise AssertionError("improper reference colouring")
    return col


def reference_delta_coloring_of_minus_e(g, e, seed=0):
    """`delta_coloring_of_minus_e` the long way: G - e rebuilt from its
    edge list, solved by `reference_find_edge_coloring`, and its colours
    copied onto G one `color_edge` at a time in sorted edge order."""
    e = edge_key(*e)
    delta = g.max_degree()
    base = reference_find_edge_coloring(
        Graph(g.n, [f for f in g.edges() if f != e]), delta, seed
    )
    if base is None:
        raise ValueError(f"no {delta}-coloring of the graph minus {e}")
    col = PartialEdgeColoring(g, delta)
    for f, c in sorted(base.colored_edges().items()):
        col.color_edge(f, c)
    if col.uncolored_edges() != [e]:
        raise AssertionError("reference colouring is not full off e")
    return col


def reference_degeneracy_rank(n, edges):
    """The solver's vertex ranking by iterated minimum-degree removal, as a
    plain scan: each step removes the first vertex of least degree from the
    list of the remaining ones."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(s) for s in nbrs]
    alive = list(range(n))
    rank = [0] * n
    for r in range(n):
        v = min(alive, key=deg.__getitem__)
        alive.remove(v)
        rank[v] = r
        for w in nbrs[v]:
            if w in alive:
                deg[w] -= 1
    return rank


def identified_pair_is_regular_and_proper(col, a, b):
    """Identify a and b in G - ab the long way: a networkx `MultiGraph` of
    the colored edges of `col` (every edge of G but ab), each carrying its
    color, with b contracted into a. Returns (the multigraph is
    Delta-regular, no color repeats at any of its vertices)."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(range(col.graph.n))
    for (u, v), c in col.colored_edges().items():
        mg.add_edge(u, v, color=c)
    merged = nx.contracted_nodes(mg, a, b, self_loops=False)
    delta = col.graph.max_degree()
    regular = all(d == delta for _, d in merged.degree())
    colors_at = {v: [c for _, _, c in merged.edges(v, data="color")] for v in merged}
    proper = all(len(cs) == len(set(cs)) for cs in colors_at.values())
    return regular, proper

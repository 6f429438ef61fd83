"""Detectors for colored structures rooted at an uncolored edge: multifans,
Kierstead paths, short-kites, kites, forks — and the conclusion checks the
theory promises for each of them in a Class 2 graph with a critical edge.

All detectors are pure functions of (coloring, anchors); re-validation of a
returned structure is independent of the search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import PartialEdgeColoring
from .graph import Graph, edge_key, meets_degree_bound, near_full_vertices
from .report import VerificationReport, failing, passing, vacuous


class AmbiguityError(ValueError):
    """A non-elementary multifan has no unique sequence decomposition."""

    def __init__(self, conflicts: list[tuple[int, int, int]]):
        self.conflicts = conflicts
        super().__init__(
            "multifan is not elementary; shared missing colors: "
            + ", ".join(f"color {c} at {u} and {v}" for c, u, v in conflicts)
        )


@dataclass(frozen=True)
class Multifan:
    """Fan at a center rooted at the uncolored edge: leaves[0] is the root
    leaf, and each later leaf's spoke color is missing at an earlier leaf."""

    center: int
    leaves: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return (self.center,) + self.leaves

    def validate(self, col: PartialEdgeColoring) -> None:
        r = self.center
        if len(set(self.vertices)) != len(self.vertices):
            raise AssertionError("fan vertices not distinct")
        if col.is_colored((r, self.leaves[0])):
            raise AssertionError("root spoke must be uncolored")
        for i, s in enumerate(self.leaves):
            if i == 0:
                continue
            c = col.color_of((r, s))
            if c is None:
                raise AssertionError(f"spoke to {s} is uncolored")
            if not any(col.is_missing(self.leaves[j], c) for j in range(i)):
                raise AssertionError(
                    f"spoke color {c} at leaf {s} missing at no earlier leaf"
                )


@dataclass(frozen=True)
class AlphaSequence:
    """Leaves induced by one color missing at the root leaf, in fan order."""

    anchor: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class KiersteadPath:
    """Path rooted at the uncolored edge where each edge's color is missing
    at an earlier path vertex (the first vertex included)."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def validate(self, col: PartialEdgeColoring) -> None:
        vs = self.vertices
        if len(set(vs)) != len(vs):
            raise AssertionError("path vertices not distinct")
        if col.is_colored((vs[0], vs[1])):
            raise AssertionError("root edge must be uncolored")
        if not _kierstead_ok(col, vs):
            raise AssertionError(
                "an edge is uncolored or its color is missing at no earlier vertex"
            )


@dataclass(frozen=True)
class StructureWitness:
    """A located short-kite / kite / fork: role name -> vertex."""

    kind: str
    roles: dict[str, int]

    def role_tuple(self, *names: str) -> tuple[int, ...]:
        return tuple(self.roles[n] for n in names)


# ---------------------------------------------------------------------------
# Multifans
# ---------------------------------------------------------------------------


def grow_multifan(col: PartialEdgeColoring, r: int, s1: int) -> Multifan:
    """Greedy closure of the fan at r rooted at the uncolored spoke r-s1:
    repeatedly add the smallest neighbor whose spoke color is missing on
    the current leaf set. The result is maximal for this rule; validation
    checks the fan condition, not a canonical shape."""
    if col.is_colored((r, s1)):
        raise ValueError(f"spoke {r}-{s1} must be uncolored")
    g = col.graph
    leaves = [s1]
    in_fan = {r, s1}
    missing_mask = col.missing_mask(s1)
    grew = True
    while grew:
        grew = False
        for z in sorted(g.neighbors(r)):
            if z in in_fan:
                continue
            c = col.color_of((r, z))
            if c is not None and missing_mask >> (c - 1) & 1:
                leaves.append(z)
                in_fan.add(z)
                missing_mask |= col.missing_mask(z)
                grew = True
                break
    fan = Multifan(r, tuple(leaves))
    fan.validate(col)
    return fan


def alpha_sequences(
    col: PartialEdgeColoring, fan: Multifan
) -> tuple[list[AlphaSequence], set[tuple[int, int]]]:
    """Partition the non-root leaves into the sequences induced by the
    root leaf's missing colors, plus the strict precedence between induced
    colors.

    Requires an elementary fan (otherwise the decomposition is ambiguous
    and AmbiguityError lists the shared colors). The precedence contains
    (d, b) whenever some sequence realizes d strictly before b, and every
    anchor precedes all other colors it induces.
    """
    conflicts = []
    owner: dict[int, int] = {}
    for v in fan.vertices:
        for c in col.missing(v):
            if c in owner:
                conflicts.append((c, owner[c], v))
            else:
                owner[c] = v
    if conflicts:
        raise AmbiguityError(conflicts)

    r = fan.center
    s1 = fan.leaves[0]
    anchor_of_vertex: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for i, s in enumerate(fan.leaves):
        if i == 0:
            continue
        c = col.color_of((r, s))
        own = owner.get(c)
        if own == s1:
            anchor_of_vertex[s] = c
            parent[s] = None
        elif own in anchor_of_vertex:
            anchor_of_vertex[s] = anchor_of_vertex[own]
            parent[s] = own
        else:  # pragma: no cover - excluded by fan validation + elementary
            raise AssertionError(f"spoke color {c} owned by no earlier leaf")

    sequences = []
    for alpha in sorted(col.missing(s1)):
        members = tuple(
            s for s in fan.leaves[1:] if anchor_of_vertex.get(s) == alpha
        )
        if members:
            sequences.append(AlphaSequence(alpha, members))

    # color precedence: anchors first, then ancestor relations in the
    # induction forest
    precedes: set[tuple[int, int]] = set()
    for seq in sequences:
        for v in seq.vertices:
            for c in col.missing(v):
                precedes.add((seq.anchor, c))

    def ancestors(v: int) -> list[int]:
        out = []
        p = parent.get(v)
        while p is not None:
            out.append(p)
            p = parent.get(p)
        return out

    for v in fan.leaves[1:]:
        for anc in ancestors(v):
            for d in col.missing(anc):
                for b in col.missing(v):
                    precedes.add((d, b))
    return sequences, precedes


def check_fan_lemmas(
    col: PartialEdgeColoring, fan: Multifan
) -> VerificationReport:
    """Verify the multifan package for one fan: the vertex set is
    elementary; the center is linked to every leaf on every (center-missing,
    leaf-missing) color pair; and for leaf color pairs, different inducers
    force linkage while same-inducer unlinked pairs route their chain
    through the center. Linkage is read only on an elementary fan, whose
    vertices have pairwise disjoint missing sets, so the two colors of
    every pair it reads differ."""
    check = "multifan-lemmas"
    r = fan.center

    def fail(clause: str, **info) -> VerificationReport:
        return failing(check, col, clause=clause, fan=list(fan.vertices), **info)

    if not col.is_elementary(fan.vertices):
        return fail("elementary")

    for alpha in sorted(col.missing(r)):
        for s in fan.leaves:
            for beta in sorted(col.missing(s)):
                if not col.are_linked(r, s, alpha, beta):
                    return fail(
                        "center-leaf-linkage", alpha=alpha, beta=beta, leaf=s
                    )

    seqs, precedes = alpha_sequences(col, fan)
    anchor: dict[int, int] = {}
    for seq in seqs:
        for v in seq.vertices:
            for c in col.missing(v):
                anchor[c] = seq.anchor
    for c in sorted(col.missing(fan.leaves[0])):
        anchor.setdefault(c, c)

    leaves = fan.leaves
    pairs_checked = 0
    for i, si in enumerate(leaves):
        for j, sj in enumerate(leaves):
            if i == j:
                continue
            for delta in sorted(col.missing(si)):
                for lam in sorted(col.missing(sj)):
                    pairs_checked += 1
                    linked = col.are_linked(si, sj, delta, lam)
                    if anchor[delta] != anchor[lam]:
                        if not linked:
                            return fail(
                                "distinct-inducer-linkage",
                                delta=delta, lam=lam, si=si, sj=sj,
                            )
                    elif (delta, lam) in precedes and not linked:
                        chain = col.chain_through(sj, lam, delta)
                        if r not in chain.vertices:
                            return fail(
                                "same-inducer-center-route",
                                delta=delta, lam=lam, si=si, sj=sj,
                            )
    return passing(check, pairs=pairs_checked)


# ---------------------------------------------------------------------------
# Kierstead paths
# ---------------------------------------------------------------------------


def _kierstead_ok(col: PartialEdgeColoring, vertices: tuple[int, ...]) -> bool:
    """The Kierstead condition: every edge after the root edge is colored
    with a color missing at an earlier vertex of the sequence (the root
    edge itself is not looked at)."""
    missing = col.missing_mask(vertices[0]) | col.missing_mask(vertices[1])
    for i in range(2, len(vertices)):
        c = col.color_of((vertices[i - 1], vertices[i]))
        if c is None or not missing >> (c - 1) & 1:
            return False
        missing |= col.missing_mask(vertices[i])
    return True


def _single_uncolored(col: PartialEdgeColoring) -> tuple[int, int]:
    uncolored = col.uncolored_edges()
    if len(uncolored) != 1:
        raise ValueError("coloring must have exactly one uncolored edge")
    return uncolored[0]


def find_kierstead_paths(
    col: PartialEdgeColoring, p: int
) -> list[KiersteadPath]:
    """All Kierstead paths with p+1 vertices rooted at the coloring's
    single uncolored edge, trying both orientations of that edge."""
    if not 1 <= p <= 4:
        raise ValueError("supported path lengths: p in 1..4")
    u, v = _single_uncolored(col)
    g = col.graph
    out = []

    def extend(path: list[int], missing_mask: int) -> None:
        if len(path) == p + 1:
            out.append(KiersteadPath(tuple(path)))
            return
        last = path[-1]
        for z in sorted(g.neighbors(last)):
            if z in path:
                continue
            c = col.color_of((last, z))
            if c is not None and missing_mask >> (c - 1) & 1:
                extend(path + [z], missing_mask | col.missing_mask(z))

    for v0, v1 in ((u, v), (v, u)):
        if p == 1:
            out.append(KiersteadPath((v0, v1)))
        else:
            extend([v0, v1], col.missing_mask(v0) | col.missing_mask(v1))
    for kp in out:
        kp.validate(col)
    return out


def check_kierstead4(
    col: PartialEdgeColoring, kp: KiersteadPath
) -> VerificationReport:
    """Four-vertex Kierstead path facts: when a middle vertex has degree
    below Delta the path's vertex set is elementary, and the far end
    shares at most one missing color with the root pair.

    The elementary clause keys on the two middle vertices (positions 1 and
    2); keying on the far pair admits concrete counterexamples on critical
    hosts, and the lemma's own application supplies exactly the middle
    degrees."""
    check = "kierstead4"
    if len(kp) != 4:
        raise ValueError("expected a 4-vertex path")
    v0, v1, v2, v3 = kp.vertices
    g = col.graph
    delta = g.max_degree()

    overlap = col.missing(v3) & (col.missing(v0) | col.missing(v1))
    elementary_required = min(g.degree(v1), g.degree(v2)) < delta
    ok_a = (not elementary_required) or col.is_elementary(kp.vertices)
    ok_b = len(overlap) <= 1
    if ok_a and ok_b:
        return passing(check, elementary_cases=int(elementary_required))
    return failing(
        check,
        col,
        clause="elementary" if not ok_a else "overlap-bound",
        path=list(kp.vertices),
        overlap=sorted(overlap),
    )


def check_k5_claims(
    col: PartialEdgeColoring, kp: KiersteadPath
) -> VerificationReport:
    """Five-vertex Kierstead path degree facts.

    When the far end shares at least 3 missing colors with the root pair,
    the second and third vertices must have full degree. With overlap at
    least 4 and a companion 3-edge path to a vertex x whose missing set
    sits inside the root pair's, x must have full degree too."""
    check = "kierstead5-degrees"
    if len(kp) != 5:
        raise ValueError("expected a 5-vertex path")
    a, b, u, s, t = kp.vertices
    g = col.graph
    delta = g.max_degree()
    root_missing = col.missing(a) | col.missing(b)
    overlap = col.missing(t) & root_missing

    details = {"overlap3_met": 0, "companion_met": 0}

    if len(overlap) >= 3:
        details["overlap3_met"] = 1
        if g.degree(b) != delta or g.degree(u) != delta:
            return failing(
                check,
                col,
                details=details,
                clause="inner-degrees",
                path=list(kp.vertices),
                degrees=[g.degree(b), g.degree(u)],
            )

    if len(overlap) >= 4:
        for x in sorted(g.neighbors(u)):
            if x in kp.vertices:
                continue
            if not _kierstead_ok(col, (a, b, u, x)):
                continue  # (a, b, u, x) is not a Kierstead path
            if not col.missing(x) <= root_missing:
                continue
            details["companion_met"] += 1
            if g.degree(x) != delta:
                return failing(
                    check,
                    col,
                    details=details,
                    clause="companion-degree",
                    path=list(kp.vertices),
                    x=x,
                    degree=g.degree(x),
                )
    if details["overlap3_met"]:  # overlap 4 implies overlap 3
        return passing(check, **details)
    return vacuous(check, **details)

# ---------------------------------------------------------------------------
# Short-kites, kites, forks
# ---------------------------------------------------------------------------


def find_structure_witnesses(
    col: PartialEdgeColoring, kind: str
) -> list[StructureWitness]:
    """All embeddings of the requested pattern rooted at the uncolored edge
    that also meet the pattern's color conditions.

    Witnesses are labeled tuples, deduplicated only under pattern
    automorphisms that preserve the conditions (arm swaps when both arm
    assignments qualify)."""
    finders = {
        "shortkite": _find_shortkites,
        "kite": _find_kites,
        "fork": _find_forks,
    }
    try:
        finder = finders[kind]
    except KeyError:
        raise ValueError(f"unknown structure kind {kind!r}") from None
    return finder(col)


# role names of each kind, in the order of its witness dicts
_ROLES = {
    "shortkite": ("a", "b", "c", "u", "x", "y"),
    "kite": ("a", "b", "c", "u", "s1", "s2", "t1", "t2"),
    "fork": ("a", "b", "u", "s1", "s2", "t1", "t2"),
}


def _witness(kind: str, *vertices: int) -> StructureWitness:
    return StructureWitness(kind, dict(zip(_ROLES[kind], vertices)))


def _kite_cores(col: PartialEdgeColoring):
    """The cores (a, b, c, u) of short-kites and kites: ab is the uncolored
    edge in either orientation, c a neighbor of a, u a common neighbor of
    b and c."""
    g = col.graph
    e = _single_uncolored(col)
    for a, b in (e, e[::-1]):
        for c in sorted(g.neighbors(a) - {b}):
            for u in sorted((g.neighbors(b) & g.neighbors(c)) - {a}):
                yield a, b, c, u


def _drop_arm_swaps(valid: set[tuple]) -> list[tuple]:
    """The arm assignments (p, q) in sorted order, keeping one of each
    swapped pair: (p, q) goes when (q, p) is valid too and q < p."""
    return [(p, q) for p, q in sorted(valid) if not ((q, p) in valid and q < p)]


def _find_shortkites(col: PartialEdgeColoring) -> list[StructureWitness]:
    g = col.graph
    found: list[StructureWitness] = []
    for a, b, c, u in _kite_cores(col):
        tips = sorted(g.neighbors(u) - {a, b, c})
        if len(tips) < 2:
            continue  # a short-kite has two tips
        xs = [x for x in tips if _kierstead_ok(col, (a, b, u, x))]
        ys = [y for y in tips if _kierstead_ok(col, (b, a, c, u, y))]
        valid = {(x, y) for x in xs for y in ys if x != y}
        for x, y in _drop_arm_swaps(valid):
            found.append(_witness("shortkite", a, b, c, u, x, y))
    return found


def _find_kites(col: PartialEdgeColoring) -> list[StructureWitness]:
    g = col.graph
    if g.n < 8:
        return []  # a kite has eight distinct vertices
    found: list[StructureWitness] = []
    for a, b, c, u in _kite_cores(col):
        core = {a, b, c, u}
        arms = [
            (s, t, col.color_of((s, t)))
            for s in sorted(g.neighbors(u) - core)
            for t in sorted(g.neighbors(s) - core)
        ]
        # the cheap color test first: it rejects most arm pairs
        valid = {
            ((s1, t1), (s2, t2))
            for s1, t1, c1 in arms
            for s2, t2, c2 in arms
            if c1 == c2
            and len({s1, t1, s2, t2}) == 4
            and _kierstead_ok(col, (a, b, u, s1, t1))
            and _kierstead_ok(col, (b, a, c, u, s2, t2))
        }
        for (s1, t1), (s2, t2) in _drop_arm_swaps(valid):
            found.append(_witness("kite", a, b, c, u, s1, s2, t1, t2))
    return found


def _fork_shapes(col: PartialEdgeColoring):
    """Every fork-shaped tuple (a, b, u, s1, s2, t1, t2) at the uncolored
    edge ab, both orientations: u a neighbor of b, arms u-s1-t1 and
    u-s2-t2, seven distinct vertices, each arm pair once (s1 < s2). They
    come in the order of (u, s1, t1, s2, t2)."""
    g = col.graph
    e = _single_uncolored(col)
    for a, b in (e, e[::-1]):
        for u in sorted(g.neighbors(b) - {a}):
            for s1 in sorted(g.neighbors(u) - {a, b}):
                for t1 in sorted(g.neighbors(s1) - {a, b, u}):
                    for s2 in sorted(g.neighbors(u) - {a, b, s1, t1}):
                        if s2 < s1:
                            continue  # arms are interchangeable
                        for t2 in sorted(g.neighbors(s2) - {a, b, u, s1, t1}):
                            yield a, b, u, s1, s2, t1, t2


def _is_fork(col: PartialEdgeColoring, roles: tuple[int, ...]) -> bool:
    """The fork's color conditions: bu's color is missing at a, the four
    arm edges' colors at a or b, and each arm tip misses the color of the
    other arm's tip edge."""
    a, b, u, s1, s2, t1, t2 = roles
    fu = col.color_of((b, u))
    if fu is None or not col.is_missing(a, fu):
        return False
    root_missing = col.missing_mask(a) | col.missing_mask(b)
    for e in ((u, s1), (s1, t1), (u, s2), (s2, t2)):
        c = col.color_of(e)
        if c is None or not root_missing >> (c - 1) & 1:
            return False
    c1, c2 = col.color_of((s1, t1)), col.color_of((s2, t2))
    return col.is_missing(t2, c1) and col.is_missing(t1, c2)


def _find_forks(col: PartialEdgeColoring) -> list[StructureWitness]:
    shapes = _fork_shapes(col)
    return [_witness("fork", *roles) for roles in shapes if _is_fork(col, roles)]


def check_shortkite(
    col: PartialEdgeColoring, wit: StructureWitness
) -> VerificationReport:
    """Short-kite conclusion: when both far vertices' missing colors sit
    inside the root pair's, one of them must have full degree."""
    check = "shortkite-max-degree"
    g = col.graph
    a, b, x, y = wit.role_tuple("a", "b", "x", "y")
    root_missing = col.missing(a) | col.missing(b)
    if not (col.missing(x) | col.missing(y)) <= root_missing:
        return vacuous(check)
    delta = g.max_degree()
    if max(g.degree(x), g.degree(y)) == delta:
        return passing(check)
    return failing(check, col, witness=wit.roles, degrees=[g.degree(x), g.degree(y)])


def check_kite(col: PartialEdgeColoring, wit: StructureWitness) -> VerificationReport:
    """Kite conclusion: with equal arm-tip edge colors, the two far tips
    share at most 4 missing colors inside the root pair's missing set."""
    check = "kite-overlap-bound"
    a, b, s1, s2, t1, t2 = wit.role_tuple("a", "b", "s1", "s2", "t1", "t2")
    if col.color_of((s1, t1)) != col.color_of((s2, t2)):
        return vacuous(check)
    shared = (
        col.missing(t1)
        & col.missing(t2)
        & (col.missing(a) | col.missing(b))
    )
    if len(shared) <= 4:
        return passing(check, shared=len(shared))
    return failing(check, col, witness=wit.roles, shared=sorted(shared))


def check_fork_absence(col: PartialEdgeColoring) -> VerificationReport:
    """No fork may exist whose root and far tips have small degree sum:
    whenever Delta >= d(a) + d(t1) + d(t2) + 1, the color conditions must
    fail for every fork-shaped tuple."""
    check = "fork-absence"
    g = col.graph
    delta = g.max_degree()
    candidates = 0
    for roles in _fork_shapes(col):
        a, *_, t1, t2 = roles
        if delta < g.degree(a) + g.degree(t1) + g.degree(t2) + 1:
            continue
        candidates += 1
        if _is_fork(col, roles):
            return failing(check, col, witness=dict(zip(_ROLES["fork"], roles)))
    if candidates == 0:
        return vacuous(check)
    return passing(check, candidates=candidates)


# ---------------------------------------------------------------------------
# Degree lemmas on the bare graph
# ---------------------------------------------------------------------------


def check_val(g: Graph, e: tuple[int, int]) -> VerificationReport:
    """Vizing's Adjacency Lemma at a critical edge xy: x has at least
    Delta - d(y) + 1 neighbors of degree Delta besides y, and symmetrically."""
    check = "val"
    x, y = edge_key(*e)
    delta = g.max_degree()
    for u, v in ((x, y), (y, x)):
        needed = delta - g.degree(v) + 1
        have = sum(1 for z in g.neighbors(u) - {v} if g.degree(z) == delta)
        if have < needed:
            return failing(
                check, g, edge=[x, y], vertex=u, delta_neighbors=have, needed=needed
            )
    return passing(check)


def check_parity(col: PartialEdgeColoring) -> VerificationReport:
    """In a full coloring, each color is missing at a vertex count with the
    parity of n (the color class is a matching saturating the rest).

    One pass: bit c - 1 of the XOR of the missing masks is the parity of
    the count missing c, and an odd n flips every bit, so a set bit marks
    a color with the wrong parity; the least one is reported."""
    check = "parity"
    if col.uncolored_count():
        raise ValueError("parity check requires a full coloring")
    n = col.graph.n
    wrong = (1 << col.k) - 1 if n % 2 else 0
    for v in range(n):
        wrong ^= col.missing_mask(v)
    if wrong:
        c = (wrong & -wrong).bit_length()
        cnt = sum(1 for v in range(n) if col.is_missing(v, c))
        return failing(check, col, color=c, missing_count=cnt)
    return passing(check, colors=col.k)


def check_fulldpair_lemma(g: Graph, a: int, b: int) -> VerificationReport:
    """Degree structure around a full-deficiency pair (a, b) of a Class 2
    graph in which the edge ab is critical. The caller supplies those two
    facts, as the lemma sweep does with the Delta-critical corpus; this
    check tests only that ab is an edge with d(a) + d(b) = Delta + 2, and
    makes no solver call. Then:

    (i)   every other neighbor of a or b has full degree;
    (ii)  vertices at distance 2 from {a, b} have degree >= Delta - 1
          (= Delta when both a and b have degree < Delta);
    (iii) the same lower bounds for vertices of degree >= n - |N(a) u N(b)|;
    (iv)  a single deficient vertex outside {a, b} is impossible;
    and, when Delta >= 3(n-1)/4, at most one vertex outside the pair has
    degree Delta - 1.

    (iii) is not tested apart, for (i) and (ii) imply it: a vertex at
    distance 3 or more from {a, b} has its neighbors among the
    n - |N(a) u N(b)| - 1 other vertices outside N(a) u N(b), so it stays
    below the threshold, and every vertex that reaches it was bounded by
    (i) or (ii) with the same bounds.
    """
    check = "full-deficiency-pair"
    delta = g.max_degree()
    if not (g.has_edge(a, b) and g.degree(a) + g.degree(b) == delta + 2):
        return vacuous(check, reason="hypothesis-unmet")

    def fail(clause: str, **info) -> VerificationReport:
        return failing(check, g, clause=clause, pair=[a, b], **info)

    joint = (g.neighbors(a) | g.neighbors(b)) - {a, b}
    for x in sorted(joint):
        if g.degree(x) != delta:
            return fail("joint-neighborhood-degree", x=x, degree=g.degree(x))

    both_deficient = g.degree(a) < delta and g.degree(b) < delta
    ring = set().union(*map(g.neighbors, joint)) - joint - {a, b}
    for x in sorted(ring):
        if g.degree(x) < delta - 1:
            return fail("distance2-degree", x=x, degree=g.degree(x))
        if both_deficient and g.degree(x) != delta:
            return fail("distance2-degree-strict", x=x, degree=g.degree(x))

    deficient = [
        x for x in range(g.n) if x not in (a, b) and g.degree(x) < delta
    ]
    if len(deficient) == 1:
        return fail("deficiency-pairing", x=deficient[0])

    details = {"corollary_met": 0}
    if meets_degree_bound(delta, g.n):
        details["corollary_met"] = 1
        near = near_full_vertices(g, a, b)
        if len(near) > 1:
            return fail("near-delta-uniqueness", vertices=near)
    return passing(check, **details)

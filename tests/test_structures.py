from __future__ import annotations

import ast
import hashlib
import json
import random
from collections import deque
from itertools import permutations
from pathlib import Path

import pytest

import kempe.classify
import kempe.structures
from kempe.classify import delta_coloring_of_minus_e, find_edge_coloring
from kempe.coloring import PartialEdgeColoring
from kempe.graph import (
    Graph, builtin_fixture, cycle_graph, from_graph6, full_deficiency_pairs, to_graph6,
)
from kempe.harness import enumerate_graphs
from kempe.structures import (
    AmbiguityError,
    KiersteadPath,
    StructureWitness,
    check_fan_lemmas,
    check_fork_absence,
    check_fulldpair_lemma,
    check_kierstead4,
    check_k5_claims,
    check_kite,
    check_parity,
    check_shortkite,
    check_val,
    find_kierstead_paths,
    find_structure_witnesses,
    grow_multifan,
    alpha_sequences,
)


def triangle_minus_ab() -> PartialEdgeColoring:
    col = PartialEdgeColoring(builtin_fixture("triangle"), 2)
    col.color_edge((0, 2), 1)
    col.color_edge((1, 2), 2)
    return col


# -- multifans ---------------------------------------------------------------


def test_grow_multifan_triangle():
    col = triangle_minus_ab()
    fan = grow_multifan(col, 0, 1)
    assert fan.center == 0 and fan.leaves == (1, 2)
    fan.validate(col)


def test_grow_multifan_base_case():
    g = Graph(3, [(0, 1), (0, 2)])
    col = PartialEdgeColoring(g, 2)
    col.color_edge((0, 2), 1)
    # spoke color 1 is not missing at leaf 1 only if 1 is present there;
    # leaf 1 has no colored edge, so the fan grows; use a color outside
    # the leaf's missing set instead
    col2 = PartialEdgeColoring(g, 1)
    col2.color_edge((0, 2), 1)
    fan = grow_multifan(col2, 0, 1)
    assert fan.leaves == (1, 2)
    lone = PartialEdgeColoring(Graph(2, [(0, 1)]), 1)
    fan = grow_multifan(lone, 0, 1)
    assert fan.leaves == (1,)


def test_multifan_elementary_on_pstar(pstar):
    for e in pstar.edges()[:4]:
        for seed in range(2):
            col = delta_coloring_of_minus_e(pstar, e, seed=seed)
            for r, s1 in (e, e[::-1]):
                fan = grow_multifan(col, r, s1)
                assert col.is_elementary(fan.vertices)
                rep = check_fan_lemmas(col, fan)
                assert rep.passed


def test_alpha_sequences_triangle():
    col = triangle_minus_ab()
    fan = grow_multifan(col, 0, 1)
    seqs, prec = alpha_sequences(col, fan)
    assert len(seqs) == 1
    assert seqs[0].anchor == 1 and seqs[0].vertices == (2,)
    assert prec == set()


def test_alpha_sequences_trivial_fan():
    p3 = Graph(3, [(0, 1), (1, 2)])
    col = PartialEdgeColoring(p3, 1)
    col.color_edge((1, 2), 1)
    fan = grow_multifan(col, 0, 1)
    assert fan.leaves == (1,)
    seqs, prec = alpha_sequences(col, fan)
    assert seqs == [] and prec == set()


def test_alpha_sequences_disjoint_anchors(pstar):
    """Sequences of different anchors never share vertices or colors."""
    seen_multi = 0
    for e in pstar.edges():
        for seed in range(4):
            col = delta_coloring_of_minus_e(pstar, e, seed=seed)
            for r, s1 in (e, e[::-1]):
                fan = grow_multifan(col, r, s1)
                seqs, _ = alpha_sequences(col, fan)
                if len(seqs) >= 2:
                    seen_multi += 1
                    vsets = [set(s.vertices) for s in seqs]
                    for i in range(len(vsets)):
                        for j in range(i + 1, len(vsets)):
                            assert not vsets[i] & vsets[j]
    assert seen_multi > 0


def test_alpha_sequences_ambiguity_error():
    col = PartialEdgeColoring(builtin_fixture("triangle"), 3)
    col.color_edge((0, 2), 1)
    col.color_edge((1, 2), 2)
    fan = grow_multifan(col, 0, 1)
    # k=3 gives both endpoints the shared missing color 3
    with pytest.raises(AmbiguityError):
        alpha_sequences(col, fan)


def test_fan_lemmas_negative_control():
    col = PartialEdgeColoring(builtin_fixture("triangle"), 3)
    col.color_edge((0, 2), 1)
    col.color_edge((1, 2), 2)
    fan = grow_multifan(col, 0, 1)
    rep = check_fan_lemmas(col, fan)
    assert not rep.passed
    assert rep.counterexample["clause"] == "elementary"


def test_fan_lemmas_triangle_linkage():
    col = triangle_minus_ab()
    fan = grow_multifan(col, 0, 1)
    rep = check_fan_lemmas(col, fan)
    assert rep.passed


def minus_e_host(graph6: str, e: tuple[int, int], seed: int) -> PartialEdgeColoring:
    """The seeded Delta-coloring of a graph minus e. The graphs below are
    not Delta-critical, so the lemmas need not hold on them."""
    return delta_coloring_of_minus_e(from_graph6(graph6), e, seed=seed)


@pytest.mark.parametrize(
    "graph6, e, seed, fan_vertices, clause, evidence, unlinked",
    [
        ("DEg", (0, 3), 1, [0, 3, 4], "center-leaf-linkage",
         {"alpha": 1, "beta": 2, "leaf": 3}, (0, 3, 1, 2)),
        ("FFzvg", (0, 3), 0, [3, 0, 2, 5, 6], "distinct-inducer-linkage",
         {"delta": 3, "lam": 5, "si": 0, "sj": 2}, (0, 2, 3, 5)),
        ("FEjro", (3, 5), 0, [3, 5, 1, 0, 6], "same-inducer-center-route",
         {"delta": 2, "lam": 4, "si": 5, "sj": 0}, (5, 0, 2, 4)),
    ],
    ids=["center-leaf", "distinct-inducer", "same-inducer"],
)
def test_fan_lemmas_linkage_clauses(
    graph6, e, seed, fan_vertices, clause, evidence, unlinked
):
    """Each linkage clause fails on an elementary fan of a graph that is
    not Delta-critical, and names two vertices that are really not linked
    on its two colors (`unlinked`)."""
    col = minus_e_host(graph6, e, seed)
    fan = grow_multifan(col, *fan_vertices[:2])
    assert list(fan.vertices) == fan_vertices and col.is_elementary(fan.vertices)
    rep = check_fan_lemmas(col, fan)
    assert not rep.passed
    assert rep.counterexample == {
        "graph6": graph6, "coloring": col.serialize(), "clause": clause,
        "fan": fan_vertices, **evidence,
    }
    assert not col.are_linked(*unlinked)
    if clause == "same-inducer-center-route":
        chain = col.chain_through(evidence["sj"], evidence["lam"], evidence["delta"])
        assert fan.center not in chain.vertices


# -- Kierstead paths ---------------------------------------------------------


def c5_setup() -> PartialEdgeColoring:
    col = PartialEdgeColoring(cycle_graph(5), 2)
    for e, c in {(1, 2): 1, (2, 3): 2, (3, 4): 1, (0, 4): 2}.items():
        col.color_edge(e, c)
    return col


def test_find_kierstead_paths_c5():
    col = c5_setup()
    quads = {kp.vertices for kp in find_kierstead_paths(col, 3)}
    assert (0, 1, 2, 3) in quads
    singles = {kp.vertices for kp in find_kierstead_paths(col, 1)}
    assert singles == {(0, 1), (1, 0)}


def naive_kierstead_paths(col: PartialEdgeColoring, p: int) -> set[tuple[int, ...]]:
    g = col.graph
    (e,) = col.uncolored_edges()
    out = set()
    for tup in permutations(range(g.n), p + 1):
        if {tup[0], tup[1]} != set(e):
            continue
        if any(not g.has_edge(tup[i], tup[i + 1]) for i in range(p)):
            continue
        ok = True
        for i in range(2, p + 1):
            c = col.color_of((tup[i - 1], tup[i]))
            if c is None or not any(
                col.is_missing(tup[j], c) for j in range(i)
            ):
                ok = False
                break
        if ok:
            out.add(tup)
    return out


def test_kierstead_paths_match_naive(pstar):
    rng = random.Random(3)
    hosts = [delta_coloring_of_minus_e(pstar, pstar.edges()[2], seed=1)]
    for _ in range(6):
        n = rng.randint(5, 7)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        g = Graph(n, edges)
        if not edges:
            continue
        e = edges[rng.randrange(len(edges))]
        base = find_edge_coloring(g.without_edge(e), g.max_degree(), seed=1)
        if base is None:
            continue
        col = PartialEdgeColoring(g, g.max_degree())
        for f, c in base.colored_edges().items():
            col.color_edge(f, c)
        hosts.append(col)
    for col in hosts:
        for p in (2, 3, 4):
            mine = {kp.vertices for kp in find_kierstead_paths(col, p)}
            assert mine == naive_kierstead_paths(col, p)


def test_check_kierstead4_c5():
    col = c5_setup()
    kp = KiersteadPath((0, 1, 2, 3))
    rep = check_kierstead4(col, kp)
    assert rep.passed


def test_kierstead4_bound_on_pstar(pstar):
    for e in pstar.edges():
        col = delta_coloring_of_minus_e(pstar, e, seed=0)
        for kp in find_kierstead_paths(col, 3):
            v0, v1, _, v3 = kp.vertices
            overlap = col.missing(v3) & (col.missing(v0) | col.missing(v1))
            assert len(overlap) <= 1
            assert check_kierstead4(col, kp).passed


def random_host_with_paths(seed: int, p: int):
    """(coloring, paths) on a random graph; no criticality assumed."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(6, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        g = Graph(n, edges)
        if not edges:
            continue
        e = edges[rng.randrange(len(edges))]
        base = find_edge_coloring(g.without_edge(e), g.max_degree(), seed=seed)
        if base is None:
            continue
        col = PartialEdgeColoring(g, g.max_degree())
        for f, c in base.colored_edges().items():
            col.color_edge(f, c)
        paths = find_kierstead_paths(col, p)
        if paths:
            return col, paths


def test_kierstead4_negative_control():
    """On hosts without criticality the overlap bound can break; the check
    must report it rather than pass."""
    found = False
    for seed in range(200):
        col, paths = random_host_with_paths(seed, 3)
        for kp in paths:
            v0, v1, _, v3 = kp.vertices
            overlap = col.missing(v3) & (col.missing(v0) | col.missing(v1))
            if len(overlap) > 1:
                rep = check_kierstead4(col, kp)
                assert not rep.passed
                assert rep.counterexample["clause"] in (
                    "overlap-bound",
                    "elementary",
                )
                found = True
                break
        if found:
            break
    assert found


def test_k5_claims_vacuous_when_overlap_small():
    col = c5_setup()
    for kp in find_kierstead_paths(col, 4):
        rep = check_k5_claims(col, kp)
        assert rep.passed and rep.vacuous == 1


def test_k5_claims_negative_control():
    """Random hosts violating the inner-degree conclusion must fail."""
    found = False
    for seed in range(400):
        col, paths = random_host_with_paths(seed, 4)
        g = col.graph
        delta = g.max_degree()
        for kp in paths:
            a, b, u, _, t = kp.vertices
            overlap = col.missing(t) & (col.missing(a) | col.missing(b))
            if len(overlap) >= 3 and (
                g.degree(b) != delta or g.degree(u) != delta
            ):
                rep = check_k5_claims(col, kp)
                assert not rep.passed
                assert rep.counterexample["clause"] == "inner-degrees"
                found = True
                break
        if found:
            break
    assert found


def test_k5_claims_companion_degree():
    """The far end 4 shares 4 colors with the root pair, and the companion
    path (1, 5, 6, 2) ends at a vertex of degree 2 < Delta = 5."""
    col = minus_e_host("F?bvg", (1, 5), 0)
    kp = KiersteadPath((1, 5, 6, 0, 4))
    kp.validate(col)
    rep = check_k5_claims(col, kp)
    assert not rep.passed
    assert rep.details == {"overlap3_met": 1, "companion_met": 1}
    assert rep.counterexample == {
        "graph6": "F?bvg", "coloring": col.serialize(), "clause": "companion-degree",
        "path": [1, 5, 6, 0, 4], "x": 2, "degree": 2,
    }
    KiersteadPath((1, 5, 6, 2)).validate(col)


def test_k5_claims_pass_with_full_inner_degrees():
    col = minus_e_host("ECzg", (1, 4), 0)
    kp = KiersteadPath((1, 4, 5, 0, 3))
    kp.validate(col)
    rep = check_k5_claims(col, kp)
    assert rep.passed and rep.fired
    assert rep.details == {"overlap3_met": 1, "companion_met": 0}


# -- short-kites, kites, forks ------------------------------------------------


def naive_shortkites(col) -> set[tuple]:
    g = col.graph
    (e,) = col.uncolored_edges()

    def kier_ok(seq):
        missing = col.missing(seq[0]) | col.missing(seq[1])
        for i in range(2, len(seq)):
            c = col.color_of((seq[i - 1], seq[i]))
            if c is None or c not in missing:
                return False
            missing |= col.missing(seq[i])
        return True

    raw = set()
    for a, b in (e, e[::-1]):
        for c, u, x, y in permutations(
            [v for v in range(g.n) if v not in (a, b)], 4
        ):
            if not (
                g.has_edge(a, c)
                and g.has_edge(b, u)
                and g.has_edge(c, u)
                and g.has_edge(u, x)
                and g.has_edge(u, y)
            ):
                continue
            if kier_ok((a, b, u, x)) and kier_ok((b, a, c, u, y)):
                raw.add((a, b, c, u, x, y))
    out = set()
    for a, b, c, u, x, y in raw:
        if (a, b, c, u, y, x) in raw and y < x:
            continue
        out.add((a, b, c, u, x, y))
    return out


def naive_kites(col) -> set[tuple]:
    g = col.graph
    (e,) = col.uncolored_edges()

    def kier_ok(seq):
        missing = col.missing(seq[0]) | col.missing(seq[1])
        for i in range(2, len(seq)):
            c = col.color_of((seq[i - 1], seq[i]))
            if c is None or c not in missing:
                return False
            missing |= col.missing(seq[i])
        return True

    raw = set()
    for a, b in (e, e[::-1]):
        for c, u, s1, t1, s2, t2 in permutations(
            [v for v in range(g.n) if v not in (a, b)], 6
        ):
            if not (
                g.has_edge(a, c)
                and g.has_edge(b, u)
                and g.has_edge(c, u)
                and g.has_edge(u, s1)
                and g.has_edge(s1, t1)
                and g.has_edge(u, s2)
                and g.has_edge(s2, t2)
            ):
                continue
            if col.color_of((s1, t1)) != col.color_of((s2, t2)):
                continue
            if kier_ok((a, b, u, s1, t1)) and kier_ok((b, a, c, u, s2, t2)):
                raw.add((a, b, c, u, s1, t1, s2, t2))
    out = set()
    for a, b, c, u, s1, t1, s2, t2 in raw:
        if (a, b, c, u, s2, t2, s1, t1) in raw and (s2, t2) < (s1, t1):
            continue
        out.add((a, b, c, u, s1, t1, s2, t2))
    return out


def naive_forks(col) -> set[tuple]:
    g = col.graph
    (e,) = col.uncolored_edges()
    out = set()
    for a, b in (e, e[::-1]):
        root = col.missing(a) | col.missing(b)
        for u, s1, t1, s2, t2 in permutations(
            [v for v in range(g.n) if v not in (a, b)], 5
        ):
            if (s1, t1) > (s2, t2):
                continue
            if not (
                g.has_edge(b, u)
                and g.has_edge(u, s1)
                and g.has_edge(u, s2)
                and g.has_edge(s1, t1)
                and g.has_edge(s2, t2)
            ):
                continue
            cbu = col.color_of((b, u))
            c1, c2 = col.color_of((u, s1)), col.color_of((u, s2))
            d1, d2 = col.color_of((s1, t1)), col.color_of((s2, t2))
            if None in (cbu, c1, c2, d1, d2):
                continue
            if (
                cbu in col.missing(a)
                and c1 in root
                and c2 in root
                and d1 in root
                and d1 in col.missing(t2)
                and d2 in root
                and d2 in col.missing(t1)
            ):
                out.add((a, b, u, s1, s2, t1, t2))
    return out


def test_no_shortkites_below_six_vertices():
    col = c5_setup()
    assert find_structure_witnesses(col, "shortkite") == []


def test_shortkite_finder_matches_naive(splitk4, pstar):
    hosts = []
    for g in (splitk4, pstar):
        for e in g.edges()[:5]:
            hosts.append(delta_coloring_of_minus_e(g, e, seed=0))
    rng = random.Random(9)
    for seed in range(30):
        col, _ = random_host_with_paths(seed, 2)
        hosts.append(col)
    for col in hosts:
        mine = {
            w.role_tuple("a", "b", "c", "u", "x", "y")
            for w in find_structure_witnesses(col, "shortkite")
        }
        assert mine == naive_shortkites(col)


def test_fork_finder_matches_naive(pstar):
    hosts = [delta_coloring_of_minus_e(pstar, pstar.edges()[0], seed=0)]
    for seed in range(30):
        col, _ = random_host_with_paths(seed, 2)
        hosts.append(col)
    for col in hosts:
        mine = {
            w.role_tuple("a", "b", "u", "s1", "s2", "t1", "t2")
            for w in find_structure_witnesses(col, "fork")
        }
        assert mine == naive_forks(col)


def test_kite_finder_matches_naive():
    found = 0
    for seed in range(300):
        col, _ = random_host_with_paths(seed, 2)
        mine = {
            w.role_tuple("a", "b", "c", "u", "s1", "t1", "s2", "t2")
            for w in find_structure_witnesses(col, "kite")
        }
        assert mine == naive_kites(col)
        found += len(mine)
    assert found > 0  # kites occur on these hosts, so the match is not empty


# sha256 of the JSON of the `roles` lists that find_structure_witnesses
# returns for shortkite, kite and fork, in that order, on the hosts of
# `pinned_hosts`. Taken before the finders shared their walks; any change
# of the witnesses or of their order changes it.
WITNESS_DIGEST = "540932ee31c56f5f4d35cd27172b56f223297186386b65791de36ae2890db967"


def pinned_hosts(critical_corpus_small) -> list[PartialEdgeColoring]:
    """The n <= 6 critical corpus at seeds 0-3, then random hosts 0-99."""
    hosts = [
        delta_coloring_of_minus_e(g, e, seed=seed)
        for g in critical_corpus_small
        for e in g.edges()
        for seed in range(4)
    ]
    return hosts + [random_host_with_paths(seed, 2)[0] for seed in range(100)]


def test_witness_lists_are_pinned(critical_corpus_small):
    lists = [
        [w.roles for w in find_structure_witnesses(col, kind)]
        for col in pinned_hosts(critical_corpus_small)
        for kind in ("shortkite", "kite", "fork")
    ]
    assert any(lists[1::3])  # kites occur on these hosts
    blob = json.dumps(lists, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == WITNESS_DIGEST


def kite_violation_host():
    """A hand-built kite whose far tips share far too many missing colors
    (possible only because the host breaks the ambient assumptions)."""
    edges = [
        (0, 1),  # ab, uncolored
        (0, 2),  # ac
        (1, 3),  # bu
        (2, 3),  # cu
        (3, 4),  # us1
        (3, 5),  # us2
        (4, 6),  # s1t1
        (5, 7),  # s2t2
    ]
    g = Graph(8, edges)
    col = PartialEdgeColoring(g, 8)
    col.color_edge((0, 2), 2)
    col.color_edge((1, 3), 1)
    col.color_edge((2, 3), 5)
    col.color_edge((3, 4), 2)
    col.color_edge((3, 5), 4)
    col.color_edge((4, 6), 3)
    col.color_edge((5, 7), 3)
    return col


def test_kite_finder_and_negative_control():
    col = kite_violation_host()
    wits = find_structure_witnesses(col, "kite")
    assert any(
        w.roles == {"a": 0, "b": 1, "c": 2, "u": 3, "s1": 4, "s2": 5, "t1": 6, "t2": 7}
        for w in wits
    )
    wit = [w for w in wits if w.roles["a"] == 0][0]
    rep = check_kite(col, wit)
    assert not rep.passed
    assert len(rep.counterexample["shared"]) >= 5


def test_kite_passes_within_the_bound():
    col, _ = random_host_with_paths(30, 2)
    wit = find_structure_witnesses(col, "kite")[0]
    rep = check_kite(col, wit)
    assert rep.passed and rep.fired
    assert rep.details == {"shared": 2}


def test_kite_vacuous_when_tip_edges_differ():
    """The violation host with s2t2 recolored 6: s1t1 keeps color 3, so
    the conclusion is not asked for. The finder yields no such kite; the
    witness is built by hand."""
    col = kite_violation_host()
    col.uncolor_edge((5, 7))
    col.color_edge((5, 7), 6)
    roles = {"a": 0, "b": 1, "c": 2, "u": 3, "s1": 4, "s2": 5, "t1": 6, "t2": 7}
    assert all(w.roles != roles for w in find_structure_witnesses(col, "kite"))
    rep = check_kite(col, StructureWitness("kite", roles))
    assert rep.passed and rep.vacuous == 1 and rep.details == {}


def shortkite_violation_host():
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]
    g = Graph(6, edges)
    col = PartialEdgeColoring(g, 6)
    col.color_edge((0, 2), 2)  # ac
    col.color_edge((1, 3), 1)  # bu
    col.color_edge((2, 3), 4)  # cu
    col.color_edge((3, 4), 3)  # ux
    col.color_edge((3, 5), 5)  # uy
    return col


def test_shortkite_negative_control():
    col = shortkite_violation_host()
    wits = find_structure_witnesses(col, "shortkite")
    target = [w for w in wits if w.roles["x"] in (4, 5)]
    assert target
    rep = check_shortkite(col, target[0])
    assert not rep.passed


def fork_violation_host():
    edges = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (2, 7)]
    g = Graph(8, edges)
    col = PartialEdgeColoring(g, 6)
    col.color_edge((1, 2), 1)  # bu
    col.color_edge((2, 3), 2)  # us1
    col.color_edge((2, 4), 3)  # us2
    col.color_edge((3, 5), 4)  # s1t1
    col.color_edge((4, 6), 5)  # s2t2
    col.color_edge((2, 7), 6)  # pad u's degree to Delta=4
    return col


def test_fork_absence_negative_control():
    col = fork_violation_host()
    rep = check_fork_absence(col)
    assert not rep.passed
    assert rep.counterexample["witness"]["a"] == 0


def test_fork_absence_makes_no_finder_call(monkeypatch, pstar):
    def no_finder(*args, **kwargs):
        raise AssertionError("fork absence walks the fork shapes itself")

    monkeypatch.setattr(kempe.structures, "find_structure_witnesses", no_finder)
    rep = check_fork_absence(fork_violation_host())
    assert not rep.passed
    assert rep.counterexample["witness"] == {
        "a": 0, "b": 1, "u": 2, "s1": 3, "s2": 4, "t1": 5, "t2": 6,
    }
    for e in pstar.edges():
        assert check_fork_absence(delta_coloring_of_minus_e(pstar, e)).passed


def test_fork_absence_passes_with_a_candidate():
    col = minus_e_host("F?qcw", (3, 6), 0)
    rep = check_fork_absence(col)
    assert rep.passed and rep.fired
    assert rep.details == {"candidates": 1}


def test_fork_absence_vacuous_without_candidates():
    col = triangle_minus_ab()
    rep = check_fork_absence(col)
    assert rep.passed and rep.vacuous == 1


# -- degree lemmas -------------------------------------------------------------


def test_val_triangle_and_pstar(triangle, pstar):
    for e in triangle.edges():
        assert check_val(triangle, e).passed
    for x, y in pstar.edges():
        rep = check_val(pstar, (x, y))
        assert rep.passed
        if pstar.degree(y) == 2:
            have = sum(
                1
                for z in pstar.neighbors(x) - {y}
                if pstar.degree(z) == 3
            )
            assert have >= 2


def test_val_negative_control():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # K1,3, hub 0
    rep = check_val(g, (0, 1))
    assert not rep.passed


def test_parity_examples():
    p3 = Graph(3, [(0, 1), (1, 2)])
    col = PartialEdgeColoring(p3, 2)
    col.color_edge((0, 1), 1)
    col.color_edge((1, 2), 2)
    assert check_parity(col).passed

    c4 = cycle_graph(4)
    col = PartialEdgeColoring(c4, 2)
    for e, c in {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}.items():
        col.color_edge(e, c)
    assert check_parity(col).passed

    col.uncolor_edge((0, 1))
    with pytest.raises(ValueError):
        check_parity(col)


def per_color_parity_failure(col: PartialEdgeColoring) -> tuple[int, int] | None:
    """The least color whose missing count has the wrong parity, with that
    count, found by one count per color."""
    n = col.graph.n
    for c in range(1, col.k + 1):
        cnt = sum(1 for v in range(n) if col.is_missing(v, c))
        if cnt % 2 != n % 2:
            return c, cnt
    return None


def test_parity_failure_on_a_tampered_state():
    """No proper full coloring fails the parity check, so the failing path
    is reached by flipping bits of the present-color masks. The one-pass
    check reports the least color of wrong parity and its missing count,
    as counting each color does, for odd and even n."""
    rng = random.Random(11)
    hosts = [
        find_edge_coloring(builtin_fixture("k4"), 3),
        find_edge_coloring(Graph(3, [(0, 1), (1, 2)]), 2),
        find_edge_coloring(builtin_fixture("cube"), 3),
    ]
    failures = 0
    for host in hosts:
        assert check_parity(host).passed
        n = host.graph.n
        for _ in range(40):
            bad = host.copy()
            for v in rng.sample(range(n), rng.randint(1, n)):
                bad._present[v] ^= 1 << rng.randrange(bad.k)
            rep = check_parity(bad)
            want = per_color_parity_failure(bad)
            if want is None:
                assert rep.passed
                continue
            failures += 1
            assert not rep.passed
            color, count = want
            assert rep.counterexample["color"] == color
            assert rep.counterexample["missing_count"] == count
    assert failures


def test_fulldpair_triangle_and_splitk4(triangle, splitk4):
    rep = check_fulldpair_lemma(triangle, 0, 1)
    assert rep.passed and rep.fired
    for a, b in [(0, 1), (0, 4)]:
        rep = check_fulldpair_lemma(splitk4, a, b)
        assert rep.passed and rep.fired
        assert rep.details.get("corollary_met") == 1


def test_fulldpair_makes_no_solver_call(splitk4, monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("the caller supplies the Class 2 and criticality facts")

    monkeypatch.setattr(kempe.classify, "find_edge_coloring", no_solver)
    rep = check_fulldpair_lemma(splitk4, 0, 1)
    assert rep.passed and rep.fired


def test_structures_imports_no_solver():
    """The lemma checks take their hypotheses from the caller: no import
    of the solver or the harness, function-local imports included."""
    tree = ast.parse(Path(kempe.structures.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "kempe" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not imported & {"kempe.classify", "kempe.harness"}


def test_fulldpair_hypothesis_unmet(k4):
    rep = check_fulldpair_lemma(k4, 0, 1)
    assert rep.passed and rep.vacuous == 1


def assert_fulldpair_fails(g, pair, clause, **evidence):
    rep = check_fulldpair_lemma(g, *pair)
    assert not rep.passed and rep.hypothesis_met == 1
    assert rep.counterexample == {
        "graph6": to_graph6(g), "clause": clause, "pair": list(pair), **evidence,
    }


def test_fulldpair_distance2_degree():
    """K4 minus 01 on {0, 1, 3, 4} with a pendant vertex 2 on 0: the pair
    (1, 3) has joint neighborhood {0, 4} of degree Delta = 3, and 2, at
    distance 2, has degree 1 < Delta - 1."""
    g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4)])
    assert_fulldpair_fails(g, (1, 3), "distance2-degree", x=2, degree=1)


def test_fulldpair_distance2_degree_strict():
    """K4 on {0, 2, 4, 5}, a vertex 1 joined to 4 and 5 and a pendant 3 on
    1: Delta = 4, both ends of the pair (0, 2) have degree 3, so 1, at
    distance 2 with degree Delta - 1, breaks the strict bound."""
    g = Graph(6, [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5)])
    assert_fulldpair_fails(g, (0, 2), "distance2-degree-strict", x=1, degree=3)


def distances_from_pair(g, a, b) -> dict[int, int]:
    """Breadth-first distance of each reachable vertex from {a, b}."""
    dist, queue = {a: 0, b: 0}, deque([a, b])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x) - dist.keys():
            dist[y] = dist[x] + 1
            queue.append(y)
    return dist


def test_fulldpair_high_degree_vertices_are_near_the_pair():
    """The premise that lets the lemma's clause (iii) go untested: on every
    full-deficiency pair of every graph on at most 7 vertices, each vertex
    x outside {a, b} with d(x) >= n - |N(a) u N(b)| lies in the joint
    neighborhood or the distance-2 ring, which clauses (i) and (ii) bound."""
    reached = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for a, b in full_deficiency_pairs(g):
                dist = distances_from_pair(g, a, b)
                bound = g.n - len(g.neighbors(a) | g.neighbors(b))
                for x in range(g.n):
                    if x not in (a, b) and g.degree(x) >= bound:
                        reached += 1
                        assert dist.get(x, 3) <= 2, (to_graph6(g), a, b, x)
    assert reached == 14494


def test_fulldpair_deficiency_pairing():
    """A triangle on {0, 2, 3} and an isolated vertex 1, the one deficient
    vertex outside the pair (0, 2)."""
    g = Graph(4, [(0, 2), (0, 3), (2, 3)])
    assert_fulldpair_fails(g, (0, 2), "deficiency-pairing", x=1)


def test_fulldpair_near_delta_uniqueness():
    """a = 0 of degree 2 on b = 1 and 2; 1 joined to 2..6, 2 to 3..6, a
    4-cycle 3-4-5-6, and 7 and 8 joined to each other and to 3..6. Delta
    = 6 and 4 * 6 >= 3 * 8, and both 7 and 8 have degree Delta - 1."""
    edges = [(0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (7, 8)]
    edges += [(1, x) for x in range(2, 7)] + [(2, x) for x in range(3, 7)]
    edges += [(v, x) for v in (7, 8) for x in range(3, 7)]
    g = Graph(9, edges)
    assert_fulldpair_fails(g, (0, 1), "near-delta-uniqueness", vertices=[7, 8])

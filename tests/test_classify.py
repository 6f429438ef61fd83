from __future__ import annotations

import ast
import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kempe
import kempe.classify as classifier
from kempe.classify import (
    BudgetExceededError,
    GraphClass,
    _color_one_edge,
    all_edges_critical,
    classify,
    delta_coloring_of_minus_e,
    exact_chromatic_index,
    find_edge_coloring,
    is_critical_edge,
    is_delta_critical,
    vizing_plus_one_coloring,
    walk_then_search,
)
from kempe.graph import (
    Graph,
    SplitSpec,
    builtin_fixture,
    complete_graph,
    cycle_graph,
    split_vertex,
)
from kempe.coloring import ColoringError, PartialEdgeColoring
from kempe.harness import delta_critical_corpus, enumerate_graphs
from kempe.structures import check_parity

from oracles import (
    bruteforce_edge_colorable,
    reference_degeneracy_rank,
    reference_delta_coloring_of_minus_e,
    reference_find_edge_coloring,
)

# sha256 of the repr of find_edge_coloring(g, Delta, seed=s) over the
# enumerated graphs with edges and n <= 6, s in (None, 0, 1): each result as
# its sorted colour items, or None for a refutation. Any change to the search
# order, the seeded relabelling, the symmetry breaking or the enumeration's
# labelled representatives changes it.
SOLVER_DIGEST = "5832e4b61f73ec3fbafe1b60e93ea6b0356b4b54f2c3774f5bd3eb0008180cfb"


def graphs_upto(n_max: int):
    """Every graph on 1..n_max vertices up to isomorphism, smallest order
    first."""
    return (g for n in range(1, n_max + 1) for g in enumerate_graphs(n))


def test_exact_chromatic_index_fixtures(k4, k6, pstar, c5):
    assert exact_chromatic_index(k4) == 3
    assert exact_chromatic_index(k6) == 5
    assert exact_chromatic_index(pstar) == 4
    assert exact_chromatic_index(c5) == 3


def test_classify_fixtures(k6, triangle):
    assert classify(k6) is GraphClass.CLASS1
    assert classify(triangle) is GraphClass.CLASS2


def test_vizing_coloring_validates(pstar, k4):
    col = vizing_plus_one_coloring(pstar)
    assert col.k == 4 and col.is_full() and col.validate()
    col = vizing_plus_one_coloring(k4)
    assert col.k == 4 and col.is_full() and col.validate()
    for n in (0, 1, 3):
        col = vizing_plus_one_coloring(Graph(n))
        assert col.k == 1 and col.is_full() and col.validate()


def test_vizing_star_uses_hub_degree_colors():
    g = Graph(6, [(0, i) for i in range(1, 6)])  # K1,5, hub 0
    col = vizing_plus_one_coloring(g)
    assert col.k == 6
    assert len({col.color_of(e) for e in g.edges()}) == 5


def random_bipartite(rng: random.Random) -> Graph:
    p = rng.randint(2, 7)
    q = rng.randint(2, 7)
    edges = [
        (i, p + j)
        for i in range(p)
        for j in range(q)
        if rng.random() < rng.uniform(0.3, 0.9)
    ]
    return Graph(p + q, edges)


def test_koenig_oracle_on_random_bipartite():
    """Bipartite graphs have chromatic index Delta; 200 random instances."""
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        g = random_bipartite(rng)
        if g.edge_count() == 0:
            continue
        assert exact_chromatic_index(g) == g.max_degree()
        checked += 1


def test_vizing_bound_never_beaten_small():
    """The fan coloring can never use fewer colors than the exact index
    allows: verify chi' <= Delta+1 and exact <= vizing on the n <= 6
    enumeration."""
    for g in graphs_upto(6):
        if g.edge_count() == 0 or g.n < 2:
            continue
        chi = exact_chromatic_index(g)
        delta = g.max_degree()
        assert chi in (delta, delta + 1)
        col = vizing_plus_one_coloring(g)
        used = {col.color_of(e) for e in g.edges()}
        assert len(used) >= chi


def test_odd_regular_is_class2():
    for g in (cycle_graph(5), complete_graph(5), complete_graph(7)):
        assert classify(g) is GraphClass.CLASS2


def test_critical_edges_triangle(triangle):
    for e in triangle.edges():
        assert is_critical_edge(triangle, e)


def test_critical_edges_pstar(pstar):
    assert all(is_critical_edge(pstar, e) for e in pstar.edges())


def test_critical_edge_rejects_class1(k4):
    with pytest.raises(ValueError):
        is_critical_edge(k4, (0, 1))


def test_critical_edge_rejects_a_non_edge_before_solving(monkeypatch, pstar):
    solves = []
    monkeypatch.setattr(
        classifier, "find_edge_coloring", lambda *args, **kw: solves.append(args)
    )
    assert not pstar.has_edge(0, 2)
    with pytest.raises(ValueError, match="not in graph"):
        is_critical_edge(pstar, (0, 2))
    assert solves == []


def test_component_edges_not_critical():
    # C5 plus a disjoint triangle: both components force Class 2 at
    # Delta=2, so the cycle's edges are never critical
    g = Graph(8, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6), (6, 7), (5, 7)])
    assert classify(g) is GraphClass.CLASS2
    for e in [(0, 1), (1, 2)]:
        assert not is_critical_edge(g, e)
    # with an even cycle instead, exactly the triangle's edges are critical
    h = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
    for e in [(0, 1), (2, 3)]:
        assert not is_critical_edge(h, e)
    for e in [(4, 5), (5, 6), (4, 6)]:
        assert is_critical_edge(h, e)


def test_delta_critical(pstar, splitk4, k4):
    assert is_delta_critical(pstar)
    assert is_delta_critical(splitk4)
    assert not is_delta_critical(k4)


def yes_no_answers(g: Graph) -> tuple:
    """What the classifier says about g: its chromatic index and class and,
    for a Class 2 graph, whether all its edges are critical and which
    edges are."""
    cls = classify(g)
    if cls is GraphClass.CLASS1:
        return exact_chromatic_index(g), cls
    flags = tuple(is_critical_edge(g, e) for e in g.edges())
    return exact_chromatic_index(g), cls, all_edges_critical(g), flags


def test_the_walk_only_answers_yes(monkeypatch):
    """Every yes/no answer of the classifier is the same when no walk
    succeeds, on every graph with n <= 6, P* and the Petersen graph; and
    `walk_then_search` returns a full proper coloring, or None exactly
    where the solver finds none, also for each g - e at k = Delta(g)."""
    graphs = [*graphs_upto(6), builtin_fixture("pstar"), builtin_fixture("petersen")]
    rng = random.Random(0)
    for g in graphs:
        delta = g.max_degree()
        for h in [g, *(g.without_edge(e) for e in g.edges())]:
            col = walk_then_search(h, delta, rng)
            if col is None:
                assert find_edge_coloring(h, delta) is None, h.edges()
            else:
                assert col.is_full() and col.validate(), h.edges()
    answers = [yes_no_answers(g) for g in graphs]
    # both classes, and both answers for all edges and for single edges
    class2 = [a for a in answers if a[1] is GraphClass.CLASS2]
    assert len(class2) < len(answers)
    assert {a[2] for a in class2} == {True, False}
    assert {flag for a in class2 for flag in a[3]} == {True, False}
    walks = []
    monkeypatch.setattr(classifier, "kempe_walk", lambda *args: walks.append(args))
    assert [yes_no_answers(g) for g in graphs] == answers
    assert walks


def test_orbit_reduced_criticality_matches_every_edge():
    """On every connected Class 2 graph with n <= 7, solving one edge per
    automorphism orbit answers as solving every edge does."""
    answers = []
    for g in graphs_upto(7):
        if not g.edge_count() or not g.is_connected():
            continue
        delta = g.max_degree()
        if find_edge_coloring(g, delta) is not None:
            continue
        every_edge = all(
            find_edge_coloring(g.without_edge(e), delta) is not None
            for e in g.edges()
        )
        assert all_edges_critical(g) == every_edge, g.edges()
        answers.append(every_edge)
    assert True in answers and False in answers


@pytest.mark.parametrize(
    "g, critical",
    [
        # K5 - e is still overfull: 9 edges, 4 colours of at most 2 edges
        (complete_graph(5), False),
        # C7 - e is a path; without orbits all 7 edges would be solved
        (cycle_graph(7), True),
    ],
)
def test_edge_transitive_criticality_is_one_solve(monkeypatch, g, critical):
    """One edge orbit, so one graph g - e is tried: by the walk, and by the
    solver only when the walk gives up, as it must on K5 - e."""
    calls = []
    solve, walk = classifier.find_edge_coloring, classifier.kempe_walk

    def counting(h, k, *args, **kwargs):
        calls.append(("solve", h.edges()))
        return solve(h, k, *args, **kwargs)

    def walking(h, k, *args):
        calls.append(("walk", h.edges()))
        return walk(h, k, *args)

    monkeypatch.setattr(classifier, "find_edge_coloring", counting)
    monkeypatch.setattr(classifier, "kempe_walk", walking)
    assert all_edges_critical(g) is critical
    tried = g.without_edge(g.edges()[0]).edges()
    want = [("walk", tried)] if critical else [("walk", tried), ("solve", tried)]
    assert calls == want


def test_delta_coloring_of_minus_e_triangle(triangle):
    col = delta_coloring_of_minus_e(triangle, (0, 1))
    assert col.k == 2 and col.uncolored_edges() == [(0, 1)]
    assert {col.color_of((0, 2)), col.color_of((1, 2))} == {1, 2}


def test_delta_coloring_of_minus_e_pstar(pstar):
    for e in pstar.edges()[:4]:
        col = delta_coloring_of_minus_e(pstar, e, seed=3)
        assert col.validate() and col.uncolored_edges() == [e]
        assert col.k == 3


def test_delta_coloring_of_minus_e_k4(k4):
    col = delta_coloring_of_minus_e(k4, (0, 1))
    assert col.k == 3 and col.validate()


def test_delta_coloring_seed_determinism(pstar):
    e = pstar.edges()[0]
    a = delta_coloring_of_minus_e(pstar, e, seed=5)
    b = delta_coloring_of_minus_e(pstar, e, seed=5)
    assert a == b


def test_no_coloring_signals_noncritical():
    k5 = complete_graph(5)
    with pytest.raises(ValueError):
        delta_coloring_of_minus_e(k5, (0, 1))  # K5 - e is overfull


def test_budget_error_carries_progress():
    g = builtin_fixture("pstar")
    with pytest.raises(BudgetExceededError) as exc:
        find_edge_coloring(g, 3, node_budget=3)
    assert exc.value.nodes > 3 - 1
    assert isinstance(exc.value.partial, dict)


def test_solver_output_is_pinned():
    results = []
    for g in graphs_upto(6):
        if not g.edge_count():
            continue
        for seed in (None, 0, 1):
            col = find_edge_coloring(g, g.max_degree(), seed=seed)
            results.append(None if col is None else sorted(col.colored_edges().items()))
    assert len(results) == 606
    assert hashlib.sha256(repr(results).encode()).hexdigest() == SOLVER_DIGEST


def test_degeneracy_rank_matches_the_scan():
    """The heap ranking equals the plain scan's, ties included, on every
    graph with n <= 8 and on random graphs up to 60 vertices."""
    graphs = [(g.n, list(g.edges())) for g in graphs_upto(8)]
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 61)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        rng.shuffle(pairs)
        graphs.append((n, pairs))
    for n, edges in graphs:
        assert classifier._degeneracy_rank(n, edges) == reference_degeneracy_rank(n, edges)


def same_coloring(col, ref):
    """Equal as colourings, and with the same colours in the same
    insertion order."""
    if col is None or ref is None:
        return col is ref
    items = list(col.colored_edges().items())
    return col == ref and items == list(ref.colored_edges().items()) and col.validate()


def test_solver_matches_the_rebuilding_reference():
    """The seeded relabelling and the one-pass result change no colouring
    and no insertion order."""
    for g in graphs_upto(6):
        for seed in (None, 0, 1):
            ref = reference_find_edge_coloring(g, g.max_degree(), seed)
            assert same_coloring(find_edge_coloring(g, g.max_degree(), seed=seed), ref)


def test_delta_coloring_matches_the_rebuilding_reference():
    corpus = delta_critical_corpus(7)
    assert len(corpus) == 26
    for g in corpus:
        for e in g.edges():
            for seed in range(4):
                col = delta_coloring_of_minus_e(g, e, seed=seed)
                ref = reference_delta_coloring_of_minus_e(g, e, seed)
                assert same_coloring(col, ref) and col.uncolored_edges() == [e]


def test_a_solver_call_builds_only_g_minus_e(monkeypatch, pstar):
    """Neither a seeded solve nor a colouring of G - e colours an edge one
    at a time or builds a Graph, apart from the G - e it deletes e from."""
    colored, built, deleted = [], [], []
    color_edge = PartialEdgeColoring.color_edge
    init = Graph.__init__
    without_edge = Graph.without_edge

    def counting_color_edge(self, e, c):
        colored.append(e)
        return color_edge(self, e, c)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        return init(self, *args, **kwargs)

    def counting_without_edge(self, e):
        deleted.append(e)
        return without_edge(self, e)

    h = pstar.without_edge((0, 1))
    monkeypatch.setattr(PartialEdgeColoring, "color_edge", counting_color_edge)
    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(Graph, "without_edge", counting_without_edge)
    for seed in (None, 0, 7):
        assert find_edge_coloring(h, 3, seed=seed).is_full()
        assert deleted == []
        assert delta_coloring_of_minus_e(pstar, (1, 0), seed=seed).validate()
        assert deleted == [(0, 1)]
        deleted.clear()
    assert colored == [] and built == []


def test_seeded_relabelling_is_the_shuffle():
    for n in range(10):
        for seed in range(32):
            perm, label = classifier._seeded_relabelling(n, seed)
            want = list(range(n))
            random.Random(seed).shuffle(want)
            assert perm == tuple(want) and isinstance(label, tuple)
            assert [label[p] for p in perm] == list(range(n))


def test_without_edge_keeps_the_rest(pstar, k6):
    for g in (pstar, k6, Graph(9, [(0, 8), (2, 5)])):
        for e in g.edges():
            h, want = g.without_edge(e), Graph(g.n, [f for f in g.edges() if f != e])
            assert h == want and h.adjacency_masks() == want.adjacency_masks()
            assert g.has_edge(*e) and not h.has_edge(*e)
    for bad in ((0, 2), (2, 0), (-1, 5), (3, 9)):
        with pytest.raises(ValueError):
            pstar.without_edge(bad)


@pytest.mark.parametrize(
    "name, nodes, colorable",
    [("pstar", 29, False), ("petersen", 30, False), ("k6", 16, True), ("cube", 13, True)],
)
def test_full_search_node_counts(name, nodes, colorable):
    """The whole DFS takes exactly `nodes` nodes: that budget suffices and
    one less is exhausted on the last node."""
    g = builtin_fixture(name)
    col = find_edge_coloring(g, g.max_degree(), node_budget=nodes)
    assert (col is not None) is colorable
    with pytest.raises(BudgetExceededError) as exc:
        find_edge_coloring(g, g.max_degree(), node_budget=nodes - 1)
    assert exc.value.nodes == nodes


def flower_snark(k: int) -> Graph:
    """Isaacs' J_k, with a_i, b_i, c_i, d_i as vertices 4i, ..., 4i + 3:
    the claws a_i b_i, a_i c_i, a_i d_i, the cycle b_0 ... b_{k-1}, and
    the 2k-cycle c_0 ... c_{k-1} d_0 ... d_{k-1}."""
    def vertex(i: int, j: int) -> int:
        return 4 * (i % k) + j

    edges = [(vertex(i, 0), vertex(i, j)) for i in range(k) for j in (1, 2, 3)]
    edges += [(vertex(i, 1), vertex(i + 1, 1)) for i in range(k)]
    ring = [vertex(i, 2) for i in range(k)] + [vertex(i, 3) for i in range(k)]
    edges += list(zip(ring, ring[1:] + ring[:1]))
    return Graph(4 * k, edges)


@pytest.mark.parametrize(
    "k, nodes", [(9, 1_413), (11, 1_917), (13, 2_421), (15, 2_925)]
)
def test_snark_refutation_node_counts(k, nodes):
    """Flower snarks are cubic Class 2 graphs that the edge count does not
    refute, so only an exhausted search says no: exactly `nodes` nodes.
    The search skips the residual states it has already exhausted, so the
    count grows by 504 nodes from one snark to the next (with the table's
    window set to 0, J9 takes 7,389 nodes and J11 29,789)."""
    g = flower_snark(k)
    assert g.degrees() == (3,) * (4 * k) and g.edge_count() == 3 * (g.n // 2)
    assert find_edge_coloring(g, 3, node_budget=nodes) is None
    with pytest.raises(BudgetExceededError) as exc:
        find_edge_coloring(g, 3, node_budget=nodes - 1)
    assert exc.value.nodes == nodes


def test_solver_agrees_with_brute_force(pstar):
    graphs = [g for g in graphs_upto(6) if g.edge_count()]
    for g in graphs + [builtin_fixture("petersen"), pstar]:
        k = g.max_degree()
        assert (find_edge_coloring(g, k) is None) is not bruteforce_edge_colorable(g, k)


def windowed_solve(g: Graph, k: int, seed: int | None, window: int, node_budget: int):
    """find_edge_coloring(g, k, seed=seed, node_budget=node_budget) with the
    table of exhausted states kept for `window` nodes (0: no table), as its
    colour items, or None."""
    saved = classifier._FAILED_WINDOW
    classifier._FAILED_WINDOW = window
    try:
        col = find_edge_coloring(g, k, seed=seed, node_budget=node_budget)
    finally:
        classifier._FAILED_WINDOW = saved
    return None if col is None else list(col.colored_edges().items())


def counted_solve(g: Graph, k: int, seed: int | None, window: int):
    """windowed_solve's answer and the search's node count: the least
    node_budget under which it does not raise BudgetExceededError, found by
    doubling and then bisecting."""
    low, high = 0, 1  # a budget of `low` is exceeded
    while True:
        try:
            found = windowed_solve(g, k, seed, window, high)
            break
        except BudgetExceededError:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            found, high = windowed_solve(g, k, seed, window, mid), mid
        except BudgetExceededError:
            low = mid
    return found, high


def assert_table_changes_no_answer(g: Graph, k: int, seed: int | None = None) -> bool:
    """The search with its table finds what the search without it finds,
    in no more nodes; returns whether it takes fewer."""
    plain, plain_nodes = counted_solve(g, k, seed, 0)
    window = classifier._FAILED_WINDOW
    assert windowed_solve(g, k, seed, window, plain_nodes) == plain
    try:
        windowed_solve(g, k, seed, window, plain_nodes - 1)
    except BudgetExceededError:
        return False
    return True


@given(st.integers(0, 10_000), st.sampled_from([None, 0, 1]))
@settings(max_examples=80, deadline=None)
def test_failed_state_table_changes_no_answer_on_random_graphs(graph_seed, seed):
    rng = random.Random(graph_seed)
    n = rng.randint(2, 9)
    p = rng.random()
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    if g.edge_count():
        assert_table_changes_no_answer(g, g.max_degree(), seed)


def test_failed_state_table_changes_no_answer_on_hard_instances():
    """Snarks, the G - e of the Delta-critical graphs on up to 7 vertices
    and of the K8 splits: searches that backtrack, and whose colourings a
    wrong state key would change."""
    saved = [assert_table_changes_no_answer(flower_snark(k), 3) for k in (5, 7, 9, 11)]
    assert all(saved)
    for g in delta_critical_corpus(7):
        for e in g.edges():
            for seed in (None, 0):
                assert_table_changes_no_answer(g.without_edge(e), g.max_degree(), seed)
    k8 = complete_graph(8)
    for part in ({1}, {1, 2}, {1, 2, 3}):
        h = split_vertex(k8, SplitSpec(0, frozenset(part)))
        for e in h.edges():
            assert_table_changes_no_answer(h.without_edge(e), 7)


def stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def at_depth(depth: int, call):
    """call() from `depth` Python frames further down the stack."""
    return call() if depth <= 0 else at_depth(depth - 1, call)


def test_search_deeper_than_the_recursion_limit():
    """A search is not bounded by the interpreter's recursion limit: C2000
    puts 2,000 edges on the path, and the same call made 50 frames below
    the limit still completes."""
    g = cycle_graph(2000)
    assert g.edge_count() > sys.getrecursionlimit()

    def solve():
        col = find_edge_coloring(g, 2)
        assert col is not None and col.is_full() and col.validate()
        return stack_depth()

    solve()
    limit = sys.getrecursionlimit()
    assert limit - 50 <= at_depth(limit - 50 - stack_depth(), solve) < limit


def test_seeded_budget_partial_is_in_callers_labels():
    """A seeded search runs on relabelled vertices; the partial colouring
    it reports on exhaustion must still colour the caller's graph."""
    rng = random.Random(5)
    exhausted = 0
    while exhausted < 20:
        pairs = [(u, v) for u in range(9) for v in range(u + 1, 9)]
        g = Graph(9, [e for e in pairs if rng.random() < 0.5])
        if not g.edge_count():
            continue
        try:
            find_edge_coloring(g, g.max_degree(), seed=exhausted, node_budget=4)
        except BudgetExceededError as exc:
            col = PartialEdgeColoring(g, g.max_degree())
            for e, c in exc.partial.items():
                col.color_edge(e, c)
            assert col.validate()
            exhausted += 1


def test_more_than_64_colours_is_rejected_before_searching(monkeypatch):
    """No colouring with more than 64 colours can be returned, so such a
    call raises before it searches."""
    searches = []
    monkeypatch.setattr(classifier, "_search", lambda *args: searches.append(args))
    star = Graph(66, [(0, i) for i in range(1, 66)])
    with pytest.raises(ValueError, match="0..64"):
        find_edge_coloring(star, 65)
    assert searches == []


def test_library_has_no_assert_gates():
    """`python -O` strips assert statements, so no check in the library
    may be one."""
    paths = sorted(Path(kempe.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_full_colorings_satisfy_parity():
    rng = random.Random(11)
    produced = 0
    while produced < 40:
        n = rng.randint(3, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        if g.edge_count() == 0:
            continue
        col = find_edge_coloring(g, g.max_degree(), seed=produced)
        if col is None:
            continue
        assert check_parity(col).passed
        produced += 1


def test_fan_rotation_failure_is_a_coloring_error(triangle):
    # with only Delta colors the fan 1, 2 at vertex 0 ends at a vertex with
    # no free color, so the routine must refuse rather than crash
    col = PartialEdgeColoring(triangle, 2)
    col.color_edge((1, 2), 1)
    col.color_edge((0, 2), 2)
    with pytest.raises(ColoringError):
        _color_one_edge(col, (0, 1))

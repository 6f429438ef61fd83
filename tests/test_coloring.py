from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from kempe import coloring
from kempe.classify import find_edge_coloring, vizing_plus_one_coloring
from kempe.coloring import (
    AssignColor,
    ColoringError,
    ChainError,
    PartialEdgeColoring,
    RecolorEdge,
    ScriptError,
    SwapHalfChain,
    SwapScript,
    SwapSubchain,
    apply_script,
    kempe_walk,
    parse_coloring,
)
from kempe.graph import Graph, builtin_fixture, cycle_graph
from kempe.harness import enumerate_graphs, round_robin_one_factorization


def triangle_minus_ab() -> PartialEdgeColoring:
    col = PartialEdgeColoring(builtin_fixture("triangle"), 2)
    col.color_edge((0, 2), 1)
    col.color_edge((1, 2), 2)
    return col


def test_missing_sets():
    col = triangle_minus_ab()
    assert col.missing(0) == {2}
    assert col.missing(1) == {1}
    assert col.missing(2) == set()  # degree-k vertex fully colored
    lonely = PartialEdgeColoring(Graph(1), 3)
    assert lonely.missing(0) == {1, 2, 3}


def test_uncolor_roundtrip():
    col = triangle_minus_ab()
    before = col.copy()
    col.uncolor_edge((0, 2))
    assert col.missing(0) == {1, 2}
    col.color_edge((0, 2), 1)
    assert col == before
    col.uncolor_edge((0, 2))
    with pytest.raises(ColoringError):
        col.uncolor_edge((0, 2))


def test_uncolor_after_improper_state_recounts():
    col = round_robin_one_factorization(4)
    a = col.color_of((0, 1))
    col.swap_explicit_path((0, 1), a, a % 3 + 1)  # (0, 1) now clashes at both ends
    col.uncolor_edge((0, 3))
    col.uncolor_edge((1, 2))
    assert col.color_of((0, 1)) == 1
    assert col.missing(0) == {3}
    assert col.missing(1) == {3}
    assert col.validate()


def test_elementary():
    col = triangle_minus_ab()
    assert col.is_elementary([0, 1])
    assert col.is_elementary([0])
    two = PartialEdgeColoring(Graph(2), 2)
    assert not two.is_elementary([0, 1])  # both miss every color


def test_chain_through_path():
    col = triangle_minus_ab()
    chain = col.chain_through(0, 1, 2)
    assert chain.kind == "path"
    assert chain.vertices == (0, 2, 1)
    assert chain.edges == ((0, 2), (1, 2))


def test_chain_through_cycle():
    c4 = cycle_graph(4)
    col = PartialEdgeColoring(c4, 2)
    for (u, v), c in {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}.items():
        col.color_edge((u, v), c)
    chain = col.chain_through(0, 1, 2)
    assert chain.kind == "cycle"
    assert len(chain.edges) == 4
    with pytest.raises(ChainError, match="closed into a cycle"):
        col.half_chain_from(0, 1, 2, chain.edges[0])
    with pytest.raises(ColoringError, match="must differ"):
        col.half_chain_from(0, 1, 1, chain.edges[0])


def test_trivial_chain():
    col = triangle_minus_ab()
    col.uncolor_edge((0, 2))
    chain = col.chain_through(0, 1, 2)
    assert chain.edges == () and chain.vertices == (0,)
    before = col.copy()
    col.swap_chain(chain)
    assert col == before


def test_are_linked():
    col = triangle_minus_ab()
    assert col.are_linked(0, 1, 1, 2)
    assert col.are_linked(0, 0, 1, 2)
    empty = PartialEdgeColoring(Graph(3), 2)
    assert not empty.are_linked(0, 1, 1, 2)


def test_swap_chain_involution_and_exchange():
    col = triangle_minus_ab()
    before = col.copy()
    chain = col.chain_through(0, 1, 2)
    col.swap_chain(chain)
    assert col.color_of((0, 2)) == 2 and col.color_of((1, 2)) == 1
    assert col.validate()
    col.kempe_swap_at(0, 1, 2)
    assert col == before


def test_equal_color_swap_is_noop():
    col = triangle_minus_ab()
    before = col.copy()
    chain = col.kempe_swap_at(0, 2, 2)
    assert chain.edges == ()
    assert col == before


def test_swap_chain_stale_rejected():
    col = triangle_minus_ab()
    chain = col.chain_through(0, 1, 2)
    col.uncolor_edge((1, 2))
    with pytest.raises(ChainError):
        col.swap_chain(chain)


def test_subchain_whole_path_equals_chain_swap():
    col = triangle_minus_ab()
    ref = col.copy()
    ref.kempe_swap_at(0, 1, 2)
    col.swap_subchain(0, 1, 1, 2)
    assert col == ref
    col.swap_subchain(0, 0, 1, 2)
    assert col == ref  # empty segment


def test_subchain_unlinked_and_cycle_rejected():
    empty = PartialEdgeColoring(Graph(3), 2)
    with pytest.raises(ChainError):
        empty.swap_subchain(0, 1, 1, 2)
    c4 = cycle_graph(4)
    col = PartialEdgeColoring(c4, 2)
    for (u, v), c in {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}.items():
        col.color_edge((u, v), c)
    with pytest.raises(ChainError):
        col.swap_subchain(0, 2, 1, 2)


def test_apply_script_empty_and_trace():
    col = triangle_minus_ab()
    out, trace = apply_script(col, SwapScript())
    assert out == col and trace == []


def test_apply_script_worked_example():
    """Subchain swap, recolor, then color the uncolored edge: the classic
    three-step matrix on a constructed instance."""
    g = Graph(6, [(0, 1), (0, 2), (2, 3), (1, 3), (4, 5)])
    col = PartialEdgeColoring(g, 3)
    col.color_edge((0, 2), 2)
    col.color_edge((2, 3), 1)
    col.color_edge((1, 3), 2)
    col.color_edge((4, 5), 1)
    script = SwapScript(
        [
            SwapSubchain(0, 1, 1, 2),
            RecolorEdge((4, 5), 1, 3),
            AssignColor((0, 1), 2),
        ]
    )
    work = col.copy()
    for step in script:
        from kempe.coloring import apply_step

        apply_step(work, step)
        assert work.validate()  # every intermediate state proper here
    out, trace = apply_script(col, script)
    assert out.is_full() and out.validate()
    assert len(trace) == 3
    assert out.color_of((0, 1)) == 2


def test_walk_that_never_ends_is_refused():
    """Recoloring 1-4 to 1 gives vertex 1 two edges of color 1, so the
    half chain from 0 runs round the loop 1-2-3-4-1 and never returns to 0:
    the step is refused instead of walked forever."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    col = PartialEdgeColoring(g, 3)
    for e, c in {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (1, 4): 3}.items():
        col.color_edge(e, c)
    script = SwapScript([RecolorEdge((1, 4), 3, 1), SwapHalfChain(0, 1, 2, (0, 1))])
    with pytest.raises(ScriptError, match="never ends") as exc:
        apply_script(col, script)
    assert exc.value.step_index == 1


def test_apply_script_error_names_step():
    col = triangle_minus_ab()
    col.uncolor_edge((1, 2))
    script = SwapScript([AssignColor((0, 1), 2), AssignColor((1, 2), 2)])
    with pytest.raises(ScriptError) as exc:
        apply_script(col, script)
    assert exc.value.step_index == 1


def test_script_render_two_rows():
    script = SwapScript([SwapSubchain(0, 1, 1, 2), AssignColor((0, 1), 2)])
    text = script.render()
    rows = text.splitlines()
    assert len(rows) == 2
    assert "P[0,1](1,2)" in rows[0]
    assert "1/2" in rows[1]


def test_serialize_roundtrip(pstar):
    col = vizing_plus_one_coloring(pstar)
    col.uncolor_edge(pstar.edges()[0])
    text = col.serialize()
    assert text.splitlines()[0] == f"k={col.k} uncolored=1"
    back = parse_coloring(pstar, text)
    assert back == col


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("k=2 uncolored=1\n0 1 -\n0 2 1\n1 2 2\n7 9 -\n", ColoringError, "not in"),
        ("k=2 uncolored=1\n0 1 -\n0 2 1\n1 2 2\n1 2 -\n", ValueError, "listed twice"),
        ("k=2 uncolored=1\n0 2 1\n1 2 2\n", ValueError, r"\(0, 1\)\] not listed"),
        ("k=2\n0 1 -\n0 2 1\n1 2 2\n", ValueError, "header"),
        ("k=2 uncolored=1 k=3\n0 1 -\n0 2 1\n1 2 2\n", ValueError, "header"),
    ],
    ids=["non-edge", "repeated-edge", "missing-edge", "no-count", "extra-field"],
)
def test_parse_coloring_reads_only_what_serialize_writes(text, error, message):
    """A coloring text lists every edge of its graph exactly once under the
    header serialize writes; a non-edge, a repeated or missing edge, and a
    header with no uncolored count or an extra field are refused, never
    read as a coloring."""
    triangle = builtin_fixture("triangle")
    col = triangle_minus_ab()
    assert parse_coloring(triangle, col.serialize()) == col
    with pytest.raises(error, match=message):
        parse_coloring(triangle, text)


def test_out_of_range_pair_is_not_an_edge():
    """A pair with an end outside 0..n-1 is no edge of the graph, also when
    the end is negative and indexing would wrap it round to vertex n-1."""
    g = Graph(3, [(1, 2)])
    assert not g.has_edge(-1, 1) and not g.has_edge(3, 1)
    with pytest.raises(ColoringError, match="not in graph"):
        PartialEdgeColoring(g, 2).color_edge((-1, 1), 1)
    with pytest.raises(ColoringError, match="not in graph"):
        parse_coloring(g, "k=2 uncolored=0\n-1 1 1\n1 2 -\n")


def test_validate_detects_corruption():
    col = triangle_minus_ab()
    assert col.validate()
    col._assign[(0, 2)] = 2  # force a conflict at vertex 2
    assert not col.validate()


# -- property tests ---------------------------------------------------------


def random_coloring(rng: random.Random, n: int) -> PartialEdgeColoring:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    g = Graph(n, edges)
    if g.edge_count() == 0 or g.n < 2:
        return PartialEdgeColoring(g, 1)
    col = vizing_plus_one_coloring(g)
    for e in g.edges():
        if rng.random() < 0.2:
            col.uncolor_edge(e)
    return col


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_swaps_preserve_validity(seed):
    rng = random.Random(seed)
    col = random_coloring(rng, rng.randint(2, 9))
    k = col.k
    for _ in range(30):
        v = rng.randrange(col.graph.n)
        a, b = rng.sample(range(1, k + 1), 2) if k >= 2 else (1, 1)
        if a == b or not (col.is_missing(v, a) or col.is_missing(v, b)):
            continue
        col.kempe_swap_at(v, a, b)
        assert col.validate()


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_components_partition_two_colored_edges(seed):
    rng = random.Random(seed)
    col = random_coloring(rng, rng.randint(2, 9))
    if col.k < 2:
        return
    a, b = 1, 2
    two_colored = {
        e for e, c in col.colored_edges().items() if c in (a, b)
    }
    seen_edges = set()
    seen_vertices = set()
    for v in range(col.graph.n):
        chain = col.chain_through(v, a, b)
        assert v in chain.vertices
        if v in seen_vertices:
            continue
        # the half chain from an end along its edge is the chain read from
        # that end; started on a cycle it is refused
        if chain.kind == "cycle":
            with pytest.raises(ChainError):
                col.half_chain_from(v, a, b, chain.edges[0])
        elif chain.edges:
            ends = chain.vertices[0], chain.vertices[-1]
            assert col.half_chain_from(ends[0], a, b, chain.edges[0]) == chain.edges
            assert col.half_chain_from(ends[1], a, b, chain.edges[-1]) == tuple(
                reversed(chain.edges)
            )
        overlap = seen_edges & set(chain.edges)
        assert overlap == set(chain.edges) or not overlap
        seen_edges |= set(chain.edges)
        seen_vertices |= set(chain.vertices)
    assert seen_edges == two_colored


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_linked_is_symmetric_and_transitive(seed):
    rng = random.Random(seed)
    col = random_coloring(rng, rng.randint(3, 8))
    if col.k < 2:
        return
    a, b = 1, 2
    n = col.graph.n
    verts = range(n)
    linked = {
        (x, y): col.are_linked(x, y, a, b) for x in verts for y in verts
    }
    for x in verts:
        assert linked[(x, x)]
        for y in verts:
            assert linked[(x, y)] == linked[(y, x)]
            for z in verts:
                if linked[(x, y)] and linked[(y, z)]:
                    assert linked[(x, z)]


def test_fuzz_c5_swaps_stay_valid():
    rng = random.Random(7)
    col = vizing_plus_one_coloring(cycle_graph(5))
    for _ in range(1000):
        v = rng.randrange(5)
        a, b = rng.sample(range(1, col.k + 1), 2)
        if col.is_missing(v, a) or col.is_missing(v, b):
            col.kempe_swap_at(v, a, b)
    assert col.validate()


@pytest.mark.parametrize(
    "assignment, reason",
    [
        ({(0, 1): 1, (0, 2): 2}, "not in graph"),  # C5 has no chord
        ({(0, 1): 1, (-1, 3): 2}, "not in graph"),  # a negative end
        ({(0, 1): 1, (3, 5): 2}, "not in graph"),  # an end past n
        ({(1, 0): 1}, "not normalized"),
        ({(0, 1): 4}, "outside 1..3"),
        ({(0, 1): 0}, "outside 1..3"),
        ({(0, 1): 2, (1, 2): 2}, "already present"),
    ],
)
def test_from_assignment_rejects_bad_input(assignment, reason):
    g = cycle_graph(5)
    with pytest.raises(ColoringError, match=reason):
        PartialEdgeColoring.from_assignment(g, 3, assignment)


def test_from_assignment_equals_coloring_edge_by_edge():
    g = builtin_fixture("pstar")
    full = vizing_plus_one_coloring(g)
    items = sorted(full.colored_edges().items())
    for count in (0, 5, len(items)):
        built = PartialEdgeColoring(g, full.k)
        for e, c in items[:count]:
            built.color_edge(e, c)
        col = PartialEdgeColoring.from_assignment(g, full.k, dict(items[:count]))
        assert col == built and col.validate()
        assert list(col.colored_edges()) == list(built.colored_edges())
        assert all(col.missing(v) == built.missing(v) for v in range(g.n))


# The path 2-0-1-3-4: at k = 2 its walk swaps an (a, b)-path at its last edge.
SWAP_PATH = Graph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])


def test_kempe_walk_swaps_a_path_to_free_a_color():
    """On the path 2-0-1-3-4 at k = 2 the walk colors 34 with 1, 13 with 2
    and 02 with 1. Then 0 misses only 2 and 1 misses only 1, so 01 has no
    common missing color; the (2, 1)-path from 1 is 13, 34, which ends at
    4, not at 0, so swapping it frees 2 at 1 and 01 takes 2: one step per
    edge, whatever the seed, since each end misses one color."""
    for seed in range(4):
        col = kempe_walk(SWAP_PATH, 2, seed, 4)
        assert col.colored_edges() == {(3, 4): 2, (1, 3): 1, (0, 2): 1, (0, 1): 2}
        assert col.is_full() and col.validate()
        assert kempe_walk(SWAP_PATH, 2, seed, 3) is None


def test_kempe_walk_answers_only_yes():
    """From the empty coloring, on every graph with n <= 6 at k = Delta and
    k = Delta + 1, the walk returns a validated full k-coloring or None and
    never raises. It never colors a Class 2 graph with Delta colors, it
    colors every graph with Delta + 1, and it gives up on few Class 1
    graphs."""
    class1 = gave_up = 0
    for seed, g in enumerate(g for n in range(1, 7) for g in enumerate_graphs(n)):
        delta = g.max_degree()
        colorable = find_edge_coloring(g, delta) is not None
        class1 += colorable
        for k in (delta, delta + 1):
            col = kempe_walk(g, k, seed, 8 * k * g.edge_count())
            if col is None:
                assert k == delta
                gave_up += colorable
                continue
            assert col.k == k and col.is_full() and col.validate()
            assert colorable or k > delta
    assert class1 == 189 and gave_up <= class1 // 50


class StuckChoice(random.Random):
    """A generator whose every choice is color 1, missing or not."""

    def choice(self, seq):
        return 1


def test_kempe_walk_validates_its_result(monkeypatch):
    """A walk whose generator draws a color that is present colors 01 of
    the path 2-0-1-3-4 with 1, next to 02 colored 1, and the improper
    result is refused."""
    monkeypatch.setattr(coloring, "random", SimpleNamespace(Random=StuckChoice))
    with pytest.raises(ColoringError, match="already present"):
        kempe_walk(SWAP_PATH, 2, 0, 4)
    with pytest.raises(ValueError, match="k >= Delta"):
        kempe_walk(cycle_graph(4), 1, 0, 10)


def test_kempe_walk_builds_its_generator_at_its_first_draw(monkeypatch):
    """`random.Random(seed)` is built only when the ends of an edge miss no
    common color, and once per walk however many such steps it takes. A
    seed gives the same coloring whatever was walked before it, and two
    seeds can give two colorings."""
    built = []

    class Counted(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(coloring, "random", SimpleNamespace(Random=Counted))
    # C4 from its last edge back: every edge finds a common missing color
    assert kempe_walk(cycle_graph(4), 2, 5, 4).is_full()
    assert built == []
    assert kempe_walk(SWAP_PATH, 2, 5, 4).is_full()
    assert built == [5]
    # K6 at k = 5 meets several such steps and draws again at each one
    k6 = builtin_fixture("k6")
    first = kempe_walk(k6, 5, 7, 55)
    assert first.is_full() and built == [5, 7]
    for seed, g in enumerate([k6, builtin_fixture("petersen"), cycle_graph(5)]):
        kempe_walk(g, g.max_degree(), seed, 100)
    assert kempe_walk(k6, 5, 7, 55) == first
    assert any(kempe_walk(k6, 5, seed, 55) != first for seed in range(8))

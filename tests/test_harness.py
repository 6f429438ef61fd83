from __future__ import annotations

import hashlib
import json
import os
import random
import re
import types
from pathlib import Path

import pytest

import kempe
import kempe.classify as classifier
import kempe.harness as harness
from kempe.classify import (
    GraphClass,
    classify,
    delta_coloring_of_minus_e,
    find_edge_coloring,
    vizing_plus_one_coloring,
)
from kempe.coloring import PartialEdgeColoring
from kempe.graph import (
    Graph,
    SplitSpec,
    builtin_fixture,
    complete_graph,
    cycle_graph,
    edge_key,
    full_deficiency_pairs,
    hypercube_graph,
    is_overfull,
    split_vertex,
    to_graph6,
)
from kempe.harness import (
    SWEEP_CHECKS,
    SuiteConfig,
    _split_specs,
    delta_critical_corpus,
    enumerate_graphs,
    lemma_sweep,
    parity_sweep,
    round_robin_one_factorization,
    run_suite,
    verify_corollary_entry,
    verify_normalization,
    verify_theorem1,
    verify_theorem2,
    verify_theorem2_entry,
    write_reports,
)
from kempe.iso import automorphisms, enumerate_mask_graphs, masks_isomorphic
from kempe.normalize import HypothesisError, normalize_k5
from kempe.report import failing, merge_reports, passing, vacuous
from kempe.structures import KiersteadPath, find_kierstead_paths

import oracles
from oracles import (
    KNOWN_GRAPH_COUNTS,
    bruteforce_unlabeled_count,
    burnside_unlabeled_count,
    reference_lemma_sweep,
)
from test_normalize import planted_class1_host
from test_shares import assert_no_child_left, record_forks, use_cpus


def test_enumeration_counts_small():
    for n in range(1, 6):
        got = len(enumerate_graphs(n))
        assert got == KNOWN_GRAPH_COUNTS[n]
        assert got == bruteforce_unlabeled_count(n)
        if n >= 3:
            assert got == burnside_unlabeled_count(n)


def test_enumeration_count_n6_vs_burnside():
    assert len(enumerate_graphs(6)) == burnside_unlabeled_count(6) == 156


def test_enumeration_result_is_immutable():
    for n in (0, 1, 4):
        first = enumerate_mask_graphs(n)
        assert isinstance(first, tuple)
        with pytest.raises(AttributeError):
            first.append((0,) * n)
        assert enumerate_mask_graphs(n) == first
    assert len(enumerate_mask_graphs(4)) == KNOWN_GRAPH_COUNTS[4]


def test_enumeration_budget(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_graphs(9)
    orders = []
    monkeypatch.setattr(harness, "enumerate_mask_graphs", orders.append)
    with pytest.raises(ValueError):
        delta_critical_corpus(9)
    assert orders == []  # refused at once, before any graph is enumerated


def test_corpus_pass_streams(monkeypatch):
    """The corpus pass goes one order at a time: the graphs of order n are
    classified after order n is enumerated and before order n + 1 is. The
    pass is pinned to one process: a forked share's calls are made in its
    own memory and would not be recorded here."""
    use_cpus(monkeypatch, 1)
    events = []

    def recorded(n):
        events.append(("enumerate", n))
        return enumerate_mask_graphs(n)

    check = harness.check_parity

    def checked(col):
        events.append(("parity", col.graph.n))
        return check(col)

    monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
    monkeypatch.setattr(harness, "enumerate_mask_graphs", recorded)
    monkeypatch.setattr(harness, "check_parity", checked)
    delta_critical_corpus(6)
    assert [n for kind, n in events if kind == "enumerate"] == list(range(1, 7))
    assert [n for _, n in events] == sorted(n for _, n in events)
    for n in range(2, 7):
        assert events.index(("enumerate", n)) < events.index(("parity", n))


def test_enumerated_graphs_are_their_masks():
    """`enumerate_graphs` builds one `Graph` per enumerated mask tuple, in
    order, with the same adjacency; `tests/test_iso.py` checks by networkx
    that the mask tuples are pairwise non-isomorphic."""
    for n in range(1, 8):
        masks = enumerate_mask_graphs(n)
        graphs = enumerate_graphs(n)
        assert len(graphs) == len(masks)
        assert [g.adjacency_masks() for g in graphs] == list(masks)


def test_round_robin_one_factorization():
    for n in (4, 6, 8):
        col = round_robin_one_factorization(n)
        assert col.k == n - 1
        assert col.is_full() and col.validate()
    with pytest.raises(ValueError):
        round_robin_one_factorization(5)


def test_theorem1_k4():
    rep = verify_theorem1(round_robin_one_factorization(4))
    assert rep.passed and rep.fired


def test_theorem1_does_not_solve_its_host(monkeypatch):
    """The host's coloring is its Class 1 certificate: the solver sees
    only the split graphs and their edge deletions, never the host."""
    solved = []

    def recording(g, k, **kwargs):
        solved.append(g)
        return find_edge_coloring(g, k, **kwargs)

    monkeypatch.setattr(classifier, "find_edge_coloring", recording)
    rep = verify_theorem1(round_robin_one_factorization(6))
    assert rep.passed and rep.fired
    assert solved
    assert all(g.n == 7 for g in solved)


# _split_specs of K4, K6, K8 and K10 before the specs were cut to one per
# automorphism orbit: one vertex and one part per size, which the
# theorem-vertex-splitting report counts
COMPLETE_SPLITS = {
    4: [(0, {1})],
    6: [(0, {1}), (0, {1, 2})],
    8: [(0, {1}), (0, {1, 2}), (0, {1, 2, 3})],
    10: [(0, {1}), (0, {1, 2}), (0, {1, 2, 3}), (0, {1, 2, 3, 4})],
}


@pytest.mark.parametrize("n", sorted(COMPLETE_SPLITS))
def test_complete_graph_split_specs(n):
    specs = _split_specs(complete_graph(n))
    assert [(s.vertex, set(s.part_one)) for s in specs] == COMPLETE_SPLITS[n]


def test_theorem1_rejects_bad_inputs(monkeypatch):
    """Each host breaks one clause of the certificate, and is rejected
    before any split."""
    unfinished = round_robin_one_factorization(4)
    unfinished.uncolor_edge((0, 1))
    improper = round_robin_one_factorization(4)
    a = improper.color_of((0, 1))
    improper.swap_explicit_path((0, 1), a, a % 3 + 1)  # clashes at 0 and 1
    bad_hosts = [
        (vizing_plus_one_coloring(cycle_graph(5)), "3 colors, not Delta = 2"),
        (vizing_plus_one_coloring(builtin_fixture("splitk4")), "must be regular"),
        (unfinished, "must color every edge"),
        (improper, "must be proper"),
        (find_edge_coloring(complete_graph(4), 4), "4 colors, not Delta = 3"),
    ]

    def no_split(*args, **kwargs):
        raise AssertionError("verify_theorem1 split a host it should reject")

    monkeypatch.setattr(harness, "split_vertex", no_split)
    for host, message in bad_hosts:
        with pytest.raises(ValueError, match=message):
            verify_theorem1(host)


def test_theorem1_fails_on_a_split_that_is_not_critical(monkeypatch):
    """A split that is not Delta-critical fails the theorem, with the
    split and the graph it gave; K4 has one split up to symmetry."""
    k4 = complete_graph(4)
    split = split_vertex(k4, SplitSpec(0, frozenset({1})))
    monkeypatch.setattr(harness, "is_delta_critical", lambda h: h != split)
    rep = verify_theorem1(round_robin_one_factorization(4))
    assert not rep.passed
    assert rep.hypothesis_met == 1
    assert rep.counterexample == {
        "graph6": to_graph6(k4),
        "split_vertex": 0,
        "part_one": [1],
        "result_graph6": to_graph6(split),
    }


def test_theorem1_vacuous_below_degree_bound():
    rep = verify_theorem1(find_edge_coloring(hypercube_graph(3), 3))
    assert rep.passed and not rep.fired


def test_theorem2_entries(triangle, splitk4, pstar):
    rep = verify_theorem2_entry(triangle)
    assert rep.passed and rep.fired
    rep = verify_theorem2_entry(splitk4)
    assert rep.passed and rep.fired
    rep = verify_theorem2_entry(pstar)  # degree bound unmet: vacuous
    assert rep.passed and not rep.fired


def k4_minus_edge():
    return Graph(4, [e for e in complete_graph(4).edges() if e != (0, 1)])


def test_theorem2_overfull_clause():
    """K4 minus an edge meets the hypothesis (pairs such as (0, 2), and
    4 * 3 >= 3 * 3) but has 5 <= 3 * 2 edges."""
    g = k4_minus_edge()
    rep = verify_theorem2_entry(g)
    assert not rep.passed and rep.hypothesis_met == 1
    assert rep.counterexample == {"graph6": to_graph6(g), "clause": "overfull"}


def test_theorem2_makes_no_solver_call(monkeypatch):
    corpus = delta_critical_corpus(7)

    def no_solver(*args, **kwargs):
        raise AssertionError("the edge count decides Theorem 2")

    monkeypatch.setattr(classifier, "find_edge_coloring", no_solver)
    rep = verify_theorem2(corpus)
    assert rep.passed and rep.fired


def theorem2_identification_hosts():
    """(graph, pair, Delta-coloring of G - ab) for every full-deficiency
    pair (a, b) whose G - ab is Delta-colorable, of every graph on at most
    7 vertices and of every split of K4, K6 and K8."""
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for n in (4, 6, 8):
        k = complete_graph(n)
        graphs += [split_vertex(k, spec) for spec in _split_specs(k)]
    for g in graphs:
        for pair in full_deficiency_pairs(g):
            try:
                yield g, pair, delta_coloring_of_minus_e(g, pair)
            except ValueError:
                continue


def test_theorem2_identification_matches_networkx():
    """`verify_theorem2_entry` reads the identification off the edge count.
    On every overfull host the networkx contraction of a and b in the
    coloring of G - ab is Delta-regular and properly colored, and the entry
    passes. The hosts that are not overfull fail in both ways, so the
    oracle tells the two conditions apart."""
    overfull, outcomes = 0, set()
    for g, pair, col in theorem2_identification_hosts():
        regular, proper = oracles.identified_pair_is_regular_and_proper(col, *pair)
        if is_overfull(g):
            overfull += 1
            assert regular and proper, (to_graph6(g), pair)
            assert verify_theorem2_entry(g).passed
        else:
            outcomes.add((regular, proper))
    assert overfull == 38 + 9  # pairs on at most 7 vertices, then the splits
    assert any(not regular for regular, _ in outcomes)
    assert any(not proper for _, proper in outcomes)


def test_corollary_entry(splitk4):
    rep = verify_corollary_entry(splitk4)
    assert rep.passed and rep.fired


def test_critical_corpus_small_contents(critical_corpus_small):
    masks = [g.adjacency_masks() for g in critical_corpus_small]
    for h in (builtin_fixture("triangle"), cycle_graph(5), builtin_fixture("splitk4")):
        assert any(masks_isomorphic(m, h.adjacency_masks()) for m in masks)
    assert all(g.n % 2 == 1 for g in critical_corpus_small)  # no even-order critical graphs here


def test_lemma_sweep_small_corpus(critical_corpus_small):
    reports, _ = lemma_sweep(critical_corpus_small, seeds=2)
    assert all(rep.passed for rep in reports)
    by_name = {rep.check: rep for rep in reports}
    assert by_name["val"].fired
    assert by_name["multifan-lemmas"].fired
    assert by_name["full-deficiency-pair"].fired


def test_parity_sweep():
    rep = parity_sweep(5)
    assert rep.passed and rep.fired


def test_parity_sweep_reuses_corpus_pass(monkeypatch):
    monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
    calls = []
    solve = classifier.find_edge_coloring

    def counting(*args, **kwargs):
        col = solve(*args, **kwargs)
        calls.append((args, col is None))
        return col

    # the harness reaches the solver only through the classifier
    monkeypatch.setattr(classifier, "find_edge_coloring", counting)
    delta_critical_corpus(5)
    assert calls
    # a refuted graph is not solved again to learn that it is Class 2
    for (args, refuted), (next_args, _) in zip(calls, calls[1:]):
        assert not (refuted and next_args == args)
    calls.clear()
    rep = parity_sweep(5)
    assert calls == []
    assert rep.passed and rep.fired


def test_corpus_pass_without_the_walk_is_unchanged(monkeypatch):
    """With every walk giving up, the solver colors each graph, and the
    pass finds the same critical graphs in the same order and an equal
    parity report."""
    monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
    walked = harness._corpus_pass(7)
    monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
    walks = []
    monkeypatch.setattr(classifier, "kempe_walk", lambda *args: walks.append(args))
    assert harness._corpus_pass(7) == walked
    assert walks
    assert len(walked[0]) == 26


def test_corpus_pass_does_not_depend_on_the_cpus(monkeypatch):
    """Every order dealt to up to 3 shares gives the critical tuple, in
    corpus order, and the parity report of one process."""
    results = []
    for jobs in (1, 3):
        monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
        use_cpus(monkeypatch, jobs)
        forks = record_forks(monkeypatch)
        critical, parity = harness._corpus_pass(7)
        levels = [len(enumerate_mask_graphs(n)) for n in range(1, 8)]
        assert len(forks) == sum(min(jobs, size) - 1 for size in levels)
        results.append(([g.edges() for g in critical], parity.to_dict()))
    assert results[0] == results[1]
    assert len(results[0][0]) == 26
    assert_no_child_left()


def test_corpus_pass_keeps_the_first_parity_failure(monkeypatch):
    """Two Class 1 graphs of the last order fail parity, the later one in
    share 0 and the earlier one in share 1 of 3: the report keeps the
    earlier one's counterexample on 1 CPU and on 3."""
    last = enumerate_mask_graphs(7)
    class1 = [
        i for i, masks in enumerate(last)
        if any(masks) and classify(Graph.from_masks(masks)) is GraphClass.CLASS1
    ]
    early = next(i for i in class1[len(class1) // 2:] if i % 3 == 1)
    late = early + 2
    assert late in class1
    planted = {last[early], last[late]}
    check = harness.check_parity

    def planted_failure(col):
        if col.graph.adjacency_masks() in planted:
            return failing("parity", col, color=1, missing_count=0)
        return check(col)

    monkeypatch.setattr(harness, "check_parity", planted_failure)
    reports = []
    for jobs in (1, 3):
        monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
        use_cpus(monkeypatch, jobs)
        reports.append(harness._corpus_pass(7)[1])
    assert reports[0].to_dict() == reports[1].to_dict()
    assert not reports[0].passed
    assert reports[0].counterexample["graph6"] == to_graph6(Graph.from_masks(last[early]))
    assert_no_child_left()


def test_every_class2_verdict_is_a_refutation(monkeypatch):
    """The walk can only answer yes: the pass's Class 2 verdicts, its
    graphs with edges less its parity-checked colorings, are exactly the
    solver's refutations in the pass. Each graph with edges is walked once,
    and the solver is called only after a walk gives up. Criticality goes
    through the same routine, so its calls are counted apart."""
    monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
    walk, solve = classifier.kempe_walk, classifier.find_edge_coloring
    critical_edges = harness.all_edges_critical
    calls = {"pass": ([], []), "criticality": ([], [])}
    stage = ["pass"]

    def walking(*args):
        col = walk(*args)
        calls[stage[0]][0].append(col is not None)
        return col

    def solving(g, k):
        col = solve(g, k)
        calls[stage[0]][1].append(col is None)
        return col

    def criticality(g):
        stage[0] = "criticality"
        try:
            return critical_edges(g)
        finally:
            stage[0] = "pass"

    monkeypatch.setattr(classifier, "kempe_walk", walking)
    monkeypatch.setattr(classifier, "find_edge_coloring", solving)
    monkeypatch.setattr(harness, "all_edges_critical", criticality)
    use_cpus(monkeypatch, 1)  # a forked share's calls would not be recorded
    _, parity = harness._corpus_pass(7)
    walks, refuted = calls["pass"]
    with_edges = sum(1 for n in range(1, 8) for masks in enumerate_mask_graphs(n) if any(masks))
    assert with_edges - parity.hypothesis_met == sum(refuted) > 0
    assert len(walks) == with_edges
    assert len(refuted) == walks.count(False)
    # most graphs are colored by the walk, and the solver answers the rest
    assert True in walks and False in walks
    assert len(refuted) < len(walks) // 4
    # criticality walks each g - e it tries, and the solver answers some
    assert calls["criticality"][0] and calls["criticality"][1]


def test_mining_vacuous_on_small_corpus(critical_corpus_small):
    _, instances = lemma_sweep(critical_corpus_small, seeds=2)
    assert instances == []


def test_normalization_counts_only_instances_meeting_the_hypothesis():
    """A 5-vertex path on a corpus coloring whose far end shares fewer than
    3 missing colors with the root pair is refused by `normalize_k5`, so
    the check meets no instance and is vacuous, not passed once."""
    for g in delta_critical_corpus(7):
        e = g.edges()[0]
        col = delta_coloring_of_minus_e(g, e)
        paths = find_kierstead_paths(col, 4)
        if paths:
            break
    else:
        raise AssertionError("no corpus coloring has a 5-vertex path")
    with pytest.raises(HypothesisError):
        normalize_k5(col, paths[0])
    rep = verify_normalization([(g, e, 0, paths[0], col)])
    assert rep.passed and not rep.fired
    assert rep.details == {"reason": "hypothesis-unmet"}


def test_lemma_suite_solves_each_coloring_once(monkeypatch):
    monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
    seen = []
    solve = harness.delta_coloring_of_minus_e

    def recording(g, e, seed=0, **kwargs):
        seen.append((g, tuple(sorted(e)), seed))
        return solve(g, e, seed=seed, **kwargs)

    monkeypatch.setattr(harness, "delta_coloring_of_minus_e", recording)
    use_cpus(monkeypatch, 1)  # a forked worker's calls would not be recorded
    result = run_suite(SuiteConfig(suite="lemmas", n_max=6, seeds=2))
    assert result.exit_code == 0
    assert seen
    assert len(seen) == len(set(seen))


def recolored(col: PartialEdgeColoring, rng: random.Random) -> PartialEdgeColoring:
    """`col` with its colors renamed by a random permutation of 1..k."""
    names = list(range(1, col.k + 1))
    rng.shuffle(names)
    out = PartialEdgeColoring(col.graph, col.k)
    for e, c in col.colored_edges().items():
        out.color_edge(e, names[c - 1])
    return out


def relabelled(col: PartialEdgeColoring, gamma: tuple[int, ...]) -> PartialEdgeColoring:
    """`col` carried by the automorphism `gamma` of its graph: the edge
    (gamma u, gamma v) gets the color of (u, v)."""
    out = PartialEdgeColoring(col.graph, col.k)
    for (u, v), c in col.colored_edges().items():
        out.color_edge((gamma[u], gamma[v]), c)
    return out


def record_checked(monkeypatch) -> list[PartialEdgeColoring]:
    """Make the sweep's class checks record each coloring they run on. The
    sweep is pinned to one process: a forked worker's calls are made in
    its own memory and would not be recorded here."""
    use_cpus(monkeypatch, 1)
    checked = []
    helper = harness._coloring_reports

    def recording(col, e):
        checked.append(col)
        return helper(col, e)

    monkeypatch.setattr(harness, "_coloring_reports", recording)
    return checked


def test_lemma_sweep_matches_reference_sweep(critical_corpus_small):
    reports, instances = lemma_sweep(critical_corpus_small, seeds=8)
    ref_reports, ref_instances = reference_lemma_sweep(
        critical_corpus_small, 8, delta_coloring_of_minus_e
    )
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref_reports]
    assert instances == ref_instances


def test_lemma_sweep_checks_a_path_class_on_every_seed(monkeypatch):
    """Seeds 1 and 2 rename the colors of the planted host, whose 5-vertex
    path meets the overlap-3 hypothesis and fails the inner-degree claim;
    seed 3 is solved. Seed 4 is the planted host carried by the
    automorphism swapping the leaves 6 and 7, which no renaming of colors
    gives, so only the automorphisms put it in seed 0's class. A class
    with such a path is not replayed: seeds 0, 1, 2 and 4 are each checked
    on their own coloring and mine their own validated path, and the first
    counterexample is seed 0's."""
    planted, path = planted_class1_host()
    g = planted.graph
    edges = g.edges()
    solve = harness.delta_coloring_of_minus_e
    rng = random.Random(12)
    swap67 = (0, 1, 2, 3, 4, 5, 7, 6)
    colorings = [planted, recolored(planted, rng), recolored(planted, rng)]
    colorings.append(solve(g, (0, 1), seed=3))
    colorings.append(relabelled(planted, swap67))
    assert colorings[1] != planted
    assert swap67 in automorphisms(g.adjacency_masks())
    assert harness._color_class_key(colorings[4], edges) != harness._color_class_key(
        planted, edges
    )

    def planted_first(h, e, seed=0):
        return colorings[seed] if e == (0, 1) else solve(h, e, seed=seed)

    monkeypatch.setattr(harness, "delta_coloring_of_minus_e", planted_first)
    checked = record_checked(monkeypatch)
    reports, instances = lemma_sweep((g,), seeds=5)
    ref_reports, ref_instances = reference_lemma_sweep((g,), 5, planted_first)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref_reports]
    assert instances == ref_instances
    for s in (0, 1, 2, 4):
        assert sum(col is colorings[s] for col in checked) == 1
    planted_instances = [
        (seed, kp, col) for _, e, seed, kp, col in instances if e == (0, 1)
    ]
    assert [(seed, kp) for seed, kp, _ in planted_instances if seed != 3] == [
        (0, path), (1, path), (2, path), (4, path)
    ]
    assert all(col is colorings[seed] for seed, _, col in planted_instances)
    for _, kp, col in planted_instances:
        kp.validate(col)
    k5 = reports[SWEEP_CHECKS.index("kierstead5-degrees")]
    assert not k5.passed
    assert k5.counterexample["coloring"] == planted.serialize()


def test_lemma_sweep_moves_paths_across_an_edge_orbit(monkeypatch):
    """Two disjoint copies of the planted host, the second fully colored:
    swapping the copies takes the coloring of G - (0, 1) to one of
    G - (8, 9), so both fall in one class. The class has a 5-vertex path
    that meets the overlap-3 hypothesis, so both copies are checked, and
    G - (8, 9) mines the path moved into the second copy."""
    planted, path = planted_class1_host()
    h = planted.graph
    g = Graph(2 * h.n, h.edges() + [(u + h.n, v + h.n) for u, v in h.edges()])
    swap = tuple(range(h.n, 2 * h.n)) + tuple(range(h.n))
    first = PartialEdgeColoring(g, planted.k)
    for (u, v), c in planted.colored_edges().items():
        first.color_edge((u, v), c)
        first.color_edge((u + h.n, v + h.n), c)
    first.color_edge((h.n, h.n + 1), 2)  # both root ends miss 2
    second = relabelled(first, swap)
    moved = KiersteadPath(tuple(v + h.n for v in path.vertices))
    solve = harness.delta_coloring_of_minus_e
    planted_at = {(0, 1): first, (8, 9): second}

    def planted_first(graph, e, seed=0):
        return planted_at[e] if e in planted_at else solve(graph, e, seed=seed)

    monkeypatch.setattr(harness, "delta_coloring_of_minus_e", planted_first)
    checked = record_checked(monkeypatch)
    reports, instances = lemma_sweep((g,), seeds=1)
    ref_reports, ref_instances = reference_lemma_sweep((g,), 1, planted_first)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref_reports]
    assert instances == ref_instances
    assert any(col is first for col in checked)
    assert any(col is second for col in checked)
    assert (g, (8, 9), 0, moved, second) in instances
    k5 = reports[SWEEP_CHECKS.index("kierstead5-degrees")]
    assert k5.counterexample["coloring"] == first.serialize()


def test_lemma_sweep_checks_each_color_class_once(monkeypatch):
    """At n <= 7 and 8 seeds the 2,576 colorings of the edge deletions
    fall into 460 classes up to the graph's automorphisms and the names of
    colors (1,407 up to the names of colors alone). At 32 seeds the 10,304
    colorings fall into 546 such classes."""
    checked = record_checked(monkeypatch)
    corpus = delta_critical_corpus(7)
    lemma_sweep(corpus, seeds=8)
    assert 8 * sum(g.edge_count() for g in corpus) == 2576
    assert len(checked) == 460


@pytest.mark.parametrize("jobs", [2, 3])
def test_forked_sweep_matches_one_process(monkeypatch, jobs):
    """Sweeping the graphs over `jobs` processes gives the reports and the
    mined paths of one process, whatever the number of CPUs."""
    corpus = delta_critical_corpus(7)
    use_cpus(monkeypatch, 1)
    reports, instances = lemma_sweep(corpus, seeds=2)
    use_cpus(monkeypatch, jobs)
    forks = record_forks(monkeypatch)
    forked_reports, forked_instances = lemma_sweep(corpus, seeds=2)
    assert len(forks) == jobs - 1
    assert [r.to_dict() for r in forked_reports] == [r.to_dict() for r in reports]
    assert forked_instances == instances
    assert_no_child_left()


def test_forked_suite_writes_identical_reports(monkeypatch, tmp_path: Path):
    for jobs in (1, 3):
        use_cpus(monkeypatch, jobs)
        write_reports(run_suite(SuiteConfig(n_max=7, seeds=2)), tmp_path / str(jobs))
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "3").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()


def test_forked_sweep_ships_mined_paths(monkeypatch):
    """The planted host and two disjoint copies of it, each with the
    overlap-3 path planted on every seed of its root edge: over two
    processes the smaller graph goes to the forked worker, which ships its
    mined paths back pickled. They are put back on the corpus graph itself
    and match the reference sweep."""
    planted, path = planted_class1_host()
    g = planted.graph
    pair = Graph(2 * g.n, g.edges() + [(u + g.n, v + g.n) for u, v in g.edges()])
    doubled = PartialEdgeColoring(pair, planted.k)
    for (u, v), c in planted.colored_edges().items():
        doubled.color_edge((u, v), c)
        doubled.color_edge((u + g.n, v + g.n), c)
    doubled.color_edge((g.n, g.n + 1), 2)
    solve = harness.delta_coloring_of_minus_e

    def planted_first(h, e, seed=0):
        if e == (0, 1):
            return planted if h is g else doubled
        return solve(h, e, seed=seed)

    monkeypatch.setattr(harness, "delta_coloring_of_minus_e", planted_first)
    use_cpus(monkeypatch, 2)
    forks = record_forks(monkeypatch)
    corpus = (g, pair)
    reports, instances = lemma_sweep(corpus, seeds=2)
    ref_reports, ref_instances = reference_lemma_sweep(corpus, 2, planted_first)
    assert len(forks) == 1
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref_reports]
    assert instances == ref_instances
    shipped = [(e, seed, kp) for h, e, seed, kp, _ in instances if h is g]
    assert shipped[:2] == [((0, 1), 0, path), ((0, 1), 1, path)]
    rebuilt = [col for h, e, _, _, col in instances if h is g and e == (0, 1)]
    assert rebuilt == [planted, planted]
    assert all(col is not planted for col in rebuilt)
    k5 = reports[SWEEP_CHECKS.index("kierstead5-degrees")]
    assert k5.counterexample["coloring"] == planted.serialize()
    assert_no_child_left()


def fail_in(monkeypatch, in_parent: bool) -> None:
    """Make the class checks raise in this process or in every forked
    worker, naming the graph they were given."""
    parent = os.getpid()
    helper = harness._coloring_reports

    def failing_here(col, e):
        if (os.getpid() == parent) == in_parent:
            raise ValueError(f"planted failure on {to_graph6(col.graph)}")
        return helper(col, e)

    monkeypatch.setattr(harness, "_coloring_reports", failing_here)


def test_a_failing_worker_names_its_graph(monkeypatch):
    corpus = delta_critical_corpus(7)
    fail_in(monkeypatch, in_parent=False)
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="lemma sweep failed on") as info:
        lemma_sweep(corpus, seeds=2)
    graph6 = re.search(r"RuntimeError: lemma sweep failed on (\S+)", str(info.value))[1]
    assert graph6 in {to_graph6(g) for g in corpus}
    assert f"planted failure on {graph6}" in str(info.value)
    assert_no_child_left()


def test_a_failing_parent_share_stops_every_worker(monkeypatch):
    corpus = delta_critical_corpus(7)
    fail_in(monkeypatch, in_parent=True)
    use_cpus(monkeypatch, 3)
    forks = record_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="lemma sweep failed on") as info:
        lemma_sweep(corpus, seeds=2)
    assert isinstance(info.value.__cause__, ValueError)
    assert "planted failure on" in str(info.value.__cause__)
    assert len(forks) == 2
    assert_no_child_left()


def test_a_worker_that_dies_silently_is_an_error(monkeypatch):
    """A worker that ends without a message, as one killed would, fails
    the sweep with its wait status."""
    parent, sweep = os.getpid(), harness._sweep_graph
    monkeypatch.setattr(
        harness,
        "_sweep_graph",
        lambda g, seeds: sweep(g, seeds) if os.getpid() == parent else os._exit(3),
    )
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="ended with wait status 768"):
        lemma_sweep(delta_critical_corpus(7), seeds=2)
    assert_no_child_left()


@pytest.mark.parametrize(
    "cpus, graphs, jobs", [(1, 26, 1), (3, 2, 2), (4, 0, 1), (64, 26, 8)]
)
def test_sweep_jobs(monkeypatch, cpus, graphs, jobs):
    """One process per usable CPU, up to one per graph and 8 in all."""
    seen = []

    def recording(jobs, task):
        seen.append(jobs)
        return [task(j) for j in range(jobs)]

    monkeypatch.setattr(harness, "run_shares", recording)
    use_cpus(monkeypatch, cpus)
    lemma_sweep((complete_graph(3),) * graphs, seeds=2)
    assert seen == [jobs]


def test_one_cpu_forks_nothing(monkeypatch, critical_corpus_small):
    def no_fork():
        raise AssertionError("the sweep forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    use_cpus(monkeypatch, 1)
    reports, _ = lemma_sweep(critical_corpus_small, seeds=2)
    assert all(rep.passed for rep in reports)


def test_coloring_checks_ignore_color_names():
    """A check that reads the names of colors would make one class's
    replayed reports wrong for its other members: it must fail here."""
    rng = random.Random(0)
    for g in delta_critical_corpus(7):
        edges = g.edges()
        for e in edges:
            for seed in range(4):
                col = delta_coloring_of_minus_e(g, e, seed=seed)
                other = recolored(col, rng)
                reports, paths = harness._coloring_reports(col, e)
                other_reports, other_paths = harness._coloring_reports(other, e)
                assert [r.to_dict() for r in reports] == [
                    r.to_dict() for r in other_reports
                ]
                assert paths == other_paths
                key = harness._color_class_key(col, edges)
                assert key == harness._color_class_key(other, edges)


def label_free(rep) -> dict:
    """A report's dict without the counterexample of a failing report,
    which names the coloring it failed on: the sweep keeps only the first
    counterexample, and a class's first member is checked fresh."""
    d = rep.to_dict()
    if not rep.passed:
        del d["counterexample"]
    return d


def assert_coloring_checks_are_equivariant(colorings) -> int:
    """For each (coloring of G - e, e) and each generator gamma of Aut(G):
    the coloring carried by gamma, checked at gamma(e), gets the same
    reports, and its overlap-3 paths are the gamma-images of the original
    ones, sorted. Returns the number of paths compared."""
    compared = 0
    for col, e in colorings:
        reports, paths = harness._coloring_reports(col, e)
        for gamma in automorphisms(col.graph.adjacency_masks()):
            image_reports, image_paths = harness._coloring_reports(
                relabelled(col, gamma), edge_key(gamma[e[0]], gamma[e[1]])
            )
            assert [label_free(r) for r in image_reports] == [
                label_free(r) for r in reports
            ]
            assert image_paths == sorted(
                (KiersteadPath(tuple(gamma[v] for v in kp.vertices)) for kp in paths),
                key=lambda kp: kp.vertices,
            )
            compared += len(paths)
    return compared


def corpus_colorings(corpus, seeds):
    return [
        (delta_coloring_of_minus_e(g, e, seed=seed), e)
        for g in corpus
        for e in g.edges()
        for seed in range(seeds)
    ]


def test_coloring_checks_are_equivariant():
    """A check whose report changes under an automorphism would make one
    orbit class's replayed reports wrong for its other members: the
    corpus colorings at seeds 0 and 1 must keep their reports under every
    generator of Aut(G). The planted host, whose 5-vertex path meets the
    overlap-3 hypothesis, checks that the paths move with the generator."""
    planted, _ = planted_class1_host()
    colorings = corpus_colorings(delta_critical_corpus(7), 2)
    assert all(
        rep.passed
        for col, e in colorings
        for rep in harness._coloring_reports(col, e)[0]
    )
    assert assert_coloring_checks_are_equivariant(colorings) == 0
    assert assert_coloring_checks_are_equivariant([(planted, (0, 1))]) > 0


def test_a_check_reading_vertex_labels_is_caught(monkeypatch, critical_corpus_small):
    """Negative control: a fork check that adds the uncolored edge's lower
    end to a numeric detail is not equivariant. The equivariance test
    fails on it, and the sweep no longer matches the reference sweep, which
    runs the same check on every seed."""
    fork_absence = harness.check_fork_absence

    def labelled(col):
        rep = fork_absence(col)
        rep.details["root"] = col.uncolored_edges()[0][0]
        return rep

    for module in (harness, oracles):
        monkeypatch.setattr(module, "check_fork_absence", labelled)
    colorings = corpus_colorings(critical_corpus_small, 1)
    with pytest.raises(AssertionError):
        assert_coloring_checks_are_equivariant(colorings)
    reports, _ = lemma_sweep(critical_corpus_small, seeds=2)
    ref_reports, _ = reference_lemma_sweep(
        critical_corpus_small, 2, delta_coloring_of_minus_e
    )
    assert [r.to_dict() for r in reports] != [r.to_dict() for r in ref_reports]


def test_merge_is_associative_and_keeps_the_first():
    parts = [
        passing("x", met=2, pairs=3, clause="none"),
        failing("x", builtin_fixture("triangle"), details={"pairs": 1, "clause": "b"}),
        vacuous("x", pairs=0, reason="empty"),
        failing("x", cycle_graph(5), met=3, details={"pairs": 4}),
    ]
    a, b, c, d = parts
    left = a.merge(b).merge(c).merge(d)
    assert left == a.merge(b.merge(c.merge(d))) == a.merge(b).merge(c.merge(d))
    assert left == merge_reports(parts, "x")
    assert left.details == {"pairs": 8, "clause": "none", "reason": "empty"}
    assert (left.passed, left.hypothesis_met, left.vacuous) == (False, 6, 1)
    assert left.counterexample == b.counterexample != d.counterexample


def test_merge_rejects_a_detail_of_two_kinds():
    """Summing the numbers under a key and keeping the first of its other
    values is not associative once one key holds both: (5 + "s") + 3 read
    8 and 5 + ("s" + 3) read 5. Every such fold now raises, so a fold
    that succeeds is associative."""
    a, b, c = (passing("x", k=value) for value in (5, "s", 3))
    for fold in (lambda: a.merge(b).merge(c), lambda: a.merge(b.merge(c))):
        with pytest.raises(TypeError, match="'k'"):
            fold()
    assert b.merge(passing("x")).merge(passing("x", k="t")).details == {"k": "s"}
    assert a.merge(passing("x")).merge(c).details == {"k": 8}


def test_merge_reports_folds_lazily():
    assert merge_reports(iter(()), "parity") == vacuous("parity")
    merged = merge_reports((passing("x", colors=c) for c in (2, 3)), "x")
    assert merged.hypothesis_met == 2 and merged.details == {"colors": 5}


def test_classify_attribute_is_the_submodule():
    assert isinstance(kempe.classify, types.ModuleType)
    assert isinstance(classifier, types.ModuleType)
    assert classifier.classify is classify
    assert "classify" not in kempe.__all__


@pytest.mark.parametrize(
    "config, message",
    [
        (SuiteConfig(suite="everything"), "unknown suite 'everything'"),
        (SuiteConfig(n_max=0), "n_max must be at least 1"),
        (SuiteConfig(n_max=-3), "n_max must be at least 1"),
        (SuiteConfig(seeds=0), "seeds must be at least 1"),
        (SuiteConfig(n_max=9), "enumeration is budgeted for n <= 8"),
    ],
)
def test_run_suite_rejects_vacuous_configs(monkeypatch, config, message):
    def no_work(*args, **kwargs):
        raise AssertionError("run_suite did work before validating its config")

    monkeypatch.setattr(harness, "delta_critical_corpus", no_work)
    monkeypatch.setattr(harness, "verify_theorem1", no_work)
    with pytest.raises(ValueError, match=message):
        run_suite(config)


def test_theorem1_suite_builds_no_corpus(monkeypatch):
    def no_corpus(*args, **kwargs):
        raise AssertionError("the theorem1 suite does not read the corpus")

    monkeypatch.setattr(harness, "delta_critical_corpus", no_corpus)
    result = run_suite(SuiteConfig(suite="theorem1"))
    assert result.exit_code == 0
    assert [r.check for r in result.reports] == [
        "theorem-vertex-splitting-K4",
        "theorem-vertex-splitting-K6",
    ]


def test_run_suite_lemmas_small(tmp_path: Path):
    result = run_suite(SuiteConfig(suite="lemmas", n_max=5, seeds=2))
    write_reports(result, tmp_path / "r")
    assert result.exit_code == 0
    assert (tmp_path / "r" / "suite.json").exists()
    manifest = json.loads((tmp_path / "r" / "suite.json").read_text())
    assert manifest["failures"] == []
    assert set(manifest["not_instantiated"]) >= {"kierstead5-normalization"}


def test_report_determinism(tmp_path: Path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        config = SuiteConfig(suite="theorem2", n_max=5, seeds=2)
        result = run_suite(config)
        write_reports(result, out)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# sha256 over the sorted file names and contents of the report directory
# of SuiteConfig(suite="default", n_max=6, seeds=2), recorded before the
# suite was restructured into one solve per coloring.
SMALL_DEFAULT_DIGEST = "6c5cd1cf5d248c5e00b2ce28ebb08f2cb40cce37c2ac62498a3fac095cf190d0"


def test_small_default_reports_are_pinned(tmp_path: Path):
    out = tmp_path / "r"
    result = run_suite(SuiteConfig(suite="default", n_max=6, seeds=2))
    write_reports(result, out)
    assert result.exit_code == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert h.hexdigest() == SMALL_DEFAULT_DIGEST

from __future__ import annotations

import hashlib
import json
import random
import types
from pathlib import Path

import pytest

import kempe
import kempe.classify as classifier
import kempe.harness as harness
from kempe.classify import (
    classify,
    delta_coloring_of_minus_e,
    find_edge_coloring,
    vizing_plus_one_coloring,
)
from kempe.coloring import PartialEdgeColoring
from kempe.graph import builtin_fixture, complete_graph, cycle_graph, hypercube_graph
from kempe.harness import (
    SWEEP_CHECKS,
    SuiteConfig,
    _split_specs,
    delta_critical_corpus,
    enumerate_graphs,
    enumerate_graphs_upto,
    lemma_sweep,
    parity_sweep,
    round_robin_one_factorization,
    run_suite,
    verify_corollary_entry,
    verify_theorem1,
    verify_theorem2_entry,
    write_reports,
)
from kempe.iso import enumerate_mask_graphs, masks_isomorphic
from kempe.report import failing, merge_reports, passing, vacuous

from oracles import (
    KNOWN_GRAPH_COUNTS,
    bruteforce_unlabeled_count,
    burnside_unlabeled_count,
    reference_lemma_sweep,
)
from test_normalize import planted_class1_host


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


def test_enumeration_budget():
    with pytest.raises(ValueError):
        enumerate_graphs(9)
    with pytest.raises(ValueError):
        enumerate_graphs_upto(9)  # at once, before any graph is enumerated


def test_enumerate_graphs_upto_streams(monkeypatch):
    """The corpus pass gets each graph as it reaches it: the first graph
    comes before any larger order is enumerated."""
    orders = []

    def recorded(n):
        orders.append(n)
        return enumerate_mask_graphs(n)

    monkeypatch.setattr(harness, "enumerate_mask_graphs", recorded)
    graphs = enumerate_graphs_upto(6)
    assert next(graphs).n == 1
    assert orders == [1]
    assert sum(1 for _ in graphs) == sum(KNOWN_GRAPH_COUNTS[n] for n in range(1, 7)) - 1
    assert orders == list(range(1, 7))


def test_enumeration_members_distinct(critical_corpus_small):
    masks = [g.adjacency_masks() for g in enumerate_graphs(5)]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert not masks_isomorphic(masks[i], masks[j])


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
    solve = harness.find_edge_coloring

    def counting(*args, **kwargs):
        col = solve(*args, **kwargs)
        calls.append((args, col is None))
        return col

    # the harness binds the solver by name, and so does the classifier
    for module in (harness, classifier):
        monkeypatch.setattr(module, "find_edge_coloring", counting)
    delta_critical_corpus(5)
    assert calls
    # a refuted graph is not solved again to learn that it is Class 2
    for (args, refuted), (next_args, _) in zip(calls, calls[1:]):
        assert not (refuted and next_args == args)
    calls.clear()
    rep = parity_sweep(5)
    assert calls == []
    assert rep.passed and rep.fired


def test_mining_vacuous_on_small_corpus(critical_corpus_small):
    _, instances = lemma_sweep(critical_corpus_small, seeds=2)
    assert instances == []


def test_lemma_suite_solves_each_coloring_once(monkeypatch):
    monkeypatch.setattr(harness, "_CRITICAL_CACHE", {})
    seen = []
    solve = harness.delta_coloring_of_minus_e

    def recording(g, e, seed=0, **kwargs):
        seen.append((g, tuple(sorted(e)), seed))
        return solve(g, e, seed=seed, **kwargs)

    monkeypatch.setattr(harness, "delta_coloring_of_minus_e", recording)
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


def test_lemma_sweep_matches_reference_sweep(critical_corpus_small):
    reports, instances = lemma_sweep(critical_corpus_small, seeds=8)
    ref_reports, ref_instances = reference_lemma_sweep(
        critical_corpus_small, 8, delta_coloring_of_minus_e
    )
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref_reports]
    assert instances == ref_instances


def test_lemma_sweep_replays_a_class_on_later_seeds(monkeypatch):
    """Seeds 1 and 2 rename the colors of the planted host, whose 5-vertex
    path meets the overlap-3 hypothesis and fails the inner-degree claim;
    seed 3 is solved. The replayed seeds keep their own colorings in the
    mined instances, and the first counterexample is seed 0's."""
    planted, path = planted_class1_host()
    g = planted.graph
    solve = harness.delta_coloring_of_minus_e
    rng = random.Random(12)
    colorings = [planted, recolored(planted, rng), recolored(planted, rng)]
    colorings.append(solve(g, (0, 1), seed=3))
    assert colorings[1] != planted

    def planted_first(h, e, seed=0):
        return colorings[seed] if e == (0, 1) else solve(h, e, seed=seed)

    monkeypatch.setattr(harness, "delta_coloring_of_minus_e", planted_first)
    reports, instances = lemma_sweep((g,), seeds=4)
    ref_reports, ref_instances = reference_lemma_sweep((g,), 4, planted_first)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref_reports]
    assert instances == ref_instances
    planted_instances = [
        (seed, kp, col) for _, e, seed, kp, col in instances if e == (0, 1)
    ]
    assert [(seed, kp) for seed, kp, _ in planted_instances][:3] == [
        (0, path), (1, path), (2, path)
    ]
    assert all(col is colorings[seed] for seed, _, col in planted_instances)
    k5 = reports[SWEEP_CHECKS.index("kierstead5-degrees")]
    assert not k5.passed
    assert k5.counterexample["coloring"] == planted.serialize()


def test_lemma_sweep_checks_each_color_class_once(monkeypatch):
    """At n <= 7 and 8 seeds the 2,576 colorings of the edge deletions
    fall into 1,407 classes up to the names of colors."""
    calls = []
    helper = harness._coloring_reports

    def counting(col, e):
        calls.append(e)
        return helper(col, e)

    monkeypatch.setattr(harness, "_coloring_reports", counting)
    corpus = delta_critical_corpus(7)
    lemma_sweep(corpus, seeds=8)
    assert 8 * sum(g.edge_count() for g in corpus) == 2576
    assert len(calls) == 1407


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
    ],
)
def test_run_suite_rejects_vacuous_configs(monkeypatch, config, message):
    def no_work(*args, **kwargs):
        raise AssertionError("run_suite did work before validating its config")

    monkeypatch.setattr(harness, "delta_critical_corpus", no_work)
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

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated runtime budget."""

from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path

import pytest

from kempe.classify import (
    GraphClass,
    classify,
    exact_chromatic_index,
    is_critical_edge,
    vizing_plus_one_coloring,
)
from kempe.graph import (
    Graph,
    builtin_fixture,
    is_overfull,
)
from kempe.harness import (
    SuiteConfig,
    delta_critical_corpus,
    enumerate_graphs,
    lemma_sweep,
    parity_sweep,
    round_robin_one_factorization,
    run_suite,
    verify_corollary,
    verify_normalization,
    verify_theorem1,
    verify_theorem2,
    write_reports,
)
from kempe.iso import enumerate_mask_graphs, masks_isomorphic
from kempe.normalize import ProperColoring, normalize_k5

from oracles import (
    KNOWN_GRAPH_COUNTS,
    bruteforce_unlabeled_count,
    burnside_unlabeled_count,
)
from test_normalize import planted_class1_host


@pytest.fixture(scope="module")
def corpus8():
    return delta_critical_corpus(8)


@pytest.fixture(scope="module")
def sweep8(corpus8):
    return lemma_sweep(corpus8, seeds=8)


# Checks whose hypotheses no Delta-critical graph with n <= 8 meets.
EXPECTED_VACUOUS = {"kierstead5-degrees", "kite-overlap-bound", "fork-absence"}


def report(criterion: str, ok: bool, info: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({info})")
    assert ok, f"{criterion}: {info}"


# sha256 of repr(enumerate_mask_graphs(8)): pins the representatives and
# their order, which the counts below do not.
ENUMERATION_8_DIGEST = "7f78f676fb003ab6c9aac6fb2b95ff2b8547fc95551c7cf886bb15a6c9e8ba6f"


def test_criterion_1_enumeration_oracle():
    start = time.time()
    counts = {n: len(enumerate_graphs(n)) for n in range(3, 9)}
    for n in range(3, 9):
        assert counts[n] == KNOWN_GRAPH_COUNTS[n]
        assert counts[n] == burnside_unlabeled_count(n)
        if n <= 5:
            assert counts[n] == bruteforce_unlabeled_count(n)
    # after the counts, so a moved pin cannot hide a wrong count
    digest = hashlib.sha256(repr(enumerate_mask_graphs(8)).encode()).hexdigest()
    assert digest == ENUMERATION_8_DIGEST
    for n in range(3, 9):
        for g in enumerate_graphs(n):
            if g.edge_count() and is_overfull(g):
                assert n % 2 == 1  # overfull forces odd order
    elapsed = time.time() - start
    report(
        "1 enumeration-oracle",
        elapsed < 120,
        f"counts {counts} vs independent oracles in {elapsed:.1f}s",
    )


def test_criterion_2_classifier_sanity():
    start = time.time()
    assert exact_chromatic_index(builtin_fixture("k4")) == 3
    assert exact_chromatic_index(builtin_fixture("k6")) == 5
    assert exact_chromatic_index(builtin_fixture("pstar")) == 4
    assert exact_chromatic_index(builtin_fixture("c5")) == 3

    rng = random.Random(20_26)
    bipartite_checked = 0
    while bipartite_checked < 200:
        p, q = rng.randint(2, 7), rng.randint(2, 7)
        density = rng.uniform(0.3, 0.95)
        edges = [
            (i, p + j)
            for i in range(p)
            for j in range(q)
            if rng.random() < density
        ]
        g = Graph(p + q, edges)
        if g.edge_count() == 0:
            continue
        assert exact_chromatic_index(g) == g.max_degree()
        bipartite_checked += 1

    vizing_checked = 0
    while vizing_checked < 500:
        n = rng.randint(2, 24)
        density = rng.uniform(0.05, 0.9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        g = Graph(n, edges)
        if g.edge_count() == 0:
            continue
        col = vizing_plus_one_coloring(g)
        assert col.is_full() and col.validate()
        assert col.k == g.max_degree() + 1
        vizing_checked += 1
    elapsed = time.time() - start
    report(
        "2 classifier-sanity",
        elapsed < 300,
        f"koenig x{bipartite_checked}, fan coloring x{vizing_checked} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_3_pstar_certificate():
    start = time.time()
    pstar = builtin_fixture("pstar")
    assert pstar.is_connected()
    assert classify(pstar) is GraphClass.CLASS2
    assert pstar.edge_count() == 12
    assert all(is_critical_edge(pstar, e) for e in pstar.edges())
    assert not is_overfull(pstar)
    assert pstar.max_degree() == 3
    assert 4 * 3 < 3 * (9 - 1)  # Delta strictly below the theorem bound
    elapsed = time.time() - start
    report("3 pstar-certificate", elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_4_vertex_splitting_theorem():
    start = time.time()
    for n in (4, 6):
        rep = verify_theorem1(round_robin_one_factorization(n))
        assert rep.passed and rep.fired, rep.counterexample
    elapsed = time.time() - start
    report("4 theorem-vertex-splitting", elapsed < 600, f"{elapsed:.1f}s")


def test_criterion_5_full_deficiency_theorem(corpus8):
    start = time.time()
    rep = verify_theorem2(corpus8)
    assert rep.passed, rep.counterexample
    assert rep.hypothesis_met >= 2
    masks = [g.adjacency_masks() for g in corpus8]
    for name in ("triangle", "splitk4"):
        fixture = builtin_fixture(name).adjacency_masks()
        assert any(masks_isomorphic(m, fixture) for m in masks)
    cor = verify_corollary(corpus8)
    assert cor.passed, cor.counterexample
    elapsed = time.time() - start
    report(
        "5 theorem-full-deficiency",
        elapsed < 1200,
        f"met={rep.hypothesis_met} vacuous={rep.vacuous} in {elapsed:.1f}s",
    )


def test_criterion_6_lemma_sweeps(sweep8):
    start = time.time()
    reports = [*sweep8[0], parity_sweep(8)]
    failures = [rep.check for rep in reports if not rep.passed]
    assert not failures, failures
    silent = [rep.check for rep in reports if not rep.fired]
    # every check fires except the ones listed as not instantiable here
    assert set(silent) == EXPECTED_VACUOUS, silent
    elapsed = time.time() - start
    fired = sorted(rep.check for rep in reports if rep.fired)
    report(
        "6 lemma-sweeps",
        elapsed < 1800,
        f"fired={fired}; flagged-not-instantiated={sorted(silent)}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_normalization(sweep8):
    start = time.time()
    mined = sweep8[1]
    rep = verify_normalization(mined)
    assert rep.passed, rep.counterexample  # zero diagnostic outcomes
    assert rep.fired == bool(mined)
    col, path = planted_class1_host()
    outcome = normalize_k5(col, path)
    assert isinstance(outcome, ProperColoring)
    assert outcome.coloring.is_full() and outcome.coloring.validate()
    elapsed = time.time() - start
    report(
        "7 normalization",
        True,
        f"mined={len(mined)} (flagged vacuous when zero), planted fixture "
        f"-> ProperColoring in {elapsed:.1f}s",
    )


def test_criterion_8_deterministic_reports(tmp_path: Path):
    start = time.time()
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        result = run_suite(SuiteConfig(suite="default", n_max=8, seeds=8))
        write_reports(result, out)
        assert result.exit_code == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    elapsed = time.time() - start
    report(
        "8 deterministic-reports",
        True,
        f"{len(names)} files byte-identical across runs in {elapsed:.1f}s",
    )

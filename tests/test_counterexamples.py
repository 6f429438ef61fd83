"""The counterexample record of a failing report: the host's graph6, its
serialized coloring when the host is a coloring, then the check's evidence.
Each case builds a failing report and the host it was checked on, and the
record must give that host back."""

from __future__ import annotations

import pytest

import kempe.harness
from kempe.coloring import (
    AssignColor,
    PartialEdgeColoring,
    RecolorEdge,
    SwapScript,
    parse_coloring,
)
from kempe.graph import Graph, builtin_fixture, from_graph6
from kempe.harness import verify_corollary_entry, verify_normalization
from kempe.normalize import NormalizeDiagnosticError, replay_proof_script
from kempe.structures import (
    check_fan_lemmas,
    check_fork_absence,
    check_fulldpair_lemma,
    check_kierstead4,
    check_k5_claims,
    check_kite,
    check_shortkite,
    check_val,
    find_structure_witnesses,
    grow_multifan,
)
from test_structures import (
    fork_violation_host,
    kite_violation_host,
    random_host_with_paths,
    shortkite_violation_host,
)


def first_failure(reports):
    return next(rep for rep in reports if not rep.passed)


def fan_elementary():
    col = PartialEdgeColoring(builtin_fixture("triangle"), 3)
    col.color_edge((0, 2), 1)
    col.color_edge((1, 2), 2)
    return check_fan_lemmas(col, grow_multifan(col, 0, 1)), col


def kierstead4():
    for seed in range(200):
        col, paths = random_host_with_paths(seed, 3)
        reps = [check_kierstead4(col, kp) for kp in paths]
        if not all(rep.passed for rep in reps):
            return first_failure(reps), col
    raise AssertionError("no failing kierstead4 host")


def k5_inner_degrees():
    for seed in range(400):
        col, paths = random_host_with_paths(seed, 4)
        reps = [check_k5_claims(col, kp) for kp in paths]
        if not all(rep.passed for rep in reps):
            return first_failure(reps), col
    raise AssertionError("no failing kierstead5 host")


def shortkite():
    col = shortkite_violation_host()
    wits = find_structure_witnesses(col, "shortkite")
    return first_failure(check_shortkite(col, w) for w in wits), col


def kite():
    col = kite_violation_host()
    wits = find_structure_witnesses(col, "kite")
    return first_failure(check_kite(col, w) for w in wits), col


def fork():
    col = fork_violation_host()
    return check_fork_absence(col), col


def val():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # K1,3
    return check_val(g, (0, 1)), g


def corollary():
    g = from_graph6("DEw")
    return verify_corollary_entry(g), g


def fulldpair():
    g = from_graph6("CU")
    return check_fulldpair_lemma(g, 0, 3), g


def _replay_host(color: int = 1):
    g = Graph(3, [(0, 1), (1, 2)])
    col = PartialEdgeColoring(g, 2)
    col.color_edge((1, 2), color)
    return col


def replay_step():
    col = _replay_host()
    script = SwapScript([AssignColor((0, 1), 1)])  # 1 present at vertex 1
    return replay_proof_script(col, script, expect="proper-full"), col


def replay_expectation():
    """The record holds the coloring the script ended with, not its input."""
    script = SwapScript([RecolorEdge((1, 2), 1, 2)])  # 0-1 stays uncolored
    rep = replay_proof_script(_replay_host(), script, expect="proper-full")
    return rep, _replay_host(color=2)


CASES = {
    "fan-elementary": (fan_elementary, "elementary"),
    "kierstead4": (kierstead4, None),
    "k5-inner-degrees": (k5_inner_degrees, "inner-degrees"),
    "shortkite": (shortkite, None),
    "kite": (kite, None),
    "fork": (fork, None),
    "val": (val, None),
    "replay-step": (replay_step, None),
    "replay-expectation": (replay_expectation, None),
    "corollary": (corollary, None),
    "fulldpair": (fulldpair, "joint-neighborhood-degree"),
}


def assert_record_gives_host(rep, host):
    assert not rep.passed
    cx = rep.counterexample
    graph = host.graph if isinstance(host, PartialEdgeColoring) else host
    assert from_graph6(cx["graph6"]) == graph
    if isinstance(host, PartialEdgeColoring):
        assert parse_coloring(graph, cx["coloring"]) == host
    else:
        assert "coloring" not in cx


@pytest.mark.parametrize("name", sorted(CASES))
def test_counterexample_record_gives_the_host(name):
    build, clause = CASES[name]
    rep, host = build()
    assert_record_gives_host(rep, host)
    if clause is not None:
        assert rep.counterexample["clause"] == clause


def test_corollary_record_names_the_near_full_vertices():
    rep, _ = corollary()
    assert rep.counterexample["pair"] == [0, 4]
    assert rep.counterexample["near_full_vertices"] == [1, 3]


def test_normalization_record_holds_the_mined_coloring(monkeypatch):
    col, paths = random_host_with_paths(3, 4)
    instances = [(col.graph, col.uncolored_edges()[0], 3, kp, col) for kp in paths]

    def diagnostic(col, kp):
        raise NormalizeDiagnosticError("forced", SwapScript())

    monkeypatch.setattr(kempe.harness, "normalize_k5", diagnostic)
    rep = verify_normalization(instances)
    assert_record_gives_host(rep, col)
    assert rep.counterexample["path"] == list(paths[0].vertices)

"""Benchmark inputs and the output checks made apart from kempe.

Every graph here is built from its textbook definition as a plain edge
list, and every check is written from the definition it checks, without
calling kempe, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# OEIS A000088: simple graphs on n unlabelled vertices, n = 0, 1, ..., 8.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)

# The four suite checks whose hypotheses no graph with n <= 8 meets.
EXPECTED_VACUOUS = frozenset(
    {
        "kierstead5-degrees",
        "kite-overlap-bound",
        "fork-absence",
        "kierstead5-normalization",
    }
)

# Flower snarks J_k with odd k >= 5 are Class 2 (Isaacs 1975).
SNARK_ORDERS = (13, 15)
# Refuted untimed before them, to warm the interpreter up.
WARM_UP_ORDER = 11


def graph_count_upto(n_max: int) -> int:
    """Unlabelled graphs on 1..n_max vertices."""
    return sum(A000088[1 : n_max + 1])


def flower_snark(k: int) -> tuple[int, list[tuple[int, int]]]:
    """J_k: claws a_i-{b_i, c_i, d_i}, the b-cycle b_0..b_{k-1}, and one
    2k-cycle c_0..c_{k-1} d_0..d_{k-1} closing back to c_0."""
    def a(i): return 4 * (i % k)
    def b(i): return 4 * (i % k) + 1
    def c(i): return 4 * (i % k) + 2
    def d(i): return 4 * (i % k) + 3

    edges = set()
    for i in range(k):
        edges |= {(a(i), b(i)), (a(i), c(i)), (a(i), d(i)), (b(i), b(i + 1))}
        if i < k - 1:
            edges |= {(c(i), c(i + 1)), (d(i), d(i + 1))}
    edges |= {(c(k - 1), d(0)), (d(k - 1), c(0))}
    return 4 * k, sorted(tuple(sorted(e)) for e in edges)


def report_errors(out_dir: Path) -> list[str]:
    """Why a `kempe verify` report directory is not a clean run, if it is
    not: one JSON per check listed in suite.json, every check passed, and
    only the expected checks not instantiated."""
    suite = json.loads((out_dir / "suite.json").read_text())
    errors = []
    names = {p.name for p in out_dir.iterdir()}
    want = {f"{c}.json" for c in suite["checks"]} | {"suite.json", "summary.txt"}
    if names != want or len(suite["checks"]) != len(set(suite["checks"])):
        errors.append(f"report files {sorted(names ^ want)} do not match suite.json")
    for check in suite["checks"]:
        path = out_dir / f"{check}.json"
        if path.is_file() and json.loads(path.read_text())["passed"] is not True:
            errors.append(f"check {check} failed")
    if suite["failures"]:
        errors.append(f"suite.json lists failures {suite['failures']}")
    extra = set(suite["not_instantiated"]) - EXPECTED_VACUOUS
    if extra:
        errors.append(f"unexpectedly not instantiated: {sorted(extra)}")
    return errors


def directory_digest(out_dir: Path) -> str:
    """sha256 over the sorted file names and contents of a directory."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# directory_digest of the report directory each verify workload writes.
# Reports carry work counts only, so a change that keeps what the suite
# computes keeps these; a change to the suite's output must update them.
REPORT_DIGESTS = {
    "verify-n8": "e205be504d20587e2663308b3dfdf0ca3d79ee380d45597947ac5abeb7ca7dc8",
    "verify-n7-deep": "037923605036ae7b908971455497060d7053598e93116daa8077f48decb4e133",
}

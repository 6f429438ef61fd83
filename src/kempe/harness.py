"""Corpus construction and end-to-end empirical verification.

Builds the small-graph corpus (complete enumeration up to isomorphism),
runs every structure check across it, and verifies the two
splitting/overfull theorems plus the near-full-degree corollary. The
vertex-splitting theorem takes a Delta-coloring of each host as its
Class 1 certificate: K4 and K6 come with their round-robin colorings.
Report files are deterministic byte-for-byte for a fixed (config, seed):
they carry work counts, never wall times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .classify import (
    all_edges_critical,
    delta_coloring_of_minus_e,
    is_delta_critical,
    walk_then_search,
)
from .coloring import PartialEdgeColoring
from .graph import (
    Graph,
    SplitSpec,
    complete_graph,
    full_deficiency_pairs,
    is_overfull,
    meets_degree_bound,
    near_full_vertices,
    split_vertex,
    to_graph6,
)
from .iso import (
    Masks,
    automorphism_group,
    automorphisms,
    edge_actions,
    enumerate_mask_graphs,
    orbit_representatives,
)
from .normalize import (
    MAX_SWAPS,
    HypothesisError,
    Normalized,
    ProperColoring,
    NormalizeDiagnosticError,
    normalize_k5,
)
from .report import VerificationReport, failing, merge_reports, passing, vacuous
from .shares import PassedBack, job_count, run_shares, units
from .structures import (
    KiersteadPath,
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
)


def _check_enumeration_budget(n: int) -> None:
    if n > 8:
        raise ValueError("enumeration is budgeted for n <= 8")


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices up to isomorphism."""
    _check_enumeration_budget(n)
    return tuple(map(Graph.from_masks, enumerate_mask_graphs(n)))


# n_max -> (Delta-critical graphs, parity report) of one enumeration pass
_CRITICAL_CACHE: dict[int, tuple[tuple[Graph, ...], VerificationReport]] = {}


def _classify_graphs(
    graphs: tuple[Masks, ...], indices: Iterable[int]
) -> tuple[VerificationReport | None, int | None, list[int]]:
    """The corpus pass over the graphs at `indices` of `graphs`: the fold
    of their parity reports in order (None when there is none), the index
    of the first failing one (None when none fails), and the indices of
    the Delta-critical graphs.

    `walk_then_search` colors graph i from the empty coloring with seed i,
    so its coloring does not depend on which graphs came before it. Each
    `Graph` is built when its masks are reached, so the pass never holds a
    level of them."""
    fold, failure, critical = None, None, []
    for i in indices:
        g = Graph.from_masks(graphs[i])
        if not g.edge_count():
            continue
        col = walk_then_search(g, g.max_degree(), i)
        if col is None:
            if g.is_connected() and all_edges_critical(g):
                critical.append(i)
            continue
        rep = check_parity(col)
        if failure is None and not rep.passed:
            failure = i
        fold = rep if fold is None else fold.merge(rep)
    return fold, failure, critical


def _corpus_pass(n_max: int) -> tuple[tuple[Graph, ...], VerificationReport]:
    """Classify each enumerated graph with edges once (`_classify_graphs`):
    a Delta-coloring goes to the parity check; a graph with none is Class
    2, so a connected one only needs its edges tested for criticality. The
    budget is checked at once. Every "no", so every Class 2 verdict, comes
    from the exhaustive search or its edge count.

    The graphs of orders 1..n_max, in enumeration order, are dealt by
    stride (index j::jobs) to `shares.job_count` shares: share 0 runs here
    and each other share in a forked child (`shares.run_shares`), in one
    round for the whole pass. The critical tuple is rebuilt in corpus
    order from the shares' indices. A parity report's details are numeric,
    so the folds merge in any order but for the first counterexample, and
    merging them by their first failure keeps the first of the corpus
    order. Each graph is walked with its own seed, so every coloring, and
    with it every count and counterexample, is the same on any number of
    CPUs. On more than one CPU this forks, so call it from a process that
    runs no other thread."""
    _check_enumeration_budget(n_max)
    if n_max not in _CRITICAL_CACHE:
        graphs = tuple(m for n in range(1, n_max + 1) for m in enumerate_mask_graphs(n))
        jobs = job_count(len(graphs))

        def share(j: int) -> tuple:
            return _classify_graphs(graphs, units(range(j, len(graphs), jobs)))

        shares = run_shares(jobs, share)
        shares.sort(key=lambda r: len(graphs) if r[1] is None else r[1])
        parity = merge_reports(filter(None, (fold for fold, _, _ in shares)), "parity")
        found = sorted(i for _, _, indices in shares for i in indices)
        critical = tuple(Graph.from_masks(graphs[i]) for i in found)
        _CRITICAL_CACHE[n_max] = critical, parity
    return _CRITICAL_CACHE[n_max]


def delta_critical_corpus(n_max: int) -> tuple[Graph, ...]:
    """All connected graphs up to n_max vertices (up to isomorphism) that
    are Class 2 with every edge critical."""
    critical, _ = _corpus_pass(n_max)
    return critical


def parity_sweep(n_max: int) -> VerificationReport:
    """Full Delta-colorings found by the solver on Class 1 members of the
    enumeration all satisfy the per-color parity bound; computed by the
    same pass as the critical corpus."""
    _, parity = _corpus_pass(n_max)
    return parity


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------


def round_robin_one_factorization(n: int) -> PartialEdgeColoring:
    """Explicit proper (n-1)-coloring of K_n for even n: the circle method,
    one matching per round with vertex n-1 fixed."""
    if n % 2 or n < 2:
        raise ValueError("round robin needs an even vertex count")
    g = complete_graph(n)
    col = PartialEdgeColoring(g, n - 1)
    m = n - 1
    for r in range(m):
        col.color_edge((n - 1, r), r + 1)
        for i in range(1, n // 2):
            col.color_edge(((r + i) % m, (r - i) % m), r + 1)
    return col


def _lesser_half(g: Graph, v: int, part: frozenset[int]) -> frozenset[int]:
    """Of the two halves `part` and N(v) - part of a split of v, the one
    with fewer vertices, or the lexicographically first on a tie."""
    rest = g.neighbors(v) - part
    return min(part, rest, key=lambda half: (len(half), sorted(half)))


def _split_specs(g: Graph) -> list[SplitSpec]:
    """All vertex splits up to symmetry: the two halves of a split are
    interchangeable, so the part is the lesser half, and an automorphism
    of g takes a split to an isomorphic one, so only the first spec of
    each orbit under `iso.automorphisms`, in vertex-then-subset order, is
    kept."""
    specs = []
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        t = len(nbrs)
        for bits in range(1, (1 << t) - 1):
            part = frozenset(nbrs[i] for i in range(t) if bits >> i & 1)
            if _lesser_half(g, v, part) == part:
                specs.append(SplitSpec(v, part))
    index = {spec: i for i, spec in enumerate(specs)}
    actions = []
    for gamma in automorphisms(g.adjacency_masks()):
        image = []
        for spec in specs:
            v = gamma[spec.vertex]
            part = frozenset(gamma[u] for u in spec.part_one)
            image.append(index[SplitSpec(v, _lesser_half(g, v, part))])
        actions.append(tuple(image))
    return [specs[i] for i in orbit_representatives(len(specs), actions)]


def verify_theorem1(host: PartialEdgeColoring) -> VerificationReport:
    """Splitting a vertex of a Delta-regular Class 1 graph with
    Delta >= 3(n_split - 1)/4 must always produce a Delta-critical graph
    (n_split counts the graph after the split). `host` certifies its graph
    Class 1: it must be a full proper Delta-coloring of a regular graph,
    or this raises `ValueError` before any split."""
    check = "theorem-vertex-splitting"
    g = host.graph
    if len(set(g.degrees())) != 1:
        raise ValueError("host graph must be regular")
    if not host.is_full():
        raise ValueError("host coloring must color every edge")
    if not host.validate():
        raise ValueError("host coloring must be proper")
    if host.k != g.max_degree():
        raise ValueError(
            f"host coloring has {host.k} colors, not Delta = {g.max_degree()}"
        )
    if not meets_degree_bound(g.max_degree(), g.n + 1):
        return vacuous(check, reason="degree-bound-unmet")
    splits = 0
    for spec in _split_specs(g):
        h = split_vertex(g, spec)
        splits += 1
        if not is_delta_critical(h):
            return failing(
                check,
                g,
                met=splits,
                split_vertex=spec.vertex,
                part_one=sorted(spec.part_one),
                result_graph6=to_graph6(h),
            )
    return passing(check, met=splits, splits=splits)


def verify_theorem2_entry(g: Graph) -> VerificationReport:
    """One Delta-critical graph: with a full-deficiency pair (a, b) and
    Delta >= 3(n-1)/4 it must be overfull, and identifying a and b must
    turn a Delta-coloring of G - ab into a proper Delta-coloring of a
    Delta-regular multigraph. The merged vertex has degree d(a) + d(b) - 2
    = Delta and the other vertices keep their degrees and proper colors,
    so the identification holds exactly when every other vertex has degree
    Delta and a and b share no color. Only the edge count is checked, for
    an overfull G implies both, and no coloring is solved for:

    - Regularity. An overfull G has degree sum at least Delta(n - 1) + 2.
      The pair takes Delta + 2 of it, so each of the other n - 2 vertices,
      of degree at most Delta, has degree Delta.
    - Coloring. In a Delta-coloring of G - ab, |M(a)| + |M(b)| = Delta, so
      a color shared by a and b leaves some color missing at both ends.
      Then ab could be colored, and G would be Delta-colorable, against
      the edge count."""
    check = "theorem-full-deficiency-overfull"
    pairs = full_deficiency_pairs(g)
    if not pairs or not meets_degree_bound(g.max_degree(), g.n):
        return vacuous(check, reason="hypothesis-unmet")
    if not is_overfull(g):
        return failing(check, g, clause="overfull")
    return passing(check, pairs=len(pairs))


def verify_theorem2(corpus: tuple[Graph, ...]) -> VerificationReport:
    return merge_reports(
        (verify_theorem2_entry(g) for g in corpus),
        "theorem-full-deficiency-overfull",
    )


def verify_corollary_entry(g: Graph) -> VerificationReport:
    """At most one vertex outside a full-deficiency pair may have degree
    Delta - 1 (requires the pair edge critical and the degree bound)."""
    check = "corollary-near-full-uniqueness"
    pairs = full_deficiency_pairs(g)
    if not pairs or not meets_degree_bound(g.max_degree(), g.n):
        return vacuous(check, reason="hypothesis-unmet")
    for met, (a, b) in enumerate(pairs, 1):
        near = near_full_vertices(g, a, b)
        if len(near) > 1:
            return failing(check, g, met=met, pair=[a, b], near_full_vertices=near)
    return passing(check, met=len(pairs))


def verify_corollary(corpus: tuple[Graph, ...]) -> VerificationReport:
    return merge_reports(
        (verify_corollary_entry(g) for g in corpus),
        "corollary-near-full-uniqueness",
    )


# ---------------------------------------------------------------------------
# Structure-lemma sweeps over the critical corpus
# ---------------------------------------------------------------------------

SWEEP_CHECKS = (
    "val",
    "multifan-lemmas",
    "kierstead4",
    "kierstead5-degrees",
    "shortkite-max-degree",
    "kite-overlap-bound",
    "fork-absence",
    "full-deficiency-pair",
)


def _accumulate(acc: dict[str, VerificationReport], rep: VerificationReport) -> None:
    if rep.check in acc:
        acc[rep.check] = acc[rep.check].merge(rep)
    else:
        acc[rep.check] = rep


# (graph, deleted edge, seed, 5-vertex Kierstead path, coloring of graph - edge)
K5Instance = tuple[Graph, tuple[int, int], int, KiersteadPath, PartialEdgeColoring]

# folded reports of one coloring of G - e, and its overlap-3 5-vertex paths
_ColoringResult = tuple[list[VerificationReport], list[KiersteadPath]]


def _coloring_reports(col: PartialEdgeColoring, e: tuple[int, int]) -> _ColoringResult:
    """Every coloring-level check on one coloring of G - e, folded into one
    report per check in first-seen order, and the 5-vertex Kierstead paths
    whose far end shares at least 3 missing colors with the root pair.
    Renaming the colors changes neither, and relabelling the coloring and
    e by an automorphism of G changes no report, so the reports stand for
    every coloring in the same class up to the automorphisms and the names
    of colors."""
    acc: dict[str, VerificationReport] = {}
    overlap3: list[KiersteadPath] = []
    for r, s1 in (e, e[::-1]):
        fan = grow_multifan(col, r, s1)
        _accumulate(acc, check_fan_lemmas(col, fan))
    for kp in find_kierstead_paths(col, 3):
        _accumulate(acc, check_kierstead4(col, kp))
    for kp in find_kierstead_paths(col, 4):
        rep = check_k5_claims(col, kp)
        _accumulate(acc, rep)
        if rep.details["overlap3_met"]:
            overlap3.append(kp)
    for wit in find_structure_witnesses(col, "shortkite"):
        _accumulate(acc, check_shortkite(col, wit))
    for wit in find_structure_witnesses(col, "kite"):
        _accumulate(acc, check_kite(col, wit))
    _accumulate(acc, check_fork_absence(col))
    return list(acc.values()), overlap3


_NAMES = bytes(range(1, 256))


def _renamed(colors: bytes) -> bytes:
    """`colors` with each nonzero value renamed by first appearance to
    1, 2, ...; 0 stays 0."""
    firsts = bytes(dict.fromkeys(colors.replace(b"\0", b"")))
    return colors.translate(bytes.maketrans(firsts, _NAMES[: len(firsts)]))


def _color_class_key(col: PartialEdgeColoring, edges: list[tuple[int, int]]) -> bytes:
    """The color of each of `edges` in order, with the colors renamed by
    first appearance and 0 for an uncolored edge: two colorings of one
    graph get the same key iff they differ only in the names of colors."""
    return _renamed(col.color_bytes(edges))


def _orbit_class(key: bytes, actions: list[tuple[int, ...]]) -> bytes:
    """The least `_renamed` reading of a `_color_class_key` through the
    edge actions of a graph's automorphisms. Action i lists, for each edge
    f, the position of gamma_i(f), so its reading is the key of the
    coloring f -> col(gamma_i f), the image of col under gamma_i^-1; as
    gamma_i runs over the group, so does its inverse. Two colorings of one
    graph get the same least reading iff an automorphism and a renaming of
    colors take one to the other; the uncolored edge is read too, so it
    moves with them."""
    return min(_renamed(bytes(map(key.__getitem__, action))) for action in actions)


# folded reports of one corpus graph, and its mined 5-vertex paths
_GraphResult = tuple[list[VerificationReport], list[K5Instance]]


def _sweep_graph(g: Graph, seeds: int) -> _GraphResult:
    """The sweep of one corpus graph: its reports, folded per check in
    first-seen order, and its mined 5-vertex paths (see `lemma_sweep`).
    The color classes live for this graph only."""
    acc: dict[str, VerificationReport] = {}
    k5_instances: list[K5Instance] = []
    edges = g.edges()
    for e in edges:
        _accumulate(acc, check_val(g, e))
    for a, b in full_deficiency_pairs(g):
        _accumulate(acc, check_fulldpair_lemma(g, a, b))
    actions = edge_actions(edges, automorphism_group(g.adjacency_masks()))
    least_of: dict[bytes, bytes] = {}  # color class key -> least reading
    reusable: dict[bytes, list[VerificationReport]] = {}  # least reading -> reports
    for e in edges:
        for seed in range(seeds):
            col = delta_coloring_of_minus_e(g, e, seed=seed)
            key = _color_class_key(col, edges)
            if key not in least_of:
                least_of[key] = _orbit_class(key, actions)
            least = least_of[key]
            if least in reusable:
                reports, overlap3 = reusable[least], []
            else:
                reports, overlap3 = _coloring_reports(col, e)
                if not overlap3:
                    reusable[least] = reports
            for rep in reports:
                _accumulate(acc, rep)
            k5_instances.extend((g, e, seed, kp, col) for kp in overlap3)
    return list(acc.values()), k5_instances


def lemma_sweep(
    corpus: tuple[Graph, ...], seeds: int = 8
) -> tuple[list[VerificationReport], list[K5Instance]]:
    """Run every structure check across the corpus: graph-level degree
    lemmas once per graph, coloring-level checks for `seeds` colorings of
    each edge deletion. Also returns the 5-vertex Kierstead paths whose
    far end shares at least 3 missing colors with the root pair, each with
    its seed's coloring, for normalization.

    Every seed is solved and counted, but a class of colorings of the
    graph's edge deletions, up to the graph's automorphisms and color
    names (`_orbit_class`), is checked once when its first member has no
    such path: a later member replays the first member's reports. Every
    report is invariant under relabelling by an automorphism and renaming
    colors, and a class's first member comes before its other members, so
    a check failing on a later member has already failed on the first, and
    the first counterexample is computed fresh. A class whose first member
    has such a path is checked in full on every member, so each member's
    paths are found in its own labels.

    The graphs are swept apart (`_sweep_graph`), dealt largest first (by
    edge count) to `shares.job_count` shares, share 0 here and each other
    share in a forked child (`shares.run_shares`), and folded in corpus
    order. Merging reports is associative, so the result does not depend
    on the number of CPUs. A graph whose sweep raises fails the sweep with
    a `RuntimeError` that names its graph6, but a `shares.PassedBack`, such
    as a solver budget running out, leaves as it is. On more than one CPU
    this forks, so call it from a process that runs no other thread."""
    jobs = job_count(len(corpus))
    order = sorted(range(len(corpus)), key=lambda i: -corpus[i].edge_count())

    def share(j: int) -> list[tuple[int, _GraphResult]]:
        """(index, `_sweep_graph` result) of each graph of share j."""
        graphs = []
        for i in units(order[j::jobs]):
            try:
                graphs.append((i, _sweep_graph(corpus[i], seeds)))
            except PassedBack:
                raise
            except Exception as exc:
                graph6 = to_graph6(corpus[i])
                raise RuntimeError(f"lemma sweep failed on {graph6}") from exc
        return graphs

    results = dict(graph for graphs in run_shares(jobs, share) for graph in graphs)
    acc: dict[str, VerificationReport] = {}
    k5_instances: list[K5Instance] = []
    for i, g in enumerate(corpus):
        reports, instances = results[i]
        for rep in reports:
            _accumulate(acc, rep)
        # a forked share's paths come back on a copy of the graph
        k5_instances.extend((g, *rest) for _, *rest in instances)
    for name in SWEEP_CHECKS:
        if name not in acc:
            acc[name] = vacuous(name, reason="no-instances-in-corpus")
    return [acc[name] for name in SWEEP_CHECKS], k5_instances


# ---------------------------------------------------------------------------
# Normalization of the mined instances
# ---------------------------------------------------------------------------


def verify_normalization(instances: list[K5Instance]) -> VerificationReport:
    """Every instance mined by the lemma sweep must normalize to the
    canonical pattern within the swap bound; a completed coloring would
    contradict criticality. An instance that `normalize_k5` refuses for its
    hypothesis is skipped and not counted as met."""
    check = "kierstead5-normalization"
    if not instances:
        return vacuous(check, reason="no-instances-in-corpus")
    met = 0
    for g, e, seed, kp, col in instances:

        def fail(reason: str) -> VerificationReport:
            return failing(
                check,
                col,
                met=met,
                edge=list(e),
                seed=seed,
                path=list(kp.vertices),
                reason=reason,
            )

        try:
            outcome = normalize_k5(col, kp)
        except HypothesisError:
            continue
        except NormalizeDiagnosticError as exc:
            outcome = exc
        met += 1
        if isinstance(outcome, NormalizeDiagnosticError):
            return fail(f"diagnostic: {outcome}")
        if isinstance(outcome, ProperColoring):
            return fail("completed a proper coloring on a critical host")
        if not isinstance(outcome, Normalized):
            raise TypeError(f"unexpected normalization outcome {outcome!r}")
        res = outcome.coloring
        a, b, u, s, t = kp.vertices
        conditions = (
            res.validate()
            and res.color_of((b, u)) == outcome.alpha
            and res.is_missing(a, outcome.alpha)
            and res.is_missing(t, outcome.alpha)
            and res.color_of((u, s)) == outcome.beta
            and res.is_missing(b, outcome.beta)
            and res.is_missing(t, outcome.beta)
            and res.color_of((s, t)) == outcome.gamma
            and res.is_missing(a, outcome.gamma)
            and res.uncolored_edges() == [tuple(sorted(e))]
        )
        if not conditions:
            return fail("normalized outcome violates the canonical pattern")
        if outcome.swap_count > MAX_SWAPS:
            return fail(f"swap bound exceeded: {outcome.swap_count}")
        deg_ok = g.degree(b) == g.max_degree() and g.degree(u) == g.max_degree()
        if not deg_ok:
            return fail("inner-degree consequence violated")
    if not met:
        return vacuous(check, reason="hypothesis-unmet")
    return passing(check, met=met, instances=len(instances))


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------


SUITES = ("default", "theorem1", "theorem2", "lemmas")


@dataclass
class SuiteConfig:
    suite: str = "default"
    n_max: int = 8
    seeds: int = 8


@dataclass
class SuiteResult:
    reports: list[VerificationReport]
    config: SuiteConfig

    @property
    def failures(self) -> list[VerificationReport]:
        return [r for r in self.reports if not r.passed]

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    @property
    def not_instantiated(self) -> list[str]:
        """Checks whose hypothesis never fired on this corpus."""
        return [r.check for r in self.reports if not r.fired]

    def summary(self) -> str:
        lines = [rep.summary_line() for rep in self.reports]
        if self.not_instantiated:
            lines.append(
                "not instantiated on this corpus: "
                + ", ".join(self.not_instantiated)
            )
        verdict = "ALL CHECKS PASSED" if not self.failures else (
            f"{len(self.failures)} CHECK(S) FAILED"
        )
        lines.append(verdict)
        return "\n".join(lines)


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Execute the requested verification suite; `write_reports` writes
    its result. A config that makes every check vacuous or reads the corpus
    past the enumeration budget is a `ValueError`, raised before any work."""
    if config.suite not in SUITES:
        raise ValueError(
            f"unknown suite {config.suite!r} (expected one of {', '.join(SUITES)})"
        )
    if config.n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {config.n_max}")
    if config.seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {config.seeds}")
    if config.suite != "theorem1":
        _check_enumeration_budget(config.n_max)
    reports: list[VerificationReport] = []
    if config.suite in ("default", "theorem1"):
        for n in (4, 6):
            rep = verify_theorem1(round_robin_one_factorization(n))
            rep.check = f"theorem-vertex-splitting-K{n}"
            reports.append(rep)
    if config.suite in ("default", "theorem2"):
        corpus = delta_critical_corpus(config.n_max)
        reports.append(verify_theorem2(corpus))
        reports.append(verify_corollary(corpus))
    if config.suite in ("default", "lemmas"):
        sweep, k5_instances = lemma_sweep(
            delta_critical_corpus(config.n_max), config.seeds
        )
        reports.extend(sweep)
        reports.append(parity_sweep(config.n_max))
        reports.append(verify_normalization(k5_instances))
    return SuiteResult(reports, config)


def write_reports(result: SuiteResult, out_dir: Path) -> None:
    """Write one JSON per check, `suite.json` and `summary.txt`. The check
    files that a previous run's `suite.json` lists are removed first, and
    nothing else is; a `suite.json` that is not such a manifest raises
    `ValueError` before anything is written."""
    manifest_path = out_dir / "suite.json"
    stale = []
    if manifest_path.exists():
        try:
            stale = json.loads(manifest_path.read_text())["checks"]
        except (ValueError, TypeError, KeyError):
            stale = None
        if not isinstance(stale, list) or not all(
            isinstance(c, str) and Path(c).name == c for c in stale
        ):
            raise ValueError(f"{manifest_path} is not a suite manifest")
    out_dir.mkdir(parents=True, exist_ok=True)
    for check in stale:
        (out_dir / f"{check}.json").unlink(missing_ok=True)
    for rep in result.reports:
        (out_dir / f"{rep.check}.json").write_text(rep.to_json() + "\n")
    manifest = {
        "suite": result.config.suite,
        "n_max": result.config.n_max,
        "seeds": result.config.seeds,
        "checks": [rep.check for rep in result.reports],
        "failures": [rep.check for rep in result.failures],
        "not_instantiated": result.not_instantiated,
    }
    (out_dir / "suite.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    (out_dir / "summary.txt").write_text(result.summary() + "\n")

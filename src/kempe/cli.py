"""Command-line surface: classify, color, criticality, structure search,
and the verification suite. Graphs are read as graph6 or fixture names
(in any case), one per line, from an argument, a file, or standard input
(a graph argument and --file together are a usage error).

Every per-graph command runs through one driver, `_run_graph_command`: the
command answers one graph with a JSON payload and a plain text, and the
driver prints that answer, the payload under --json, before it loads the
next graph. `color --out FILE` writes every graph's plain colouring to
FILE in input order instead; `verify --out DIR` replaces the check files
of the run that DIR last held.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 solver budget
exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Iterator

from .classify import (
    BudgetExceededError,
    GraphClass,
    delta_coloring_of_minus_e,
    exact_chromatic_index,
    find_edge_coloring,
    is_critical_edge,
    is_delta_critical,
    vizing_plus_one_coloring,
)
from .graph import (
    Graph,
    Graph6Error,
    SplitSpec,
    builtin_fixture,
    fixture_names,
    from_graph6,
    full_deficiency_pairs,
    is_overfull,
    split_vertex,
    to_graph6,
)
from .harness import SUITES, SuiteConfig, enumerate_graphs, run_suite, write_reports
from .structures import find_kierstead_paths, find_structure_witnesses, grow_multifan


def _graph_sources(args) -> Iterator[str]:
    """graph6 lines from the positional argument, a file, or stdin, read
    one line at a time, so a graph is answered before the next is read."""
    if args.graph:
        yield args.graph
        return
    with open(args.file) if args.file else contextlib.nullcontext(sys.stdin) as fh:
        for ln in fh:
            if ln.strip():
                yield ln.strip()


def _parse_vertices(
    text: str, option: str, form: str, count: int = 0
) -> tuple[int, ...]:
    """The vertex numbers of a comma-separated option value, exactly
    `count` of them when count is not 0; a ValueError naming the option
    and its form otherwise."""
    try:
        vs = tuple(int(x) for x in text.split(","))
    except ValueError:
        vs = ()
    if not vs or count not in (0, len(vs)):
        raise ValueError(f"{option} takes {form}, not {text!r}")
    return vs


def _parse_edge(text: str) -> tuple[int, ...]:
    return _parse_vertices(text, "--edge", "'u,v', two vertex numbers", 2)


def _load(line: str) -> Graph:
    if line.lower() in fixture_names():
        return builtin_fixture(line)
    return from_graph6(line)


def _run_graph_command(args) -> int:
    """Answer each input graph before loading the next: print the command's
    plain text, or its JSON payload with the input's graph6 added. With
    `--out`, the plain texts go to that file, created at the first answer."""
    with contextlib.ExitStack() as stack:
        out = None
        for line in _graph_sources(args):
            g = _load(line)
            payload, plain = args.answer(args, g)
            if getattr(args, "out", None):
                if out is None:
                    out = stack.enter_context(open(args.out, "w"))
                print(plain, file=out)
            elif args.json:
                print(json.dumps({"graph6": to_graph6(g), **payload}, sort_keys=True))
            else:
                print(plain)
    return 0


def cmd_classify(args, g: Graph) -> tuple[dict, str]:
    chi = exact_chromatic_index(g)
    cls = GraphClass.CLASS1 if chi == g.max_degree() else GraphClass.CLASS2
    return (
        {"class": cls.value, "chromatic_index": chi, "max_degree": g.max_degree()},
        f"{cls} (chi'={chi}, Delta={g.max_degree()})",
    )


def cmd_color(args, g: Graph) -> tuple[dict, str]:
    col = find_edge_coloring(g, g.max_degree()) if args.exact else None
    if col is None:
        col = vizing_plus_one_coloring(g)
    colors = {f"{u},{v}": c for (u, v), c in sorted(col.colored_edges().items())}
    return {"k": col.k, "colors": colors}, col.serialize().removesuffix("\n")


def cmd_overfull(args, g: Graph) -> tuple[dict, str]:
    m, bound = g.edge_count(), g.max_degree() * (g.n // 2)
    flag = is_overfull(g)
    return (
        {"overfull": flag, "edges": m, "bound": bound},
        f"overfull: {'true' if flag else 'false'} (|E|={m} "
        f"{'>' if flag else '<='} {bound})",
    )


def cmd_pairs(args, g: Graph) -> tuple[dict, str]:
    pairs = full_deficiency_pairs(g)
    return (
        {"pairs": [list(p) for p in pairs]},
        f"full-deficiency pairs: {pairs if pairs else 'none'}",
    )


def cmd_critical(args, g: Graph) -> tuple[dict, str]:
    if args.edge:
        e = _parse_edge(args.edge)
        flag = is_critical_edge(g, e)
        return (
            {"edge": list(e), "critical": flag},
            f"edge {e}: {'critical' if flag else 'not critical'}",
        )
    flag = is_delta_critical(g)
    return {"delta_critical": flag}, f"Delta-critical: {'true' if flag else 'false'}"


def cmd_split(args, g: Graph) -> tuple[dict, str]:
    """The payload's graph6 is the split graph's, not the input's."""
    form = "'u,v,...', comma-separated vertex numbers"
    part = frozenset(_parse_vertices(args.part, "--part", form))
    h = split_vertex(g, SplitSpec(args.vertex, part))
    return {"graph6": to_graph6(h), "n": h.n, "edges": h.edge_count()}, to_graph6(h)


def cmd_structures(args, g: Graph) -> tuple[dict, str]:
    e = _parse_edge(args.edge)
    col = delta_coloring_of_minus_e(g, e, seed=args.seed)
    if args.kind == "multifan":
        items = []
        for r, s1 in (e, e[::-1]):
            fan = grow_multifan(col, r, s1)
            items.append({"center": fan.center, "leaves": list(fan.leaves)})
    elif args.kind == "kierstead":
        items = [
            {"vertices": list(kp.vertices)}
            for p in (1, 2, 3, 4)
            for kp in find_kierstead_paths(col, p)
        ]
    else:
        items = [
            {"kind": w.kind, "roles": w.roles}
            for w in find_structure_witnesses(col, args.kind)
        ]
    lines = [f"{args.kind}: {len(items)} found", *(f"  {item}" for item in items)]
    return {"kind": args.kind, "found": items}, "\n".join(lines)


def cmd_enumerate(args) -> int:
    for g in enumerate_graphs(args.n):
        print(to_graph6(g))
    return 0


def cmd_verify(args) -> int:
    config = SuiteConfig(suite=args.suite, n_max=args.n_max, seeds=args.seeds)
    result = run_suite(config)
    if args.out:
        write_reports(result, Path(args.out))
    if args.json:
        print(
            json.dumps(
                {
                    "checks": [rep.to_dict() for rep in result.reports],
                    "not_instantiated": result.not_instantiated,
                    "exit_code": result.exit_code,
                },
                sort_keys=True,
            )
        )
    else:
        print(result.summary())
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kempe",
        description="Edge-coloring toolkit: chromatic index, critical graphs, "
        "Kempe-chain structures, and the empirical verification suite.",
    )
    json_flag = {"action": "store_true", "help": "machine-readable output"}
    parser.add_argument("--json", **json_flag)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name, answer, help_text):
        p = sub.add_parser(name, help=help_text)
        source = p.add_mutually_exclusive_group()
        source.add_argument("graph", nargs="?", help="graph6 string or fixture name")
        source.add_argument("--file", help="file with one graph6 per line")
        p.set_defaults(func=_run_graph_command, answer=answer)
        return p

    add_graph_cmd("classify", cmd_classify, "Class 1/2 and exact chromatic index")
    p = add_graph_cmd("color", cmd_color, "produce a proper edge coloring")
    p.add_argument("--exact", action="store_true", help="minimum colors")
    p.add_argument("--out", help="write the coloring to a file")
    add_graph_cmd("overfull", cmd_overfull, "edge-count overfullness test")
    add_graph_cmd("pairs", cmd_pairs, "full-deficiency pairs")
    p = add_graph_cmd("critical", cmd_critical, "critical edges / Delta-criticality")
    p.add_argument("--edge", help="single edge 'u,v'")
    p = add_graph_cmd("split", cmd_split, "vertex splitting")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--part", required=True, help="comma-separated neighbor subset")
    p = add_graph_cmd("structures", cmd_structures, "locate colored structures")
    p.add_argument(
        "--kind",
        required=True,
        choices=["multifan", "kierstead", "shortkite", "kite", "fork"],
    )
    p.add_argument("--edge", required=True, help="uncolored edge 'u,v'")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("enumerate", help="all graphs on n vertices up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        default="default",
        choices=SUITES,
    )
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--out", help="report directory")
    p.set_defaults(func=cmd_verify)
    # --json after the subcommand too: SUPPRESS keeps one given before it
    for p in sub.choices.values():
        p.add_argument("--json", default=argparse.SUPPRESS, **json_flag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

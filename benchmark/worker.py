"""One round of one benchmark workload, in a fresh interpreter.

    python3 benchmark/worker.py WORKLOAD --seed N --out DIR [--setup-only] [--trace]

Imports kempe from the checkout's `src/`, builds the workload's inputs
(that is the set-up), times the work, checks the outputs, and prints one
JSON object as its last line: wall_s, peak_rss_mb, ops, failed, errors,
and with --trace the per-layer metrics. run.py starts it; it is not a
benchmark entry point of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import instances  # noqa: E402

# Workload -> (--n-max, --seeds) of `kempe verify`; refute-snarks calls the solver.
VERIFY = {"verify-n8": (8, 8), "verify-n7-deep": (7, 32)}
WORKLOADS = (*VERIFY, "refute-snarks")


def import_kempe() -> None:
    """Import kempe from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kempe" / "__init__.py").is_file():
        raise SystemExit(f"no kempe sources under {src}")
    sys.path.insert(0, str(src))
    import kempe
    import kempe.cli  # noqa: F401  (every module the suite uses)

    if Path(kempe.__file__).resolve().parent != (src / "kempe").resolve():
        raise SystemExit(f"kempe imported from {kempe.__file__}, not {src}")


def build_inputs(workload: str, seed: int, out: Path):
    """The workload's inputs: CLI arguments, or (name, graph) snark
    instances in an order drawn from the seed."""
    if workload in VERIFY:
        n_max, seeds = VERIFY[workload]
        return ["verify", "--suite", "default", "--n-max", str(n_max),
                "--seeds", str(seeds), "--out", str(out)]
    from kempe.graph import Graph

    names = [f"J{k}" for k in instances.SNARK_ORDERS]
    # The solver keeps no state between calls, so the order is work-neutral.
    random.Random(seed).shuffle(names)
    return [(name, Graph(*instances.flower_snark(int(name[1:])))) for name in names]


def run_verify(argv: list[str], out: Path) -> tuple[float, int, int, list[str]]:
    from kempe.cli import main

    shutil.rmtree(out, ignore_errors=True)
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    wall = perf_counter() - start
    if code != 0:
        return wall, 1, 1, [f"kempe verify exited with {code}"]
    return wall, 1, 0, instances.report_errors(out)


def warm_up_solver() -> None:
    """Refute a smaller snark, untimed and untraced, so the timed calls
    start with the allocator and the specialised bytecode already warm."""
    from kempe.classify import find_edge_coloring
    from kempe.graph import Graph

    find_edge_coloring(Graph(*instances.flower_snark(instances.WARM_UP_ORDER)), 3)


def run_solver(inputs) -> tuple[float, int, int, list[str]]:
    from kempe.classify import find_edge_coloring

    results = []
    failed = 0
    start = perf_counter()
    for name, g in inputs:
        try:
            results.append(find_edge_coloring(g, 3))
        except Exception as exc:  # a solver crash counts as a failed operation
            results.append(exc)
            failed += 1
    wall = perf_counter() - start
    errors = []
    for (name, g), col in zip(inputs, results):
        if isinstance(col, Exception):
            errors.append(f"{name}: {type(col).__name__}: {col}")
        elif col is not None:
            errors.append(f"{name}: 3-colouring returned for a Class 2 snark")
    return wall, len(inputs), failed, errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import_kempe()
    reports = args.out / "reports"
    inputs = build_inputs(args.workload, args.seed, reports)
    if args.setup_only:
        return 0

    is_verify = args.workload in VERIFY
    if not is_verify:
        warm_up_solver()
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    if is_verify:
        wall, ops, failed, errors = run_verify(inputs, reports)
    else:
        wall, ops, failed, errors = run_solver(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "ops": ops, "failed": failed}
    if is_verify and not failed:
        result["digest"] = instances.directory_digest(reports)
    if tracer is not None:
        layers = tracer.metrics()
        if is_verify:
            want = instances.graph_count_upto(VERIFY[args.workload][0])
            if layers["iso.graphs"][0] != want:
                errors.append(f"iso.graphs {layers['iso.graphs'][0]} != A000088 sum {want}")
        size = sum(p.stat().st_size for p in reports.iterdir()) if reports.is_dir() else 0
        layers["report.bytes"] = (size, "B")
        result["layers"] = layers
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

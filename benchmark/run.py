"""kempe benchmark: one workload, measured end to end or layer by layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every round of a workload runs in a
fresh interpreter (benchmark/worker.py) on one core with no extra
threads, so enumeration caches start cold, as they do for a user of
`kempe verify`. With --trace 0 it runs whole rounds for S seconds (at
least one round; another starts only if it is expected to end within S),
times set-up eleven times around them, and reports the medians of
wall_s, setup_s and peak_rss_mb. With --trace 1 it runs one
plain and one traced round and reports the per-layer metrics of the
traced round, plus the tracing overhead (traced minus plain wall_s).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".benchmark-out"
sys.path.insert(0, str(BENCH_DIR))

import instances  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> tuple[float, dict]:
    """Start one worker, wait for it, and return its elapsed time and result."""
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    # -I -S: neither PYTHON* variables nor site-packages hooks change what
    # the worker imports or how long its start takes.
    cmd = [sys.executable, "-I", "-S", str(BENCH_DIR / "worker.py"), workload,
           "--seed", str(seed), "--out", str(out), *flags]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"{workload} worker passed the {RUN_LIMIT_S} s limit") from exc
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return elapsed, json.loads(lines[-1]) if lines else {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kempe" / "__init__.py").is_file():
        print(f"error: no kempe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    work = (args.workload, args.seed, deadline)
    try:
        run_worker(*work, "--setup-only")  # fills __pycache__, untimed
        if args.trace:
            rounds = [run_worker(*work)[1], run_worker(*work, "--trace")[1]]
        else:
            # Set-up samples are taken half before and half after the rounds,
            # so their median sees the machine over the whole run.
            setups = [run_worker(*work, "--setup-only")[0]
                      for _ in range(SETUP_SAMPLES // 2)]
            rounds, spans = [], []
            start = perf_counter()
            # A round starts only if a round of median length still ends
            # within the measured seconds; the first always runs.
            while not rounds or (
                    perf_counter() - start + statistics.median(spans) <= args.seconds):
                span, result = run_worker(*work)
                spans.append(span)
                rounds.append(result)
            setups += [run_worker(*work, "--setup-only")[0]
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = [e for r in rounds for e in r["errors"]]
    want_digest = instances.REPORT_DIGESTS.get(args.workload)
    for r in rounds:
        if want_digest and r.get("digest") != want_digest:
            errors.append(f"report directory digest {r.get('digest')} != {want_digest}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        plain, traced = rounds
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

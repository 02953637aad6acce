"""Benchmark of ``semigraded``: one workload, one seed, one JSON result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/semigraded`` must exist).
With ``--trace 0`` it measures set-up time in fresh worker processes, then
runs the workload's passes in one more and prints the end-to-end metrics,
each op timed as the median of its passes; with ``--trace 1`` it runs one
pass traced, the same ops again untraced, and prints the per-layer metrics.
Human-readable lines come first; the last stdout line is the JSON result.
``BENCHMARK.json`` lists lib_mix and cli_mix; lib_mix's parts nf_param,
nf_plain and ideal_window run alone to tell which input kind a change moves.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("nf_param", "nf_plain", "ideal_window", "lib_mix", "cli_mix")
# Set-ups measured per run; setup_s is their median.
SETUP_SAMPLES = 3
# Passes a run makes at least.  In-process it makes more while one more is
# expected to end within --seconds (a pass takes 3.5-8 s in-process and
# about a minute for cli_mix's 100 sgr calls, on a 2-core x86 host with
# Python 3.11), and each op's time is its median over them, so a stretch of
# host slowdown within one pass moves few ops.
MIN_PASSES = {"nf_param": 2, "nf_plain": 2, "ideal_window": 2, "lib_mix": 2, "cli_mix": 1}
# Ops in a traced pass and its untraced replay: all in-process, the first 20
# sgr calls for cli_mix.
TRACE_LIMIT = {"nf_param": 0, "nf_plain": 0, "ideal_window": 0, "lib_mix": 0, "cli_mix": 20}
WORKER_TIMEOUT_S = 170


def worker(workload: str, seed: int, mode: str, min_passes: int = 1,
           seconds: float = 0.0, limit: int = 0):
    """Run a worker; returns (its JSON result, monotonic time it was started)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--min-passes", str(min_passes),
           "--seconds", str(seconds), "--limit", str(limit)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def percentile(sorted_values, q: float) -> float:
    """Nearest rank: at least n - ceil(q*n) samples lie beyond it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(args) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        res, started = worker(args.workload, args.seed, "setup")
        setups.append(res["ready"] - started)
    res, started = worker(args.workload, args.seed, "run", MIN_PASSES[args.workload],
                          args.seconds)
    setups.append(res["ready"] - started)
    lat = sorted(res["latencies_ms"])
    ok = len(lat)
    values = {
        "ops_per_s": 1000.0 * ok / sum(lat) if lat else 0.0,
        "op_ms_p50": statistics.median(lat) if lat else 0.0,
        "op_ms_p90": percentile(lat, 0.9) if lat else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"{args.workload} seed={args.seed}: {res['attempted']} ops in "
          f"{res['passes']} passes of {ok} ops, {res['wall_s']:.3f} s timed, "
          f"{sum(lat) / 1000.0:.3f} s of median times")
    notes = {"op_ms_p50": f"(n={ok})", "op_ms_p90": f"(n={ok}, {ok - math.ceil(0.9 * ok)} beyond)",
             "setup_s": f"(median of {len(setups)})"}
    for name, unit, _, _ in END_TO_END:
        print(f"  {name:<12} {values[name]:12.4f} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<12} {res['failed'] / max(res['attempted'], 1):12.4f} ratio")
    return {
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _, _ in END_TO_END},
    }


def per_layer(args) -> dict:
    limit = TRACE_LIMIT[args.workload]
    traced, _ = worker(args.workload, args.seed, "trace", limit=limit)
    plain, _ = worker(args.workload, args.seed, "run", limit=limit)
    layers = dict(traced["layers"])
    layers["trace.ops"] = traced["attempted"]
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    print(f"{args.workload} seed={args.seed}: traced {traced['attempted']} ops "
          f"(one pass), {traced['wall_s']:.3f} s traced, "
          f"{plain['wall_s']:.3f} s untraced")
    for name, unit, _, moves in PER_LAYER:
        print(f"  {name:<46} {layers.get(name, 0):14.3f} {unit:<6} -> {moves}")
    failed = traced["failed"] + plain["failed"]
    attempted = traced["attempted"] + plain["attempted"]
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": layers.get(name, 0), "unit": unit}
                    for name, unit, _, _ in PER_LAYER},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "semigraded" / "__init__.py").is_file():
        print(f"error: no src/semigraded under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = per_layer(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

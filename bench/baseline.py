"""Run every workload over several seeds and summarize each metric.

    python3 bench/baseline.py [--runs 10] [--first-seed 1] [--seconds S]
                              [--workloads a,b] [--traced] [--out FILE]

Prints, for each workload, every end-to-end metric's median, quartiles and
spread (quartile distance over the median, as ``statistics.quantiles(n=4)``
gives them) next to its bound, plus ``failed_frac``; with ``--traced`` it
adds one traced run per workload (``--runs 0`` makes only those).  With ``--out`` it writes the summary as
JSON.  ``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
Exits 1 if a run fails or is incorrect, or if a spread other than
``setup_s`` exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_benchmark_json() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if e2e != list(END_TO_END) or layer != [m[:3] for m in PER_LAYER]:
        raise SystemExit("BENCHMARK.json metrics differ from bench/metrics.py")
    if any(w["name"] not in WORKLOADS for w in spec["workloads"]):
        raise SystemExit("BENCHMARK.json names a workload bench/run.py lacks")
    return spec


def summarize(workload: str, seeds, seconds: int, entry: dict) -> bool:
    """Run one seed after another, print and store each metric's median,
    quartiles and spread in ``entry``; returns whether all runs were correct
    and every spread but ``setup_s``'s within a third of its bound."""
    results = [run_once(workload, seed, seconds, 0) for seed in seeds]
    steady = True
    entry["metrics"] = {}
    print(f"{workload}: {len(seeds)} runs, seeds {seeds[0]}-{seeds[-1]}")
    failed = [r["failed"] / r["attempted"] for r in results]
    for name, unit, _, bound in END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        entry["metrics"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": bound, "values": values}
        flag = ""
        if name != "setup_s" and spread > bound / 3:
            steady = False
            flag = "  <-- spread above a third of the bound"
        print(f"  {name:<12} median {med:11.4f} {unit:<6} q1 {q1:11.4f} q3 {q3:11.4f}"
              f"  spread {spread:6.3f} (bound {bound}){flag}")
    print(f"  {'failed_frac':<12} median {statistics.median(failed):11.4f} ratio")
    entry["failed_frac"] = failed
    if not all(r["correct"] for r in results):
        print(f"  incorrect runs on {workload}")
        steady = False
    return steady


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = check_benchmark_json()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workloads is None:
        args.workloads = ",".join(w["name"] for w in spec["workloads"])

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        entry = {"seeds": seeds}
        if args.runs:
            steady &= summarize(workload, seeds, args.seconds, entry)
        if args.traced:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            entry["traced_seed"] = args.first_seed
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""One measured process of the benchmark; started by ``run.py``.

Modes:
  setup  build the workload's ops and inputs, print when ready, exit;
  run    set up, then run passes over the ops (see ``workloads``) in a
         closed loop from one thread, checking every answer: at least
         ``--min-passes``, and more while one more is expected to end within
         ``--seconds`` of the first; report each op's median time over the
         passes;
  trace  as ``run`` with every traced function wrapped (in-process) or each
         ``sgr`` call started through ``launcher.py`` (cli_mix), then
         summarize the spans.

``--limit N`` runs only the first N ops of the pass order.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads
from workloads import ROOT, SRC, digest

OP_LIMIT_S = 30.0
# Start no op after this many seconds, so the process ends well within 180 s.
RUN_LIMIT_S = 120.0
OUT = ROOT / ".bench_out"


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _importtime(stderr: str, package: str) -> float:
    """Cumulative import time in ms of ``package`` from ``-X importtime``."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == package:
                return int(fields[1]) / 1000.0
    return 0.0


class Loop:
    """Runs ops one after another and tallies latencies and failures."""

    def __init__(self, runner, expected: dict, cli: bool, trace: bool) -> None:
        self.runner = runner
        self.expected = expected
        self.cli = cli
        self.trace = trace
        # wall seconds of each op of the pass order, one per pass; None once
        # the op failed
        self.samples = {}
        self.failures = []
        self.attempted = 0
        self.wall = 0.0
        self.cli_trace = {"import": [], "sympy": [], "process": [], "logs": []}

    def run_in_process(self, op):
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = time.perf_counter()
        try:
            return self.runner.run(op), time.perf_counter() - t0, None
        except OpTimeout:
            return None, time.perf_counter() - t0, "time limit"
        except Exception as exc:  # a failing op is counted, not fatal
            return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def run_cli(self, op):
        spans = str(OUT / "cli-spans.bin") if self.trace else None
        try:
            proc, wall = self.runner.run(op, spans)
        except subprocess.TimeoutExpired:
            return None, OP_LIMIT_S, "time limit"
        try:
            answer = workloads.cli_answer(op["args"], proc.returncode, proc.stdout)
        except ValueError:
            return None, wall, f"exit {proc.returncode} without a JSON report"
        if spans is not None:
            import tracing

            child = tracing.read(spans)
            os.remove(spans)
            main_s = sum(end - start for sid, parent, start, end in
                         zip(child.name, child.parent, child.start, child.end)
                         if parent < 0 and tracing.NAMES[sid] == "cli.main")
            self.cli_trace["logs"].append(child)
            self.cli_trace["process"].append((wall - main_s) * 1000.0)
            self.cli_trace["import"].append(_importtime(proc.stderr, "semigraded"))
            self.cli_trace["sympy"].append(_importtime(proc.stderr, "sympy"))
        return answer, wall, None

    def op(self, index: int, op) -> None:
        self.attempted += 1
        answer, wall, error = (self.run_cli if self.cli else self.run_in_process)(op)
        self.wall += wall
        if error is None:
            want = self.expected.get(op["id"])
            got = digest(answer)
            if want is None:
                error = "no recorded answer"
            elif got != want:
                bad = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
                error = f"wrong answer in {bad}"
        if error is None:
            if self.samples.setdefault(index, []) is not None:
                self.samples[index].append(wall)
        else:
            self.samples[index] = None
            self.failures.append(f"{op['id']}: {error}")

    def latencies_ms(self) -> list:
        """Each op's median time over the passes; ops that ever failed are left out."""
        return [statistics.median(walls) * 1000.0 for walls in self.samples.values()
                if walls is not None]


def run_passes(loop: Loop, runner, order, min_passes: int, seconds: float,
               ready: float) -> int:
    """Run passes over ``order``; returns the passes completed.

    Runs ``min_passes``, then more while one more, at the mean pass time so
    far, is expected to end within ``seconds`` of the first pass's start.
    Before each pass the runner's state is reset and the garbage collector
    run (neither timed), so every pass starts from the same state.
    """
    start = time.monotonic()
    done = 0
    while done < min_passes or (time.monotonic() - start) * (done + 1) / done <= seconds:
        if done:
            runner.reset()
        gc.collect()
        for index, op in enumerate(order):
            if time.monotonic() - ready > RUN_LIMIT_S:
                return done
            loop.op(index, op)
        done += 1
    return done


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--limit", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    ops = workloads.OPS[args.workload]()
    order = workloads.pass_order(ops, args.seed, args.workload)
    if args.limit:
        order = order[:args.limit]
    cli = args.workload == "cli_mix"
    if cli:
        runner = workloads.Cli(OP_LIMIT_S)
    else:
        sys.path.insert(0, str(SRC))
        runner = workloads.InProcess(order)
    runner.setup()
    expected = workloads.expected_answers(args.workload)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    trace = args.mode == "trace"
    log = None
    if trace and not cli:
        import tracing

        log = tracing.install()
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    loop = Loop(runner, expected, cli, trace)
    done = run_passes(loop, runner, order, args.min_passes, args.seconds, ready)

    for line in loop.failures[:10]:
        print(f"failed op {line}", file=sys.stderr)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "latencies_ms": loop.latencies_ms(),
        "wall_s": loop.wall,
        "passes": done,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if trace:
        import tracing

        if cli:
            layers = tracing.summarize(loop.cli_trace["logs"])
            for key, name in (("import", "cli.import_ms"), ("sympy", "cli.sympy_import_ms"),
                              ("process", "cli.process_ms")):
                values = loop.cli_trace[key]
                layers[name] = statistics.median(values) if values else 0.0
        else:
            layers = tracing.summarize([log])
            log.write(str(OUT / f"spans-{args.workload}.bin"))
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

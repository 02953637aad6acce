"""Record the answer of every op of a workload.

    python3 bench/record.py WORKLOAD [WORKLOAD ...]

Writes ``bench/answers/<workload>.json`` (for lib_mix, one file per part), a map from op id to its answer
fields (long strings as SHA-256 digests).  The committed files were
recorded with the package at the commit that introduced the benchmark;
re-record only when a workload's ops change, never to absorb a change in
the program's answers.
"""

from __future__ import annotations

import json
import sys

import workloads
from workloads import ANSWERS, SRC, digest


def record(workload: str) -> dict:
    ops = workloads.OPS[workload]()
    if workload == "cli_mix":
        runner = workloads.Cli(timeout=120.0)
    else:
        sys.path.insert(0, str(SRC))
        runner = workloads.InProcess(ops)
    runner.setup()
    answers = {}
    for op in ops:
        if op["id"] in answers:
            continue
        if workload == "cli_mix":
            proc, _ = runner.run(op)
            if proc.returncode != 0:
                raise SystemExit(f"{op['id']}: exit {proc.returncode}")
            answer = workloads.cli_answer(op["args"], proc.returncode, proc.stdout)
        else:
            answer = runner.run(op)
        answers[op["id"]] = digest(answer)
    return answers


def main() -> int:
    names = [part for name in sys.argv[1:] for part in workloads.PARTS.get(name, (name,))]
    for workload in names:
        answers = record(workload)
        path = ANSWERS / f"{workload}.json"
        path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(answers)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())

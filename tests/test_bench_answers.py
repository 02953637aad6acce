"""Replay of recorded benchmark answers, so an engine change that alters a
normal form or a window fails here and not only in the benchmark.

``bench/workloads.py`` is loaded read-only (no bytecode is written under
``bench/``); its ops are run through its own in-process runner and their
answers compared, digested as the benchmark digests them, with
``bench/answers/*.json``.  The ``sgr`` ops of cli_mix run in-process
through ``main``, with the report fields the benchmark reads.  The span
tracer of ``bench/tracing.py`` is installed in a child interpreter, so a
renamed or deleted traced function fails here too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from semigraded.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _replay(workloads, workload, ops):
    assert ops
    expected = workloads.expected_answers(workload)
    runner = workloads.InProcess(ops)
    runner.setup()
    for op in ops:
        assert workloads.digest(runner.run(op)) == expected[op["id"]], op["id"]


def test_shallow_deep_products_match_recorded_answers(workloads):
    ops = [op for op in workloads.nf_plain_ops() if op["kind"] == "deep" and op["d"] <= 14]
    _replay(workloads, "nf_plain", ops)


def test_degree_six_windows_match_recorded_answers(workloads):
    # every ideal_window op: windows at degrees 6 and 7 and the frame growth
    # (ggk) ops, on all six presentations
    ops = workloads.ideal_window_ops()
    assert len(ops) == 102
    _replay(workloads, "ideal_window", ops)


def test_cli_mix_reports_match_recorded_answers(workloads, capsys):
    ops = workloads.cli_mix_ops()
    assert len(ops) == 100
    expected = workloads.expected_answers("cli_mix")
    for op in ops:
        argv = [str(workloads.INPUTS / f"{a}.sgr") if a in op["files"] else a
                for a in op["args"]]
        code = main(argv + ["--format", "json"])
        answer = workloads.cli_answer(op["args"], code, capsys.readouterr().out)
        assert workloads.digest(answer) == expected[op["id"]], op["id"]


def test_bench_tracer_finds_every_traced_function(package_env):
    # install() raises AttributeError on a missing TRACED name; it rebinds
    # module globals, so it runs in a child interpreter, and -B keeps bench/
    # free of bytecode
    script = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('bench_tracing', sys.argv[1])\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.install()\n"
    )
    run = subprocess.run(
        [sys.executable, "-B", "-c", script, str(BENCH / "tracing.py")], env=package_env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr

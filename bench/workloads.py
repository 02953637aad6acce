"""The benchmark workloads: their ops, how to run one, and its answer.

cli_mix runs ``sgr`` subprocesses; nf_param, nf_plain and ideal_window call
the package in-process, each loading one layer, and lib_mix runs their ops
together (``BENCHMARK.json`` lists lib_mix and cli_mix).  Every workload is
a fixed list of ops, built here from the ``.sgr`` files in ``inputs/`` and
a fixed pool seed, and ``answers/<workload>.json`` records the answer of
each one.  A run is a number of *passes*; a pass runs every op
of the list once, in an order shuffled by the run's seed (then stably
sorted by the ops' ``phase``), and every pass of a run uses the same order.
So every run executes the same ops, seeds vary only their order, and each
op's time can be taken as its median over the passes.

Op costs below were measured on a 2-core x86 container with Python 3.11.7
and sympy 1.14.0; they explain the ranges chosen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
ANSWERS = BENCH / "answers"

# Answer strings longer than this are compared by their SHA-256 digest
# (powers at k=8 print to 80 kB).
_INLINE_TEXT = 200


def digest(answer: dict) -> dict:
    out = {}
    for key, value in answer.items():
        if isinstance(value, str) and len(value) > _INLINE_TEXT:
            value = "sha256:" + hashlib.sha256(value.encode()).hexdigest()
        out[key] = value
    return out


def read_input(name: str) -> str:
    return (INPUTS / f"{name}.sgr").read_text(encoding="utf-8")


def gens_of(name: str) -> list:
    for line in read_input(name).splitlines():
        line = line.strip()
        if line.startswith("vars:"):
            return [g.strip() for g in line[5:].rstrip(";").split(",")]
    raise ValueError(f"{name}.sgr declares no vars")


# -- random operand text -----------------------------------------------------

def _signed_sum(terms) -> str:
    """'c*m' terms joined with signs; m == '' is the constant term."""
    text = ""
    for coeff, mono in terms:
        body = mono if abs(coeff) == 1 and mono else (
            f"{abs(coeff)}*{mono}" if mono else str(abs(coeff)))
        if not text:
            text = ("-" if coeff < 0 else "") + body
        else:
            text += (" - " if coeff < 0 else " + ") + body
    return text


def _coeff(rng) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def linear_form(rng, gens) -> str:
    """c1*g1 + c2*g2 + c3*g3: the shape of a generator sum."""
    return _signed_sum((_coeff(rng), g) for g in gens)


def _monomial(rng, gens, degree) -> str:
    exps = [0] * len(gens)
    for _ in range(degree):
        exps[rng.randrange(len(gens))] += 1
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in zip(gens, exps) if e)


def random_element(rng, gens, max_degree, n_terms, min_degree=0) -> str:
    """Ordered monomials; the first has degree ``max_degree``."""
    degrees = [max_degree] + [rng.randint(min_degree, max_degree) for _ in range(n_terms - 1)]
    return _signed_sum((_coeff(rng), _monomial(rng, gens, d)) for d in degrees)


# -- op order -------------------------------------------------------------------

def pass_order(ops, seed: int, workload: str) -> list:
    """The order of every pass of a run: ``ops`` shuffled by the seed, then
    stably sorted by the ops' ``phase`` (0 when absent)."""
    order = list(ops)
    random.Random(f"{workload}:{seed}").shuffle(order)
    order.sort(key=lambda op: op.get("phase", 0))
    return order


# -- nf_param ------------------------------------------------------------------

NF_PARAM_FILES = ("uso3", "woronowicz", "quantum_space3",
                  "skew3d_type1", "skew3d_type2", "skew3d_type3", "skew3d_type4")


def nf_param_ops():
    """Per presentation: nc_pow at k = 6, 7, 8 (of the generator sum at 6 and
    8, of a random linear form in all three generators at 7), twelve nc_mul
    of random three-term elements of degree 3-4, and check_pbw: 112 ops.
    A pass parses the presentations and operands before its first op, so
    the rewrite memo tables start cold and stay warm across the pass's ops
    (uso3 k=8: 1.0 s cold, 0.95 s warm; woronowicz k=8: 1.3 s warm).  The
    nc_mul ops (mostly 1-15 ms) are 75% of all, so the median falls among
    them.  The powers run first, k = 6 before 7 before 8, then the products,
    then check_pbw (the ``phase`` key), so a power meets the same memo state
    whatever the seed; the seed orders the ops within a phase, so a product
    meets memo entries left by the products before it."""
    rng = random.Random("nf_param-pool")
    ops = []
    for name in NF_PARAM_FILES:
        gens = gens_of(name)
        for k in (6, 7, 8):
            linear = linear_form(rng, gens)
            base = linear if k == 7 else "+".join(gens)
            ops.append({"id": f"pow:{name}:{k}:{base}", "kind": "pow", "file": name,
                        "a": base, "k": k, "phase": k - 6, "warm": True})
        for _ in range(12):
            a, b = (random_element(rng, gens, 4, 3, min_degree=3) for _ in range(2))
            ops.append({"id": f"mul:{name}:{a}|{b}", "kind": "mul",
                        "file": name, "a": a, "b": b, "phase": 3, "warm": True})
        ops.append({"id": f"pbw:{name}", "kind": "pbw", "file": name, "phase": 4,
                    "warm": True})
    return ops


# -- nf_plain --------------------------------------------------------------------

# (file, deep pair (a, b) for a^d * b^d, d range, generators summed).  The
# pair is x_n, x1 except where those commute (weyl3: y1, x1; skew3d_type6:
# x2, x1).  Ranges keep the costliest deep op near 0.2 s and each
# presentation near 0.4 s of deep ops: dispin x3^24*x1^24 takes 0.2 s (d = 40:
# 1.2 s), skew3d_type5 x3^11*x1^11 0.16 s, weyl3 y1^44*x1^44 0.05 s.
NF_PLAIN = (
    ("enveloping3", ("x3", "x1"), (10, 44), ("x1", "x2", "x3")),
    ("dispin", ("x3", "x1"), (6, 24), ("x1", "x2", "x3")),
    ("weyl3", ("y1", "x1"), (10, 44), ("x1", "y1", "x2")),
    ("skew3d_type5", ("x3", "x1"), (1, 12), ("x1", "x2", "x3")),
    ("skew3d_type6", ("x2", "x1"), (6, 22), ("x1", "x2", "x3")),
    ("skew3d_type7", ("x3", "x1"), (4, 18), ("x1", "x2", "x3")),
    ("skew3d_type8", ("x3", "x1"), (6, 24), ("x1", "x2", "x3")),
)
DEEP_PER_FILE = 12


def nf_plain_ops():
    """Per presentation: deep products at twelve values of d spread evenly
    over its range, and nc_pow of the generator sum at k = 10, 11, 12: 105
    ops.  Every op parses its presentation afresh, so its memo starts cold."""
    ops = []
    for name, (a, b), (lo, hi), summed in NF_PLAIN:
        for i in range(DEEP_PER_FILE):
            d = lo + (hi - lo) * i // (DEEP_PER_FILE - 1)
            ops.append({"id": f"deep:{name}:{a}^{d}*{b}^{d}", "kind": "deep",
                        "file": name, "a": a, "b": b, "d": d})
        s = "+".join(summed)
        for k in (10, 11, 12):
            ops.append({"id": f"pow:{name}:{k}:{s}", "kind": "pow", "file": name,
                        "a": s, "k": k})
    return ops


# -- ideal_window ----------------------------------------------------------------

IDEAL_FILES = ("uso3", "woronowicz", "quantum_space3", "enveloping3", "dispin", "weyl2")
# The package's span-growth cap on the ambient window dimension.
_SPAN_CAP = 3000


def _k_max_under_cap(n: int, k_max: int) -> int:
    while math.comb(n + k_max, n) > _SPAN_CAP:
        k_max -= 1
    return k_max


def ideal_window_ops():
    """Per presentation: six windows at degree 6 and one at degree 7, each a
    pair of generators (a degree-3 monomial plus one of degree 1-3) run
    through left_ideal_window and is_semigraded_window; and ggk_estimate
    with two frames {1, g_a, g_b} (they do not span a full window, so it
    takes the span_growth path) at k_max = 12 to 16, lowered to the largest
    value the package's ambient-window cap allows (weyl2: 13): 102 ops.
    Window degree 8 is left out: one op there takes 2-8 s, against
    0.04-0.2 s at degree 6 and 0.1-0.8 s at 7.  Every op parses its
    presentation and generators, so plain presentations, which specialize to
    themselves, keep no memo from one op to the next."""
    rng = random.Random("ideal_window-pool")
    ops = []
    for name in IDEAL_FILES:
        gens = gens_of(name)
        pairs = [[random_element(rng, gens, 3, 2, min_degree=1) for _ in range(2)]
                 for _ in range(8)]
        for d, pair in zip((6, 6, 6, 6, 6, 6, 7), pairs):
            ops.append({"id": f"window:{name}:{d}:{pair[0]};{pair[1]}",
                        "kind": "window", "file": name, "gens": pair, "d": d})
        gen_pairs = [(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]]
        frames = [("1",) + pair for pair in rng.sample(gen_pairs, 2)]
        for k_max in (12, 13, 14, 15, 16):
            k_max = _k_max_under_cap(len(gens), k_max)
            ops.extend({"id": f"ggk:{name}:{k_max}:{','.join(f)}", "kind": "ggk",
                        "file": name, "frame": list(f), "k_max": k_max}
                       for f in frames)
    return ops


# -- cli_mix ---------------------------------------------------------------------

ALL_FILES = tuple(sorted(p.stem for p in INPUTS.glob("*.sgr")))
THREE_VAR = tuple(f for f in ALL_FILES if not f.startswith("weyl"))
PLAIN_THREE_VAR = ("dispin", "enveloping3", "skew3d_type5", "skew3d_type6",
                   "skew3d_type7", "skew3d_type8")
PARAM_THREE_VAR = tuple(f for f in THREE_VAR if f not in PLAIN_THREE_VAR)
# The catalog rows at the time the answers were recorded.
CATALOG_KEYS = (
    "habitual_polynomial_ring", "ore_extension_bijective", "weyl", "extended_weyl",
    "enveloping", "tensor_enveloping", "crossed_enveloping", "q_differential_operators",
    "shift_operators", "mixed_dh", "discrete_linear_systems", "lp_shift_poly",
    "lp_shift_rational", "lp_differential_poly", "lp_differential_rational",
    "lp_difference_poly", "lp_difference_rational", "lp_qdilation_poly",
    "lp_qdilation_rational", "lp_qdifferential_poly", "lp_qdifferential_rational",
    "diffusion", "additive_weyl_analogue", "multiplicative_weyl_analogue", "uso3",
    "skew3d", "dispin", "woronowicz", "vq_sl3", "algebra_u", "manin", "slq2",
    "q_heisenberg", "uq_sl2", "hayashi", "diff_ops_quantum_space", "witten_deformation",
    "maltsiniotis_weyl", "quantum_weyl_qpij", "multiparameter_weyl", "quantum_symplectic",
    "quadratic_3var", "skew_quantum_space_r", "quantum_space_r", "skew_quantum_space_k",
    "quantum_space_k", "skew_quantum_polynomials_r", "quantum_polynomials_r",
    "skew_quantum_polynomials_k", "quantum_polynomials_k",
)


def _cli(args, files=()):
    """An ``sgr`` op; ``files`` lists the input names in ``args`` order."""
    shown = [a if a not in files else f"{a}.sgr" for a in args]
    return {"id": "cli:" + " ".join(shown), "kind": "cli", "args": list(args),
            "files": list(files)}


def cli_mix_ops():
    """One ``python -m semigraded <cmd> --format json`` subprocess per op, 100
    ops drawn from the fixed menu: ten each of validate; nf of
    (x1+x2+x3)^k for k = 3-5 (parametric files) or 5-7 (plain files), twice;
    hilbert --poly; gkdim; gkdim --frame (a full-window frame or a
    span-growth frame at --kmax 12); gr; ideal-window at --degree 4-6;
    catalog verify --entry; and catalog list five times, the tail op
    catalog verify --bind n=5 (2.0 s) three times and the tail op nf
    (x1+x2+x3)^8 on a plain file (1.7 s) twice.  A bare call costs ~0.6 s,
    mostly import."""
    rng = random.Random("cli_mix-pool")
    pow_ = "(x1+x2+x3)^{}"
    nf = [(f, k) for f in PARAM_THREE_VAR for k in (3, 4, 5)]
    nf += [(f, k) for f in PLAIN_THREE_VAR for k in (5, 6, 7)]
    frames = [(f, frame) for f in THREE_VAR
              for frame in (["1,x1,x2,x3"], ["1,x1,x2", "--kmax", "12"])]
    windows = []
    for f in rng.sample(THREE_VAR, 10):
        gens = gens_of(f)
        pair = ",".join(random_element(rng, gens, rng.randint(1, 3), 2, min_degree=1)
                        for _ in range(2))
        windows.append(_cli(["ideal-window", f, "--gens", pair, "--degree",
                             str(rng.choice((4, 5, 6)))], [f]))
    nf = rng.sample(nf, 20)
    groups = [
        [_cli(["validate", f], [f]) for f in rng.sample(ALL_FILES, 10)],
        [_cli(["nf", f, pow_.format(k)], [f]) for f, k in nf[:10]],
        [_cli(["nf", f, pow_.format(k)], [f]) for f, k in nf[10:]],
        [_cli(["catalog", "list"])] * 5 + [_cli(["catalog", "verify", "--bind", "n=5"])] * 3
        + [_cli(["nf", f, pow_.format(8)], [f]) for f in rng.sample(PLAIN_THREE_VAR, 2)],
        [_cli(["hilbert", f, "--poly"], [f]) for f in rng.sample(ALL_FILES, 10)],
        [_cli(["gkdim", f], [f]) for f in rng.sample(ALL_FILES, 10)],
        [_cli(["gkdim", f, "--frame", *frame], [f]) for f, frame in rng.sample(frames, 10)],
        [_cli(["gr", f], [f]) for f in rng.sample(ALL_FILES, 10)],
        windows,
        [_cli(["catalog", "verify", "--entry", key]) for key in rng.sample(CATALOG_KEYS, 10)],
    ]
    return [op for group in groups for op in group]


# lib_mix runs the ops of the three in-process workloads together.
PARTS = {"lib_mix": ("nf_param", "nf_plain", "ideal_window")}

OPS = {
    "nf_param": nf_param_ops,
    "nf_plain": nf_plain_ops,
    "ideal_window": ideal_window_ops,
    "lib_mix": lambda: [op for part in PARTS["lib_mix"] for op in OPS[part]()],
    "cli_mix": cli_mix_ops,
}


def expected_answers(workload: str) -> dict:
    """The recorded answers of a workload's ops, by op id."""
    answers = {}
    for part in PARTS.get(workload, (workload,)):
        answers.update(json.loads((ANSWERS / f"{part}.json").read_text()))
    return answers


# -- running one op ----------------------------------------------------------------

class InProcess:
    """Runs the in-process workloads through the package's public API.

    Ops marked ``warm`` (nf_param's) use presentations and operands parsed
    in ``reset``, before each pass, so their memo tables start cold at the
    pass's first op and stay warm from op to op; the other ops parse them
    inside the op, so each starts cold and depends on no op before it.
    ``run`` executes one op and returns its answer fields; the timed part is
    the computation plus printing the result, as a library user would.
    """

    def __init__(self, ops) -> None:
        import semigraded

        self.sg = semigraded
        self.ops = ops
        self.texts = {}
        self.pres = {}
        self.elements = {}

    def setup(self) -> None:
        for op in self.ops:
            if op["file"] not in self.texts:
                self.texts[op["file"]] = read_input(op["file"])
        self.reset()

    def reset(self) -> None:
        """Start a pass: parse the warm ops' presentations and operands afresh."""
        warm = [op for op in self.ops if op.get("warm")]
        self.pres = {op["file"]: self.sg.parse_presentation(self.texts[op["file"]])
                     for op in warm}
        self.elements = {}
        for op in warm:
            name = op["file"]
            for text in (op.get("a"), op.get("b")):
                if text is not None and (name, text) not in self.elements:
                    self.elements[(name, text)] = self.sg.parse_element(
                        self.pres[name], text)

    def run(self, op) -> dict:
        sg = self.sg
        kind = op["kind"]
        name = op["file"]
        if op.get("warm"):
            p = self.pres[name]

            def element(text):
                return self.elements[(name, text)]
        else:
            p = sg.parse_presentation(self.texts[name])

            def element(text):
                return sg.parse_element(p, text)
        if kind == "deep":
            result = sg.nc_mul(p, element(f"{op['a']}^{op['d']}"),
                               element(f"{op['b']}^{op['d']}"))
            return self._nf_answer(p, result)
        if kind == "pow":
            return self._nf_answer(p, sg.nc_pow(p, element(op["a"]), op["k"]))
        if kind == "mul":
            return self._nf_answer(p, sg.nc_mul(p, element(op["a"]), element(op["b"])))
        if kind == "pbw":
            rep = sg.check_pbw(p)
            return {"ok": rep.ok, "triples_checked": rep.triples_checked,
                    "sample_triples_checked": rep.sample_triples_checked,
                    "failures": len(rep.failures)}
        if kind == "window":
            ws = sg.left_ideal_window(p, [element(g) for g in op["gens"]], op["d"])
            verdict = sg.is_semigraded_window(ws)
            return {"rank": ws.rank, "pivot_monomials": ws.pivot_monomials(),
                    "semigraded": verdict.ok}
        if kind == "ggk":
            frame = sg.Frame(tuple(element(f) for f in op["frame"]))
            est = sg.ggk_estimate(p, frame=frame, k_max=op["k_max"])
            return {"method": est.method, "dims": list(est.dims)}
        raise ValueError(f"unknown op kind {kind!r}")

    def _nf_answer(self, p, result) -> dict:
        return {"normal_form": self.sg.format_element(result.terms, p.gens, p.field),
                "terms": len(result.terms)}


# Fields of each CLI report compared against the recording; a path segment
# '*' maps over a list.  Whole stdout is not compared, so a new report key
# is not a failure.
CLI_FIELDS = {
    "validate": ("results.diagnostics.valid", "results.pbw.ok",
                 "results.pbw.triples_checked"),
    "nf": ("results.normal_form", "results.degree", "results.terms"),
    "hilbert": ("results.series", "results.coefficients", "results.polynomial",
                "results.polynomial_string"),
    "gkdim": ("results.exact", "results.estimate.method", "results.estimate.samples.*.dim"),
    "gr": ("results.presentation", "results.q_matrix", "results.quasi_commutative"),
    "ideal-window": ("results.window.rank", "results.window.pivot_monomials",
                     "results.semigraded.ok"),
    "catalog verify": ("results.summary", "results.reports.*.matches_formula",
                       "results.reports.*.flags", "results.reports.*.variants"),
    "catalog list": ("results.count", "results.entries.*.key"),
}


def _get(value, path):
    for i, part in enumerate(path):
        if part == "*":
            return [_get(item, path[i + 1:]) for item in value]
        value = value.get(part) if isinstance(value, dict) else None
    return value


def cli_answer(args, returncode: int, stdout: str) -> dict:
    """Answer fields of an ``sgr`` report; raises ValueError without one."""
    command = "catalog " + args[1] if args[0] == "catalog" else args[0]
    answer = {"exit": returncode}
    report = json.loads(stdout)
    for path in CLI_FIELDS[command]:
        value = _get(report, path.split("."))
        answer[path] = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return answer


class Cli:
    """Runs ``cli_mix`` ops as ``sgr`` subprocesses, each with cold memos."""

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def command(self, op, trace_out=None):
        args = [str(INPUTS / f"{a}.sgr") if a in op["files"] else a for a in op["args"]]
        if trace_out is None:
            return [sys.executable, "-m", "semigraded", *args, "--format", "json"]
        return [sys.executable, "-X", "importtime", str(BENCH / "launcher.py"), trace_out,
                *args, "--format", "json"]

    def run(self, op, trace_out=None):
        """Returns (finished process, wall seconds)."""
        t0 = time.perf_counter()
        proc = subprocess.run(self.command(op, trace_out), cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=self.timeout)
        return proc, time.perf_counter() - t0

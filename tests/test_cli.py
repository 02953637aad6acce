"""End-to-end command-line tests driven through main(argv)."""

import json
import subprocess
import sys

import pytest

from semigraded.catalog import build_dispin, build_quantum_space, build_uso3
from semigraded.cli import main
from semigraded.presentation import print_presentation

QPLANE = """\
algebra qplane {
  params: q inv;
  vars: x1, x2;
  rel: x2*x1 = q*x1*x2;
}
"""

KX = """\
algebra kx {
  vars: x1;
}
"""

K2 = """\
algebra k2 {
  vars: x1, x2;
}
"""

SKLYANIN = """\
algebra sklyanin {
  vars: x, y, z;
  rel: y*x = x*y + z*z;
}
"""

BROKEN = """\
algebra broken {
  vars: x1, x2;
  rel: x2*x1 = 0*x1*x2 + 1;
}
"""

# parses and passes structural validation, but the overlap x3*x2*x1 resolves
# two ways, so the monomial-basis check fails
BAD8 = """\
algebra bad8 {
  vars: x1, x2, x3;
  rel: x2*x1 = x1*x2;
  rel: x3*x1 = x1*x3 + x1;
  rel: x3*x2 = x2*x3 - x3;
}
"""

# dispin with one relation perturbed: structurally valid, but the overlap
# x3*x2*x1 no longer resolves
PERTURBED_DISPIN = print_presentation(build_dispin()).replace(
    "rel: x3*x2 = x2*x3 - x3;", "rel: x3*x2 = x2*x3 + 1;"
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sgr")
    paths = {}
    for name, text in (
        ("dispin", print_presentation(build_dispin())),
        ("uso3", print_presentation(build_uso3())),
        ("qspace", print_presentation(build_quantum_space(3))),
        ("qplane", QPLANE),
        ("kx", KX),
        ("k2", K2),
        ("sklyanin", SKLYANIN),
        ("broken", BROKEN),
        ("bad8", BAD8),
        ("perturbed_dispin", PERTURBED_DISPIN),
    ):
        path = root / f"{name}.sgr"
        path.write_text(text)
        paths[name] = str(path)

    # same algebra as dispin.sgr: comments, extra whitespace, relations in a
    # different order -- the fingerprint must not notice
    lines = print_presentation(build_dispin()).splitlines()
    rels = [ln for ln in lines if ln.strip().startswith("rel:")]
    head = [ln for ln in lines if not ln.strip().startswith("rel:")]
    shuffled = (
        head[:-1]
        + ["  # reordered copy"]
        + [r + "  " for r in reversed(rels)]
        + [head[-1]]
    )
    path = root / "dispin_reordered.sgr"
    path.write_text("\n".join(shuffled) + "\n")
    paths["dispin_reordered"] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_report_shape_and_null_timing(files, capsys):
    code, report, _ = run_json(capsys, "validate", files["dispin"])
    assert code == 0
    assert sorted(report) == [
        "command", "fingerprint", "results", "timing_ms", "warnings",
    ]
    assert report["command"] == "validate"
    assert report["timing_ms"] is None
    assert len(report["fingerprint"]) == 64


def test_validate_dispin(files, capsys):
    code, report, _ = run_json(capsys, "validate", files["dispin"])
    assert code == 0
    diag = report["results"]["diagnostics"]
    assert diag["valid"] is True
    assert diag["quasi_commutative"] is False
    assert report["results"]["pbw"]["ok"] is True
    assert report["results"]["n"] == 3


def test_validate_rejects_broken_constants(files, capsys):
    code, out, err = run(capsys, "validate", files["broken"], "--format", "json")
    assert code == 1
    assert out == ""
    assert "nonzero" in err


def test_validate_reports_pbw_failure(files, capsys):
    for name in ("bad8", "perturbed_dispin"):
        code, report, _ = run_json(capsys, "validate", files[name])
        assert code == 1
        assert report["results"]["diagnostics"]["valid"] is True
        pbw = report["results"]["pbw"]
        assert pbw["ok"] is False
        assert pbw["failures"][0]["kind"] == "overlap"
        assert pbw["failures"][0]["triple"] == "(x3, x2, x1)"


def test_nf_examples(files, capsys):
    code, report, _ = run_json(capsys, "nf", files["uso3"], "x2*x1")
    assert code == 0
    assert report["results"]["normal_form"] == "q*x1*x2 - q^(1/2)*x3"
    assert report["results"]["degree"] == 2
    assert report["results"]["terms"] == 2

    code, report, _ = run_json(capsys, "nf", files["kx"], "1")
    assert code == 0
    assert report["results"]["normal_form"] == "1"
    assert report["results"]["degree"] == 0

    code, report, _ = run_json(capsys, "nf", files["kx"], "x1 - x1")
    assert code == 0
    assert report["results"]["normal_form"] == "0"
    assert report["results"]["degree"] is None
    assert report["results"]["terms"] == 0

    code, report, _ = run_json(capsys, "nf", files["qplane"], "x2*x1")
    assert code == 0
    assert report["results"]["normal_form"] == "q*x1*x2"


def test_hilbert_dispin(files, capsys):
    code, report, _ = run_json(
        capsys, "hilbert", files["dispin"], "--trunc", "5", "--poly"
    )
    assert code == 0
    results = report["results"]
    assert results["coefficients"] == [1, 3, 6, 10, 15, 21]
    assert results["series"] == "1/(1-t)^3"
    assert results["polynomial_string"] == "(t^2 + 3*t + 2)/2"
    assert results["ggk"] == 3
    codes = [w["code"] for w in report["warnings"]]
    assert codes == ["gp-table-mismatch"]
    assert "dispin" in report["warnings"][0]["entries"]
    assert "uso3" in report["warnings"][0]["entries"]


def test_hilbert_no_divergence_warning_in_other_dimensions(files, capsys):
    code, report, _ = run_json(capsys, "hilbert", files["qplane"])
    assert code == 0
    assert report["results"]["coefficients"] == list(range(1, 12))
    assert report["warnings"] == []


def test_gkdim_dispin(files, capsys):
    code, report, _ = run_json(capsys, "gkdim", files["dispin"], "--kmax", "60")
    assert code == 0
    assert report["results"]["exact"] == 3
    estimate = report["results"]["estimate"]
    assert 2.7 <= estimate["estimate"] <= 3.0
    assert estimate["k_max"] == 60
    codes = [w["code"] for w in report["warnings"]]
    assert codes == ["finite-window-estimate"]


def test_gkdim_specialization_warning(files, capsys):
    code, report, _ = run_json(
        capsys, "gkdim", files["qplane"], "--kmax", "20",
        "--frame", "1,x1,x2", "--specialize", "q=5",
    )
    assert code == 0
    assert report["results"]["estimate"]["method"] == "window_power"
    codes = [w["code"] for w in report["warnings"]]
    assert codes == ["finite-window-estimate", "specialization-applied"]
    assert report["warnings"][1]["values"] == {"q": "5"}


def test_gkdim_default_frame_accepts_but_does_not_use_specialization(files, capsys):
    code, report, _ = run_json(
        capsys, "gkdim", files["qplane"], "--kmax", "20", "--specialize", "q=5"
    )
    assert code == 0
    assert report["results"]["estimate"]["specialization"] is None
    assert [w["code"] for w in report["warnings"]] == ["finite-window-estimate"]


def test_gkdim_with_frame(files, capsys):
    code, report, _ = run_json(
        capsys, "gkdim", files["dispin"], "--kmax", "30",
        "--frame", "1,x1,x2,x3",
    )
    assert code == 0
    assert report["results"]["estimate"]["method"] == "window_power"


def test_gkdim_frame_without_parameters_claims_no_specialization(files, capsys):
    code, report, _ = run_json(
        capsys, "gkdim", files["dispin"], "--kmax", "8", "--frame", "1,x1",
    )
    assert code == 0
    assert report["results"]["estimate"]["method"] == "span_growth"
    assert [w["code"] for w in report["warnings"]] == ["finite-window-estimate"]


def test_gr_dispin(files, capsys):
    code, report, _ = run_json(capsys, "gr", files["dispin"])
    assert code == 0
    assert report["results"]["quasi_commutative"] is True
    assert report["results"]["q_matrix"] == [
        ["1", "1", "-1"],
        ["1", "1", "1"],
        ["-1", "1", "1"],
    ]
    assert "rel:" in report["results"]["presentation"]


def test_ideal_window_witness(files, capsys):
    code, report, _ = run_json(
        capsys, "ideal-window", files["kx"], "--gens", "1 + x1", "--degree", "3"
    )
    assert code == 0
    sg = report["results"]["semigraded"]
    assert sg["ok"] is False
    assert sg["witness"]["row"] == "x1^3 + 1"
    assert report["results"]["generators"] == ["x1 + 1"]
    assert report["warnings"] == []


def test_ideal_window_homogeneous(files, capsys):
    code, report, _ = run_json(
        capsys, "ideal-window", files["qplane"],
        "--gens", "x1*x2", "--degree", "4", "--specialize", "q=3",
    )
    assert code == 0
    assert report["results"]["semigraded"]["ok"] is True
    assert [w["code"] for w in report["warnings"]] == ["specialization-applied"]


def test_catalog_list(capsys):
    code, report, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    assert report["results"]["count"] == 50
    assert report["command"] == "catalog list"


def test_catalog_verify_table2_binding(capsys):
    code, report, _ = run_json(
        capsys, "catalog", "verify",
        "--entry", "skew_quantum_polynomials_r", "--bind", "n=3,r=1",
    )
    assert code == 0
    (row,) = report["results"]["reports"]
    assert row["dimension"] == 2
    assert row["formula_gh"] == "1/(1-t)^2"
    assert row["matches_formula"] == {"gh": True, "gp": True}


def test_catalog_verify_all(capsys):
    code, report, _ = run_json(capsys, "catalog", "verify")
    assert code == 0
    summary = report["results"]["summary"]
    assert summary["total"] == 50
    assert summary["gh_matches"] == 50
    assert summary["gp_matches"] == 43
    assert len(summary["gp_mismatches"]) == 7
    codes = {w["code"] for w in report["warnings"]}
    assert codes == {"gp-table-mismatch", "semi-graduation-differs"}


def test_catalog_export(tmp_path, capsys):
    out = str(tmp_path / "exported")
    code, report, _ = run_json(capsys, "catalog", "export", "--out", out)
    assert code == 0
    assert report["results"]["count"] == 14
    assert len(report["results"]["written"]) == 14


def test_exit_codes(files, tmp_path, capsys):
    code, out, err = run(capsys, "validate", files["sklyanin"])
    assert code == 1 and out == "" and "z*z" in err

    code, _, err = run(capsys, "validate", files["dispin"], "--pbw-degree", "0")
    assert code == 2 and "pbw-degree" in err

    code, _, err = run(capsys, "hilbert", files["dispin"], "--trunc", "-1")
    assert code == 2

    code, _, err = run(capsys, "gkdim", files["dispin"], "--kmax", "7")
    assert code == 2 and "kmax" in err

    code, _, err = run(capsys, "catalog", "verify", "--bind", "n=x")
    assert code == 2

    code, _, err = run(capsys, "catalog", "verify", "--bind", "n=3.5")
    assert code == 2 and "integer" in err

    code, _, err = run(capsys, "gkdim", files["qplane"], "--specialize", "q")
    assert code == 2

    code, _, err = run(capsys, "catalog", "verify", "--entry", "nope")
    assert code == 1 and "nope" in err

    code, _, err = run(capsys, "catalog", "export")
    assert code == 2 and "--out" in err

    code, _, err = run(capsys, "validate", str(tmp_path / "missing.sgr"))
    assert code == 1

    code, _, err = run(capsys, "gkdim", files["qplane"], "--specialize", "q=0")
    assert code == 1 and "invertible" in err  # q is declared invertible

    code, _, err = run(capsys, "gkdim", files["qplane"], "--specialize", "zz=3")
    assert code == 1 and "unknown parameter" in err

    # a presentation without parameters refuses every name
    code, _, err = run(
        capsys, "ideal-window", files["dispin"], "--gens", "x1", "--degree", "2",
        "--specialize", "q=3",
    )
    assert code == 1 and "unknown parameter 'q'" in err


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_json_output_is_deterministic(files, capsys):
    commands = [
        ("validate", files["dispin"]),
        ("nf", files["uso3"], "x3*x2*x1"),
        ("hilbert", files["dispin"], "--poly"),
        ("gkdim", files["dispin"], "--kmax", "40"),
        ("gr", files["uso3"]),
        ("ideal-window", files["kx"], "--gens", "x1^2", "--degree", "4"),
        ("catalog", "verify", "--entry", "uso3"),
    ]
    for argv in commands:
        _, first, _ = run(capsys, *argv, "--format", "json")
        _, second, _ = run(capsys, *argv, "--format", "json")
        assert first == second, argv


def test_fingerprint_stability(files, capsys):
    _, canonical, _ = run_json(capsys, "validate", files["dispin"])
    _, reordered, _ = run_json(capsys, "validate", files["dispin_reordered"])
    _, other, _ = run_json(capsys, "nf", files["qplane"], "x1")
    assert canonical["fingerprint"] == reordered["fingerprint"]
    assert canonical["fingerprint"] != other["fingerprint"]


def test_text_format_shows_real_timing(files, capsys):
    code, out, _ = run(capsys, "nf", files["kx"], "x1")
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("timing_ms:"))
    assert float(line.split(":", 1)[1]) >= 0.0
    assert "normal_form: x1" in out


def text_report(capsys, *argv):
    """The lines of a text report between its fingerprint and its timing."""
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and lines[0] == f"command: {argv[0]}"
    assert lines[1].startswith("fingerprint: ") and lines[-1].startswith("timing_ms: ")
    return lines[2:-1]


def test_text_reports_print_every_kind_of_value(files, capsys):
    # booleans, an empty list and a record's fields in order
    assert text_report(capsys, "validate", files["dispin"]) == [
        "results:",
        "  name: dispin",
        "  n: 3",
        "  diagnostics:",
        "    valid: true",
        "    quasi_commutative: false",
        "    bijective: true",
        "    findings: []",
        "  pbw:",
        "    ok: true",
        "    triples_checked: 1",
        "    sample_triples_checked: 20",
        "    degree_bound: 3",
        "    seed: 0",
        "    failures: []",
        "warnings: []",
    ]
    # a list of records; the floats are the JSON report's
    argv = ("gkdim", files["dispin"], "--frame", "1,x1,x2", "--kmax", "12")
    estimate = run_json(capsys, *argv)[1]["results"]["estimate"]
    samples = []
    for sample, k, dim in zip(
        estimate["samples"], (3, 5, 6, 7, 9, 11, 12), (10, 21, 28, 36, 55, 78, 91)
    ):
        samples += ["      -", f"        k: {k}", f"        dim: {dim}",
                    f"        log_k_dim: {sample['log_k_dim']}"]
    assert text_report(capsys, *argv) == [
        "results:",
        "  exact: 3",
        "  estimate:",
        f"    estimate: {estimate['estimate']}",
        "    method: span_growth",
        "    k_max: 12",
        "    samples:",
        *samples,
        "    specialization: {}",
        "warnings:",
        "  -",
        "    code: finite-window-estimate",
        "    message: the estimate is fitted from window dimensions sampled up to "
        "k_max=12; the exact dimension is the 'exact' field",
        "    k_max: 12",
    ]
    # null, and lists of strings
    argv = ("ideal-window", files["kx"], "--gens", "x1", "--degree", "2")
    assert text_report(capsys, *argv) == [
        "results:",
        "  window:",
        "    window_degree: 2",
        "    specialization: {}",
        "    rank: 2",
        "    pivot_monomials:",
        "      - x1^2",
        "      - x1",
        "  semigraded:",
        "    ok: true",
        "    window_degree: 2",
        "    witness: null",
        "  generators:",
        "    - x1",
        "warnings: []",
    ]


def test_module_entry_point(files, package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "semigraded", "validate", files["dispin"],
         "--format", "json"],
        capture_output=True, text=True, env=package_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "validate"


def test_nf_of_a_high_power_ends_in_bounded_time(files, package_env):
    # the free expansion of (x1+x2+x3)^40 has 3^40 words; evaluated straight
    # in normal form it has 12130 terms
    proc = subprocess.run(
        [sys.executable, "-m", "semigraded", "nf", files["dispin"],
         "(x1+x2+x3)^40", "--format", "json"],
        capture_output=True, text=True, env=package_env, timeout=30,
    )
    assert proc.returncode == 0
    results = json.loads(proc.stdout)["results"]
    assert (results["terms"], results["degree"]) == (12130, 40)


@pytest.mark.parametrize("name", ["perturbed_dispin", "bad8"])
@pytest.mark.parametrize("argv", [
    ("hilbert", "--poly"),
    ("gkdim",),
    ("ideal-window", "--gens", "x1", "--degree", "3"),
    ("nf", "x3*x2*x1"),
    ("gr",),
])
def test_answers_need_resolving_overlaps(files, capsys, name, argv):
    command, *flags = argv
    code, out, err = run(capsys, command, files[name], *flags, "--format", "json")
    assert (code, out) == (1, "")
    assert "overlap (x3, x2, x1)" in err


def test_a_huge_exponent_is_refused_in_bounded_time(files, package_env):
    # a power costs one product per unit of its exponent
    proc = subprocess.run(
        [sys.executable, "-m", "semigraded", "nf", files["kx"], "x1^2000000000",
         "--format", "json"],
        capture_output=True, text=True, env=package_env, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "_EXPONENT_CAP" in proc.stderr


@pytest.mark.parametrize("argv, cap", [
    (("nf", "dispin", "(" * 3000 + "x1" + ")" * 3000), "_NESTING_CAP"),
    (("hilbert", "dispin", "--trunc", "100000000"), "_TRUNCATION_CAP"),
    (("ideal-window", "dispin", "--gens", "x1+x2*x3", "--degree", "60"),
     "_WINDOW_DIMENSION_CAP"),
    (("nf", "qspace", "((q12^10000)^10000)^10000*x1"), "_PARAM_EXPONENT_LIMIT"),
    (("gkdim", "dispin", "--frame", "1,x1,x2", "--kmax", "1000"),
     "_GROWTH_DIMENSION_CAP"),
    (("gkdim", "dispin", "--frame", "1,x1*x3"), "_GROWTH_DIMENSION_CAP"),
    (("nf", "k2", "((x1^10000)^10000)^100"), "_DEGREE_LIMIT"),
    (("nf", "k2", "((x2^10000)^10000)^100"), "_DEGREE_LIMIT"),
], ids=["nesting", "trunc", "window", "param_exponent", "growth", "growth_rows",
        "degree_x1", "degree_x2"])
def test_input_past_a_cap_is_refused_in_bounded_time(files, package_env, argv, cap):
    # the parser recurses once per parenthesis; the series lists one
    # coefficient per degree; a window's work grows with its dimension; a
    # parameter exponent of several would leave its packed field; a grown
    # span's work grows with the monomials its rows use, which bound its
    # rank and each row's length: {1, x1, x2} passes the cap at k = 76 with
    # rank near the cap, {1, x1*x3} at k = 77 with rank 77 and rows of
    # up to 2,851 terms; a letter's exponent past _DEGREE_LIMIT would carry
    # into the field of the letter before it
    command, name, *rest = argv
    proc = subprocess.run(
        [sys.executable, "-m", "semigraded", command, files[name], *rest,
         "--format", "json"],
        capture_output=True, text=True, env=package_env, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert cap in proc.stderr


@pytest.mark.parametrize("name, text, form", [
    ("dispin", "(x3^10000)^10000", "x3^100000000"),
    ("k2", "(x1^10000)^10000", "x1^100000000"),
])
def test_a_power_of_a_letter_power_ends_in_bounded_time(files, package_env, name, text, form):
    # x_i^e times a value with no letter before x_i adds e to one exponent
    # in one pass; a pass per unit of e made 10^8 passes here
    proc = subprocess.run(
        [sys.executable, "-m", "semigraded", "nf", files[name], text, "--format", "json"],
        capture_output=True, text=True, env=package_env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert (results["normal_form"], results["degree"]) == (form, 10**8)


NO_DATACLASSES = '''
import sys
from semigraded.cli import main
for argv in ARGVS:
    assert main(argv + ["--format", "json"]) == 0, argv
assert "dataclasses" not in sys.modules, "an sgr call imported dataclasses"
assert "sympy" not in sys.modules, "an sgr call imported sympy"
'''


def test_sgr_calls_never_import_dataclasses(files, package_env):
    # importing dataclasses (and with it inspect, dis and tokenize) is a
    # start-up cost every call would pay, and so is sympy, which only a
    # multi-term gcd needs, never a printed Hilbert polynomial; a fresh
    # interpreter, since this one may have imported them already
    dispin = files["dispin"]
    argvs = [
        ["nf", dispin, "(x1+x2+x3)^3"],
        ["hilbert", dispin, "--poly"],
        ["gkdim", dispin, "--frame", "1,x1,x2,x3", "--kmax", "12"],
        ["catalog", "verify"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", f"ARGVS = {argvs!r}\n{NO_DATACLASSES}"],
        capture_output=True, text=True, env=package_env,
    )
    assert proc.returncode == 0, proc.stderr

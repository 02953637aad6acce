"""The package namespace: its public names and the layers each one loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import semigraded

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC = [
    "Fraction", "ParamDecl", "ScalarField", "SpecializationError", "scalar_arith",
    "scalar_normalize", "scalar_specialize",
    "AlgebraPresentation", "Diagnostics", "Finding", "PresentationError", "Relation",
    "associated_graded", "format_element", "make_presentation", "parse_element",
    "parse_presentation", "parse_scalar", "print_presentation", "q_matrix",
    "specialize_presentation", "validate",
    "NCPoly", "PbwReport", "check_pbw", "constant", "free_to_normal_form", "monomial",
    "nc_add", "nc_mul", "nc_pow", "nc_scale", "variable",
    "FiltrationWindow", "SemigradedReport", "WindowSubspace", "filtration_window",
    "homogeneous_components", "is_semigraded_window", "left_ideal_window", "window_dims",
    "Frame", "GkEstimate", "HilbertData", "format_polynomial", "ggk_estimate", "ggk_exact",
    "hilbert_function", "hilbert_polynomial", "hilbert_series",
    "CatalogEntry", "CatalogError", "catalog_entry", "catalog_list", "catalog_verify",
    "export_presentations",
    "__version__",
]

# one public name of each layer, and the layers that using it first loads
FIRST_USE = {
    "scalars": ("ScalarField", {"scalars"}),
    "presentation": ("parse_presentation", {"scalars", "presentation"}),
    "rewrite": ("nc_mul", {"scalars", "presentation", "rewrite"}),
    "grading": ("window_dims", {"scalars", "presentation", "rewrite", "grading"}),
    "invariants": ("hilbert_series",
                   {"scalars", "presentation", "rewrite", "grading", "invariants"}),
    "catalog": ("catalog_list",
                {"scalars", "presentation", "rewrite", "grading", "invariants", "catalog"}),
}


def _child(script, env):
    proc = subprocess.run([sys.executable, "-B", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_are_listed_once_in_order():
    assert semigraded.__all__ == PUBLIC
    assert semigraded.__version__ == "1.0.0"


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC[:-1]:
        value = getattr(semigraded, name)
        module = getattr(value, "__module__", "")
        if module.startswith("semigraded."):
            assert getattr(importlib.import_module(module), name) is value, name
    assert semigraded.Fraction is importlib.import_module("semigraded.scalars").Fraction


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from semigraded import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert set(PUBLIC) <= set(dir(semigraded))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'semigraded' has no attribute 'nope'$"):
        semigraded.nope
    assert not hasattr(semigraded, "nope")


def test_import_loads_no_layer(package_env):
    out = _child(
        "import sys, semigraded\n"
        "print(sorted(m for m in sys.modules if m.startswith('semigraded.')))\n"
        "print(type(semigraded.rewrite).__name__, semigraded.rewrite.__name__)\n",
        package_env,
    )
    assert out.splitlines() == ["[]", "module semigraded.rewrite"]


@pytest.mark.parametrize("layer", list(FIRST_USE))
def test_a_name_loads_its_layer_on_first_use(package_env, layer):
    name, loaded = FIRST_USE[layer]
    out = _child(
        "import sys, semigraded\n"
        f"value = semigraded.{name}\n"
        f"assert value is sys.modules['semigraded.{layer}'].{name}\n"
        "print(' '.join(sorted(m[11:] for m in sys.modules if m.startswith('semigraded.'))))\n",
        package_env,
    )
    assert set(out.split()) == loaded


def test_bench_tracer_wraps_names_resolved_after_it(package_env):
    # the tracer rebinds functions in the loaded layers; a name the package
    # resolves afterwards is the wrapper, as lib_mix's ops see it.  -B keeps
    # bench/ free of bytecode
    _child(
        f"import sys\nsys.path.insert(0, {str(BENCH)!r})\n"
        "import semigraded, tracing\n"
        "from semigraded import rewrite\n"
        "parse, mul = semigraded.parse_presentation, rewrite.nc_mul\n"
        "tracing.install()\n"
        "assert semigraded.parse_presentation is not parse\n"
        "assert semigraded.nc_mul is rewrite.nc_mul is not mul\n",
        package_env,
    )

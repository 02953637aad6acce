"""Semi-graded rings presented as PBW extensions over a parameter field.

The package models algebras generated by x1..xn over Q(p1,...,pm) subject
to relations x_j x_i = c_ij x_i x_j + (linear part) + constant, computes
PBW normal forms by terminating rewriting, and derives growth invariants:
series truncations and closed forms, growth polynomials, exact and
estimated growth dimensions, associated graded rings, and windowed
semi-gradedness checks.  A catalog of known algebras with recorded
invariant strings is verified against the derived values.

Each public name is imported from its module on first use (PEP 562), so
``import semigraded`` loads no layer.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# the public names by the module that defines them, in __all__'s order
_EXPORTS = {
    "scalars": ("Fraction", "ParamDecl", "ScalarField", "SpecializationError", "scalar_arith",
                "scalar_normalize", "scalar_specialize"),
    "presentation": ("AlgebraPresentation", "Diagnostics", "Finding", "PresentationError",
                     "Relation", "associated_graded", "format_element", "make_presentation",
                     "parse_element", "parse_presentation", "parse_scalar", "print_presentation",
                     "q_matrix", "specialize_presentation", "validate"),
    "rewrite": ("NCPoly", "PbwReport", "check_pbw", "constant", "free_to_normal_form", "monomial",
                "nc_add", "nc_mul", "nc_pow", "nc_scale", "variable"),
    "grading": ("FiltrationWindow", "SemigradedReport", "WindowSubspace", "filtration_window",
                "homogeneous_components", "is_semigraded_window", "left_ideal_window",
                "window_dims"),
    "invariants": ("Frame", "GkEstimate", "HilbertData", "format_polynomial", "ggk_estimate",
                   "ggk_exact", "hilbert_function", "hilbert_polynomial", "hilbert_series"),
    "catalog": ("CatalogEntry", "CatalogError", "catalog_entry", "catalog_list", "catalog_verify",
                "export_presentations"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer: importing it binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so the next lookup is an ordinary attribute read
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

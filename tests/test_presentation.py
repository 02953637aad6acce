"""Presentation DSL: parsing, canonicalization, diagnostics, transforms."""

from fractions import Fraction

import pytest

from semigraded.catalog import CatalogEntry, catalog_entry
from semigraded.grading import (
    Echelon,
    FiltrationWindow,
    SemigradedReport,
    WindowSubspace,
    is_semigraded_window,
    left_ideal_window,
)
from semigraded.invariants import Frame, GkEstimate, HilbertData, ggk_estimate, hilbert_series
from semigraded.presentation import (
    AlgebraPresentation,
    Diagnostics,
    Finding,
    PresentationError,
    Relation,
    associated_graded,
    make_presentation,
    parse_element,
    parse_presentation,
    parse_scalar,
    print_presentation,
    q_matrix,
    specialize_presentation,
    validate,
)
from semigraded.rewrite import NCPoly, PbwReport, check_pbw, nc_mul, variable
from semigraded.scalars import (
    ParamDecl,
    ScalarField,
    SpecializationError,
    _FrozenRecord,
    _Record,
)

USO3 = """
algebra uso3 {
  params: q inv root 2;
  vars: x1, x2, x3;
  rel: x2*x1 = q*x1*x2 - q^(1/2)*x3;
  rel: x3*x1 = q^-1*x1*x3 + q^(1/2)/q*x2;
  rel: x3*x2 = q*x2*x3 - q^(1/2)*x1;
}
"""

DISPIN = """
algebra dispin {
  vars: x1, x2, x3;
  rel: x2*x1 = x1*x2 - x1;
  rel: x3*x1 = -x1*x3 + x2;
  rel: x3*x2 = x2*x3 - x3;
}
"""


def test_parse_smoke():
    p = parse_presentation(USO3)
    assert p.name == "uso3"
    assert p.gens == ("x1", "x2", "x3")
    assert p.field.m == 1
    rel = p.relation(0, 1)
    assert rel.c == p.field.parameter("q")
    assert rel.linear[2] == -p.field.root_power("q", 1, 2)


def test_print_parse_round_trip():
    for text in (USO3, DISPIN):
        p = parse_presentation(text)
        printed = print_presentation(p)
        again = parse_presentation(printed)
        assert again == p
        assert print_presentation(again) == printed


def test_comments_and_whitespace_ignored():
    text = """
# leading comment
algebra   spaced {  # trailing comment
  vars: x1 ,x2;# tight comment
  rel: x2*x1=2*x1*x2;
}
"""
    p = parse_presentation(text)
    assert p.name == "spaced"
    assert p.relation(0, 1).c == Fraction(2)


def test_missing_pairs_default_to_commuting():
    text = """
algebra partial {
  vars: x1, x2, x3;
  rel: x3*x1 = 5*x1*x3;
}
"""
    p = parse_presentation(text)
    rel = p.relation(0, 1)
    assert rel.c == Fraction(1)
    assert rel.is_default(p.field)
    assert not p.relation(0, 2).is_default(p.field)


def test_printer_omits_default_relations():
    text = """
algebra partial {
  vars: x1, x2, x3;
  rel: x3*x1 = 5*x1*x3;
}
"""
    printed = print_presentation(parse_presentation(text))
    assert "x2*x1" not in printed
    assert "x3*x2" not in printed
    assert "rel: x3*x1 = 5*x1*x3;" in printed


def test_relation_given_in_unsolved_form():
    # a relation may arrive as any linear identity in the free algebra;
    # canonicalization solves for the descending word
    text = """
algebra solved {
  vars: x1, x2;
  rel: x1*x2 - x2*x1 = x1;
}
"""
    p = parse_presentation(text)
    rel = p.relation(0, 1)
    assert rel.c == Fraction(1)
    assert rel.linear[0] == Fraction(-1)
    assert rel.constant == Fraction(0)


def test_square_words_rejected():
    # and every other relation that has no canonical form xj*xi = c*xi*xj + lower
    for relation, expected in (
        ("y*x = x*y + z^2", "square word z*z"),
        ("x = y + 1", "no degree-2 part"),
        ("w*x = x*w + y*z", "different generator pairs"),  # Manin's relation
        ("y*x = x*y*z", "word of length >= 3"),
        ("x*y = z", "no y*x term"),
        ("y*x = z", "coefficient of x*y must be nonzero"),
    ):
        text = f"""
algebra sklyanin {{
  vars: x, y, z, w;
  rel: {relation};
}}
"""
        with pytest.raises(PresentationError) as excinfo:
            parse_presentation(text)
        message = str(excinfo.value)
        assert expected in message
        assert "line 4" in message


def test_zero_main_coefficient_rejected_by_validate():
    field = ScalarField(())
    relations = {
        (0, 1): Relation(0, 1, field.zero, (field.zero, field.zero), field.zero)
    }
    p = make_presentation("broken", field, ("x1", "x2"), relations)
    diag = validate(p)
    assert not diag.valid
    assert any(f.code == "zero-coefficient" for f in diag.findings)

    # and every other malformation that the parser cannot produce
    one, zero = field.one, field.zero
    for gens, relations, code, message in (
        (("x1", "2y"), {}, "bad-generator", "'2y' is not an identifier"),
        (("x1", "x1"), {}, "bad-generator", "duplicate generator names"),
        (("x1", "x2"), {(0, 2): Relation(0, 2, one, (zero,) * 2, zero)},
         "bad-indices", "do not cover exactly the pairs"),
        (("x1", "x2"), {(0, 1): Relation(1, 0, one, (zero,) * 2, zero)},
         "bad-indices", "stored at (0, 1) labeled (1, 0)"),
        (("x1", "x2"), {(0, 1): Relation(0, 1, one, (zero,), zero)},
         "malformed-linear", "has 1 linear coefficients, expected 2"),
    ):
        diag = validate(make_presentation("broken", field, gens, relations))
        assert not diag.valid
        assert [f.code for f in diag.findings] == [code]
        assert message in diag.findings[0].message
        assert diag.to_dict()["findings"] == [
            {"severity": "error", "code": code, "message": diag.findings[0].message,
             "location": None}
        ]
    located = Finding("warning", "c", "m", line=3, col=7).to_dict()
    assert located["location"] == {"line": 3, "column": 7}


def test_diagnostics_flags():
    dispin = parse_presentation(DISPIN)
    diag = validate(dispin)
    assert diag.valid
    assert not diag.quasi_commutative
    assert diag.bijective
    assert diag.findings == []
    assert diag.to_dict()["valid"] is True

    qplane = parse_presentation(
        "algebra qplane { params: q inv; vars: x1, x2; rel: x2*x1 = q*x1*x2; }"
    )
    diag = validate(qplane)
    assert diag.valid and diag.quasi_commutative and diag.bijective


def test_caret_rendering_points_at_the_error():
    text = "algebra bad {\n  vars: x1, x2;\n  rel: x2*x1 = q*x1*x2;\n}"
    with pytest.raises(PresentationError) as excinfo:
        parse_presentation(text)
    rendered = str(excinfo.value)
    assert "-->" in rendered and "^" in rendered


def test_associated_graded_drops_lower_terms():
    dispin = parse_presentation(DISPIN)
    graded = associated_graded(dispin)
    assert validate(graded).quasi_commutative
    for (i, j), rel in graded.relations.items():
        assert rel.c == dispin.relation(i, j).c
        assert all(v == graded.field.zero for v in rel.linear)
        assert rel.constant == graded.field.zero


def test_q_matrix_structure():
    dispin = parse_presentation(DISPIN)
    matrix = q_matrix(dispin)
    one = dispin.field.one
    assert [[str(e) for e in row] for row in matrix] == [
        ["1", "1", "-1"],
        ["1", "1", "1"],
        ["-1", "1", "1"],
    ]
    for i in range(3):
        assert matrix[i][i] == one
        for j in range(3):
            assert matrix[i][j] * matrix[j][i] == one


def test_specialize_presentation_to_rationals():
    uso3 = parse_presentation(USO3)
    spec, assignment = specialize_presentation(uso3, {"q": 3})
    assert spec.field.m == 0
    assert assignment == {"q": Fraction(3)}
    # q has root_order 2: the root is 3, so c_12 = q = 9
    assert spec.relation(0, 1).c == Fraction(9)
    assert spec.relation(0, 1).linear[2] == Fraction(-3)

    with pytest.raises(SpecializationError, match="leading coefficient q vanishes"):
        specialize_presentation(parse_presentation(
            "algebra a { params: q; vars: x1, x2; rel: x2*x1 = q*x1*x2 + x1; }"
        ), {"q": 0})
    # a presentation without parameters refuses every name too
    with pytest.raises(SpecializationError, match="unknown parameter 'q'"):
        specialize_presentation(parse_presentation(DISPIN), {"q": 3})
    assert specialize_presentation(parse_presentation(DISPIN), {}) == (
        parse_presentation(DISPIN), {}
    )


def test_specialize_presentation_resolves_the_assignment_once(monkeypatch):
    from semigraded.catalog import build_quantum_space
    from semigraded.grading import left_ideal_window
    from semigraded.rewrite import variable

    calls = []
    resolve = ScalarField.resolve_assignment

    def counting(self, assignment=None):
        calls.append(assignment)
        return resolve(self, assignment)

    monkeypatch.setattr(ScalarField, "resolve_assignment", counting)
    p = build_quantum_space(8)
    spec, full = specialize_presentation(p)
    assert len(calls) == 1
    assert spec.field.m == 0 and len(full) == p.field.m
    calls.clear()
    left_ideal_window(p, [variable(p, 0)], 2)
    assert len(calls) == 1


def test_parse_element_normal_form():
    uso3 = parse_presentation(USO3)
    element = parse_element(uso3, "x2*x1")
    from semigraded.presentation import format_element

    assert format_element(element.terms, uso3.gens, uso3.field) == (
        "q*x1*x2 - q^(1/2)*x3"
    )


def test_parse_scalar_accepts_fractions_and_powers():
    field = ScalarField((ParamDecl("q", invertible=True, root_order=2),))
    q = field.parameter("q")
    assert parse_scalar(field, "q^-1") == field.one / q
    assert parse_scalar(field, "1/q") == field.one / q
    assert parse_scalar(field, "q^(3/2)") == field.root_power("q", 3, 2)
    assert parse_scalar(field, "-2/3") == field.coerce(Fraction(-2, 3))
    with pytest.raises(PresentationError):
        parse_scalar(field, "x1 + q")


EXPRESSION_ERRORS = [
    # (text, message, caret column within the text)
    ("x1/x2", "division by a non-scalar element", 3),
    ("x1^-1", "negative exponent on a non-scalar element", 3),
    ("0^-1", "negative power of zero", 2),
    ("x1/0", "division by zero", 3),
    ("x1^(1/2)", "fractional exponent on a non-parameter", 3),
    ("x1^10001", "exponent 10001 exceeds _EXPONENT_CAP = 10000", 3),
    ("x1^x2", "malformed exponent", 4),
    ("x1^(1/0)", "zero exponent denominator", 5),
    ("(" * 101 + "x1" + ")" * 101, "parentheses nested deeper than _NESTING_CAP = 100", 101),
    # numbers are ASCII digits: a superscript two is no exponent, and an
    # Arabic-Indic three is no 3
    ("x1^\u00b2", "unexpected character '\u00b2'", 4),
    ("\u0663*x1", "unexpected character '\u0663'", 1),
]


def test_expression_errors_point_at_the_operator():
    p = parse_presentation(DISPIN)
    head = "algebra a {\n  vars: x1, x2;\n  rel: x2*x1 = "
    offset = len(head.rsplit("\n", 1)[1])
    for text, message, col in EXPRESSION_ERRORS + [
        ("x1 x2", "unexpected 'x2' after expression", 4),
    ]:
        with pytest.raises(PresentationError) as excinfo:
            parse_element(p, text)
        err = excinfo.value
        assert (err.message, err.line, err.col) == (message, 1, col), text
        assert str(err).endswith("\n  " + text + "\n  " + " " * (col - 1) + "^")
    for text, message, col in EXPRESSION_ERRORS + [
        ("x1*x2 x1", "expected ';', found 'x1'", 7),
    ]:
        with pytest.raises(PresentationError) as excinfo:
            parse_presentation(head + text + ";\n}")
        err = excinfo.value
        assert (err.message, err.line, err.col) == (message, 3, offset + col), text


def test_duplicate_and_bad_generators_rejected():
    for text, message, col in [
        ("algebra a { vars: x1, x1; }", "duplicate generator 'x1'", 23),
        ("algebra a { vars: x1; rel: x1*x1 = x1; }",
         "square word x1*x1 not allowed in a relation", 23),
        # the caret is at the second declaration, not at the algebra name
        ("algebra a { params: q, q; vars: x1; }", "duplicate parameter 'q'", 24),
        ("algebra a { params: q; vars: q; }",
         "generator 'q' clashes with a parameter", 30),
        ("algebra a { params: q root 0; vars: x1; }", "root order must be >= 1", 23),
        ("algebra a { params: q root 2; vars: x1, x2; rel: x2*x1 = q^(1/3)*x1*x2; }",
         "power 1/3 of q needs a declared root of order divisible by 3 (have 2)", 59),
        ("algebra a { vars: x1, x2; rel: x2*x1 = x1*x2; rel: x2*x1 = x1*x2 + x1; }",
         "pair (x1, x2) already constrained", 47),
        ("algebra a { vars: x1; } x1", "unexpected 'x1' after closing brace", 25),
    ]:
        with pytest.raises(PresentationError) as excinfo:
            parse_presentation(text)
        err = excinfo.value
        assert (err.message, err.line, err.col) == (message, 1, col), text


def test_unknown_name_in_relation_rejected():
    with pytest.raises(PresentationError):
        parse_presentation("algebra a { vars: x1, x2; rel: x2*x1 = x1*x9; }")


def test_records_compare_hash_and_print_by_their_fields():
    decl = ParamDecl("q", invertible=True, root_order=2)
    assert repr(decl) == "ParamDecl(name='q', invertible=True, root_order=2)"
    assert decl == ParamDecl("q", True, 2) and decl != ParamDecl("q")
    assert hash(decl) == hash(ParamDecl("q", True, 2))
    with pytest.raises(ValueError, match="not an identifier"):
        ParamDecl("2q")
    with pytest.raises(ValueError, match="root_order"):
        ParamDecl("q", root_order=0)
    with pytest.raises(ValueError, match="at least one basis element"):
        Frame(())
    finding = Finding("error", "c", "m")
    assert repr(finding) == "Finding(severity='error', code='c', message='m', line=0, col=0)"
    assert finding == Finding("error", "c", "m", 0, 0) and finding != ("error", "c", "m", 0, 0)

    # scratch state takes no part in equality or repr
    p, q = parse_presentation(DISPIN), parse_presentation(DISPIN)
    nc_mul(p, variable(p, 2), variable(p, 0))
    assert p.runtime_caches() and not q.runtime_caches()
    assert p == q and repr(p) == repr(q)
    assert repr(p).startswith("AlgebraPresentation(name='dispin', field=ScalarField(), gens=")
    assert "_caches" not in repr(p)
    window = left_ideal_window(p, [parse_element(p, "x1")], 2)
    other = left_ideal_window(q, [parse_element(q, "x1")], 2)
    other.echelon = None
    assert window == other and "echelon" not in repr(window)

    frame = Frame((parse_element(p, "1"),))
    for record, field in (
        (decl, "name"), (window.window, "d"), (frame, "basis"),
        (catalog_entry("dispin"), "key"),
    ):
        assert hash(record) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record in (
        p, p.relation(0, 1), finding, validate(p), check_pbw(p, samples=0), window,
        is_semigraded_window(window), hilbert_series(p, 2), ggk_estimate(p, k_max=8),
    ):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    first, second = PbwReport(True, 1, 0, 3, 0), PbwReport(True, 1, 0, 3, 0)
    first.failures.append("x")
    assert second.failures == []


def _record_classes(cls=_Record):
    for sub in cls.__subclasses__():
        if sub is not _FrozenRecord:
            yield sub
        yield from _record_classes(sub)


_WINDOW = FiltrationWindow(("x1",), 1, ((1,), (0,)))

# each record class: its required constructor arguments in order, and the
# values of the fields it may omit
RECORD_ARGUMENTS = {
    ParamDecl: ({"name": "q"}, {"invertible": False, "root_order": 1}),
    Relation: ({"i": 0, "j": 1, "c": Fraction(2), "linear": (0, 0), "constant": 1}, {}),
    AlgebraPresentation: (
        {"name": "a", "field": ScalarField(()), "gens": ("x1",), "relations": {}}, {}
    ),
    Finding: ({"severity": "error", "code": "c", "message": "m"}, {"line": 0, "col": 0}),
    Diagnostics: ({"findings": [], "quasi_commutative": True, "bijective": False}, {}),
    FiltrationWindow: ({"gens": ("x1",), "d": 1, "basis": ((1,), (0,))}, {}),
    WindowSubspace: (
        {"window": _WINDOW, "specialization": {}, "pivots": [0], "echelon": Echelon()}, {}
    ),
    SemigradedReport: ({"ok": True, "window_degree": 2}, {"witness": None}),
    HilbertData: (
        {"n": 1, "series_denominator_exponent": 1, "truncated_coefficients": (1, 1),
         "polynomial_coefficients": (Fraction(1),)},
        {},
    ),
    Frame: ({"basis": (NCPoly({(0,): Fraction(1)}),)}, {}),
    GkEstimate: (
        {"estimate": 1.0, "method": "closed_form", "k_max": 8, "sample_points": (8,),
         "dims": (9,), "pointwise": (1.05,)},
        {"specialization": None},
    ),
    CatalogEntry: (
        {"key": "k", "name": "n", "table_id": 1, "table_n": "3",
         "gh_string": "1/(1-t)^3", "gp_string": "(k^2+3k+2)/2"},
        {"explicit_gp": None, "builders": (), "stated_q_matrix": None, "notes": ()},
    ),
    PbwReport: (
        {"ok": True, "triples_checked": 1, "sample_triples_checked": 0,
         "degree_bound": 3, "seed": 0},
        {"failures": []},
    ),
}


@pytest.mark.parametrize("cls", list(_record_classes()), ids=lambda cls: cls.__name__)
def test_every_record_binds_its_fields_positionally_and_by_keyword(cls):
    required, omitted = RECORD_ARGUMENTS[cls]
    names, values = list(required), list(required.values())
    for record in (cls(*values), cls(**required)):
        for name, value in {**required, **omitted}.items():
            assert getattr(record, name) == value, name
    assert cls(*values) == cls(**required)
    assert cls(*values, *omitted.values()) == cls(**required, **omitted)
    with pytest.raises(TypeError, match=names[-1]):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="nonsense"):
        cls(*values, nonsense=1)
    with pytest.raises(TypeError, match=names[0]):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, *omitted.values(), None)

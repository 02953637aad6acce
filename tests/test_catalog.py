"""Registry contents, builders, verification reports, and export."""

from fractions import Fraction
from pathlib import Path

import pytest

from semigraded.catalog import (
    CatalogEntry,
    CatalogError,
    build_dispin,
    build_enveloping,
    build_quantum_space,
    build_skew3d,
    build_uso3,
    build_weyl,
    build_woronowicz,
    catalog_entry,
    catalog_list,
    catalog_verify,
    export_presentations,
)
from semigraded.grading import left_ideal_window, is_semigraded_window, window_dims
from semigraded.invariants import hilbert_series
from semigraded.presentation import (
    parse_element,
    parse_presentation,
    parse_scalar,
    print_presentation,
    q_matrix,
    validate,
)
from semigraded.rewrite import check_pbw

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def test_registry_shape():
    entries = catalog_list()
    assert len(entries) == 50
    assert sum(1 for e in entries if e.table_id == 1) == 42
    assert sum(1 for e in entries if e.table_id == 2) == 8
    keys = [e.key for e in entries]
    assert len(set(keys)) == 50
    assert entries[0].key == "habitual_polynomial_ring"
    assert entries[-1].key == "quantum_polynomials_k"


def test_registry_is_stable():
    assert catalog_list() is catalog_list()


def test_named_rows_present():
    uso3 = catalog_entry("uso3")
    assert uso3.name == "Quantum algebra U'(so(3,K))"
    assert uso3.table_n == "3"
    assert uso3.gh_string == "1/(1-t)^3"
    heis = catalog_entry("q_heisenberg")
    assert heis.table_n == "2n"
    assert heis.gh_string == "1/(1-t)^(2n)"
    skewpoly = catalog_entry("skew_quantum_polynomials_r")
    assert skewpoly.table_n == "n-r"
    assert skewpoly.table_id == 2


def test_executable_set():
    executable = [e.key for e in catalog_list() if e.executable]
    assert executable == [
        "weyl",
        "enveloping",
        "uso3",
        "skew3d",
        "dispin",
        "woronowicz",
        "quantum_space_k",
    ]
    assert [name for name, _ in catalog_entry("skew3d").builders] == [
        f"skew3d_type{t}" for t in range(1, 9)
    ]


def test_unknown_entry():
    with pytest.raises(CatalogError):
        catalog_entry("nope")


def test_every_executable_variant_is_consistent():
    # every registered model must validate cleanly, pass the overlap check at
    # degree bound 4, and enumerate windows matching the series to degree 10
    for entry in catalog_list():
        for name, p in entry.presentations({"n": 3}):
            diag = validate(p)
            assert diag.valid, name
            assert check_pbw(p, degree_bound=4).ok, name
            dims = window_dims(p, 10)
            series = hilbert_series(p, 10)
            assert tuple(dims) == series.truncated_coefficients, name


def test_builders_shapes():
    assert build_enveloping(1).n == 1
    assert build_enveloping(4).n == 4
    assert build_weyl(2).n == 4
    assert build_weyl(2).gens == ("x1", "x2", "y1", "y2")
    assert build_quantum_space(3).field.m == 3
    assert build_uso3().field.params[0].root_order == 2
    assert build_dispin().field.m == 0
    assert build_woronowicz().field.params[0].name == "nu"
    for t in range(1, 5):
        assert build_skew3d(t).field.params[0].name == "beta"
    for t in range(5, 9):
        assert build_skew3d(t).field.m == 0


def test_enveloping_commutators():
    p = build_enveloping(3)
    # [x2, x1] = -x3, [x3, x1] = 2*x1, [x3, x2] = -2*x2
    assert p.relation(0, 1).linear[2] == p.field.coerce(-1)
    assert p.relation(0, 2).linear[0] == p.field.coerce(2)
    assert p.relation(1, 2).linear[1] == p.field.coerce(-2)
    p4 = build_enveloping(4)
    assert p4.relation(0, 3).is_default(p4.field)


def test_weyl_action_spot_check():
    from semigraded.rewrite import nc_mul, variable

    p = build_weyl(1)
    from semigraded.presentation import format_element

    y_times_x2 = nc_mul(p, variable(p, 1), nc_mul(p, variable(p, 0), variable(p, 0)))
    assert format_element(y_times_x2.terms, p.gens, p.field) == "x1^2*y1 + 2*x1"


def test_stated_q_matrices_match():
    for key in ("uso3", "dispin", "woronowicz"):
        entry = catalog_entry(key)
        (_, p), = entry.presentations()
        matrix = q_matrix(p)
        for i in range(3):
            for j in range(3):
                stated = parse_scalar(p.field, entry.stated_q_matrix[i][j])
                assert matrix[i][j] == stated, (key, i, j)


def test_enveloping_gr_is_commutative():
    entry = catalog_entry("enveloping")
    for n in (1, 2, 3, 4):
        (_, p), = entry.presentations({"n": n})
        matrix = q_matrix(p)
        assert all(
            matrix[i][j] == p.field.one for i in range(p.n) for j in range(p.n)
        )


def test_verify_dispin_report():
    report = catalog_verify(catalog_entry("dispin"))
    assert report["dimension"] == 3
    assert report["table_gh"] == "1/(1-t)^3"
    assert report["formula_gh"] == "1/(1-t)^3"
    assert report["matches_formula"] == {"gh": True, "gp": False}
    assert report["gp_comparison"] == "exact"
    assert report["table_gp"] == "1/2[t^2+3t+1]"
    assert report["formula_gp"] == "(t^2 + 3*t + 2)/2"
    assert report["flags"] == ["gp-table-mismatch"]
    (variant,) = report["variants"]
    assert variant["valid"] and variant["window_ok"] and variant["q_matrix_ok"]
    assert variant["window_dims"][:3] == [1, 3, 6]


def test_window_ok_is_the_overlap_certificate():
    # window_dims is the closed form either way; window_ok says whether the
    # ordered monomials form a basis, so that the dimensions are the algebra's
    dispin = catalog_entry("dispin")
    text = print_presentation(build_dispin()).replace(
        "rel: x3*x2 = x2*x3 - x3;", "rel: x3*x2 = x2*x3 + 1;"
    )
    perturbed = CatalogEntry(
        "perturbed_dispin", "Dispin with one relation perturbed", dispin.table_id,
        dispin.table_n, dispin.gh_string, dispin.gp_string,
        builders=(("perturbed_dispin", lambda b: parse_presentation(text)),),
    )
    (variant,) = catalog_verify(perturbed)["variants"]
    assert variant["valid"] is True
    assert variant["window_ok"] is False
    assert variant["window_dims"][:3] == [1, 3, 6]
    (variant,) = catalog_verify(dispin)["variants"]
    assert variant["window_ok"] is True


def test_verify_mixed_dh_all_match():
    report = catalog_verify(catalog_entry("mixed_dh"))
    assert report["dimension"] == 2
    assert report["formula_gh"] == "1/(1-t)^2"
    assert report["table_gp"] == "t+1"
    assert report["formula_gp"] == "t + 1"
    assert report["matches_formula"] == {"gh": True, "gp": True}
    assert report["flags"] == []


def test_verify_vq_sl3_flags_the_quadratic_coefficient():
    report = catalog_verify(catalog_entry("vq_sl3"))
    assert report["dimension"] == 6
    assert report["matches_formula"]["gp"] is False
    assert "217" in report["table_gp"]
    assert "225" in report["formula_gp"]
    assert report["table_gp_resolved"]["numerator_coefficients"] == [
        120, 274, 217, 85, 15, 1,
    ]


def test_verify_abbreviated_rows_use_formula_only():
    report = catalog_verify(catalog_entry("habitual_polynomial_ring"), {"n": 5})
    assert report["dimension"] == 5
    assert report["gp_comparison"] == "abbreviated"
    assert report["matches_formula"]["gp"] is True
    assert report["table_gp_resolved"]["compared"] == "formula-only"
    assert report["flags"] == []


def test_verify_the_seven_divergent_rows():
    divergent = [
        e.key
        for e in catalog_list()
        if not catalog_verify(e, {"n": 3, "r": 1, "m": 3})["matches_formula"]["gp"]
    ]
    assert divergent == [
        "uso3", "skew3d", "dispin", "woronowicz", "vq_sl3", "manin", "slq2",
    ]


def test_verify_gh_reproduced_for_all_rows_and_bindings():
    for n in (2, 3, 4):
        for r in (1, 2):
            if r >= n:
                continue
            bindings = {"n": n, "r": r, "m": n}
            for entry in catalog_list():
                report = catalog_verify(entry, bindings)
                assert report["matches_formula"]["gh"], (entry.key, bindings)
                assert report["formula_gh"] == f"1/(1-t)^{report['dimension']}"


def test_weyl_semi_graduation_flag():
    report = catalog_verify(catalog_entry("weyl"), {"n": 2})
    assert report["dimension"] == 2
    assert "semi-graduation-differs" in report["flags"]
    (variant,) = report["variants"]
    assert variant["n"] == 4  # executable model has 2n generators
    assert variant["window_ok"]


def test_bindings_validation():
    with pytest.raises(CatalogError):
        catalog_verify(catalog_entry("enveloping"), {"n": 0})
    with pytest.raises(CatalogError):
        catalog_verify(catalog_entry("enveloping"), {"n": 9})
    with pytest.raises(CatalogError):
        catalog_verify(catalog_entry("enveloping"), {"n": "three"})
    with pytest.raises(CatalogError):
        # n - r must stay >= 1
        catalog_verify(catalog_entry("quantum_polynomials_k"), {"n": 2, "r": 2})


def test_default_bindings_fill_missing_symbols():
    report = catalog_verify(catalog_entry("q_heisenberg"), {})
    assert report["dimension"] == 6  # 2n at the default n = 3
    assert report["bindings"] == {"n": 3}


def test_quantum_space_parameters():
    p = build_quantum_space(3)
    assert [d.name for d in p.field.params] == ["q12", "q13", "q23"]
    assert all(d.invertible for d in p.field.params)
    assert p.relation(0, 1).c == p.field.parameter("q12")
    # quasi-commutative: a homogeneous left ideal stays semigraded
    ws = left_ideal_window(p, [parse_element(p, "x1*x2 - x3^2")], 4)
    assert is_semigraded_window(ws).ok


def test_export_round_trip(tmp_path):
    paths = export_presentations(str(tmp_path), {"n": 2})
    assert len(paths) == 14
    for path in paths:
        text = Path(path).read_text()
        p = parse_presentation(text)
        assert print_presentation(p) == text


def test_export_reproduces_the_benchmark_inputs(tmp_path):
    # bench/inputs is read, never written: the 14 default variants, and
    # weyl2 from n=2, are the builders' printed presentations byte for byte
    paths = export_presentations(str(tmp_path / "default"), {})
    assert len(paths) == 14
    for path in map(Path, paths):
        assert path.read_bytes() == (INPUTS / path.name).read_bytes(), path.name
    export_presentations(str(tmp_path / "n2"), {"n": 2})
    weyl2 = (tmp_path / "n2" / "weyl2.sgr").read_bytes()
    assert weyl2 == (INPUTS / "weyl2.sgr").read_bytes()


def test_skew3d_relations_sample():
    p1 = build_skew3d(1)
    assert p1.relation(0, 2).c == p1.field.parameter("beta")
    assert p1.relation(0, 2).linear[1] == p1.field.one  # + x2
    assert p1.relation(1, 2).linear[2] == -p1.field.one  # - x3
    p5 = build_skew3d(5)
    assert p5.relation(0, 1).linear[2] == -p5.field.one  # x2x1 = x1x2 - x3
    p7 = build_skew3d(7)
    assert p7.relation(0, 2).linear[0] == p7.field.one
    assert p7.relation(0, 2).linear[1] == p7.field.one
    p8 = build_skew3d(8)
    assert p8.relation(0, 2).linear[2] == p8.field.one  # disambiguated to x3

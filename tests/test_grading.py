"""Windows, row reduction, ideal windows, and the semi-gradedness check."""

import random
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest

from semigraded.grading import (
    Echelon,
    degree_count,
    filtration_window,
    homogeneous_components,
    is_semigraded_window,
    left_ideal_window,
    rref,
    window_dims,
)
from semigraded import rewrite
from semigraded.presentation import (
    format_element,
    make_presentation,
    parse_element,
    parse_presentation,
    specialize_presentation,
)
from semigraded.scalars import ScalarField

from oracles import count_monomials, rref as rref_oracle

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"
KX = "algebra kx { vars: x1; }"
KXY = "algebra kxy { vars: x1, x2; }"
DISPIN = """
algebra dispin {
  vars: x1, x2, x3;
  rel: x2*x1 = x1*x2 - x1;
  rel: x3*x1 = -x1*x3 + x2;
  rel: x3*x2 = x2*x3 - x3;
}
"""
QPLANE = (
    "algebra qplane { params: q inv; vars: x1, x2; rel: x2*x1 = q*x1*x2; }"
)


def test_window_dims_match_binomials_and_enumeration():
    for n in range(1, 5):
        gens = tuple(f"x{i+1}" for i in range(n))
        p = make_presentation("free", ScalarField(()), gens, {})
        dims = window_dims(p, 8)
        assert dims == [comb(n + k - 1, k) for k in range(9)]
        assert dims == [count_monomials(n, k) for k in range(9)]


def test_window_dims_spec_examples():
    p3 = parse_presentation(DISPIN)
    assert window_dims(p3, 2) == [1, 3, 6]
    p2 = parse_presentation(KXY)
    assert window_dims(p2, 4) == [1, 2, 3, 4, 5]


def test_homogeneous_components():
    p = parse_presentation(DISPIN)
    poly = parse_element(p, "3 + x1 + x1*x2")
    components = homogeneous_components(poly)
    rendered = [
        (d, format_element(c.terms, p.gens, p.field)) for d, c in components
    ]
    assert rendered == [(0, "3"), (1, "x1"), (2, "x1*x2")]
    assert homogeneous_components(parse_element(p, "0")) == []


def test_filtration_window_basis_order():
    p = parse_presentation(KXY)
    w = filtration_window(p, 2)
    # descending deglex: degree 2 first, x1-heavy first, constant last
    assert w.basis == ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))
    assert w.dimension == 6
    assert w.index_of((1, 1)) == 1
    with pytest.raises(KeyError):
        w.index_of((3, 0))


def test_filtration_window_bases_against_brute_force_counts():
    for n in range(1, 5):
        gens = tuple(f"x{i+1}" for i in range(n))
        p = make_presentation("free", ScalarField(()), gens, {})
        for d in range(7):
            basis = filtration_window(p, d).basis
            assert len(set(basis)) == len(basis)
            assert all(len(e) == n and sum(e) <= d for e in basis)
            assert len(basis) == sum(count_monomials(n, k) for k in range(d + 1))
            descending = sorted(basis, key=lambda e: (sum(e), e), reverse=True)
            assert list(basis) == descending


def test_filtration_window_of_zero_variables_is_the_constant():
    p = make_presentation("e", ScalarField(()), (), {})
    for d in range(4):
        basis = filtration_window(p, d).basis
        assert basis == ((),)
        assert len(basis) == sum(degree_count(0, k) for k in range(d + 1))


def test_rref_matches_oracle_on_random_matrices():
    rng = random.Random(17)
    for _ in range(30):
        rows = [
            [Fraction(rng.randrange(-3, 4)) for _ in range(rng_cols)]
            for rng_cols in [rng.randrange(1, 6)]
            for _ in range(rng.randrange(1, 6))
        ]
        got_rows, got_pivots = rref([list(r) for r in rows])
        want_rows, want_pivots = rref_oracle(rows)
        assert got_pivots == want_pivots
        assert [list(r) for r in got_rows] == want_rows
    # rank-deficient 30x60 matrices with a few nonzeros per row, plus
    # duplicate and zero rows: back-substitution spans many pivots
    for _ in range(8):
        rows = []
        for _ in range(24):
            row = [Fraction(0)] * 60
            for col in rng.sample(range(60), rng.randrange(1, 5)):
                row[col] = Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 4))
            rows.append(row)
        for _ in range(3):
            a, b = rng.sample(rows[:24], 2)
            rows.append([x - 2 * y for x, y in zip(a, b)])
        rows.append(list(rng.choice(rows)))
        rows.append(list(rng.choice(rows)))
        rows.append([Fraction(0)] * 60)
        rng.shuffle(rows)
        got_rows, got_pivots = rref([list(r) for r in rows])
        want_rows, want_pivots = rref_oracle(rows)
        assert len(got_pivots) < 30
        assert got_pivots == want_pivots
        assert got_rows == want_rows
    # large rationals: numerators up to 10^12 over denominators up to 10^6,
    # so clearing denominators and fraction-free elimination see big ints
    for _ in range(10):
        width = rng.randrange(2, 9)
        rows = [
            [Fraction(rng.randrange(-10**12, 10**12 + 1), rng.randrange(1, 10**6 + 1))
             if rng.random() < 0.6 else Fraction(0) for _ in range(width)]
            for _ in range(rng.randrange(1, 8))
        ]
        rows.append([x / 7 - y * Fraction(3, 10**6) for x, y in zip(rows[0], rows[-1])])
        rng.shuffle(rows)
        got_rows, got_pivots = rref([list(r) for r in rows])
        want_rows, want_pivots = rref_oracle(rows)
        assert got_pivots == want_pivots
        assert got_rows == want_rows


def _assert_primitive(echelon):
    for lead, row in echelon.pivots.items():
        assert lead == min(row)
        assert all(type(x) is int for x in row.values()), row
        assert row[lead] > 0, row
        assert gcd(*row.values()) == 1, row


def test_echelon_stores_primitive_integer_rows():
    rng = random.Random(23)
    for _ in range(20):
        echelon = Echelon()
        for _ in range(12):
            echelon.insert({
                col: Fraction(rng.randrange(-60, 61) or 1, rng.randrange(1, 13))
                for col in rng.sample(range(15), rng.randrange(1, 6))
            })
            _assert_primitive(echelon)
        reduced = echelon.rref()
        _assert_primitive(echelon)
        assert all(row[min(row)] == 1 for row in reduced)
        assert all(type(x) is Fraction for row in reduced for x in row.values())


def test_echelon_with_one_term_rows_against_rref_oracle():
    # most rows are monomials {col: c}: a one-term pivot only deletes its
    # column.  Rows enter through insert (rational, copied) and adopt
    # (integral, kept), and an echelon with lead=max pivots on the highest
    # key, which is the oracle's leftmost column after reversing the columns
    rng = random.Random(29)
    width = 40
    for trial in range(30):
        rows = []
        for _ in range(rng.randrange(10, 50)):
            cols = rng.sample(range(width), 1 if rng.random() < 0.7 else rng.randrange(2, 6))
            rows.append({c: rng.randrange(-5, 6) or 1 for c in cols})
        dense = [[Fraction(row.get(c, 0)) for c in range(width)] for row in rows]
        for lead, reverse in ((min, False), (max, True)):
            echelon = Echelon((), lead)
            for i, row in enumerate(rows):
                if i % 2:
                    echelon.adopt(dict(row))
                else:
                    echelon.insert({c: Fraction(x) for c, x in row.items()})
            for pivot, row in echelon.pivots.items():
                assert pivot == lead(row) and row[pivot] > 0
                if len(row) == 1:
                    assert row == {pivot: 1}
            order = list(range(width))[::-1] if reverse else list(range(width))
            want_rows, want_pivots = rref_oracle([[r[c] for c in order] for r in dense])
            got = echelon.rref()
            assert [order[lead(row)] if reverse else lead(row) for row in got] == want_pivots
            assert [
                [row.get(c, 0) for c in order] for row in got
            ] == want_rows, (trial, lead)


def test_left_ideal_window_monomial_ideal():
    p = parse_presentation(KXY)
    ws = left_ideal_window(p, [parse_element(p, "x1")], 2)
    # multiples of x1 within degree 2: x1^2, x1*x2, x1
    assert ws.rank == 3
    assert ws.pivot_monomials() == ["x1^2", "x1*x2", "x1"]
    d = ws.to_dict()
    assert d["window_degree"] == 2
    assert d["rank"] == 3
    assert d["specialization"] == {}


def test_left_ideal_window_equals_the_span_of_direct_products():
    # each window row is one engine step from a row of one degree less;
    # the row space must be that of the products x^mu * g taken whole
    rng = random.Random(31)
    for name in ("uso3", "dispin", "weyl2"):
        p = parse_presentation((INPUTS / f"{name}.sgr").read_text())
        spec, full = specialize_presentation(p)
        eng = rewrite._engine(spec)
        for d in (4, 5, 6) if p.n == 3 else (4, 5):
            gens = []
            for _ in range(2):
                terms = [
                    f"{rng.choice([2, 1, 3])}*"
                    + "*".join(rng.choice(p.gens) for _ in range(rng.randrange(1, d - 1)))
                    for _ in range(rng.randrange(2, 4))
                ]
                gens.append(parse_element(p, " - ".join(terms)))
            ws = left_ideal_window(p, gens, d)
            window = ws.window
            rows = []
            for g in gens:
                g_terms = eng.pack({e: p.field.evaluate(c, full) for e, c in g.terms.items()})[0]
                for mu in window.basis:
                    if sum(mu) + g.degree() <= d:
                        row = [Fraction(0)] * window.dimension
                        for exp, c in eng.unpack(eng.product({eng.key(mu): 1}, g_terms)[0]).items():
                            row[window.index_of(exp)] = Fraction(c)
                        rows.append(row)
            want_rows, want_pivots = rref(rows)
            assert ws.pivots == want_pivots, (name, d)
            assert ws.rows == want_rows, (name, d)


def test_left_ideal_window_whole_ring():
    p = parse_presentation(KX)
    ws = left_ideal_window(p, [parse_element(p, "1 + x1")], 3)
    assert ws.rank == 3
    report = is_semigraded_window(ws)
    assert not report.ok
    assert report.witness == {
        "row": "x1^3 + 1",
        "degree": 0,
        "component": "1",
    }


def test_semigraded_homogeneous_ideal_passes():
    p = parse_presentation(KXY)
    ws = left_ideal_window(p, [parse_element(p, "x1")], 2)
    report = is_semigraded_window(ws)
    assert report.ok
    assert report.witness is None
    assert report.to_dict() == {"ok": True, "window_degree": 2, "witness": None}


def test_semigraded_in_graded_noncommutative_ring():
    graded = parse_presentation(QPLANE)
    gens = [parse_element(graded, "x1*x2 + x2^2")]
    ws = left_ideal_window(graded, gens, 4)
    assert is_semigraded_window(ws).ok


def test_inhomogeneous_ideal_in_dispin():
    p = parse_presentation(DISPIN)
    # x2*x1 rewrites to x1*x2 - x1: the ideal generated by an inhomogeneous
    # element whose components do not separate fails the window check
    ws = left_ideal_window(p, [parse_element(p, "x1 + 1")], 3)
    report = is_semigraded_window(ws)
    assert not report.ok
    assert report.witness is not None


def test_dispin_homogeneous_generator_not_semigraded():
    # dispin's rewriting produces lower-order terms, so even a homogeneous
    # generator may (or may not) stay graded; the check must at least agree
    # with itself on the reported witness: the witness row's component is
    # genuinely outside the row space
    p = parse_presentation(DISPIN)
    ws = left_ideal_window(p, [parse_element(p, "x2")], 3)
    report = is_semigraded_window(ws)
    if not report.ok:
        assert report.witness["degree"] < 3


def test_specialized_ideal_window_records_assignment():
    p = parse_presentation(QPLANE)
    ws = left_ideal_window(p, [parse_element(p, "x1")], 2, {"q": Fraction(5)})
    assert ws.to_dict()["specialization"] == {"q": "5"}
    assert ws.rank == 3


USO3 = """
algebra uso3 {
  params: q inv root 2;
  vars: x1, x2, x3;
  rel: x2*x1 = q*x1*x2 - q^(1/2)*x3;
  rel: x3*x1 = 1/q*x1*x3 + 1/q^(1/2)*x2;
  rel: x3*x2 = q*x2*x3 - q^(1/2)*x1;
}
"""


def test_parametric_window_pinned():
    p = parse_presentation(USO3)
    gens = [parse_element(p, g) for g in ("x1^2 + x2", "x3*x1 - 1")]
    ws = left_ideal_window(p, gens, 5, {"q": 3})
    assert ws.rank == 40
    report = is_semigraded_window(ws)
    assert not report.ok
    assert report.witness == {
        "row": "x1^5 + 4535/738*x2*x3 + 31063/29889*x1 - 4441/3321*x3",
        "degree": 1,
        "component": "31063/29889*x1 - 4441/3321*x3",
    }


def test_window_consistency_guard_not_triggered_for_small_cases():
    p = parse_presentation(DISPIN)
    assert window_dims(p, 10)[10] == comb(12, 10)


def test_contains_vector():
    p = parse_presentation(KXY)
    window = filtration_window(p, 2)
    ws = left_ideal_window(p, [parse_element(p, "x1")], 2)
    vec = [Fraction(0)] * window.dimension
    vec[window.index_of((1, 0))] = Fraction(7)  # 7*x1 is in the ideal
    assert ws.contains(vec)
    vec2 = [Fraction(0)] * window.dimension
    vec2[window.index_of((0, 1))] = Fraction(1)  # x2 is not
    assert not ws.contains(vec2)

"""Series, polynomials, exact and estimated growth dimensions."""

import math
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

from semigraded import invariants, rewrite
from semigraded.invariants import (
    Frame,
    format_polynomial,
    ggk_estimate,
    ggk_exact,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    sample_points,
)
from semigraded.grading import filtration_window
from semigraded.presentation import (
    make_presentation,
    parse_element,
    parse_presentation,
    specialize_presentation,
)
from semigraded.scalars import ScalarField, SpecializationError

from oracles import evaluate_poly, gp_coefficients, rewrite_word, rref, series_coefficients

DISPIN = """
algebra dispin {
  vars: x1, x2, x3;
  rel: x2*x1 = x1*x2 - x1;
  rel: x3*x1 = -x1*x3 + x2;
  rel: x3*x2 = x2*x3 - x3;
}
"""

WORONOWICZ = """
algebra woronowicz {
  params: nu inv;
  vars: x1, x2, x3;
  rel: x2*x1 = nu^-2*x1*x2 - nu^-1*x3;
  rel: x3*x1 = nu^-4*x1*x3 - (nu^-4 + nu^-2)*x1;
  rel: x3*x2 = nu^4*x2*x3 + (1 + nu^2)*x2;
}
"""

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"
USO3 = (INPUTS / "uso3.sgr").read_text()
WEYL2 = (INPUTS / "weyl2.sgr").read_text()


def free_algebra(n):
    gens = tuple(f"x{i+1}" for i in range(n))
    return make_presentation(f"free{n}", ScalarField(()), gens, {})


def test_series_truncation_against_convolution_oracle():
    for n in range(0, 7):
        p = free_algebra(n)
        data = hilbert_series(p, 12)
        assert list(data.truncated_coefficients) == series_coefficients(n, 12)


def test_hilbert_function_values():
    p = free_algebra(6)
    assert hilbert_function(p, 3) == 56
    for k in range(0, 20):
        assert hilbert_function(p, k) == comb(5 + k, k)
    assert hilbert_function(free_algebra(0), 0) == 1
    assert hilbert_function(free_algebra(0), 2) == 0


def test_polynomial_agrees_with_falling_product_oracle():
    for n in range(1, 9):
        p = free_algebra(n)
        data = hilbert_polynomial(p)
        assert data.polynomial_coefficients == tuple(gp_coefficients(n))
        # the polynomial degree is n-1 and all coefficients are positive
        assert len(data.polynomial_coefficients) == n
        assert all(c > 0 for c in data.polynomial_coefficients)


def test_polynomial_interpolates_the_function():
    for n in range(1, 9):
        coeffs = gp_coefficients(n)
        for k in range(0, 51):
            assert evaluate_poly(coeffs, k) == comb(n + k - 1, k)


def test_format_polynomial_examples():
    assert format_polynomial((Fraction(1),)) == "1"
    assert format_polynomial((Fraction(1), Fraction(1))) == "t + 1"
    assert (
        format_polynomial((Fraction(1), Fraction(3, 2), Fraction(1, 2)))
        == "(t^2 + 3*t + 2)/2"
    )
    sl3 = hilbert_polynomial(free_algebra(6)).polynomial_coefficients
    assert format_polynomial(sl3) == (
        "(t^5 + 15*t^4 + 85*t^3 + 225*t^2 + 274*t + 120)/120"
    )


def test_hilbert_data_to_dict():
    d3 = hilbert_series(parse_presentation(DISPIN), 5).to_dict()
    assert d3 == {
        "n": 3,
        "series": "1/(1-t)^3",
        "coefficients": [1, 3, 6, 10, 15, 21],
        "polynomial": {"denominator": 2, "numerator_coefficients": [2, 3, 1]},
        "ggk": 3,
    }
    d0 = hilbert_series(free_algebra(0), 3).to_dict()
    assert d0["series"] == "1"
    assert d0["coefficients"] == [1, 0, 0, 0]
    assert d0["polynomial"] is None


def test_ggk_exact():
    assert ggk_exact(free_algebra(0)) == 0
    for n in (1, 2, 3, 6):
        assert ggk_exact(free_algebra(n)) == n
    assert ggk_exact(parse_presentation(DISPIN)) == 3


def test_sample_points_shape():
    assert sample_points(200) == (50, 75, 100, 125, 150, 175, 200)
    points = sample_points(8)
    assert points[-1] == 8
    assert len(points) >= 3
    assert all(a < b for a, b in zip(points, points[1:]))


def test_estimator_rejects_bad_inputs():
    p = free_algebra(2)
    with pytest.raises(ValueError):
        ggk_estimate(p, k_max=7)
    with pytest.raises(ValueError):
        ggk_estimate(free_algebra(0))


def test_default_estimate_converges_from_below():
    # frozen defaults at k_max=200; the bound 0.15 is the acceptance tolerance
    expected_deficits = {1: 0.0104, 2: 0.0311, 3: 0.0617, 4: 0.1021}
    for n, deficit in expected_deficits.items():
        est = ggk_estimate(free_algebra(n))
        assert est.method == "closed_form"
        assert est.k_max == 200
        assert 0 < n - est.estimate < 0.15
        assert abs((n - est.estimate) - deficit) < 5e-4


def test_estimate_sharpens_with_k_max():
    p = free_algebra(2)
    est = ggk_estimate(p, k_max=1000)
    assert 1.85 <= est.estimate <= 2.0
    assert abs(est.estimate - 1.9937) < 5e-4
    # pointwise diagnostic at the largest sample
    assert abs(est.pointwise[-1] - 1.9001) < 5e-4


def test_full_window_frame_equals_default():
    p = parse_presentation(DISPIN)
    default = ggk_estimate(p)
    explicit = ggk_estimate(p, frame=Frame(tuple(
        parse_element(p, e) for e in ("1", "x1", "x2", "x3")
    )))
    assert explicit.method == "window_power"
    assert explicit.dims == default.dims
    assert explicit.estimate == default.estimate


def test_quadratic_frame_close_to_default():
    p = parse_presentation(DISPIN)
    default = ggk_estimate(p)
    frame = Frame(tuple(
        parse_element(p, e)
        for e in ("1", "x1", "x2", "x3", "x1^2", "x1*x2", "x1*x3",
                  "x2^2", "x2*x3", "x3^2")
    ))
    quadratic = ggk_estimate(p, frame=frame)
    assert quadratic.method == "window_power"
    assert abs(quadratic.estimate - default.estimate) < 0.05
    assert abs(quadratic.estimate - default.estimate - 0.0304) < 5e-3


def test_span_growth_frame_dims_frozen(monkeypatch):
    # only ranks are reported, so the frame checks and the growth share one
    # echelon and no window is enumerated
    def no_window(self, d):
        raise AssertionError("frame growth enumerated a window")

    built = []

    class CountedEchelon(invariants.Echelon):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(rewrite._Engine, "window", no_window)
    monkeypatch.setattr(invariants, "Echelon", CountedEchelon)
    p = parse_presentation(WORONOWICZ)
    frame = Frame(tuple(
        parse_element(p, e) for e in ("1", "x1", "x2", "x3", "x1*x2")
    ))
    est = ggk_estimate(p, frame=frame, k_max=8)
    assert est.method == "span_growth"
    assert est.dims == (14, 30, 55, 91, 140, 204, 285)
    assert len(built) == 1
    default = ggk_estimate(p, k_max=8)
    assert abs(est.estimate - default.estimate) < 0.16


def test_span_growth_over_fractional_rules_against_rref_oracle():
    # uso3 specializes to rules over 9 and 3, so the engine and the echelon
    # both carry denominators; dispin and weyl2 (four generators) are
    # integral, and woronowicz specializes to coefficients of several terms.
    # The frame is {1, a, b} for two generators; a word in it with a 1 is a
    # shorter word in a and b, so f(k) is the rank of the normal forms of
    # the words of length <= k in a and b.
    for text in (USO3, DISPIN, WEYL2, WORONOWICZ):
        p = parse_presentation(text)
        spec, _ = specialize_presentation(p)
        for letters in ((0, 1), (0, 2)):
            frame = Frame(tuple(
                parse_element(p, e) for e in ("1",) + tuple(p.gens[i] for i in letters)
            ))
            est = ggk_estimate(p, frame=frame, k_max=8)
            assert est.method == "span_growth"
            got = dict(zip(est.sample_points, est.dims))
            for k in range(2, 7):
                window = filtration_window(spec, k)
                rows = set()
                for length in range(k + 1):
                    for word in product(letters, repeat=length):
                        row = [Fraction(0)] * window.dimension
                        for exp, c in rewrite_word(spec, word).items():
                            row[window.index_of(exp)] = c
                        rows.add(tuple(row))
                _, pivots = rref(sorted(rows))
                assert got[k] == len(pivots), (p.name, letters, k)
            if text is USO3:
                est = ggk_estimate(p, frame=frame, k_max=12)
                assert est.dims == (13, 34, 50, 70, 125, 203, 252)


def test_span_growth_tracks_default_at_k12():
    p = parse_presentation(WORONOWICZ)
    frame = Frame(tuple(
        parse_element(p, e) for e in ("1", "x1", "x2", "x3", "x1*x2")
    ))
    est = ggk_estimate(p, frame=frame, k_max=12)
    default = ggk_estimate(p, k_max=12)
    assert abs(est.estimate - default.estimate) < 0.15


def test_span_growth_cap_names_the_limit():
    p = parse_presentation(WORONOWICZ)
    frame = Frame(tuple(
        parse_element(p, e) for e in ("1", "x1", "x2", "x3", "x1*x2")
    ))
    with pytest.raises(ValueError) as excinfo:
        ggk_estimate(p, frame=frame, k_max=200)
    assert "closed form" in str(excinfo.value)
    assert "_GROWTH_DIMENSION_CAP" in str(excinfo.value)


def test_span_growth_is_bounded_by_its_monomials_not_the_window_or_k_max():
    # weyl3's frame {1, x1} spans the polynomials in x1, k + 1 monomials at
    # k; the window F_k of six variables would pass the cap at k = 8
    p = parse_presentation((INPUTS / "weyl3.sgr").read_text())
    frame = Frame((parse_element(p, "1"), parse_element(p, "x1")))
    est = ggk_estimate(p, frame=frame, k_max=8)
    assert est.method == "span_growth"
    assert est.sample_points == (2, 3, 4, 5, 6, 7, 8)
    assert est.dims == (3, 4, 5, 6, 7, 8, 9)
    # {1} spans the same space at every power: one round adds nothing, and
    # k_max is never walked
    est = ggk_estimate(p, frame=Frame((parse_element(p, "1"),)), k_max=10**9)
    assert est.method == "span_growth"
    assert set(est.dims) == {1}
    assert est.estimate == 0


def test_frame_must_contain_unit():
    p = parse_presentation(DISPIN)
    frame = Frame(tuple(parse_element(p, e) for e in ("x1", "x2", "x3")))
    with pytest.raises(ValueError) as excinfo:
        ggk_estimate(p, frame=frame)
    assert "1" in str(excinfo.value)


def test_degenerate_frame_under_specialization():
    p = parse_presentation(WORONOWICZ)
    frame = Frame(tuple(parse_element(p, e) for e in ("1", "(nu - 2)*x1", "x2", "x3")))
    with pytest.raises(SpecializationError):
        # nu = 2 kills the second basis element
        ggk_estimate(p, frame=frame, k_max=8, specialization={"nu": 2})
    est = ggk_estimate(p, frame=frame, k_max=8, specialization={"nu": 5})
    assert est.method == "window_power"
    assert est.specialization == {"nu": Fraction(5)}


def test_dependent_frame_is_refused():
    p = parse_presentation(WORONOWICZ)
    frame = Frame(tuple(parse_element(p, e) for e in ("1", "x1", "nu*x1")))
    with pytest.raises(SpecializationError) as excinfo:
        ggk_estimate(p, frame=frame, k_max=8)
    assert "linearly dependent" in str(excinfo.value)


def test_plain_frame_errors_name_no_specialization():
    # dispin has no parameters, so there is no specialization to name or
    # to change
    p = parse_presentation(DISPIN)
    for basis, problem in ((("1", "1", "x1"), "is linearly dependent"),
                           (("0", "1", "x1"), "degenerates to zero")):
        frame = Frame(tuple(parse_element(p, e) for e in basis))
        with pytest.raises(ValueError) as excinfo:
            ggk_estimate(p, frame=frame, k_max=8)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == f"frame basis {problem}"


def test_estimate_to_dict_shape():
    est = ggk_estimate(free_algebra(2), k_max=16)
    d = est.to_dict()
    assert set(d) == {"estimate", "method", "k_max", "samples", "specialization"}
    assert d["specialization"] is None
    assert all(set(s) == {"k", "dim", "log_k_dim"} for s in d["samples"])
    assert [s["k"] for s in d["samples"]] == list(est.sample_points)

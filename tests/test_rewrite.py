"""Rewriting engine: normal forms, products, and the PBW overlap check."""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from semigraded.presentation import (
    format_element,
    make_presentation,
    parse_element,
    parse_presentation,
    Relation,
    specialize_presentation,
)
from semigraded import rewrite
from semigraded.rewrite import (
    NCPoly,
    _engine,
    check_pbw,
    constant,
    free_to_normal_form,
    monomial,
    nc_add,
    nc_mul,
    nc_pow,
    nc_scale,
    variable,
)
from semigraded.scalars import ScalarField

from oracles import free_product, rewrite_word, rewrite_product

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"

WEYL1 = """
algebra weyl1 {
  vars: x1, x2;
  rel: x2*x1 = x1*x2 + 1;
}
"""

USO3 = """
algebra uso3 {
  params: q inv root 2;
  vars: x1, x2, x3;
  rel: x2*x1 = q*x1*x2 - q^(1/2)*x3;
  rel: x3*x1 = q^-1*x1*x3 + q^(-1/2)*x2;
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


def fmt(p, poly):
    return format_element(poly.terms, p.gens, p.field)


def test_uso3_spot_check():
    p = parse_presentation(USO3)
    result = nc_mul(p, variable(p, 1), variable(p, 0))
    assert fmt(p, result) == "q*x1*x2 - q^(1/2)*x3"


def test_weyl_spot_check():
    p = parse_presentation(WEYL1)
    x1 = variable(p, 0)
    x2 = variable(p, 1)
    result = nc_mul(p, x2, nc_mul(p, x1, x1))
    assert fmt(p, result) == "x1^2*x2 + 2*x1"


def test_normal_form_against_word_oracle():
    rng = random.Random(11)
    for text in (DISPIN, USO3, WEYL1):
        p = parse_presentation(text)
        for _ in range(40):
            length = rng.randrange(1, 6)
            word = tuple(rng.randrange(p.n) for _ in range(length))
            expected = rewrite_word(p, word)
            free = {word: p.field.one}
            got = free_to_normal_form(p, free)
            assert got.terms == expected, (text.splitlines()[1], word)


def test_products_against_word_oracle():
    rng = random.Random(23)
    p = parse_presentation(DISPIN)
    for _ in range(15):
        a = _random_poly(p, rng)
        b = _random_poly(p, rng)
        got = nc_mul(p, a, b)
        expected = rewrite_product(p, a.terms, b.terms)
        assert got.terms == expected


def _random_poly(p, rng):
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        exp = tuple(rng.randrange(3) for _ in range(p.n))
        terms[exp] = p.field.coerce(rng.choice([-2, -1, 1, 2, 3]))
    return NCPoly(terms)


def test_multiplication_is_associative():
    rng = random.Random(5)
    for text in (DISPIN, USO3):
        p = parse_presentation(text)
        for _ in range(10):
            a, b, c = (_random_poly(p, rng) for _ in range(3))
            left = nc_mul(p, nc_mul(p, a, b), c)
            right = nc_mul(p, a, nc_mul(p, b, c))
            assert left.terms == right.terms


def test_one_is_neutral_and_zero_absorbs():
    p = parse_presentation(DISPIN)
    one = constant(p, p.field.one)
    zero = NCPoly({})
    a = parse_element(p, "x1*x3 + 2*x2 - 1")
    assert nc_mul(p, one, a).terms == a.terms
    assert nc_mul(p, a, one).terms == a.terms
    assert nc_mul(p, a, zero).terms == {}
    assert not zero
    assert zero.degree() == float("-inf")


def test_degree_is_filtered_and_leading_coeff_multiplies():
    # deg(a*b) <= deg a + deg b, with equality for monomials (c_ij invertible)
    rng = random.Random(3)
    p = parse_presentation(USO3)
    for _ in range(20):
        ea = tuple(rng.randrange(3) for _ in range(3))
        eb = tuple(rng.randrange(3) for _ in range(3))
        prod = nc_mul(p, monomial(p, ea, p.field.one), monomial(p, eb, p.field.one))
        assert prod.degree() == sum(ea) + sum(eb)
        merged = tuple(x + y for x, y in zip(ea, eb))
        assert merged in prod.terms


def test_nc_add_scale_pow():
    p = parse_presentation(WEYL1)
    x1 = variable(p, 0)
    x2 = variable(p, 1)
    s = nc_add(x1, nc_scale(x2, p.field.coerce(2)))
    assert fmt(p, s) == "x1 + 2*x2"
    cube = nc_pow(p, nc_add(x1, x2), 3)
    # (x1+x2)^3 expanded in normal form: check one rewriting-sensitive term
    oracle = rewrite_product(
        p, {(1, 0): Fraction(1), (0, 1): Fraction(1)},
        rewrite_product(
            p, {(1, 0): Fraction(1), (0, 1): Fraction(1)},
            {(1, 0): Fraction(1), (0, 1): Fraction(1)},
        ),
    )
    assert cube.terms == oracle


def test_normal_form_is_idempotent():
    rng = random.Random(9)
    p = parse_presentation(USO3)
    for _ in range(10):
        poly = _random_poly(p, rng)
        words = {
            tuple(i for i, e in enumerate(exp) for _ in range(e)): coeff
            for exp, coeff in poly.terms.items()
        }
        again = free_to_normal_form(p, words)
        assert again.terms == poly.terms


def test_check_pbw_passes_for_consistent_presentations():
    for text in (DISPIN, USO3, WEYL1):
        p = parse_presentation(text)
        report = check_pbw(p, degree_bound=4)
        assert report.ok
        assert report.failures == []
        assert report.triples_checked == (0 if p.n == 2 else 1)
        assert report.sample_triples_checked == 20


def test_check_pbw_fails_with_witness_for_perturbed_dispin():
    text = DISPIN.replace("x2*x3 - x3", "x2*x3 - x3 + 1")
    p = parse_presentation(text)
    report = check_pbw(p)
    assert not report.ok
    assert report.failures
    witness = report.failures[0]
    assert witness["kind"] == "overlap"
    assert witness["triple"] == "(x3, x2, x1)"
    assert witness["left"] != witness["right"]


def test_check_pbw_rejects_type8_misreading():
    # the three-variable type with [x2,x3]=x3 and [x1,x2]=0 only closes when
    # the second bracket is [x3,x1]=x3; reading it as x1 leaves a residue
    good = parse_presentation(
        "algebra t8 { vars: x1, x2, x3;"
        " rel: x3*x2 = x2*x3 - x3;"
        " rel: x3*x1 = x1*x3 + x3;"
        " rel: x2*x1 = x1*x2; }"
    )
    assert check_pbw(good, degree_bound=4).ok
    bad = parse_presentation(
        "algebra t8bad { vars: x1, x2, x3;"
        " rel: x3*x2 = x2*x3 - x3;"
        " rel: x3*x1 = x1*x3 + x1;"
        " rel: x2*x1 = x1*x2; }"
    )
    report = check_pbw(bad, degree_bound=4)
    assert not report.ok


def test_seeded_sampling_is_deterministic():
    p = parse_presentation(USO3)
    a = check_pbw(p, degree_bound=3, samples=10, seed=42)
    b = check_pbw(p, degree_bound=3, samples=10, seed=42)
    assert a.to_dict() == b.to_dict()


def _assert_fraction_coefficients(poly):
    # Fraction(2) == 2, so an equality check alone would miss a leaked int
    assert poly.terms
    assert all(type(c) is Fraction for c in poly.terms.values()), poly


def test_no_int_coefficient_leaves_the_engine():
    for text in (DISPIN, (INPUTS / "weyl2.sgr").read_text()):
        p = parse_presentation(text)
        a = parse_element(p, "2*x1*x2 - x2 + 3")
        b = parse_element(p, "x2^2 - 4*x1")
        _assert_fraction_coefficients(a)
        _assert_fraction_coefficients(nc_mul(p, a, b))
        _assert_fraction_coefficients(nc_mul(p, b, a))
        _assert_fraction_coefficients(nc_pow(p, a, 3))
        _assert_fraction_coefficients(
            free_to_normal_form(p, {(1, 0): Fraction(2), (1, 1, 0): Fraction(-1, 2)})
        )
    # elements that become scalars only after rewriting: y1*x1 - x1*y1 = 1
    p = parse_presentation((INPUTS / "weyl2.sgr").read_text())
    for text, expected in (("x1/(y1*x1 - x1*y1)", variable(p, 0)),
                           ("(y1*x1 - x1*y1)^-1", constant(p, 1))):
        got = parse_element(p, text)
        assert got == expected, text
        _assert_fraction_coefficients(got)


def test_products_against_word_oracle_over_mixed_rational_rules():
    # uso3 at its default point: rules with coefficients 9, 1/9, -3 and 1/3
    p, _ = specialize_presentation(parse_presentation(USO3))
    assert {p.relation(0, 2).c, p.relation(0, 2).linear[1]} == {
        Fraction(1, 9), Fraction(1, 3)
    }
    rng = random.Random(31)
    coeffs = [Fraction(1, 2), Fraction(-3, 7), Fraction(2), Fraction(-1)]
    for _ in range(12):
        a, b = (
            NCPoly({
                tuple(rng.randrange(3) for _ in range(p.n)): rng.choice(coeffs)
                for _ in range(rng.randrange(1, 4))
            })
            for _ in range(2)
        )
        got = nc_mul(p, a, b)
        assert got.terms == rewrite_product(p, a.terms, b.terms)
        _assert_fraction_coefficients(got)


COPRIME = """
algebra coprime {
  vars: x1, x2, x3;
  rel: x2*x1 = 1/2*x1*x2;
  rel: x3*x1 = 1/3*x1*x3;
  rel: x3*x2 = 5/7*x2*x3;
}
"""


def test_coprime_rule_denominators_rescale_against_word_oracle(monkeypatch):
    # a quasi-commutative space is always consistent; with rules over 2, 3
    # and 7 the memo entries met in one sum have coprime denominators, so
    # the sum is rescaled to their lcm as it goes
    calls = []
    rescale = rewrite._rescale

    def counted(out, den, d):
        calls.append((den, d))
        return rescale(out, den, d)

    monkeypatch.setattr(rewrite, "_rescale", counted)
    p = parse_presentation(COPRIME)
    assert check_pbw(p, samples=0).ok
    rng = random.Random(23)
    coeffs = [Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(-1, 4)]

    def element():
        # up to three monomials of degree <= 4 and a constant term
        terms = {
            tuple(rng.randrange(3) for _ in range(p.n)): rng.choice(coeffs)
            for _ in range(3)
        }
        terms[(0,) * p.n] = rng.choice(coeffs)
        return NCPoly(terms)

    for _ in range(15):
        a, b = element(), element()
        got = nc_mul(p, a, b)
        assert got.terms == rewrite_product(p, a.terms, b.terms), (a, b)
        _assert_fraction_coefficients(got)
    products = len(calls)
    assert products
    for _ in range(15):
        free = {
            tuple(rng.randrange(p.n) for _ in range(rng.randint(0, 6))): rng.choice(coeffs)
            for _ in range(3)
        }
        expected: dict = {}
        for word, c in free.items():
            for exp, v in rewrite_word(p, word).items():
                expected[exp] = expected.get(exp, 0) + c * v
        got = free_to_normal_form(p, free)
        assert got.terms == {exp: v for exp, v in expected.items() if v}, free
    assert len(calls) > products


def test_engine_memo_holds_reduced_integer_fractions():
    # uso3 at its default point has rules over 9 and 3; every memo value is
    # int numerators over one positive denominator coprime to them
    p, _ = specialize_presentation(parse_presentation(USO3))
    x = parse_element(p, "x1 + 1/2*x2 - x3 + 3")
    nc_pow(p, x, 5)
    nc_mul(p, parse_element(p, "x3^4*x2"), parse_element(p, "x2^3*x1^2"))
    eng = _engine(p)
    values = list(eng._var.values())
    assert any(type(v) is tuple for v in values)
    for value in values:
        terms, den = value if type(value) is tuple else (value, 1)
        assert type(den) is int and den >= 1
        assert den == 1 or type(value) is tuple and den > 1
        assert all(type(c) is int for c in terms.values()), value
        assert gcd(den, *terms.values()) == 1, value


def test_single_term_products_are_fresh_dicts():
    # a one-term left factor returns its letter-loop result without a copy;
    # the caller still owns it, and a constant factor still copies q
    specialized, _ = specialize_presentation(parse_presentation(USO3))
    for p in (parse_presentation(DISPIN), parse_presentation(USO3), specialized):
        eng = _engine(p)
        q_terms, _ = eng.pack(parse_element(p, "(x1 + x2 + x3)^3").terms)
        nc_pow(p, parse_element(p, "x1 + x2 + x3"), 4)
        for text in ("x3", "x3*x1", "x2^2*x3", "1"):
            p_terms, _ = eng.pack(parse_element(p, text).terms)
            terms, _ = eng.product(p_terms, q_terms)
            memo = [v[0] if type(v) is tuple else v for v in eng._var.values()]
            assert terms is not q_terms and all(terms is not v for v in memo), text
            before = [dict(v) for v in memo]
            terms.clear()
            assert [dict(v) for v in memo] == before, text
    assert any(type(v) is tuple for v in _engine(specialized)._var.values())


def test_scalar_factors_scale_without_rewriting():
    text = (INPUTS / "enveloping3.sgr").read_text()
    elements = {}
    for source in ("1/2*(x1+x2+x3)^8", "(x1+x2+x3)^8", "(x1+x2+x3)^8/2"):
        p = parse_presentation(text)
        elements[source] = parse_element(p, source)
        # a scalar factor on the left adds no memo entries
        eng = _engine(p)
        assert len(eng._var) == 63, source
    half = elements["1/2*(x1+x2+x3)^8"]
    assert half == elements["(x1+x2+x3)^8/2"]
    assert half == nc_scale(elements["(x1+x2+x3)^8"], Fraction(1, 2))


def test_multi_letter_left_factors_fill_only_the_letter_memo():
    # x3^40 multiplies x1^40 one letter at a time; _var is keyed by the
    # head of each monomial, the x3 tail only appended, so it then holds
    # x3 * x1^s for 1 <= s <= 40, and nothing else
    p = parse_presentation((INPUTS / "enveloping3.sgr").read_text())
    element = parse_element(p, "x3^40*x1^40")
    assert len(_engine(p)._var) == 40
    assert len(element.terms) == 41
    assert element == nc_mul(p, parse_element(p, "x3^40"), parse_element(p, "x1^40"))


def test_memo_tail_starts_after_the_linear_letters():
    # x3 appears in the linear part of x2*x1, so x2 * (x1*x2) must not
    # strip x2 as a tail: x2*x1 rewrites to x1*x2 + x3, and x3*x2 does not
    # commute; a mask from x_i on would give + x2*x3
    p = parse_presentation("""
    algebra tails {
      vars: x1, x2, x3;
      rel: x2*x1 = x1*x2 + x3;
      rel: x3*x1 = -x1*x3;
      rel: x3*x2 = -x2*x3;
    }
    """)
    got = nc_mul(p, variable(p, 1), parse_element(p, "x1*x2"))
    assert fmt(p, got) == "x1*x2^2 - x2*x3"
    # the overlap alone passes either way; the sampled products do not
    assert check_pbw(p).ok


def test_products_with_a_tail_agree_with_the_word_oracle():
    # each right factor ends in the last letter, which every tail mask
    # covers, so the first rewrite of each left letter carries a tail
    specialized, _ = specialize_presentation(parse_presentation(USO3))
    presentations = [
        parse_presentation((INPUTS / f"{name}.sgr").read_text())
        for name in ("dispin", "weyl2", "quantum_space3")
    ] + [specialized]
    rng = random.Random(19)
    for p in presentations:
        n = p.n
        for _ in range(25):
            left = [0] * n
            for _ in range(rng.randint(1, 3)):
                left[rng.randrange(1, n)] += 1
            right = [0] * n
            right[0] = rng.randint(1, 2)
            right[-1] = rng.randint(1, 2)
            if n > 2:
                right[rng.randrange(1, n - 1)] += 1
            a, b = monomial(p, left), monomial(p, right)
            assert nc_mul(p, a, b).terms == rewrite_product(p, a.terms, b.terms), (
                p.name, left, right,
            )


def _free(p, *terms):
    """Free-word combination of (coefficient, letter names) pairs."""
    return {
        tuple(p.gens.index(g) for g in letters): p.field.coerce(c)
        for c, letters in terms
    }


def _reference_inputs(p):
    """(text, free-word expansion) pairs; the letters a, b, c stand for the
    first three generators, as weyl2 has no x3."""
    a, b, c = p.gens[:3]
    total = _free(p, *((1, (g,)) for g in p.gens))
    power = _free(p, (1, ()))
    for k in range(1, 6):
        power = free_product(total, power)
        yield f"({' + '.join(p.gens)})^{k}", power
    yield f"{c}*{b}*{a}", _free(p, (1, (c, b, a)))
    linear = _free(p, (Fraction(1, 2), (a,)), (Fraction(-3, 7), (b,)), (1, (c,)))
    power = _free(p, (1, ()))
    for _ in range(4):
        power = free_product(linear, power)
    yield f"(1/2*{a} - 3/7*{b} + {c})^4", power
    yield (
        f"(2/3*{c}*{a} - 5)*({b}^2 + 1/4*{a})",
        free_product(
            _free(p, (Fraction(2, 3), (c, a)), (-5, ())),
            _free(p, (1, (b, b)), (Fraction(1, 4), (a,))),
        ),
    )


def test_nc_pow_is_the_right_associated_product():
    for path in sorted(INPUTS.glob("*.sgr")):
        p = parse_presentation(path.read_text())
        assert check_pbw(p, samples=0).ok, path.name
        x = parse_element(p, " + ".join(p.gens) + " - 2")
        expected = constant(p, 1)
        for k in range(1, 7):
            expected = nc_mul(p, x, expected)
            got = nc_pow(p, x, k)
            assert got == expected, (path.name, k)
            assert all(type(c) is type(p.field.one) for c in got.terms.values())
        # element text evaluates straight in normal form; the free-word
        # expansion rewritten word by word is the reference
        for text, free in _reference_inputs(p):
            got = parse_element(p, text)
            assert got == free_to_normal_form(p, free), (path.name, text)
            assert all(type(c) is type(p.field.one) for c in got.terms.values())
    # where overlaps fail, the two associations differ from k = 3 on and
    # neither is an answer; nc_pow multiplies on the left
    p = parse_presentation(DISPIN.replace("x2*x3 - x3", "x2*x3 - x3 + 1"))
    x = parse_element(p, "x1 + x2 + x3")
    assert nc_pow(p, x, 3) == nc_mul(p, x, nc_mul(p, x, x))
    assert nc_pow(p, x, 3) != nc_mul(p, nc_mul(p, x, x), x)
    # there, powers of letter sums and x3*x2*x1 still rewrite as their words
    # do; a product of parenthesized non-linear factors may not
    for text, free in list(_reference_inputs(p))[:6]:
        assert parse_element(p, text) == free_to_normal_form(p, free), text


def test_deep_weyl_product_peels_without_recursion():
    # x2*x1^d recursed once per degree and hit the recursion limit at d=1200
    p = parse_presentation("algebra w { vars: x1, x2; rel: x2*x1 = x1*x2 + 1; }")
    got = nc_mul(p, variable(p, 1), parse_element(p, "x1^5000"))
    assert fmt(p, got) == "x1^5000*x2 + 5000*x1^4999"


def test_degree_past_the_packed_field_is_a_named_error():
    p = parse_presentation(DISPIN)
    x1 = variable(p, 0)
    with pytest.raises(ValueError, match="_DEGREE_LIMIT"):
        nc_mul(p, monomial(p, (2**31, 0, 0)), x1)
    with pytest.raises(ValueError, match="_DEGREE_LIMIT"):
        nc_pow(p, nc_add(x1, variable(p, 2)), 2**31)
    # the largest packable degree still multiplies into its own field
    top = nc_mul(p, x1, monomial(p, (2**31 - 1, 0, 0)))
    assert top == monomial(p, (2**31, 0, 0))
    # a vector of the wrong length or with a negative entry would pack into
    # another monomial's fields
    for exponents in ((-1, 0, 0), (1,), (0, 0, 0, 1), (2, -1, 1)):
        with pytest.raises(ValueError, match="one nonnegative entry per generator, 3 in all"):
            nc_mul(p, x1, NCPoly({exponents: 1}))


def test_packing_agrees_with_the_word_oracle_at_zero_and_six_variables():
    empty = make_presentation("e", ScalarField(()), (), {})
    two = constant(empty, Fraction(2, 3))
    assert nc_mul(empty, two, constant(empty, 3)) == constant(empty, 2)
    assert nc_pow(empty, two, 3) == constant(empty, Fraction(8, 27))
    assert nc_pow(empty, two, 0) == constant(empty, 1)
    assert parse_element(empty, "(2/3)^3 - 1") == constant(empty, Fraction(-19, 27))
    _assert_fraction_coefficients(nc_pow(empty, two, 2))

    p = parse_presentation((INPUTS / "weyl3.sgr").read_text())
    assert p.n == 6
    rng = random.Random(41)
    for _ in range(8):
        a, b = _random_poly(p, rng), _random_poly(p, rng)
        assert nc_mul(p, a, b).terms == rewrite_product(p, a.terms, b.terms)
    x = parse_element(p, " + ".join(p.gens[::-1]) + " - 1")
    expected = constant(p, 1)
    for k in range(1, 4):
        expected = NCPoly(rewrite_product(p, x.terms, expected.terms))
        assert nc_pow(p, x, k) == expected
    descending = tuple(range(p.n - 1, -1, -1))
    assert parse_element(p, "*".join(p.gens[::-1])) == NCPoly(rewrite_word(p, descending))
    last, first = p.gens[-1], p.gens[0]
    got = parse_element(p, f"({last}^2 - 3*{first})*({first}^2 + {last})")
    assert got == nc_mul(
        p, parse_element(p, f"{last}^2 - 3*{first}"), parse_element(p, f"{first}^2 + {last}")
    )

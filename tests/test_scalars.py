"""Scalar field: canonical forms, arithmetic laws, specialization."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import semigraded
from semigraded.scalars import (
    ParamDecl,
    ScalarField,
    SpecializationError,
    scalar_arith,
    scalar_normalize,
    scalar_specialize,
)


def field_qnu():
    return ScalarField(
        (ParamDecl("q", invertible=True, root_order=2), ParamDecl("nu", invertible=True))
    )


def test_paramless_field_uses_fractions():
    field = ScalarField(())
    assert field.zero == Fraction(0)
    assert field.one == Fraction(1)
    assert isinstance(field.coerce(3), Fraction)
    assert field.coerce(Fraction(2, 4)) == Fraction(1, 2)


def test_parameter_and_root_access():
    field = field_qnu()
    q = field.parameter("q")
    assert field.format(q) == "q"
    half = field.root_power("q", 1, 2)
    assert half * half == q
    assert field.format(half) == "q^(1/2)"


def test_unknown_parameter_rejected():
    field = field_qnu()
    with pytest.raises(KeyError):
        field.parameter("zeta")


def test_arithmetic_field_laws():
    field = field_qnu()
    q = field.parameter("q")
    nu = field.parameter("nu")
    rng = random.Random(7)
    samples = [
        field.one,
        q,
        nu,
        q + nu,
        field.one / q,
        q * nu - field.coerce(2),
        field.root_power("q", 3, 2) + nu**2,
    ]
    for _ in range(25):
        a, b, c = (samples[rng.randrange(len(samples))] for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == field.zero
        if a != field.zero:
            assert a * (field.one / a) == field.one


def test_normalization_is_canonical():
    field = field_qnu()
    q = field.parameter("q")
    nu = field.parameter("nu")
    a = (q**2 - nu**2) / (q - nu)
    b = q + nu
    assert a == b
    assert field.format(a) == field.format(b)
    # the reduced fraction of (q^2 + q*nu) / q must drop the common factor
    c = (q**2 + q * nu) / q
    assert c == q + nu


def test_scalar_normalize_and_arith_dispatch():
    field = field_qnu()
    q = field.parameter("q")
    squared = q * q
    assert scalar_normalize(field, squared.num, q.num) == q
    assert scalar_arith("add", q, field.one) == q + field.one
    assert scalar_arith("mul", q, q) == q**2
    assert scalar_arith("neg", q) == -q
    assert scalar_arith("inv", q) == field.one / q
    assert scalar_arith("inv", Fraction(4)) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        scalar_arith("inv", field.zero)
    with pytest.raises(ValueError):
        scalar_arith("pow", q, q)


def test_specialize_is_a_homomorphism():
    field = field_qnu()
    q = field.parameter("q")
    nu = field.parameter("nu")
    assignment = {"q": Fraction(3), "nu": Fraction(1, 2)}
    samples = [q, nu, q + nu, q * nu - field.coerce(5), field.one / (q + nu)]
    for a in samples:
        for b in samples:
            left = field.specialize(a * b, assignment)
            right = field.specialize(a, assignment) * field.specialize(b, assignment)
            assert left == right
            assert field.specialize(a + b, assignment) == field.specialize(
                a, assignment
            ) + field.specialize(b, assignment)


def test_root_specialization_squares_the_value():
    field = field_qnu()
    q = field.parameter("q")
    half = field.root_power("q", 1, 2)
    # assigning v to a root-order-2 parameter means q^(1/2) = v, so q = v^2
    assignment = {"q": Fraction(3), "nu": Fraction(1)}
    assert field.specialize(half, assignment) == Fraction(3)
    assert field.specialize(q, assignment) == Fraction(9)


def test_default_specialization_primes_plus_one():
    field = field_qnu()
    defaults = field.default_specialization()
    assert defaults == {"q": Fraction(3), "nu": Fraction(4)}
    three = ScalarField(
        (ParamDecl("a"), ParamDecl("b"), ParamDecl("c"))
    ).default_specialization()
    assert list(three.values()) == [Fraction(3), Fraction(4), Fraction(6)]
    # 28 parameters: as many as quantum_space has at n=8
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107]
    many = ScalarField(
        tuple(ParamDecl(f"p{i}") for i in range(28))
    ).default_specialization()
    assert list(many.values()) == [Fraction(p + 1) for p in primes]


def test_invertible_parameter_rejects_zero():
    field = field_qnu()
    q = field.parameter("q")
    with pytest.raises(SpecializationError):
        field.specialize(q, {"q": Fraction(0), "nu": Fraction(1)})


def test_denominator_zero_under_specialization_raises():
    field = field_qnu()
    q = field.parameter("q")
    nu = field.parameter("nu")
    x = field.one / (q - nu)
    # q has root_order 2, so "q"=2 binds the root: q specializes to 4
    with pytest.raises(SpecializationError):
        field.specialize(x, {"q": Fraction(2), "nu": Fraction(4)})


def test_scalar_specialize_wrapper():
    field = field_qnu()
    q = field.parameter("q")
    value = scalar_specialize(field, q + field.one, {"q": 2, "nu": 1})
    assert value == Fraction(5)  # q = 2^2 under the root convention


def test_format_round_trip_through_parser():
    from semigraded.presentation import parse_scalar

    field = field_qnu()
    q = field.parameter("q")
    nu = field.parameter("nu")
    samples = [
        field.one,
        -field.one,
        Fractionish(field, 3, 2),
        q,
        field.one / q,
        field.root_power("q", 1, 2),
        -field.root_power("q", 3, 2) * nu,
        (q + nu) / (q - nu),
        q**2 + field.coerce(2) * q + field.one,
    ]
    for x in samples:
        assert parse_scalar(field, field.format(x)) == x


def Fractionish(field, a, b):
    return field.coerce(Fraction(a, b))


PLAIN_PATH = '''
import sys
from semigraded import (
    Frame, format_element, ggk_estimate, hilbert_series, left_ideal_window,
    parse_element, parse_presentation,
)
p = parse_presentation("""
algebra dispin {
  vars: x1, x2, x3;
  rel: x2*x1 = x1*x2 - x1;
  rel: x3*x1 = -x1*x3 + x2;
  rel: x3*x2 = x2*x3 - x3;
}
""")
nf = parse_element(p, "(x3 + x1)^3*x2")
assert format_element(nf.terms, p.gens, p.field)
assert hilbert_series(p, 10).truncated_coefficients[10] == 66
assert left_ideal_window(p, [parse_element(p, "x1*x2 - x3")], 4).rank > 0
frame = Frame((parse_element(p, "1"), parse_element(p, "x1 + x2")))
assert ggk_estimate(p, frame=frame, k_max=8).method == "span_growth"
assert p.field.resolve_assignment() == {}  # as sgr gkdim --specialize does
assert "sympy" not in sys.modules, "the plain path loaded sympy"
parse_presentation("""
algebra uso3 {
  params: q inv root 2;
  vars: x1, x2, x3;
  rel: x2*x1 = q*x1*x2 - q^(1/2)*x3;
  rel: x3*x1 = 1/q*x1*x3 + 1/q^(1/2)*x2;
  rel: x3*x2 = q*x2*x3 - q^(1/2)*x1;
}
""")
assert "sympy" in sys.modules, "a parametric field did not load sympy"
'''


def test_sympy_loads_only_for_parametric_fields():
    # a fresh interpreter: this one may have imported sympy already
    src = os.path.dirname(os.path.dirname(os.path.abspath(semigraded.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", PLAIN_PATH], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr

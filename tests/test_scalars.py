"""Scalar field: canonical forms, arithmetic laws, specialization."""

import random
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    TupleScalar,
    evaluate_tuple_fraction,
    format_tuple_coefficient,
    format_tuple_fraction,
)
from semigraded.presentation import parse_scalar
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
    plain = ScalarField(())
    assert scalar_normalize(plain, {(): 3}) == 3
    assert scalar_normalize(plain, {(): 3}, {(): -6}) == Fraction(-1, 2)
    assert scalar_normalize(plain, {}, 5) == 0
    for f in (plain, field):
        # refused, not truncated to an integer
        for num, den in ((Fraction(1, 2), None), (1, Fraction(1, 2)), (1.0, None)):
            with pytest.raises(TypeError):
                scalar_normalize(f, num, den)
            with pytest.raises(TypeError):
                f.normalize(num, den)
    with pytest.raises(TypeError):
        scalar_normalize(plain, {(): Fraction(1, 2)})
    with pytest.raises(TypeError):
        scalar_normalize(field, {(1, 0): Fraction(1, 2)})
    for f, exponents in ((plain, (1,)), (field, (1,)), (field, (1, 0, 0))):
        with pytest.raises(ValueError, match="one entry per parameter"):
            scalar_normalize(f, {exponents: 1})
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
    plain = ScalarField(())
    assert scalar_specialize(plain, Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(SpecializationError, match="unknown parameter 'q'"):
        scalar_specialize(plain, Fraction(1, 2), {"q": 2})


def test_format_round_trip_through_parser():
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


def _match_oracle(field, symbols, leaves, targeted, count, seed):
    """Random + - * / ** expressions over ``leaves`` (pairs of a scalar and
    the same value as a sympy expression in the root ``symbols``) give the
    oracle's canonical fraction, text and hash."""
    sympy = pytest.importorskip("sympy")
    from oracles import canonical_fraction

    rng = random.Random(seed)

    def build(depth):
        if depth == 0 or rng.random() < 0.25:
            return leaves[rng.randrange(len(leaves))]
        a, ea = build(depth - 1)
        op = rng.choice("+-*/^")
        if op == "^":
            k = rng.randint(-2, 3)
            if k < 0 and not a:
                return a, ea
            return a**k, ea**k
        b, eb = build(depth - 1)
        if op == "+":
            return a + b, ea + eb
        if op == "-":
            return a - b, ea - eb
        if op == "*":
            return a * b, ea * eb
        if not b:
            return a, ea
        return a / b, ea / eb

    def as_expr(poly):
        return sum(
            c * sympy.Mul(*(v**k for v, k in zip(symbols, e))) for e, c in poly.items()
        )

    previous_num = None
    for x, expr in targeted + [build(3) for _ in range(count)]:
        num, den = canonical_fraction(expr, symbols)
        assert (x.num, x.den) == (num, den), (field.format(x), expr)
        rebuilt = scalar_normalize(field, num, den)
        assert rebuilt == x
        assert hash(rebuilt) == hash(x)
        assert field.format(rebuilt) == field.format(x)
        assert parse_scalar(field, field.format(x)) == x
        if previous_num:
            # classical parts go back through normalize as a new fraction
            ratio = scalar_normalize(field, x.num, previous_num)
            assert (ratio.num, ratio.den) == canonical_fraction(
                as_expr(num) / as_expr(previous_num), symbols
            )
        previous_num = num


def test_random_expressions_match_canonical_fraction_oracle():
    sympy = pytest.importorskip("sympy")
    field = field_qnu()
    s, n = sympy.symbols("s nu")  # s is the root indeterminate q^(1/2)
    q, nu = field.parameter("q"), field.parameter("nu")
    leaves = [
        (field.coerce(2), sympy.Integer(2)),
        (field.coerce(-3), sympy.Integer(-3)),
        (field.coerce(Fraction(1, 2)), sympy.Rational(1, 2)),
        (q, s**2),
        (field.root_power("q", 1, 2), s),
        (field.root_power("q", -3, 2), s**-3),
        (nu, n),
        (q - nu, s**2 - n),
    ]
    targeted = [
        (q / 2, s**2 / 2),  # integer denominator
        (field.coerce(2) / (4 * q), 2 / (4 * s**2)),  # integer content
        (field.one / (nu - q), 1 / (n - s**2)),  # negative leading coefficient
        ((q**2 - nu**2) / (q - nu), (s**4 - n**2) / (s**2 - n)),
        ((q + nu) ** 2 / (q**2 - nu**2), (s**2 + n) ** 2 / (s**4 - n**2)),
        ((2 * q * nu + 4 * nu) / (6 * q**2 - 24), (2 * s**2 * n + 4 * n) / (6 * s**4 - 24)),
        (q - q, sympy.Integer(0)),
        (field.zero**0, sympy.Integer(1)),
        ((q - nu) ** -2, (s**2 - n) ** -2),
    ]
    _match_oracle(field, (s, n), leaves, targeted, 200, 20161)


def test_random_one_parameter_expressions_match_canonical_fraction_oracle():
    # the fields of uso3, woronowicz and skew3d have one parameter; q^20 + 2
    # puts far-apart exponents into the products
    sympy = pytest.importorskip("sympy")
    field = ScalarField((ParamDecl("q", invertible=True, root_order=2),))
    s = sympy.Symbol("s")
    q = field.parameter("q")
    leaves = [
        (field.coerce(3), sympy.Integer(3)),
        (field.coerce(Fraction(-2, 3)), sympy.Rational(-2, 3)),
        (q, s**2),
        (field.root_power("q", -1, 2), 1 / s),
        (q - 1, s**2 - 1),
        (q**20 + 2, s**40 + 2),
    ]
    targeted = [
        ((q**2 - 1) / (q - 1), (s**4 - 1) / (s**2 - 1)),
        ((q + 1) ** 3 * (q**20 - 1), (s**2 + 1) ** 3 * (s**40 - 1)),
    ]
    _match_oracle(field, (s,), leaves, targeted, 100, 5)


def test_scalar_normalize_copies_its_arguments():
    field = field_qnu()
    num = {(2, 0): 3, (0, 1): -1}
    x = scalar_normalize(field, num)
    top, den = {(0, 1): 1}, {(0, 0): 2, (2, 1): 1}
    y = scalar_normalize(field, top, den)
    hashes = hash(x), hash(y)
    num[(2, 0)] = 5
    top[(0, 1)] = 7
    den[(4, 4)] = 1
    assert field.format(x) == "3*q - nu"
    assert field.format(y) == "nu/(q*nu + 2)"
    assert (hash(x), hash(y)) == hashes


def test_positive_powers_of_canonical_fractions_take_no_gcd(monkeypatch):
    # powers of a coprime pair are coprime, so no positive power reaches
    # sympy's cancellation, whatever the sign, the Laurent part or the content
    sympy = pytest.importorskip("sympy")
    field = field_qnu()
    leaves = [
        ({(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): -1}),
        ({(-1, 0): -2, (2, 1): 4}, {(0, 1): 3, (0, 0): 6}),
        ({(0, 1): 1, (1, 0): -1}, {(0, 0): 5}),
    ]
    values = [(scalar_normalize(field, num, den), TupleScalar(num, den)) for num, den in leaves]
    calls = []
    cancel = ScalarField._cancel

    def counting(self, p, q):
        calls.append((p, q))
        return cancel(self, p, q)

    monkeypatch.setattr(ScalarField, "_cancel", counting)
    powers = [(x**k, reference**k) for x, reference in values for k in (5, 1)]
    assert calls == []
    powers += [(x**k, reference**k) for x, reference in values for k in (0, -1, -3)]
    symbols = sympy.symbols("q nu", seq=True)
    for x, reference in powers:
        assert (x.num, x.den) == reference.canonical(symbols)


@st.composite
def scalar_programs(draw):
    """A field of 1-3 parameters with root orders 1-3, Laurent leaves
    num/den with exponents in -3..3, up to four + * / ^ steps over them,
    and a point (zero allowed) to evaluate every value at."""
    m = draw(st.integers(1, 3))
    roots = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=m, max_size=m))
    exponents = st.tuples(*[st.integers(-3, 3)] * m)
    poly = st.dictionaries(
        exponents, st.integers(-4, 4).filter(bool), min_size=1, max_size=3
    )
    leaves = draw(st.lists(st.tuples(poly, poly), min_size=2, max_size=3))
    steps = draw(st.lists(
        st.tuples(st.sampled_from("+*/^"), st.integers(0, 9), st.integers(0, 9),
                  st.integers(-2, 3)),
        max_size=4,
    ))
    point = draw(st.lists(st.integers(-2, 3), min_size=m, max_size=m))
    return roots, leaves, steps, point


@settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=60)
@given(scalar_programs())
def test_packed_scalars_match_the_tuple_keyed_reference(program):
    sympy = pytest.importorskip("sympy")
    roots, leaves, steps, point = program
    names = ("a", "b", "c")[: len(roots)]
    field = ScalarField(tuple(
        ParamDecl(name, invertible=True, root_order=k) for name, k in zip(names, roots)
    ))
    symbols = sympy.symbols(" ".join(names), seq=True)
    pool = [(scalar_normalize(field, num, den), TupleScalar(num, den)) for num, den in leaves]
    for op, i, j, k in steps:
        (a, ra), (b, rb) = pool[i % len(pool)], pool[j % len(pool)]
        if op == "+":
            pool.append((a + b, ra + rb))
        elif op == "*":
            pool.append((a * b, ra * rb))
        elif op == "/" and b:
            pool.append((a / b, ra / rb))
        elif op == "^" and (a or k >= 0):
            pool.append((a**k, ra**k))
    values = dict(zip(names, map(Fraction, point)))
    for x, reference in pool:
        num, den = reference.canonical(symbols)
        assert (x.num, x.den) == (num, den)
        text = format_tuple_fraction(num, den, names, roots)
        assert field.format(x) == text
        assert field.format_coefficient(x) == format_tuple_coefficient(text)
        assert parse_scalar(field, text) == x
        expected = evaluate_tuple_fraction(num, den, list(values.values()))
        if expected is None:
            with pytest.raises(SpecializationError):
                field.evaluate(x, values)
        else:
            assert field.evaluate(x, values) == expected


def test_packed_exponents_past_the_limit_are_refused():
    # with several parameters each exponent owns a 32-bit field of the key;
    # a value that would leave it raises instead of wrapping into another
    field = ScalarField((ParamDecl("a", invertible=True), ParamDecl("b", invertible=True)))
    limit = 1 << 28
    a, b = field.parameter("a"), field.parameter("b")
    top = field.root_power("a", limit - 1)
    bottom = field.root_power("b", -limit)
    # the ends of the range compute exactly
    assert field.format(top / field.root_power("b", limit - 1)) == (
        f"a^{limit - 1}/b^{limit - 1}"
    )
    assert (top * bottom).num == {(limit - 1, 0): 1}
    assert (top * bottom).den == {(0, limit): 1}
    assert top / a * a == top
    past = [
        lambda: top * a,
        lambda: bottom / b,
        lambda: top**2,
        lambda: (top + b) ** 2,
        lambda: (top + b) * (a + b),
        lambda: field.one / (bottom + a),
        lambda: field.root_power("a", limit),
        lambda: scalar_normalize(field, {(0, -limit - 1): 1}),
    ]
    for make in past:
        with pytest.raises(ValueError, match="_PARAM_EXPONENT_LIMIT"):
            make()
    # one parameter: the key is the exponent itself, and nothing overflows
    single = ScalarField((ParamDecl("q", invertible=True),))
    q = single.root_power("q", limit)
    assert q * q == single.root_power("q", 2 * limit)
    assert (q + single.one) ** 2 == q * q + 2 * q + single.one


def test_specialization_of_a_monomial_denominator_at_zero_is_refused():
    field = ScalarField((ParamDecl("q"),))  # params: q;  (not invertible)
    q = field.parameter("q")
    with pytest.raises(SpecializationError) as info:
        field.specialize(field.one / q, {"q": 0})
    assert str(info.value) == "denominator 1/q vanishes under {q=0}"
    with pytest.raises(SpecializationError):
        field.specialize(q**2 + field.one / q**3, {"q": 0})
    assert field.specialize(q + field.one / q, {"q": 2}) == Fraction(5, 2)
    assert field.specialize(q * q / q, {"q": 0}) == 0


PARAMETRIC_PATH = '''
import sys
from semigraded import (
    Frame, ParamDecl, ScalarField, check_pbw, format_element, ggk_estimate,
    hilbert_series, left_ideal_window, nc_pow, parse_element,
    parse_presentation, print_presentation, specialize_presentation,
)
from semigraded.catalog import (
    build_quantum_space, build_skew3d, build_uso3, build_woronowicz,
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
for built in (build_uso3(), build_woronowicz(), build_quantum_space(3), build_skew3d(1)):
    p = parse_presentation(print_presentation(built))
    x = parse_element(p, "x1 + x2/2 + x3")
    assert format_element(nc_pow(p, x, 4).terms, p.gens, p.field)
    assert check_pbw(p).ok
    specialize_presentation(p)
assert "sympy" not in sys.modules, "monomial denominators loaded sympy"
field = ScalarField((ParamDecl("q"), ParamDecl("nu")))
q, nu = field.parameter("q"), field.parameter("nu")
assert (q**2 - nu**2) / (q - nu) == q + nu
assert "sympy" in sys.modules, "multi-term cancellation did not load sympy"
'''


def test_sympy_loads_only_for_parametric_fields(package_env):
    # Only cancelling two multi-term polynomials needs sympy: the plain path,
    # the catalog's parametric presentations (monomial denominators) and
    # their rewriting, PBW check and specialization must not load it.
    # A fresh interpreter: this one may have imported sympy already.
    proc = subprocess.run(
        [sys.executable, "-c", PARAMETRIC_PATH],
        capture_output=True, text=True, env=package_env,
    )
    assert proc.returncode == 0, proc.stderr

"""Exact scalar arithmetic over a central parameter field Q(p_1, ..., p_m).

A :class:`ScalarField` is the rational function field generated by finitely many
commuting parameters over Q.  Each parameter may be declared invertible and may
carry a *root order* k, in which case the field actually adjoins p^(1/k) and
integer powers of the root are expressible (q^(1/2), q^(3/2), ...).

Elements are kept in a canonical reduced form:

* numerator and denominator are integer-coefficient polynomials in the root
  indeterminates with no common factor (integer content included),
* the denominator's leading coefficient (graded-lex order) is positive,
* equality of canonical forms is plain representation equality.

A field with no parameters degenerates to Q itself and its elements are plain
:class:`fractions.Fraction` objects, which already satisfy every invariant
above; that path avoids polynomial machinery entirely.  sympy, whose ZZ
polynomial rings carry the parametric elements, is imported only when a
field with parameters is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

__all__ = [
    "ParamDecl",
    "ScalarField",
    "ParamScalar",
    "SpecializationError",
    "scalar_normalize",
    "scalar_arith",
    "scalar_specialize",
]


class SpecializationError(ValueError):
    """A parameter assignment is inadmissible (zero for an invertible
    parameter, or it annihilates a denominator or a unit coefficient)."""


def _is_identifier(name: str) -> bool:
    return name.isidentifier() and not name[0].isdigit()


@dataclass(frozen=True)
class ParamDecl:
    """Declaration of one central parameter.

    ``invertible`` marks parameters whose specialized values must be nonzero.
    ``root_order`` k > 1 adjoins the k-th root of the parameter: internally the
    field works with the root indeterminate and the parameter itself is its
    k-th power.
    """

    name: str
    invertible: bool = False
    root_order: int = 1

    def __post_init__(self) -> None:
        if not _is_identifier(self.name):
            raise ValueError(f"parameter name {self.name!r} is not an identifier")
        if self.root_order < 1:
            raise ValueError(f"root_order must be >= 1, got {self.root_order}")


Scalar = Union[Fraction, "ParamScalar"]


class ScalarField:
    """Q(p_1, ..., p_m) with exact canonical-fraction arithmetic.

    With no parameters the elements are plain ``Fraction``; otherwise they are
    :class:`ParamScalar` pairs of sympy ZZ-polynomials in the root
    indeterminates.
    """

    def __init__(self, params: tuple[ParamDecl, ...] = ()) -> None:
        params = tuple(params)
        seen: set[str] = set()
        for decl in params:
            if decl.name in seen:
                raise ValueError(f"duplicate parameter {decl.name!r}")
            seen.add(decl.name)
        self.params = params
        self._index = {decl.name: i for i, decl in enumerate(params)}
        if params:
            from sympy.polys import ZZ, grlex, ring

            names = ",".join(decl.name for decl in params)
            created = ring(names, ZZ, order=grlex)
            self.ring = created[0]
            self._gens = tuple(created[1:])
            self.zero: Scalar = ParamScalar(self, self.ring.zero, self.ring.one)
            self.one: Scalar = ParamScalar(self, self.ring.one, self.ring.one)
        else:
            self.ring = None
            self._gens = ()
            self.zero = Fraction(0)
            self.one = Fraction(1)

    # -- identity ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.params)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScalarField) and self.params == other.params

    def __hash__(self) -> int:
        return hash(self.params)

    def __repr__(self) -> str:
        inner = ", ".join(d.name for d in self.params)
        return f"ScalarField({inner})"

    # -- construction -----------------------------------------------------

    def from_int(self, k: int) -> Scalar:
        if not self.params:
            return Fraction(k)
        return ParamScalar(self, self.ring(k), self.ring.one)

    def from_fraction(self, q: Fraction) -> Scalar:
        if not self.params:
            return Fraction(q)
        return self.normalize(self.ring(q.numerator), self.ring(q.denominator))

    def coerce(self, value) -> Scalar:
        """Coerce an int, Fraction, or same-field scalar into this field."""
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        if isinstance(value, ParamScalar):
            if value.field is not self and value.field != self:
                raise ValueError("scalar belongs to a different field")
            return value
        raise TypeError(f"cannot coerce {type(value).__name__} into {self!r}")

    def normalize(self, num, den=None) -> Scalar:
        """Canonical reduced fraction num/den (polynomials or ints)."""
        if not self.params:
            n = num if isinstance(num, int) else int(num)
            d = 1 if den is None else (den if isinstance(den, int) else int(den))
            return Fraction(n, d)
        num = num if not isinstance(num, int) else self.ring(num)
        den = self.ring.one if den is None else (self.ring(den) if isinstance(den, int) else den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            return ParamScalar(self, self.ring.zero, self.ring.one)
        g = num.gcd(den)
        if g != self.ring.one:
            num = num.exquo(g)
            den = den.exquo(g)
        if den.LC < 0:
            num = -num
            den = -den
        return ParamScalar(self, num, den)

    def parameter(self, name: str) -> Scalar:
        """The parameter itself (the root indeterminate raised to root_order)."""
        decl = self.params[self._index[name]]
        gen = self._gens[self._index[name]]
        return ParamScalar(self, gen ** decl.root_order, self.ring.one)

    def root_power(self, name: str, numer: int, denom: int = 1) -> Scalar:
        """The parameter raised to the rational power numer/denom.

        The reduced denominator must divide the declared root_order.
        """
        if denom <= 0:
            raise ValueError("exponent denominator must be positive")
        decl = self.params[self._index[name]]
        g = _gcd(abs(numer), denom) if numer else denom
        numer //= g
        denom //= g
        if decl.root_order % denom:
            raise ValueError(
                f"power {numer}/{denom} of {name} needs a declared root of order "
                f"divisible by {denom} (have {decl.root_order})"
            )
        e = numer * (decl.root_order // denom)
        gen = self._gens[self._index[name]]
        if e >= 0:
            return ParamScalar(self, gen ** e, self.ring.one)
        return ParamScalar(self, self.ring.one, gen ** (-e))

    # -- specialization ---------------------------------------------------

    def default_specialization(self) -> dict[str, Fraction]:
        """i-th parameter maps to (i-th prime) + 1: 3, 4, 6, 8, 12, ...

        The value is assigned to the root indeterminate, so a parameter of
        root_order k specializes to value**k.
        """
        primes = _primes(len(self.params))
        return {decl.name: Fraction(p + 1) for decl, p in zip(self.params, primes)}

    def resolve_assignment(
        self, assignment: Optional[Mapping[str, Union[Fraction, int]]] = None
    ) -> dict[str, Fraction]:
        """Full name->value map: given entries override defaults.

        Unknown names and zero values for invertible parameters are rejected.
        """
        full = self.default_specialization()
        if assignment:
            for name, value in assignment.items():
                if name not in self._index:
                    raise SpecializationError(f"unknown parameter {name!r}")
                full[name] = Fraction(value)
        for decl in self.params:
            if decl.invertible and full[decl.name] == 0:
                raise SpecializationError(
                    f"invertible parameter {decl.name!r} assigned zero"
                )
        return full

    def specialize(self, x: Scalar, assignment: Optional[Mapping[str, Fraction]] = None) -> Fraction:
        """Evaluate a scalar to an exact rational under an assignment.

        The assignment value is bound to the root indeterminate of each
        parameter.  Raises :class:`SpecializationError` if a denominator
        vanishes.
        """
        if not self.params:
            return Fraction(x)
        full = self.resolve_assignment(assignment)
        values = [full[decl.name] for decl in self.params]
        num = _eval_poly(x.num, values)
        den = _eval_poly(x.den, values)
        if den == 0:
            raise SpecializationError(
                f"denominator {self.format(x)} vanishes under "
                + _format_assignment(full)
            )
        return num / den

    # -- formatting -------------------------------------------------------

    def format(self, x: Scalar) -> str:
        """Canonical, re-parseable text for a scalar."""
        if not self.params:
            return str(Fraction(x))
        num_s = self._format_poly(x.num)
        if x.den == self.ring.one:
            return num_s
        den_s = self._format_poly(x.den)
        if len(x.num) > 1:
            num_s = f"({num_s})"
        if _top_level_operator(den_s):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def format_coefficient(self, x: Scalar) -> tuple[bool, str]:
        """(negated, body) for use as a coefficient inside a printed sum.

        ``body`` is safe to follow with ``*monomial``; ``negated`` means the
        term should be joined with a minus sign.
        """
        s = self.format(x)
        core = s[1:] if s.startswith("-") else s
        if _top_level_sign(core):
            return False, f"({s})"
        if s.startswith("-"):
            return True, core
        return False, s

    def _format_poly(self, p) -> str:
        if not p:
            return "0"
        chunks: list[str] = []
        for monom, coeff in p.terms():
            c = int(coeff)
            mag = abs(c)
            parts: list[str] = []
            if mag != 1 or not any(monom):
                parts.append(str(mag))
            for i, e in enumerate(monom):
                if e:
                    parts.append(self._power_str(i, e))
            body = "*".join(parts)
            if not chunks:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(chunks)

    def _power_str(self, index: int, exponent: int) -> str:
        decl = self.params[index]
        k = decl.root_order
        whole, frac = divmod(exponent, k)
        parts = []
        if whole:
            parts.append(decl.name if whole == 1 else f"{decl.name}^{whole}")
        if frac:
            parts.append(f"{decl.name}^({frac}/{k})")
        return "*".join(parts)


class ParamScalar:
    """Canonical fraction of ZZ-polynomials in the field's root indeterminates.

    Instances are produced normalized (see :meth:`ScalarField.normalize`) and
    treated as immutable.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: ScalarField, num, den) -> None:
        self.field = field
        self.num = num
        self.den = den

    # All binary ops accept int/Fraction and same-field ParamScalar.

    def _pair(self, other):
        if isinstance(other, ParamScalar):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.field.normalize(self.num + o.num, self.den)
        return self.field.normalize(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.field.normalize(self.num - o.num, self.den)
        return self.field.normalize(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self.field.normalize(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("scalar division by zero")
        return self.field.normalize(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k >= 0:
            return self.field.normalize(self.num ** k, self.den ** k)
        if not self.num:
            raise ZeroDivisionError("zero scalar has no negative powers")
        return self.field.normalize(self.den ** (-k), self.num ** (-k))

    def __neg__(self):
        return ParamScalar(self.field, -self.num, self.den)

    def __pos__(self):
        return self

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return self.field.format(self)


# -- module-level operation surface --------------------------------------


def scalar_normalize(field: ScalarField, num, den=None) -> Scalar:
    """Canonical reduced fraction of two integer-coefficient polynomials."""
    return field.normalize(num, den)


def scalar_arith(op: str, a: Scalar, b: Optional[Scalar] = None) -> Scalar:
    """Field arithmetic dispatch: op is one of 'add', 'mul', 'neg', 'inv'.

    'neg' and 'inv' are unary; 'inv' of zero raises ZeroDivisionError.
    """
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "inv":
        if not a:
            raise ZeroDivisionError("inversion of zero scalar")
        if isinstance(a, Fraction):
            return Fraction(1) / a
        return a.field.one / a
    raise ValueError(f"unknown scalar operation {op!r}")


def scalar_specialize(
    field: ScalarField,
    x: Scalar,
    assignment: Optional[Mapping[str, Fraction]] = None,
) -> Fraction:
    """Exact rational value of a scalar under a parameter assignment."""
    return field.specialize(x, assignment)


# -- helpers --------------------------------------------------------------


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a else 1


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _eval_poly(p, values: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for monom, coeff in p.terms():
        term = Fraction(int(coeff))
        for v, e in zip(values, monom):
            if e:
                term *= v ** e
        total += term
    return total


def _format_assignment(assignment: Mapping[str, Fraction]) -> str:
    return "{" + ", ".join(f"{k}={assignment[k]}" for k in sorted(assignment)) + "}"


def _top_level_operator(s: str) -> bool:
    """True if s contains *, /, +, or - outside parentheses."""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "*/+-":
            return True
    return False


def _top_level_sign(s: str) -> bool:
    """True if s contains + or - outside parentheses."""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-":
            return True
    return False

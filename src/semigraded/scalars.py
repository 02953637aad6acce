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
above.  (The rewriting engine computes with integral coefficients as ``int``
internally, but widens its results back, so every element it returns is a
``Fraction``.)  Parametric elements are native sparse polynomials, dicts from
exponent tuples to ints, with the monomial part of the denominator kept as
negative exponents of the numerator (a Laurent form).  Products, sums and
quotients whose denominators are monomials times integers therefore cancel
by exponent arithmetic and integer gcd alone.  sympy is imported only to
cancel the gcd of two multi-term polynomials, as in ``(q^2 - nu^2)/(q - nu)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, sub
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


class _Record:
    """Field-wise ``==`` and ``repr`` for the package's plain record classes.

    A subclass lists in ``_fields``, in constructor order, the fields that
    equality and the repr cover; other attributes, such as scratch caches,
    take no part.  Records compare equal only to records of the same class
    and are unhashable; frozen ones derive from :class:`_FrozenRecord`.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class _FrozenRecord(_Record):
    """An immutable :class:`_Record`, hashed by its fields.

    ``__init__`` stores the fields through ``vars(self)``; any later
    assignment or deletion raises ``AttributeError``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class ParamDecl(_FrozenRecord):
    """Declaration of one central parameter.

    ``invertible`` marks parameters whose specialized values must be nonzero.
    ``root_order`` k > 1 adjoins the k-th root of the parameter: internally the
    field works with the root indeterminate and the parameter itself is its
    k-th power.
    """

    _fields = ("name", "invertible", "root_order")

    def __init__(self, name: str, invertible: bool = False, root_order: int = 1) -> None:
        if not _is_identifier(name):
            raise ValueError(f"parameter name {name!r} is not an identifier")
        if root_order < 1:
            raise ValueError(f"root_order must be >= 1, got {root_order}")
        vars(self).update(name=name, invertible=invertible, root_order=root_order)


Scalar = Union[Fraction, "ParamScalar"]


class ScalarField:
    """Q(p_1, ..., p_m) with exact canonical-fraction arithmetic.

    With no parameters the elements are plain ``Fraction`` (the rewriting
    engine and the window echelon work on integer numerators inside);
    otherwise they are :class:`ParamScalar` Laurent fractions of sparse
    integer polynomials in the root indeterminates.  Every parametric result
    passes through :meth:`normalize`.
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
            self._origin = (0,) * len(params)
            # the one denominator of every element with denominator 1
            self._unit = {self._origin: 1}
            self.zero: Scalar = ParamScalar(self, {}, self._unit)
            self.one: Scalar = ParamScalar(self, {self._origin: 1}, self._unit)
        else:
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
        return ParamScalar(self, {self._origin: k} if k else {}, self._unit)

    def from_fraction(self, q: Fraction) -> Scalar:
        if not self.params:
            return Fraction(q)
        return self.normalize(q.numerator, q.denominator)

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
        """Canonical reduced fraction num/den.

        ``num`` and ``den`` are ints or sparse polynomials ``{exponent tuple:
        int}`` in the root indeterminates; negative exponents (Laurent
        monomials) are allowed.  The dicts are not modified, and the result
        may keep them, so callers must not modify them afterwards.
        """
        if not self.params:
            n = num if isinstance(num, int) else int(num)
            d = 1 if den is None else (den if isinstance(den, int) else int(den))
            return Fraction(n, d)
        num = self._poly(num)
        if den is None or den is self._unit:
            return ParamScalar(self, num, self._unit) if num else self.zero
        den = self._poly(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            return self.zero
        # the monomial factor of the denominator becomes negative exponents
        low = _low(den)
        if any(low):
            den = _shift(den, low)
            num = _shift(num, low)
        if len(den) == 1:
            c = den[self._origin]
            g = gcd(c, *num.values())
            if c < 0:
                g = -g
            if g != 1:
                num = {e: v // g for e, v in num.items()}
                c //= g
            return ParamScalar(self, num, self._unit if c == 1 else {self._origin: c})
        g = gcd(*num.values(), *den.values())
        if g != 1:
            num = {e: v // g for e, v in num.items()}
            den = {e: v // g for e, v in den.items()}
        if len(num) > 1:
            # a monomial and den (which has no monomial factor) share no factor
            low = _low(num)
            num, den = _cancel(_shift(num, low), den)
            num = _shift(num, tuple(-e for e in low))
        if den[max(den, key=_grlex)] < 0:
            num = {e: -v for e, v in num.items()}
            den = {e: -v for e, v in den.items()}
        if den == self._unit:
            den = self._unit
        return ParamScalar(self, num, den)

    def _poly(self, p) -> dict:
        if isinstance(p, int):
            return {self._origin: p} if p else {}
        if 0 in p.values():
            return {e: c for e, c in p.items() if c}
        return p

    def parameter(self, name: str) -> Scalar:
        """The parameter itself (the root indeterminate raised to root_order)."""
        index = self._index[name]
        return self._monomial(index, self.params[index].root_order)

    def root_power(self, name: str, numer: int, denom: int = 1) -> Scalar:
        """The parameter raised to the rational power numer/denom.

        The reduced denominator must divide the declared root_order.
        """
        if denom <= 0:
            raise ValueError("exponent denominator must be positive")
        index = self._index[name]
        decl = self.params[index]
        g = gcd(numer, denom)
        numer //= g
        denom //= g
        if decl.root_order % denom:
            raise ValueError(
                f"power {numer}/{denom} of {name} needs a declared root of order "
                f"divisible by {denom} (have {decl.root_order})"
            )
        return self._monomial(index, numer * (decl.root_order // denom))

    def _monomial(self, index: int, exponent: int) -> Scalar:
        exp = list(self._origin)
        exp[index] = exponent
        return ParamScalar(self, {tuple(exp): 1}, self._unit)

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
        vanishes, including the monomial part kept as negative exponents.
        """
        if not self.params:
            return Fraction(x)
        return self.evaluate(x, self.resolve_assignment(assignment))

    def evaluate(self, x: Scalar, full: Mapping[str, Fraction]) -> Fraction:
        """:meth:`specialize` under a map that :meth:`resolve_assignment`
        already returned, so callers that evaluate many scalars under one
        assignment resolve and validate it once."""
        if not self.params:
            return Fraction(x)
        values = [full[decl.name] for decl in self.params]
        vanishes = any(
            v == 0 and any(e[i] < 0 for e in x._num) for i, v in enumerate(values)
        )
        den = _eval_poly(x._den, values)
        if vanishes or den == 0:
            raise SpecializationError(
                f"denominator {self.format(x)} vanishes under "
                + _format_assignment(full)
            )
        return _eval_poly(x._num, values) / den

    # -- formatting -------------------------------------------------------

    def format(self, x: Scalar) -> str:
        """Canonical, re-parseable text for a scalar."""
        if not self.params:
            return str(Fraction(x))
        num, den = x._fraction()
        num_s = self._format_poly(num)
        if den == self._unit:
            return num_s
        den_s = self._format_poly(den)
        if len(num) > 1:
            num_s = f"({num_s})"
        if _top_level(den_s, "*/+-"):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def format_coefficient(self, x: Scalar) -> tuple[bool, str]:
        """(negated, body) for use as a coefficient inside a printed sum.

        ``body`` is safe to follow with ``*monomial``; ``negated`` means the
        term should be joined with a minus sign.
        """
        s = self.format(x)
        core = s[1:] if s.startswith("-") else s
        if _top_level(core, "+-"):
            return False, f"({s})"
        if s.startswith("-"):
            return True, core
        return False, s

    def _format_poly(self, p: dict) -> str:
        if not p:
            return "0"
        chunks: list[str] = []
        for monom in sorted(p, key=_grlex, reverse=True):
            c = p[monom]
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
    """Canonical fraction of integer polynomials in the root indeterminates.

    Stored as a Laurent numerator ``_num`` (exponents may be negative) over a
    denominator ``_den`` with no monomial factor, both ``{exponent tuple:
    int}``; ``_den`` is the field's shared unit dict when it is 1.  ``num``
    and ``den`` give the classical coprime pair (the monomial part moved back
    into the denominator).  Instances are produced normalized (see
    :meth:`ScalarField.normalize`) and treated as immutable.
    """

    __slots__ = ("field", "_num", "_den")

    def __init__(self, field: ScalarField, num: dict, den: dict) -> None:
        self.field = field
        self._num = num
        self._den = den

    def _fraction(self) -> tuple[dict, dict]:
        if not self._num:
            return {}, self._den
        shift = tuple(min(e, 0) for e in _low(self._num))
        if not any(shift):
            return self._num, self._den
        return _shift(self._num, shift), _shift(self._den, shift)

    @property
    def num(self) -> dict:
        """Numerator polynomial {exponent tuple: int} of the reduced fraction."""
        return dict(self._fraction()[0])

    @property
    def den(self) -> dict:
        """Denominator polynomial {exponent tuple: int} of the reduced fraction."""
        return dict(self._fraction()[1])

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
        d1, d2 = self._den, o._den
        if d1 is d2 or d1 == d2:
            return self.field.normalize(_add(self._num, o._num), d1)
        return self.field.normalize(
            _add(_mul(self._num, d2), _mul(o._num, d1)), _mul(d1, d2)
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        unit = self.field._unit
        return self.field.normalize(
            _mul(self._num, o._num),
            unit if d1 is unit and d2 is unit else _mul(d1, d2),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("scalar division by zero")
        return self.field.normalize(_mul(self._num, o._den), _mul(self._den, o._num))

    def __rtruediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        num, den, unit = self._num, self._den, self.field._unit
        if k < 0:
            if not num:
                raise ZeroDivisionError("zero scalar has no negative powers")
            num, den, k = den, num, -k
        return self.field.normalize(
            _pow(num, k, unit), unit if den is unit else _pow(den, k, unit)
        )

    def __neg__(self):
        return ParamScalar(self.field, {e: -c for e, c in self._num.items()}, self._den)

    def __pos__(self):
        return self

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), frozenset(self._den.items())))

    def __repr__(self) -> str:
        return self.field.format(self)


# -- module-level operation surface --------------------------------------


def scalar_normalize(field: ScalarField, num, den=None) -> Scalar:
    """Canonical reduced fraction of two integer-coefficient polynomials.

    Dict arguments are copied, so the caller may modify them afterwards.
    """
    if isinstance(num, dict):
        num = dict(num)
    if isinstance(den, dict):
        den = dict(den)
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


# -- sparse integer polynomials {exponent tuple: nonzero int} --------------


def _grlex(exp: tuple) -> tuple:
    return (sum(exp), exp)


def _low(p: dict) -> tuple:
    """Componentwise minimum exponent: the largest monomial dividing p."""
    return tuple(map(min, zip(*p)))


def _shift(p: dict, exp: tuple) -> dict:
    """p divided by the monomial with exponents ``exp``."""
    return {tuple(map(sub, e, exp)): c for e, c in p.items()}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _mul(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return {}
    if len(b) == 1:
        ((eb, cb),) = b.items()
        if not any(eb):
            return a if cb == 1 else {e: c * cb for e, c in a.items()}
        return {tuple(map(add, e, eb)): c * cb for e, c in a.items()}
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pow(p: dict, k: int, one: dict) -> dict:
    if len(p) == 1:
        ((e, c),) = p.items()
        return {tuple(x * k for x in e): c**k}
    result = one
    for _ in range(k):
        result = _mul(result, p)
    return result


def _cancel(p: dict, q: dict) -> tuple[dict, dict]:
    """(p/g, q/g) for g the gcd of two polynomials, by sympy."""
    from sympy.polys import ZZ, grlex, ring

    r = ring(",".join(f"x{i}" for i in range(len(next(iter(p))))), ZZ, order=grlex)[0]
    _, pg, qg = r.from_dict(p).cofactors(r.from_dict(q))
    return (
        {tuple(e): int(c) for e, c in pg.items()},
        {tuple(e): int(c) for e, c in qg.items()},
    )


def _eval_poly(p: dict, values: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for monom, coeff in p.items():
        term = Fraction(coeff)
        for v, e in zip(values, monom):
            if e:
                term *= v**e
        total += term
    return total


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _format_assignment(assignment: Mapping[str, Fraction]) -> str:
    return "{" + ", ".join(f"{k}={assignment[k]}" for k in sorted(assignment)) + "}"


def _top_level(s: str, operators: str) -> bool:
    """True if s contains one of ``operators`` outside parentheses."""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in operators:
            return True
    return False

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
monomial keys to ints, with the monomial part of the denominator kept as
negative exponents of the numerator (a Laurent form).  Products, sums and
quotients whose denominators are monomials times integers therefore cancel
by exponent arithmetic and integer gcd alone.  sympy is imported only to
cancel the gcd of two multi-term polynomials, as in ``(q^2 - nu^2)/(q - nu)``.

A monomial key is one ``int``, a packed exponent vector (as in the rewrite
engine): with one parameter it is the exponent itself; with m > 1 each
exponent owns a signed field of ``_FIELD_BITS`` bits, the first parameter
highest, and the total degree sits above them all, so comparing keys
compares monomials in graded-lex order.  The key is linear in the exponents:
multiplying monomials adds their keys and dividing subtracts them.  With
m > 1 an exponent of ``_PARAM_EXPONENT_LIMIT`` (2^28) or more in magnitude is
refused with a ``ValueError`` wherever a scalar is made, so that every
intermediate key of an operation still fits its fields.  Exponent tuples
appear only at the public boundary: ``num``, ``den``, ``scalar_normalize``,
``evaluate`` and the sympy cancellation.

Printed sums are built in one place: :func:`signed_sum` joins the terms of
a scalar polynomial, of an element (``presentation.format_element``) and of
a Hilbert polynomial, which is printed as an element of Q(t).

Sparse sums ``{key: nonzero coefficient}`` share one arithmetic in one
place: :func:`_add`, :func:`_scale` and :func:`_mul` serve the polynomials
of a scalar, the parser's relation words and element values, and
``NCPoly``; keys multiply by ``+``, so packed monomials add and words
concatenate, the left factor first.  :func:`_cleared` clears denominators
for the rewrite engine, the window echelon and the Hilbert polynomial, and
:func:`_eval_poly` evaluates for specialization and the Hilbert polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
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
    """Construction, ``==`` and ``repr`` for the package's plain record classes.

    A subclass lists in ``_fields``, in constructor order, the fields that
    equality and the repr cover; other attributes, such as scratch caches,
    take no part.  The constructor binds positional and keyword arguments to
    ``_fields``; a field the caller omits takes its value in ``_defaults``,
    which every instance shares, so it must be immutable.  Records compare
    equal only to records of the same class and are unhashable; frozen ones
    derive from :class:`_FrozenRecord`.

    ``to_dict`` reports the fields by name, in ``_fields`` order, which the
    text format prints as is.  A record overrides it when its report keys
    differ from its fields: renamed, derived or nested values, or fields
    left out.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        vars(self).update(zip(self._fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The value of every field, in ``_fields`` order."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        given = dict(zip(fields, args))
        for field in kwargs:
            if field in given or field not in fields:
                what = "twice" if field in given else "as an unknown field"
                raise TypeError(f"{name}() got {field!r} {what}")
        values = {**cls._defaults, **given, **kwargs}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() is missing field(s) {', '.join(missing)}")
        return tuple([values[field] for field in fields])

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

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class _FrozenRecord(_Record):
    """An immutable :class:`_Record`, hashed by its fields.

    Constructors store the fields through ``vars(self)``; any later
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

# With m > 1 parameters a monomial key gives each exponent a signed field of
# _FIELD_BITS bits.  Stored exponents stay below _PARAM_EXPONENT_LIMIT in
# magnitude; an operation combines at most three shifts of them (a product,
# then two monomial divisions inside normalize), which stays below 2^31.
_FIELD_BITS = 32
_PARAM_EXPONENT_LIMIT = 1 << 28


def _exponent_overflow(exponents) -> ValueError:
    return ValueError(
        f"parameter exponents {tuple(exponents)} reach the scalar field's limit "
        f"_PARAM_EXPONENT_LIMIT = 2^28: with several parameters, exponents are "
        f"packed into {_FIELD_BITS}-bit signed fields; use smaller exponents"
    )


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
            m = len(params)
            # the key of each parameter's root indeterminate; the key of an
            # exponent vector is sum(e_i * units[i])
            top = 1 << (_FIELD_BITS * m)
            self._units = (1,) if m == 1 else tuple(
                (1 << (_FIELD_BITS * (m - 1 - i))) + top for i in range(m)
            )
            # key + _offset has bits at or above _PARAM_EXPONENT_LIMIT * 2 in
            # an exponent field (_guard) exactly when that exponent is out of
            # range; no field can overflow when there is one parameter
            fields = [_FIELD_BITS * i for i in range(m)] if m > 1 else []
            self._offset = sum(_PARAM_EXPONENT_LIMIT << s for s in fields)
            self._guard = sum(
                ((1 << _FIELD_BITS) - 2 * _PARAM_EXPONENT_LIMIT) << s for s in fields
            )
            # the one denominator of every element with denominator 1
            self._unit = {0: 1}
            # printed text and exponent vector of each monomial key, built once
            self._texts: dict = {}
            self._vectors: dict = {}
            self.zero: Scalar = ParamScalar(self, {}, self._unit)
            self.one: Scalar = ParamScalar(self, {0: 1}, self._unit)
        else:
            self._units = ()
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
        return ParamScalar(self, {0: k} if k else {}, self._unit)

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

        ``num`` and ``den`` are ints or sparse polynomials ``{monomial key:
        int}`` in the root indeterminates; negative exponents (Laurent
        monomials) are allowed.  The dicts are not modified, and the result
        may keep them, so callers must not modify them afterwards.
        """
        if not self.params:
            return Fraction(index(num), 1 if den is None else index(den))
        num = self._poly(num)
        if den is None or den is self._unit:
            if not num:
                return self.zero
            if self._guard:
                self._check(num)
            return ParamScalar(self, num, self._unit)
        den = self._poly(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            return self.zero
        # the monomial factor of the denominator becomes negative exponents
        low = self._low(den)
        if low:
            den = _shift(den, low)
            num = _shift(num, low)
        if len(den) == 1:
            c = den[0]
            g = gcd(c, *num.values())
            if c < 0:
                g = -g
            if g != 1:
                num = {e: v // g for e, v in num.items()}
                c //= g
            return self._stored(num, self._unit if c == 1 else {0: c})
        g = gcd(*num.values(), *den.values())
        if g != 1:
            num = {e: v // g for e, v in num.items()}
            den = {e: v // g for e, v in den.items()}
        if len(num) > 1:
            # a monomial and den (which has no monomial factor) share no factor
            low = self._low(num)
            num, den = self._cancel(_shift(num, low), den)
            num = _shift(num, -low)
        # keys order monomials in graded-lex order
        if den[max(den)] < 0:
            num = {e: -v for e, v in num.items()}
            den = {e: -v for e, v in den.items()}
        if den == self._unit:
            den = self._unit
        return self._stored(num, den)

    def _stored(self, num: dict, den: dict) -> "ParamScalar":
        """The element num/den, once its exponents are checked to be in range."""
        if self._guard:
            self._check(num)
            if den is not self._unit:
                self._check(den)
        return ParamScalar(self, num, den)

    def _check(self, p: dict) -> None:
        """Refuse a polynomial with an exponent out of range (m > 1)."""
        offset, guard = self._offset, self._guard
        for e in p:
            if (e + offset) & guard:
                raise _exponent_overflow(self._exponents(e))

    def _poly(self, p) -> dict:
        if not isinstance(p, dict):
            p = index(p)
            return {0: p} if p else {}
        if 0 in p.values():
            return {e: c for e, c in p.items() if c}
        return p

    # -- monomial keys ----------------------------------------------------

    def _key(self, exponents) -> int:
        """The key of an exponent vector, unchecked."""
        return sum(map(mul, exponents, self._units))

    def _checked_key(self, exponents) -> int:
        """The key of an exponent vector from outside the field's arithmetic."""
        exponents = tuple(exponents)
        if len(exponents) != len(self._units):
            raise ValueError(
                f"exponent vector {exponents} should have one entry per "
                f"parameter, {len(self._units)} in all"
            )
        if len(self._units) > 1 and any(
            not -_PARAM_EXPONENT_LIMIT <= e < _PARAM_EXPONENT_LIMIT for e in exponents
        ):
            raise _exponent_overflow(exponents)
        return self._key(exponents)

    def _exponents(self, key: int) -> tuple:
        """The exponent vector of a key; with several parameters, unpacked
        once per key."""
        m = len(self._units)
        if m == 1:
            return (key,)
        vector = self._vectors.get(key)
        if vector is not None:
            return vector
        half = 1 << (_FIELD_BITS - 1)
        mask = (1 << _FIELD_BITS) - 1
        out = [0] * m
        rest = key
        for i in range(m - 1, -1, -1):
            e = ((rest + half) & mask) - half
            out[i] = e
            rest = (rest - e) >> _FIELD_BITS
        vector = self._vectors[key] = tuple(out)
        return vector

    def _pack(self, p: Mapping):
        """``{exponent tuple: int}`` on keys; with no parameters, the int
        at the empty tuple."""
        packed = {self._checked_key(e): index(c) for e, c in p.items()}
        return packed if self.params else packed.get(0, 0)

    def _unpack(self, p: Mapping) -> dict:
        """``{key: int}`` on exponent tuples."""
        return {self._exponents(e): c for e, c in p.items()}

    def _low(self, p: dict) -> int:
        """Key of the componentwise minimum exponent: the largest monomial
        dividing p."""
        if len(self._units) == 1 or len(p) == 1:
            return min(p)
        return self._key(map(min, zip(*map(self._exponents, p))))

    def _cancel(self, p: dict, q: dict) -> tuple[dict, dict]:
        """(p/g, q/g) for g the gcd of two polynomials, by sympy."""
        from sympy.polys import ZZ, grlex, ring

        r = ring(",".join(f"x{i}" for i in range(self.m)), ZZ, order=grlex)[0]
        _, pg, qg = r.from_dict(self._unpack(p)).cofactors(r.from_dict(self._unpack(q)))
        key = self._key
        return (
            {key(e): int(c) for e, c in pg.items()},
            {key(e): int(c) for e, c in qg.items()},
        )

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
        exp = [0] * self.m
        exp[index] = exponent
        return ParamScalar(self, {self._checked_key(exp): 1}, self._unit)

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
        vanishes, including the monomial part kept as negative exponents,
        and :meth:`resolve_assignment`'s errors on every field.
        """
        return self.evaluate(x, self.resolve_assignment(assignment))

    def evaluate(self, x: Scalar, full: Mapping[str, Fraction]) -> Fraction:
        """:meth:`specialize` under a map that :meth:`resolve_assignment`
        already returned, so callers that evaluate many scalars under one
        assignment resolve and validate it once."""
        if not self.params:
            return Fraction(x)
        values = [full[decl.name] for decl in self.params]
        num = self._unpack(x._num)
        vanishes = any(
            v == 0 and any(e[i] < 0 for e in num) for i, v in enumerate(values)
        )
        den = _eval_poly(self._unpack(x._den), values)
        if vanishes or den == 0:
            raise SpecializationError(
                f"denominator {self.format(x)} vanishes under "
                + _format_assignment(full)
            )
        return _eval_poly(num, values) / den

    # -- formatting -------------------------------------------------------

    def format(self, x: Scalar) -> str:
        """Canonical, re-parseable text for a scalar."""
        if not self.params:
            return str(Fraction(x))
        return self._format(x)[0]

    def _format(self, x: "ParamScalar") -> tuple[str, bool]:
        """(text, whether the text is a sum outside parentheses)."""
        num, den = x._fraction()
        num_s = self._format_poly(num)
        if den == self._unit:
            return num_s, len(num) > 1
        den_s = self._format_poly(den)
        if len(num) > 1:
            num_s = f"({num_s})"
        if _top_level(den_s, "*/+-"):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}", False

    def format_coefficient(self, x: Scalar) -> tuple[bool, str]:
        """(negated, body) for use as a coefficient inside a printed sum.

        ``body`` is safe to follow with ``*monomial``; ``negated`` means the
        term should be joined with a minus sign.
        """
        # a rational prints as "-a/b" at most, never as a sum
        s, is_sum = self._format(x) if self.params else (str(x), False)
        if is_sum:
            return False, f"({s})"
        if s.startswith("-"):
            return True, s[1:]
        return False, s

    def _format_poly(self, p: dict) -> str:
        texts = self._texts
        terms = []
        for key in sorted(p, reverse=True):
            text = texts.get(key)
            if text is None:
                text = texts[key] = "*".join(
                    self._power_str(i, e) for i, e in enumerate(self._exponents(key)) if e
                )
            c = p[key]
            terms.append((c < 0, str(abs(c)), text))
        return signed_sum(terms)

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
    denominator ``_den`` with no monomial factor, both ``{monomial key:
    int}``, each key the field's packed exponent vector (see the module
    docstring), so that a product of monomials is a sum of keys and the
    largest key is the graded-lex leading monomial; ``_den`` is the field's
    shared unit dict when it is 1.  ``num`` and ``den`` give the classical
    coprime pair on exponent tuples (the monomial part moved back into the
    denominator).  Instances are produced normalized (see
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
        field = self.field
        low = field._low(self._num)
        if len(field._units) == 1:
            shift = min(low, 0)
        else:
            shift = field._key(min(e, 0) for e in field._exponents(low))
        if not shift:
            return self._num, self._den
        return _shift(self._num, shift), _shift(self._den, shift)

    @property
    def num(self) -> dict:
        """Numerator polynomial {exponent tuple: int} of the reduced fraction."""
        return self.field._unpack(self._fraction()[0])

    @property
    def den(self) -> dict:
        """Denominator polynomial {exponent tuple: int} of the reduced fraction."""
        return self.field._unpack(self._fraction()[1])

    # All binary ops accept int/Fraction and same-field ParamScalar.

    def _operand(self, other):
        if isinstance(other, ParamScalar):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = other if type(other) is ParamScalar else self._operand(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        if d1 is d2 and d1 is self.field._unit:
            # _add drops zeros and keeps the operands' checked exponents
            return ParamScalar(self.field, _add(self._num, o._num), d1)
        if d1 is d2 or d1 == d2:
            return self.field.normalize(_add(self._num, o._num), d1)
        return self.field.normalize(
            _add(_mul(self._num, d2), _mul(o._num, d1)), _mul(d1, d2)
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = other if type(other) is ParamScalar else self._operand(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        field = self.field
        unit = field._unit
        # the numerator of one is the unit dict's twin
        if d2 is unit and o._num == unit:
            return self
        if d1 is unit and self._num == unit:
            return o
        if d1 is unit and d2 is unit:
            # _mul drops zeros; only the exponents need their check
            num = _mul(self._num, o._num)
            if field._guard:
                field._check(num)
            return ParamScalar(field, num, unit)
        return field.normalize(_mul(self._num, o._num), _mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("scalar division by zero")
        return self.field.normalize(_mul(self._num, o._den), _mul(self._den, o._num))

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        field = self.field
        num, den, unit = self._num, self._den, field._unit
        if k < 0:
            if not num:
                raise ZeroDivisionError("zero scalar has no negative powers")
            num, den, k = den, num, -k
        elif k and den is not unit:
            # powers of coprime parts are coprime, and the denominator keeps
            # its positive lead and no monomial factor: no gcd is needed
            return field._stored(_pow(field, num, k), _pow(field, den, k))
        return field.normalize(
            _pow(field, num, k), unit if den is unit else _pow(field, den, k)
        )

    def __neg__(self):
        return ParamScalar(self.field, {e: -c for e, c in self._num.items()}, self._den)

    def __pos__(self):
        return self

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        o = self._operand(other)
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

    Dict arguments map exponent tuples to ints (``{(): k}`` on the
    parameter-free field); they are copied, so the caller may modify them
    afterwards.  A coefficient that is not an ``int`` raises ``TypeError``.
    """
    if isinstance(num, dict):
        num = field._pack(num)
    if isinstance(den, dict):
        den = field._pack(den)
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


# -- sparse polynomials {key: nonzero coefficient} ------------------------


def _shift(p: dict, key: int) -> dict:
    """p divided by the monomial with key ``key``."""
    return {e - key: c for e, c in p.items()}


def _add(a: dict, b: dict) -> dict:
    """``a + b`` as a new dict, dropping the terms that cancel."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        s = get(e)
        if s is None:
            out[e] = c
        else:
            s += c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _scale(p: dict, c) -> dict:
    """``c * p``; a zero ``c`` gives ``{}``."""
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def _mul(a: dict, b: dict) -> dict:
    """``a * b``, the key of each term product the sum of the left key and
    the right one: packed monomials multiply, words concatenate in order.
    Terms that cancel are dropped; a factor ``{0: 1}`` (or ``{(): 1}``)
    returns the other factor itself."""
    if len(b) == 1:
        ((eb, cb),) = b.items()
        if not eb and cb == 1:
            return a
        return {e + eb: c * cb for e, c in a.items()}
    if len(a) == 1:
        ((ea, ca),) = a.items()
        if not ea and ca == 1:
            return b
        return {ea + e: ca * c for e, c in b.items()}
    out: dict = {}
    get = out.get
    b_items = list(b.items())
    for ea, ca in a.items():
        for eb, cb in b_items:
            e = ea + eb
            s = get(e)
            if s is None:
                out[e] = ca * cb
            else:
                s += ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _cleared(terms: Mapping) -> tuple[dict, int]:
    """Rational coefficients as integer numerators over their least common
    denominator: ``(numerators, denominator)``.  All-``int`` terms are
    returned as they are."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        if all(type(c) is int for c in terms.values()):
            return terms, 1
        return {e: c.numerator for e, c in terms.items()}, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _pow(field: ScalarField, p: dict, k: int) -> dict:
    """p^k, each exponent checked against the field's limit on the way."""
    if len(p) == 1:
        ((e, c),) = p.items()
        if field._guard:
            return {field._checked_key(x * k for x in field._exponents(e)): c**k}
        return {e * k: c**k}
    result = field._unit
    for _ in range(k):
        result = _mul(result, p)
        if field._guard:
            field._check(result)
    return result


def _eval_poly(p: dict, values) -> Fraction:
    """``{exponent tuple: coefficient}`` at ``values``, one per variable."""
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


def _assignment_report(assignment: Mapping[str, Fraction]) -> dict:
    """``{name: value text}``, sorted by name, as reports print it."""
    return {name: str(assignment[name]) for name in sorted(assignment)}


def signed_sum(terms) -> str:
    """The text of a sum of ``(negative, coefficient text, monomial text)``
    terms, in the given order.

    A coefficient of ``"1"`` before a monomial is left out, and so is an
    empty monomial (a constant term); no terms print as ``"0"``.
    """
    chunks = []
    for negative, coefficient, monomial in terms:
        if chunks:
            chunks.append(" - " if negative else " + ")
        elif negative:
            chunks.append("-")
        if not monomial:
            chunks.append(coefficient)
        elif coefficient == "1":
            chunks.append(monomial)
        else:
            chunks.append(f"{coefficient}*{monomial}")
    return "".join(chunks) or "0"


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

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against the most naive model
available — free words rewritten by literal substitution, series expanded
by explicit polynomial convolution, monomials counted by brute-force
generation — so that agreement with the package is meaningful.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
import math


# ---------------------------------------------------------------------------
# free-word rewriting
# ---------------------------------------------------------------------------


def rewrite_word(presentation, word):
    """Normal form of a free word by literal leftmost substitution.

    Elements are maps {word tuple: scalar} where a word is a tuple of
    generator indices.  Any adjacent descending pair (j, i) with j > i is
    replaced using the presentation's relation, and the process repeats
    until every word is sorted.  Returns the element as a map
    {exponent tuple: scalar}.
    """
    field = presentation.field
    n = presentation.n
    element = {tuple(word): field.one}
    while True:
        target = None
        for w in element:
            for pos in range(len(w) - 1):
                if w[pos] > w[pos + 1]:
                    target = (w, pos)
                    break
            if target:
                break
        if target is None:
            break
        w, pos = target
        coeff = element.pop(w)
        j, i = w[pos], w[pos + 1]
        rel = presentation.relation(i, j)
        prefix, suffix = w[:pos], w[pos + 2:]
        # x_j x_i -> c x_i x_j + linear + constant
        _accumulate(element, prefix + (i, j) + suffix, coeff * rel.c)
        for k in range(n):
            lin = rel.linear[k]
            if lin:
                _accumulate(element, prefix + (k,) + suffix, coeff * lin)
        if rel.constant:
            _accumulate(element, prefix + suffix, coeff * rel.constant)
    result = {}
    for w, coeff in element.items():
        if coeff:
            exponents = [0] * n
            for idx in w:
                exponents[idx] += 1
            key = tuple(exponents)
            existing = result.get(key)
            result[key] = coeff if existing is None else existing + coeff
    return {k: v for k, v in result.items() if v}


def _accumulate(element, word, coeff):
    existing = element.get(word)
    total = coeff if existing is None else existing + coeff
    if total:
        element[word] = total
    elif word in element:
        del element[word]


def free_product(left, right):
    """Product of two free-word combinations {word tuple: scalar}: every
    pair of words concatenated, no rewriting."""
    result = {}
    for wa, ca in left.items():
        for wb, cb in right.items():
            _accumulate(result, wa + wb, ca * cb)
    return result


def rewrite_product(presentation, left, right):
    """Product of two normal-form maps, rewritten word by word."""
    field = presentation.field
    result = {}
    for exp_a, ca in left.items():
        for exp_b, cb in right.items():
            word = _exp_to_word(exp_a) + _exp_to_word(exp_b)
            for exp, coeff in rewrite_word(presentation, word).items():
                existing = result.get(exp)
                total = (
                    coeff * ca * cb
                    if existing is None
                    else existing + coeff * ca * cb
                )
                if total:
                    result[exp] = total
                elif exp in result:
                    del result[exp]
    return result


def _exp_to_word(exponents):
    word = []
    for idx, e in enumerate(exponents):
        word.extend([idx] * e)
    return tuple(word)


# ---------------------------------------------------------------------------
# series and polynomial references
# ---------------------------------------------------------------------------


def series_coefficients(n, bound):
    """Coefficients of (1-t)^(-n) to degree ``bound`` by convolution."""
    series = [Fraction(1)] + [Fraction(0)] * bound
    geometric = [Fraction(1)] * (bound + 1)
    for _ in range(n):
        series = _convolve(series, geometric, bound)
    return [int(c) for c in series]


def _convolve(a, b, bound):
    out = [Fraction(0)] * (bound + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(0, bound - i + 1):
            out[i + j] += ai * b[j]
    return out


def gp_coefficients(n):
    """Coefficients of (t+1)(t+2)...(t+n-1)/(n-1)!, constant first."""
    numerator = [Fraction(1)]
    for root in range(1, n):
        next_poly = [Fraction(0)] * (len(numerator) + 1)
        for i, c in enumerate(numerator):
            next_poly[i] += c * root
            next_poly[i + 1] += c
        numerator = next_poly
    den = math.factorial(n - 1)
    return [c / den for c in numerator]


def count_monomials(n, d):
    """Number of degree-d monomials in n commuting variables, generated."""
    return sum(1 for _ in combinations_with_replacement(range(n), d))


def evaluate_poly(coefficients, k):
    return sum(c * k**i for i, c in enumerate(coefficients))


# ---------------------------------------------------------------------------
# row reduction reference
# ---------------------------------------------------------------------------


def rref(rows):
    """Reduced row echelon form over exact scalars; (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    width = len(rows[0])
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    reduced = [r for r in rows[:rank]]
    return reduced, pivots


# ---------------------------------------------------------------------------
# canonical fractions of parametric scalars
# ---------------------------------------------------------------------------


def canonical_fraction(expr, symbols):
    """Canonical (numerator, denominator) of a sympy rational function.

    ``symbols`` are the root indeterminates in field order.  The result has
    integer coefficients with no common content, coprime polynomials and a
    positive graded-lex leading coefficient in the denominator, each part a
    map {exponent tuple: int}; zero is ({}, {(0, ..., 0): 1}).
    """
    import sympy

    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    parts = [
        {m: c for m, c in sympy.Poly(p, *symbols, domain="QQ").terms() if c}
        for p in (num, den)
    ]
    if not parts[0]:
        return {}, {(0,) * len(symbols): 1}
    scale = math.lcm(*(c.q for p in parts for c in p.values()))
    n, d = ({m: int(c * scale) for m, c in p.items()} for p in parts)
    g = math.gcd(*n.values(), *d.values())
    if d[max(d, key=lambda m: (sum(m), m))] < 0:
        g = -g
    return {m: c // g for m, c in n.items()}, {m: c // g for m, c in d.items()}


# ---------------------------------------------------------------------------
# tuple-keyed parametric scalars
# ---------------------------------------------------------------------------


def _laurent_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _laurent_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class TupleScalar:
    """A fraction of Laurent polynomials ``{exponent tuple: int}``, kept
    unreduced: the reference for the package's packed ``ParamScalar``.

    Arithmetic adds exponent tuples term by term; :meth:`canonical` leaves
    all cancellation to sympy, through :func:`canonical_fraction`.
    """

    def __init__(self, num, den):
        self.num = {e: c for e, c in num.items() if c}
        self.den = {e: c for e, c in den.items() if c}
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    def __add__(self, other):
        return TupleScalar(
            _laurent_add(_laurent_mul(self.num, other.den), _laurent_mul(other.num, self.den)),
            _laurent_mul(self.den, other.den),
        )

    def __mul__(self, other):
        return TupleScalar(_laurent_mul(self.num, other.num), _laurent_mul(self.den, other.den))

    def __truediv__(self, other):
        return TupleScalar(_laurent_mul(self.num, other.den), _laurent_mul(self.den, other.num))

    def __pow__(self, k):
        num, den = (self.num, self.den) if k >= 0 else (self.den, self.num)
        one = {(0,) * len(next(iter(self.den))): 1}
        out_num, out_den = one, one
        for _ in range(abs(k)):
            out_num, out_den = _laurent_mul(out_num, num), _laurent_mul(out_den, den)
        return TupleScalar(out_num, out_den)

    def canonical(self, symbols):
        """The classical (numerator, denominator) pair, as the package's
        ``num`` and ``den`` give it."""
        import sympy

        def expr(poly):
            return sum(
                (c * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
                 for exps, c in poly.items()),
                sympy.Integer(0),
            )

        return canonical_fraction(expr(self.num) / expr(self.den), symbols)


def format_tuple_fraction(num, den, names, root_orders):
    """Text of a classical pair, by the package's printing rules: terms in
    graded-lex descending order, q^(a/k) for powers of a k-th root, and
    parentheses where a sum or product would bind wrongly."""

    def power(name, k, e):
        whole, frac = divmod(e, k)
        parts = []
        if whole:
            parts.append(name if whole == 1 else f"{name}^{whole}")
        if frac:
            parts.append(f"{name}^({frac}/{k})")
        return "*".join(parts)

    def poly(p):
        if not p:
            return "0"
        text = ""
        for exps in sorted(p, key=lambda e: (sum(e), e), reverse=True):
            c = p[exps]
            parts = [str(abs(c))] if abs(c) != 1 or not any(exps) else []
            parts += [power(n, k, e) for n, k, e in zip(names, root_orders, exps) if e]
            body = "*".join(parts)
            if not text:
                text = f"-{body}" if c < 0 else body
            else:
                text += f" - {body}" if c < 0 else f" + {body}"
        return text

    num_s = poly(num)
    if den == {(0,) * len(names): 1}:
        return num_s
    den_s = poly(den)
    if len(num) > 1:
        num_s = f"({num_s})"
    if _outside_parentheses(den_s, "*/+-"):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def format_tuple_coefficient(text):
    """(negated, body) of a scalar's text inside a printed sum."""
    core = text[1:] if text.startswith("-") else text
    if _outside_parentheses(core, "+-"):
        return False, f"({text})"
    return text.startswith("-"), core


def _outside_parentheses(text, operators):
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in operators:
            return True
    return False


def evaluate_tuple_fraction(num, den, values):
    """num/den at exact ``values`` of the root indeterminates; None where
    the denominator vanishes."""

    def at(p):
        return sum(
            (c * math.prod((v**e for v, e in zip(values, exps)), start=Fraction(1))
             for exps, c in p.items()),
            Fraction(0),
        )

    d = at(den)
    return None if d == 0 else at(num) / d

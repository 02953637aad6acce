"""Normal forms for algebras given by pair relations xj*xi = c*xi*xj + lower.

Every element has a unique expansion over the ordered monomials
x1^a1 * x2^a2 * ... * xn^an.  This module rewrites arbitrary products into
that basis by repeatedly applying the pair relations to inverted adjacent
letters.  Rewriting terminates: each step either lowers total degree (the
lower-order terms of a relation) or moves a smaller generator index leftward
at the same degree, which is a well-founded measure.

The worker is ``x_i * (ordered monomial)``; its results are memoized per
presentation, so repeated multiplications over the same presentation stay
cheap.  It peels the first letter x_j of the monomial level by level, in a
loop over x_j's exponent rather than one recursive call per degree.  Every
other product is a sequence of such steps: a term x^alpha of a left factor
multiplies the whole right factor one letter at a time, the last letter
first, and so does a free word.

One routine, ``_Engine._add``, adds every such step into a result: it adds
``f * x_i * value`` (or ``f * value``) to a dict of numerators over one
denominator.  A rewrite level, ``x_i * value`` and each term of a product or
free-word sum all go through it, so Q with integer rules, Q with fractional
rules and Q(params) share one loop; a sparse product on packed exponents
likewise adds every term product into one structure (Monagan and Pearce,
below).  The one exception is the lower letters of a rewrite level, each a
single term or memo entry, which the level adds inline.

The memo is keyed by the head of the monomial only.  Let x_top be the last
letter any relation's linear part uses (x1 if none does) and split
m = u * v, where the tail v holds the letters from x_max(i, top) on.  Then
x_i * m = (x_i * u) * v, and every term of x_i * u is built from letters
of u, x_i and linear parts, all at most x_max(i, top), so each term times
v is already ordered: v is appended by adding exponents, and only
``x_i * u`` is stored (as Singular's Plural caches products per generator
pair, not per monomial; V. Levandovskyy, PhD thesis, Kaiserslautern 2005).

Inside the engine an ordered monomial is one Python ``int``, a packed
exponent vector (M. Monagan and R. Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): each
variable owns a 32-bit field, x1 the highest, so comparing packed monomials
compares their exponent vectors lexicographically.  ``x_i * m`` needs no
rewriting exactly when ``m`` has no letter before x_i, which is one
comparison ``m < limit[i]``; appending x_i adds ``unit[i]``; the first
letter of ``m`` is read from ``m.bit_length()``.  Memo keys are ints too.
Exponent tuples stay the public form: each public call packs its operands
once and unpacks its result once.  A monomial of degree ``_DEGREE_LIMIT``
(2^31) or more is refused with a ``ValueError`` where it would be packed,
so that the product of two packed monomials always fits its fields.

Over Q the engine computes in Python ``int`` only: rules and inputs enter
as integer numerators over one denominator, and each memo entry holds
integer numerators over one positive denominator, reduced so that the two
are coprime.  ``_add`` scales each added term by one multiplier; where a
value or memo entry has a denominator that the sum's does not cover, it
first rescales the sum in place to their lcm, which only rules with
denominators ever need.  Every result is divided out into ``Fraction``
once, when it leaves the engine, so callers only ever see field elements.
Over Q(params) the coefficients are the field's own scalars over
denominator 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional

from .presentation import AlgebraPresentation, format_element
from .scalars import _Record

__all__ = [
    "NCPoly",
    "nc_add",
    "nc_scale",
    "nc_mul",
    "nc_pow",
    "variable",
    "constant",
    "monomial",
    "free_to_normal_form",
    "PbwReport",
    "check_pbw",
    "random_element",
]

NEG_INF = float("-inf")


class NCPoly:
    """An element in normal form: ordered-monomial exponent vector -> scalar.

    Instances never store zero coefficients.  Addition and negation are
    coefficient-wise; multiplication depends on the presentation and lives in
    :func:`nc_mul`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping) -> None:
        self.terms = {exp: c for exp, c in terms.items() if c}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            cur = out.get(exp)
            s = c if cur is None else cur + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly({exp: -c for exp, c in self.terms.items()})

    def degree(self):
        """Total degree; the zero element reports -inf."""
        if not self.terms:
            return NEG_INF
        return max(sum(exp) for exp in self.terms)

    def scale(self, c) -> "NCPoly":
        if not c:
            return NCPoly({})
        return NCPoly({exp: c * v for exp, v in self.terms.items()})

    def __repr__(self) -> str:
        return f"NCPoly({self.terms!r})"


def nc_add(p: NCPoly, q: NCPoly) -> NCPoly:
    return p + q


def nc_scale(p: NCPoly, c) -> NCPoly:
    return p.scale(c)


def variable(presentation: AlgebraPresentation, index: int) -> NCPoly:
    exp = [0] * presentation.n
    exp[index] = 1
    return NCPoly({tuple(exp): presentation.field.one})


def constant(presentation: AlgebraPresentation, value) -> NCPoly:
    c = presentation.field.coerce(value)
    if not c:
        return NCPoly({})
    return NCPoly({(0,) * presentation.n: c})


def monomial(presentation: AlgebraPresentation, exponents, coeff=None) -> NCPoly:
    c = presentation.field.one if coeff is None else presentation.field.coerce(coeff)
    return NCPoly({tuple(exponents): c})


# ---------------------------------------------------------------------------
# rewriting engine
# ---------------------------------------------------------------------------

# Inside the engine an ordered monomial is one int: a field of _FIELD_BITS
# bits per variable, x1 in the highest.  Every monomial that is packed has
# degree below _DEGREE_LIMIT, so the product of two still fits its fields.
_FIELD_BITS = 32
_DEGREE_LIMIT = 1 << (_FIELD_BITS - 1)


def _degree_overflow(degree) -> ValueError:
    return ValueError(
        f"monomial degree {degree} reaches the rewrite engine's limit "
        f"_DEGREE_LIMIT = 2^{_FIELD_BITS - 1}: exponents are packed into "
        f"{_FIELD_BITS}-bit fields; use lower degrees"
    )


def _cleared(terms: Mapping) -> tuple[dict, int]:
    """Rational coefficients as integer numerators over their least common
    denominator: ``(numerators, denominator)``."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return {exp: c.numerator for exp, c in terms.items()}, 1
    return {exp: c.numerator * (den // c.denominator) for exp, c in terms.items()}, den


def _widen(terms: dict, den: int) -> dict:
    """Divide a fresh result's ``int`` numerators by ``den``, as
    ``Fraction``, in place, so that no ``int`` leaves the engine."""
    if den == 1:
        for exp, c in terms.items():
            if type(c) is int:
                terms[exp] = Fraction(c)
    else:
        for exp, c in terms.items():
            terms[exp] = Fraction(c, den)
    return terms


class _Engine:
    """Memoized products over one presentation, on packed monomials.

    ``letter[i] = (limit, unit, tail, tag)`` describes x_i.  ``unit`` is the
    packed x_i, and ``x_i * m`` needs no rewriting exactly when
    ``m < limit`` (m has no letter before x_i); then it is ``m + unit``.
    Such products are computed inline and never memoized.  The one memo
    table, ``_var``, holds every other ``x_i * u`` for the head
    ``u = m - (m & tail)``, keyed by ``u + tag``; ``tail`` masks the fields
    of the letters from x_max(i, top) on, which no rewrite of ``x_i * u``
    reaches, so ``x_i * m`` is that entry with ``m & tail`` added to every
    key.  ``letter[None]`` has no letter: every key is below its limit and
    moves by 0.

    An engine value is a dict of numerators whose denominator is 1, or a
    pair ``(numerators, den)`` with an ``int`` ``den > 1`` coprime to them;
    the bare dict adds no object per memo entry where none is needed.  Over
    Q the numerators are ``int``; over Q(params) they are field elements.
    A memo entry gets a denominator other than 1 only from a rule with one.

    :meth:`_add` is the one place a product is added into a result: every
    product, rewrite level and free word adds its terms through it, over Q
    with integer or fractional rules and over Q(params) alike; only a
    rewrite level's lower letters add inline, in :meth:`_peel`.  Every
    result that leaves the engine is summed by ``_add`` last, so it is also
    the one place where a cap on the size of engine results would go.
    """

    def __init__(self, presentation: AlgebraPresentation) -> None:
        p = presentation
        n = self.n = p.n
        self.bits = _FIELD_BITS * n
        self.shifts = [_FIELD_BITS * (n - 1 - i) for i in range(n)]
        self.mask = (1 << _FIELD_BITS) - 1
        self.unit = [1 << s for s in self.shifts]
        self.rational = not p.field.params
        self.one = 1 if self.rational else p.field.one
        # rules[i][j] for x_j * x_i (i < j): the numerators of c, of the
        # lower part as (letter, d) pairs with letter None for the constant,
        # and their common denominator
        self.rules = [[None] * n for _ in range(n)]
        top = 0
        for (i, j), rel in p.relations.items():
            values = (rel.c, *rel.linear, rel.constant)
            den = 1
            if self.rational:
                den = lcm(*(v.denominator for v in values))
                values = tuple(v.numerator * (den // v.denominator) for v in values)
            linear = [(k, s) for k, s in enumerate(values[1:-1]) if s]
            if linear:
                top = max(top, linear[-1][0])
            if values[-1]:
                linear.append((None, values[-1]))
            self.rules[i][j] = (values[0], tuple(linear), den)
        self.letter = {
            i: (u << _FIELD_BITS, u, (1 << _FIELD_BITS * (n - max(i, top))) - 1,
                i << self.bits)
            for i, u in enumerate(self.unit)
        }
        self.letter[None] = (1 << self.bits, 0, 0, 0)
        self._var: dict = {}

    # packing at the public boundary

    def key(self, exponents) -> int:
        """The packed form of an exponent vector."""
        degree = sum(exponents)
        if degree >= _DEGREE_LIMIT:
            raise _degree_overflow(degree)
        m = 0
        for e in exponents:
            m = m << _FIELD_BITS | e
        # a negative entry leaves m negative
        if m < 0 or len(exponents) != self.n:
            raise ValueError(
                f"exponent vector {tuple(exponents)} should have one nonnegative "
                f"entry per generator, {self.n} in all"
            )
        return m

    def pack(self, terms: Mapping) -> tuple[dict, int]:
        """``{exponents: scalar}`` on packed keys as ``(numerators, den)``;
        over Q the coefficients are cleared to ``int``."""
        key = self.key
        packed = {key(exp): c for exp, c in terms.items()}
        return _cleared(packed) if self.rational else (packed, 1)

    def window(self, d: int) -> list[int]:
        """The packed monomials of degree <= d in a filtration window's
        order: each degree's monomials descending, the top degree first."""
        levels = [[0]]
        for _ in range(d):
            levels.append(sorted({m + u for m in levels[-1] for u in self.unit}, reverse=True))
        return [m for level in reversed(levels) for m in level]

    def unpack(self, terms: Mapping) -> dict:
        """Packed keys back to exponent tuples."""
        mask, shifts = self.mask, self.shifts
        return {tuple([m >> s & mask for s in shifts]): c for m, c in terms.items()}

    # x_i * (packed ordered monomial) in normal form.  Cached results are
    # immutable; all accumulation happens in fresh dicts, through _add but
    # for a rewrite level's lower letters.

    def _add(self, out: dict, den: int, f, i: Optional[int], value) -> int:
        """Add ``f * x_i * value`` into ``out``, or ``f * value`` when ``i``
        is None, and return the denominator of ``out`` afterwards.

        ``out`` holds numerators over ``den``, and ``f`` is a numerator over
        1.  Every term is scaled by one multiplier, computed before the loop
        and again only after a rescale: where the denominator of ``value``
        or of a memo entry does not divide ``den``, ``out`` is brought to
        their lcm in place (:func:`_rescale`).  Only rules with denominators
        lead there; an integral engine checks one ``type`` per memo hit and
        multiplies nothing when the multiplier is 1.
        """
        vd = 1
        if type(value) is tuple:
            value, vd = value
            if den % vd:
                den = _rescale(out, den, vd)
        mult = f if den == 1 else f * (den // vd)
        one = self.one
        scaled = mult is not one and mult != one
        lim, unit, tail, tag = self.letter[i]
        var = self._var
        get = out.get
        # the engine's innermost loop: each sum is inlined
        for m, cf in value.items():
            if scaled:
                cf *= mult
            if m < lim:
                m += unit
                cur = get(m)
                if cur is None:
                    out[m] = cf
                else:
                    cur += cf
                    if cur:
                        out[m] = cur
                    else:
                        del out[m]
                continue
            low = m & tail
            m -= low
            product = var.get(m + tag)
            # a memo hit is a bare dict unless a rule has a denominator
            if type(product) is not dict:
                if product is None:
                    product = self._peel(i, m)
                if type(product) is tuple:
                    # cf is a multiple of pd once pd divides den // vd
                    product, pd = product
                    if den // vd % pd:
                        common = _rescale(out, den, vd * pd)
                        cf *= common // den
                        mult *= common // den
                        den = common
                        scaled = True
                    cf //= pd
            for m2, c2 in product.items():
                m2 += low
                cur = get(m2)
                if cur is None:
                    out[m2] = cf * c2
                else:
                    cur += cf * c2
                    if cur:
                        out[m2] = cur
                    else:
                        del out[m2]
        return den

    def _peel(self, i: int, m: int):
        """``x_i * m`` for an ``m`` whose first letter comes before x_i,
        with no letter in x_i's ``tail``, and whose product is not memoized
        yet."""
        var, one = self._var, self.one
        lim, unit, _, tag = self.letter[i]
        # m = x_j^e * rest, x_j its first letter (j < i).  Walk down the
        # levels x_j^t * rest to the nearest one memoized (or t = 0), then
        # back up, one memo entry per level: no recursion per degree.
        j = self.n - 1 - (m.bit_length() - 1) // _FIELD_BITS
        step = self.unit[j]
        rest = m & (step - 1)
        level = m - step
        value = None
        while level != rest:
            value = var.get(level + tag)
            if value is not None:
                break
            level -= step
        if value is None:  # x_i * rest, whose tail is empty as m's is
            value = ({rest + unit: one} if rest < lim
                     else var.get(rest + tag) or self._peel(i, rest))
        c, lower, den = self.rules[j][i]
        add, letter = self._add, self.letter
        while level != m:
            # x_i * x_j * level = (c*x_j*x_i + sum d_k*x_k + const) * level
            out: dict = {}
            d = add(out, 1, c, j, value)
            # each lower letter is one term or memo entry, added inline: an
            # _add call per letter and level cost deep products 2-3%
            for k, dk in lower:
                klim, kunit, ktail, ktag = letter[k]
                if level < klim:
                    terms, low = {level + kunit: one}, 0
                else:
                    low = level & ktail
                    terms = var.get(level - low + ktag) or self._peel(k, level - low)
                    if type(terms) is tuple:
                        d = add(out, d, dk, k, {level: one})
                        continue
                f = dk * d
                for e, cf in terms.items():
                    e += low
                    cur = out.get(e, 0) + f * cf
                    if cur:
                        out[e] = cur
                    else:
                        del out[e]
            value = out if d == den == 1 else _value(*_reduced(out, d * den))
            level += step
            var[level + tag] = value
        return value

    def var_times_poly(self, i: int, value):
        """``x_i * value`` as an engine value."""
        out: dict = {}
        den = self._add(out, 1, self.one, i, value)
        return out if den == 1 else _value(*_reduced(out, den))

    def product(self, p_terms: Mapping, q_terms: Mapping) -> tuple[dict, int]:
        """Normal form of ``p * q`` on packed keys as ``(numerators, den)``,
        reduced.  Over Q the inputs' coefficients are ``int``.

        Each term x^alpha of ``p`` multiplies all of ``q`` one letter at a
        time, the last letter first, through :meth:`var_times_poly`, so
        every rewrite is a ``_var`` entry.  Its first letter, or for a
        constant term the scalar alone, adds into the one result through
        :meth:`_add`, so the result is always a fresh dict.
        """
        n, shifts, mask = self.n, self.shifts, self.mask
        out: dict = {}
        den = 1
        for alpha, ca in p_terms.items():
            value, first = q_terms, None
            for i in range(n - 1, -1, -1):
                for _ in range(alpha >> shifts[i] & mask):
                    if first is not None:
                        value = self.var_times_poly(first, value)
                    first = i
            den = self._add(out, den, ca, first, value)
        return _reduced(out, den)

    def mixed_product(self, p_terms: Mapping, q_terms: Mapping) -> dict:
        """``p * q`` on packed keys for the element parser: ``int``
        numerators where the denominator is 1, ``Fraction`` otherwise.  The
        two mix through the numeric tower, and the parser widens once, at
        the end."""
        pd = qd = 1
        if self.rational:
            p_terms, pd = _cleared(p_terms)
            q_terms, qd = _cleared(q_terms)
        terms, den = self.product(p_terms, q_terms)
        den *= pd * qd
        return terms if den == 1 else _widen(terms, den)


def _rescale(out: dict, den: int, d: int) -> int:
    """Bring the numerators in ``out``, over ``den``, to the lcm of ``den``
    and ``d``, in place; returns that lcm."""
    common = lcm(den, d)
    s = common // den
    for m in out:
        out[m] *= s
    return common


def _value(terms: dict, den: int):
    """``(numerators, den)`` as an engine value: the bare dict when den is 1."""
    return terms if den == 1 else (terms, den)


def _reduced(terms: dict, den: int) -> tuple[dict, int]:
    """``terms / den`` with the common factor of numerators and denominator
    divided out, so that the denominator is coprime to the numerators."""
    if den == 1:
        return terms, 1
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {exp: c // g for exp, c in terms.items()}, den // g


def _engine(presentation: AlgebraPresentation) -> _Engine:
    caches = presentation.runtime_caches()
    eng = caches.get("engine")
    if eng is None:
        eng = _Engine(presentation)
        caches["engine"] = eng
    return eng


def nc_mul(presentation: AlgebraPresentation, p: NCPoly, q: NCPoly) -> NCPoly:
    """Product in normal form.  deg(pq) <= deg(p) + deg(q)."""
    eng = _engine(presentation)
    p_terms, pd = eng.pack(p.terms)
    q_terms, qd = eng.pack(q.terms)
    terms, den = eng.product(p_terms, q_terms)
    return NCPoly(eng.unpack(_widen(terms, den * pd * qd)))


def nc_pow(presentation: AlgebraPresentation, p: NCPoly, k: int) -> NCPoly:
    if k < 0:
        raise ValueError("negative powers are not defined for elements")
    if p and k * p.degree() >= _DEGREE_LIMIT:
        raise _degree_overflow(k * p.degree())
    eng = _engine(presentation)
    p_terms, pd = eng.pack(p.terms)
    result, den = {0: eng.one}, 1
    for _ in range(k):
        # x_i * (ordered monomial) is one memo lookup; multiplying on the
        # right would walk every letter of the monomial instead
        terms, d = eng.product(p_terms, result)
        result, den = _reduced(terms, d * pd * den)
    return NCPoly(eng.unpack(_widen(result, den)))


def free_to_normal_form(presentation: AlgebraPresentation, free: Mapping) -> NCPoly:
    """Normal form of a free-word combination {word tuple: scalar}."""
    eng = _engine(presentation)
    den = 1
    if eng.rational:
        free, den = _cleared(free)
    out: dict = {}
    d = 1
    for word, coeff in free.items():
        value = {0: eng.one}
        for i in reversed(word):
            value = eng.var_times_poly(i, value)
        d = eng._add(out, d, coeff, None, value)
    return NCPoly(eng.unpack(_widen(out, d * den)))


# ---------------------------------------------------------------------------
# confluence check
# ---------------------------------------------------------------------------


class PbwReport(_Record):
    """Outcome of bounded-degree consistency checks for a presentation.

    ``ok`` means every generator triple reassociated identically and all
    sampled random triples did too.  The generator triples are the only
    overlaps of the deglex-decreasing rules, so their agreement is a proof
    that the ordered monomials form a basis (Bergman's diamond lemma).  The
    random triples are a cross-check of the engine, not part of the proof.
    """

    _fields = (
        "ok", "triples_checked", "sample_triples_checked", "degree_bound", "seed",
        "failures",
    )
    _defaults = {"failures": None}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.failures is None:
            self.failures = []  # a fresh list for each report


def random_element(
    presentation: AlgebraPresentation,
    rng: random.Random,
    max_degree: int = 3,
    max_terms: int = 2,
) -> NCPoly:
    """Sparse random element: up to max_terms monomials of degree <= max_degree
    with small nonzero integer coefficients."""
    n = presentation.n
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        exp = [0] * n
        for _ in range(degree):
            exp[rng.randrange(n)] += 1
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(exp)] = presentation.field.from_int(coeff)
    return NCPoly(terms)


def check_pbw(
    presentation: AlgebraPresentation,
    degree_bound: int = 3,
    samples: int = 20,
    seed: int = 0,
) -> PbwReport:
    """Confluence check for the rewrite rules.

    Re-associates every generator triple x_k, x_j, x_i (k > j > i) — the
    critical overlaps, whose agreement proves confluence — and, as a
    cross-check of the engine, ``samples`` random element triples of degree
    <= degree_bound.  Any mismatch is reported with the two normal
    forms; a presentation whose relations are not mutually consistent fails
    here with a concrete witness.
    """
    p = presentation
    gens = p.gens
    failures: list = []
    triples = 0
    for i in range(p.n):
        for j in range(i + 1, p.n):
            for k in range(j + 1, p.n):
                triples += 1
                xi, xj, xk = (variable(p, t) for t in (i, j, k))
                left = nc_mul(p, nc_mul(p, xk, xj), xi)
                right = nc_mul(p, xk, nc_mul(p, xj, xi))
                if left != right:
                    failures.append({
                        "kind": "overlap",
                        "triple": f"({gens[k]}, {gens[j]}, {gens[i]})",
                        "left": format_element(left.terms, gens, p.field),
                        "right": format_element(right.terms, gens, p.field),
                    })
    sampled = 0
    if samples > 0:
        # an overlaps-only check (samples=0, as the CLI's gate runs) skips the import
        import random

        rng = random.Random(seed)
    for _ in range(samples):
        a = random_element(p, rng, max_degree=degree_bound)
        b = random_element(p, rng, max_degree=degree_bound)
        c = random_element(p, rng, max_degree=degree_bound)
        sampled += 1
        left = nc_mul(p, nc_mul(p, a, b), c)
        right = nc_mul(p, a, nc_mul(p, b, c))
        if left != right:
            failures.append({
                "kind": "random",
                "triple": " ; ".join(
                    format_element(t.terms, gens, p.field) for t in (a, b, c)
                ),
                "left": format_element(left.terms, gens, p.field),
                "right": format_element(right.terms, gens, p.field),
            })
    return PbwReport(
        ok=not failures,
        triples_checked=triples,
        sample_triples_checked=sampled,
        degree_bound=degree_bound,
        seed=seed,
        failures=failures,
    )

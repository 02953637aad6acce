"""Algebra presentations: the `.sgr` text format, canonical relation form,
structural diagnostics, and presentation-level transforms.

A presentation declares a finite list of generators ``x1 .. xn`` over a central
parameter field and, for pairs ``j > i``, rewrite relations

    xj*xi = c_ij * xi*xj  +  sum_k d_ijk * xk  +  e_ij        (c_ij != 0)

Pairs without an explicit relation default to plain commutation
(``c_ij = 1``, no lower-order terms).  Relations are canonicalized on input:
any equation whose degree-2 words all live on one generator pair and that
inverts the product ``xj*xi`` is accepted and solved into the form above.

The text format::

    algebra uso3 {
      params: q inv root 2;
      vars: x1, x2, x3;
      rel: x2*x1 = q*x1*x2 - q^(1/2)*x3;
      rel: x3*x1 = 1/q*x1*x3 + 1/q^(1/2)*x2;
      rel: x3*x2 = q*x2*x3 - q^(1/2)*x1;
    }

``params`` is optional; each parameter may carry ``inv`` (must specialize to a
nonzero value) and ``root k`` (adjoins a k-th root, enabling exponents like
``q^(1/2)``).  ``#`` starts a comment.  `parse_presentation` and
`print_presentation` round-trip: parsing the canonical print returns an equal
presentation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Mapping, Optional, Union

from .scalars import (
    ParamDecl,
    Scalar,
    ScalarField,
    SpecializationError,
    _Record,
)

__all__ = [
    "Relation",
    "AlgebraPresentation",
    "Finding",
    "Diagnostics",
    "PresentationError",
    "parse_presentation",
    "print_presentation",
    "validate",
    "associated_graded",
    "specialize_presentation",
    "parse_element",
    "parse_scalar",
    "q_matrix",
    "format_element",
    "format_monomial",
]


class PresentationError(ValueError):
    """Rejection of presentation or expression text, with caret location."""

    def __init__(self, message: str, line: int = 0, col: int = 0, source_line: str = ""):
        self.message = message
        self.line = line
        self.col = col
        self.source_line = source_line
        super().__init__(self.render())

    def render(self) -> str:
        if not self.line:
            return self.message
        out = [f"{self.message}", f"  --> line {self.line}, column {self.col}"]
        if self.source_line:
            out.append("  " + self.source_line)
            out.append("  " + " " * (self.col - 1) + "^")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


class Relation(_Record):
    """Canonical relation xj*xi = c*xi*xj + sum_k linear[k]*xk + constant, i < j."""

    _fields = ("i", "j", "c", "linear", "constant")

    def is_default(self, field: ScalarField) -> bool:
        return (
            self.c == field.one
            and not any(self.linear)
            and not self.constant
        )

    def has_lower_terms(self) -> bool:
        return bool(any(self.linear) or self.constant)


class AlgebraPresentation(_Record):
    """A named algebra given by generators and canonical pair relations.

    ``relations`` is complete: every pair (i, j) with i < j has an entry
    (defaulted pairs commute).  Instances are treated as immutable; transforms
    return new presentations.
    """

    _fields = ("name", "field", "gens", "relations")

    #: Scalars commute with the generators (no twisting maps act on them).
    coefficient_action = "central"

    @property
    def n(self) -> int:
        return len(self.gens)

    def relation(self, i: int, j: int) -> Relation:
        return self.relations[(i, j)]

    def runtime_caches(self) -> dict:
        """Mutable per-presentation scratch space (rewrite memo tables)."""
        return vars(self).setdefault("_caches", {})


def make_presentation(
    name: str,
    field: ScalarField,
    gens: tuple,
    relations: Mapping,
) -> AlgebraPresentation:
    """Build a presentation, filling unmentioned pairs with commutation."""
    gens = tuple(gens)
    n = len(gens)
    zeros = tuple(field.zero for _ in range(n))
    complete = {
        (i, j): relations.get((i, j)) or Relation(i, j, field.one, zeros, field.zero)
        for i in range(n) for j in range(i + 1, n)
    }
    complete.update(relations)
    return AlgebraPresentation(name, field, gens, complete)


class Finding(_Record):
    # severity: "error" | "warning" | "info"
    _fields = ("severity", "code", "message", "line", "col")
    _defaults = {"line": 0, "col": 0}

    def to_dict(self) -> dict:
        d = {"severity": self.severity, "code": self.code, "message": self.message}
        if self.line:
            d["location"] = {"line": self.line, "column": self.col}
        else:
            d["location"] = None
        return d


class Diagnostics(_Record):
    """Validation outcome: findings plus structural classification flags."""

    _fields = ("findings", "quasi_commutative", "bijective")

    @property
    def valid(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "quasi_commutative": self.quasi_commutative,
            "bijective": self.bijective,
            "findings": [f.to_dict() for f in self.findings],
        }


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_PUNCT = set("{}(),;:=+-*/^")
# ASCII only: str.isdigit also accepts superscripts and other scripts' digits
_DIGITS = set("0123456789")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # "name" | "int" | one of _PUNCT | "eof"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list:
    tokens = []
    lines = text.splitlines() or [""]
    for lineno, raw in enumerate(lines, start=1):
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch == "#":
                break
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                start = i
                while i < len(raw) and raw[i] in _DIGITS:
                    i += 1
                tokens.append(_Token("int", raw[start:i], lineno, start + 1))
                continue
            if ch.isalpha() or ch == "_":
                start = i
                while i < len(raw) and (raw[i].isalnum() or raw[i] == "_"):
                    i += 1
                tokens.append(_Token("name", raw[start:i], lineno, start + 1))
                continue
            if ch in _PUNCT:
                tokens.append(_Token(ch, ch, lineno, i + 1))
                i += 1
                continue
            raise PresentationError(
                f"unexpected character {ch!r}", lineno, i + 1, raw
            )
    tokens.append(_Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


class _Cursor:
    """A position in the tokens of one text; failures carry line and caret."""

    def __init__(self, text: str) -> None:
        self.lines = text.splitlines() or [""]
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_keyword(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        src = self.lines[tok.line - 1] if 0 < tok.line <= len(self.lines) else ""
        raise PresentationError(message, tok.line, tok.col, src)

    def expect(self, kind, what=""):
        tok = self.peek()
        if tok.kind != kind:
            self.fail(what or f"expected {kind!r}, found {tok.text or tok.kind!r}")
        return self.take()

    def expect_keyword(self, word):
        if not self.at_keyword(word):
            tok = self.peek()
            self.fail(f"expected {word!r}, found {tok.text or tok.kind!r}")
        return self.take()


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------
#
# Values are dicts mapping a basis key to a field scalar, and the evaluator
# is told which ring they live in.  Relation sides are evaluated in the free
# algebra (keys are words, tuples of generator indices with the left factor
# first), so canonicalization sees the literal words ``xj*xi`` and ``xi*xj``.
# Element text is evaluated straight in the ordered-monomial basis (keys are
# the rewrite engine's packed monomials, products go through it), so
# ``(x1+x2+x3)^40`` never expands into 3^40 words.

# A power is evaluated by one product per unit of its exponent, so the time
# grows with the exponent; an exponent beyond this cap is refused.
_EXPONENT_CAP = 10_000

# Each parenthesis costs four nested calls of the recursive-descent parser,
# so deeper nesting is refused well before Python's recursion limit.
_NESTING_CAP = 100


def _add(field, p, q):
    out = dict(p)
    for w, c in q.items():
        s = out.get(w, field.zero) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def _scale(p, c):
    if not c:
        return {}
    return {w: c * v for w, v in p.items()}


def _free_mul(field, p, q):
    out: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            s = out.get(w, field.zero) + c1 * c2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


class _ExprParser:
    """Recursive-descent evaluator for scalar/element expressions.

    Grammar::

        expr     := ['-'] term (('+' | '-') term)*
        term     := factor (('*' | '/') factor)*
        factor   := atom ['^' exponent]
        atom     := INT | NAME | '(' expr ')'
        exponent := INT | '-' INT | '(' ['-'] INT ['/' INT] ')'

    NAME resolves to a generator or a declared parameter.  Division requires a
    scalar divisor; negative and fractional exponents require a scalar base
    (fractional ones a bare parameter with a compatible declared root).

    The ring is given by ``keys`` (generator name -> its basis key),
    ``one_key`` (the key of the unit) and ``mul`` (the product of two
    values).  A product chain ``a*b*c`` is evaluated as ``a*(b*c)`` and a power
    as ``a*(a*(...))``, the order in which a word is rewritten.
    """

    def __init__(self, cursor, field, keys, one_key, mul):
        self.cur = cursor
        self.field = field
        self.keys = keys
        self.one_key = one_key
        self.mul = mul
        self.depth = 0

    def parse_expr(self):
        cur = self.cur
        negate = False
        if cur.peek().kind == "-":
            cur.take()
            negate = True
        value = self.parse_term()
        if negate:
            value = _scale(value, -self.field.one)
        while cur.peek().kind in ("+", "-"):
            op = cur.take().kind
            rhs = self.parse_term()
            if op == "-":
                rhs = _scale(rhs, -self.field.one)
            value = _add(self.field, value, rhs)
        return value

    def parse_term(self):
        cur = self.cur
        factors = [self.parse_factor()]
        while cur.peek().kind in ("*", "/"):
            op = cur.take()
            rhs = self.parse_factor()
            if op.kind == "*":
                factors.append(rhs)
                continue
            c = self._as_scalar(rhs)
            if c is None:
                cur.fail("division by a non-scalar element", op)
            if not c:
                cur.fail("division by zero", op)
            # scalars are central: dividing the last factor is dividing the chain
            factors[-1] = _scale(factors[-1], self.field.one / c)
        value = factors.pop()
        for left in reversed(factors):
            # a scalar factor scales; multiplying by it would rewrite for nothing
            c = self._as_scalar(left)
            value = self.mul(left, value) if c is None else _scale(value, c)
        return value

    def parse_factor(self):
        cur = self.cur
        value, param_name = self.parse_atom()
        if cur.peek().kind != "^":
            return value
        caret = cur.take()
        numer, denom = self._parse_exponent()
        if abs(numer) > _EXPONENT_CAP:
            cur.fail(f"exponent {numer} exceeds _EXPONENT_CAP = {_EXPONENT_CAP}", caret)
        if denom != 1:
            if param_name is None:
                cur.fail("fractional exponent on a non-parameter", caret)
            try:
                scal = self.field.root_power(param_name, numer, denom)
            except ValueError as exc:
                cur.fail(str(exc), caret)
            return {self.one_key: scal}
        if numer < 0:
            c = self._as_scalar(value)
            if c is None:
                cur.fail("negative exponent on a non-scalar element", caret)
            if not c:
                cur.fail("negative power of zero", caret)
            return {self.one_key: c ** numer}
        out = {self.one_key: self.field.one}
        for _ in range(numer):
            out = self.mul(value, out)
        return out

    def parse_atom(self):
        cur = self.cur
        tok = cur.peek()
        if tok.kind == "int":
            cur.take()
            return {self.one_key: self.field.from_int(int(tok.text))}, None
        if tok.kind == "name":
            cur.take()
            if tok.text in self.keys:
                return {self.keys[tok.text]: self.field.one}, None
            if any(d.name == tok.text for d in self.field.params):
                return {self.one_key: self.field.parameter(tok.text)}, tok.text
            cur.fail(f"unknown name {tok.text!r}", tok)
        if tok.kind == "(":
            if self.depth == _NESTING_CAP:
                cur.fail(f"parentheses nested deeper than _NESTING_CAP = {_NESTING_CAP}", tok)
            cur.take()
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            cur.expect(")")
            return value, None
        cur.fail(f"expected a value, found {tok.text or tok.kind!r}")

    def _parse_exponent(self):
        cur = self.cur
        tok = cur.peek()
        if tok.kind == "int":
            cur.take()
            return int(tok.text), 1
        if tok.kind == "-":
            cur.take()
            num = cur.expect("int")
            return -int(num.text), 1
        if tok.kind == "(":
            cur.take()
            sign = 1
            if cur.peek().kind == "-":
                cur.take()
                sign = -1
            num = cur.expect("int")
            denom = 1
            if cur.peek().kind == "/":
                cur.take()
                denom = int(cur.expect("int").text)
                if denom == 0:
                    cur.fail("zero exponent denominator", num)
            cur.expect(")")
            return sign * int(num.text), denom
        cur.fail("malformed exponent")

    def _as_scalar(self, value):
        """The scalar a value is, widened into the field; None if it is not."""
        if not value:
            return self.field.zero
        if len(value) == 1 and self.one_key in value:
            return self.field.coerce(value[self.one_key])
        return None


# ---------------------------------------------------------------------------
# presentation parsing
# ---------------------------------------------------------------------------


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse `.sgr` text into a canonical presentation.

    Raises :class:`PresentationError` (with line/column and caret) on any
    lexical, syntactic, or structural rejection — including relations that are
    not solvable into the canonical pair form.
    """
    cur = _Cursor(text)
    cur.expect_keyword("algebra")
    name_tok = cur.expect("name", "expected an algebra name")
    cur.expect("{")

    params: list = []
    if cur.at_keyword("params"):
        cur.take()
        cur.expect(":")
        while True:
            ptok = cur.expect("name", "expected a parameter name")
            invertible = False
            root = 1
            while cur.at_keyword("inv") or cur.at_keyword("root"):
                mod = cur.take()
                if mod.text == "inv":
                    invertible = True
                else:
                    root = int(cur.expect("int", "expected a root order").text)
                    if root < 1:
                        cur.fail("root order must be >= 1", mod)
            try:
                params.append(ParamDecl(ptok.text, invertible, root))
            except ValueError as exc:
                cur.fail(str(exc), ptok)
            if cur.peek().kind != ",":
                break
            cur.take()
        cur.expect(";")

    try:
        field = ScalarField(tuple(params))
    except ValueError as exc:
        cur.fail(str(exc), name_tok)

    cur.expect_keyword("vars")
    cur.expect(":")
    gens: list = []
    while True:
        vtok = cur.expect("name", "expected a generator name")
        if vtok.text in gens:
            cur.fail(f"duplicate generator {vtok.text!r}", vtok)
        if any(d.name == vtok.text for d in params):
            cur.fail(f"generator {vtok.text!r} clashes with a parameter", vtok)
        gens.append(vtok.text)
        if cur.peek().kind != ",":
            break
        cur.take()
    cur.expect(";")

    words = {g: (k,) for k, g in enumerate(gens)}
    expr = _ExprParser(cur, field, words, (), partial(_free_mul, field))
    relations: dict = {}
    while cur.at_keyword("rel"):
        rel_tok = cur.take()
        cur.expect(":")
        lhs = expr.parse_expr()
        cur.expect("=")
        rhs = expr.parse_expr()
        cur.expect(";")
        diff = _add(field, lhs, _scale(rhs, -field.one))
        rel = _canonicalize_relation(field, diff, gens, partial(cur.fail, tok=rel_tok))
        key = (rel.i, rel.j)
        if key in relations:
            cur.fail(
                f"pair ({gens[rel.i]}, {gens[rel.j]}) already constrained",
                rel_tok,
            )
        relations[key] = rel

    cur.expect("}")
    if cur.peek().kind != "eof":
        cur.fail(f"unexpected {cur.peek().text!r} after closing brace")

    return make_presentation(name_tok.text, field, tuple(gens), relations)


def _canonicalize_relation(field, diff, gens, fail) -> Relation:
    """Solve lhs - rhs = 0 into xj*xi = c*xi*xj + linear + const."""
    quad: dict = {}
    lin: dict = {}
    const = field.zero
    for word, coeff in diff.items():
        if len(word) == 0:
            const = coeff
        elif len(word) == 1:
            lin[word[0]] = coeff
        elif len(word) == 2:
            a, b = word
            if a == b:
                fail(f"square word {gens[a]}*{gens[a]} not allowed in a relation")
            quad[word] = coeff
        else:
            fail("relation contains a word of length >= 3")

    pairs = {tuple(sorted(w)) for w in quad}
    if len(pairs) != 1:
        if not pairs:
            fail("relation has no degree-2 part")
        fail("relation mixes words on different generator pairs")
    (i, j) = pairs.pop()
    a = quad.get((j, i), field.zero)
    if not a:
        fail(
            f"relation does not invert the product {gens[j]}*{gens[i]} "
            f"(no {gens[j]}*{gens[i]} term)"
        )
    b = quad.get((i, j), field.zero)
    c = -b / a
    if not c:
        fail(f"coefficient of {gens[i]}*{gens[j]} must be nonzero")
    linear = tuple(-lin.get(k, field.zero) / a for k in range(len(gens)))
    e = -const / a
    return Relation(i, j, c, linear, e)


# ---------------------------------------------------------------------------
# element / scalar text entry points
# ---------------------------------------------------------------------------


def _evaluate(text: str, field, keys, one_key, mul) -> dict:
    cur = _Cursor(text)
    value = _ExprParser(cur, field, keys, one_key, mul).parse_expr()
    if cur.peek().kind != "eof":
        cur.fail(f"unexpected {cur.peek().text!r} after expression")
    return value


def parse_element(presentation: AlgebraPresentation, text: str):
    """Parse an element expression and return its normal form (NCPoly).

    The text is evaluated straight in the ordered-monomial basis: each
    product goes through the rewrite engine as soon as it is read, so the
    work follows the size of normal forms, not of the free expansion.
    Free-word input is `rewrite.free_to_normal_form`'s.
    """
    from . import rewrite

    eng = rewrite._engine(presentation)
    units = dict(zip(presentation.gens, eng.unit))
    value = _evaluate(text, presentation.field, units, 0, eng.mixed_product)
    return rewrite.NCPoly(eng.unpack(rewrite._widen(value, 1)))


def parse_scalar(field: ScalarField, text: str) -> Scalar:
    """Parse a pure scalar expression (no generators)."""
    value = _evaluate(text, field, {}, (), partial(_free_mul, field))
    return value.get((), field.zero)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def format_monomial(exponents, gens) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(gens[i])
        elif e > 1:
            parts.append(f"{gens[i]}^{e}")
    return "*".join(parts) if parts else "1"


def format_element(terms: Mapping, gens, field: ScalarField) -> str:
    """Canonical text of an element: graded-lex descending, leading term first."""
    items = [(exp, c) for exp, c in terms.items() if c]
    if not items:
        return "0"
    items.sort(key=lambda item: (sum(item[0]), item[0]), reverse=True)
    chunks = []
    for exp, coeff in items:
        negated, body = field.format_coefficient(coeff)
        if not any(exp):
            piece = body
        elif body == "1":
            piece = format_monomial(exp, gens)
        else:
            piece = f"{body}*{format_monomial(exp, gens)}"
        if not chunks:
            chunks.append(f"-{piece}" if negated else piece)
        else:
            chunks.append(f" - {piece}" if negated else f" + {piece}")
    return "".join(chunks)


def print_presentation(presentation: AlgebraPresentation) -> str:
    """Canonical `.sgr` text; `parse_presentation` of the output round-trips.

    Purely commuting default pairs are omitted.
    """
    p = presentation
    out = [f"algebra {p.name} {{"]
    if p.field.params:
        decls = []
        for d in p.field.params:
            s = d.name
            if d.invertible:
                s += " inv"
            if d.root_order > 1:
                s += f" root {d.root_order}"
            decls.append(s)
        out.append(f"  params: {', '.join(decls)};")
    out.append(f"  vars: {', '.join(p.gens)};")
    n = p.n
    for i in range(n):
        for j in range(i + 1, n):
            rel = p.relations[(i, j)]
            if rel.is_default(p.field):
                continue
            terms: dict = {}
            exp = [0] * n
            exp[i] += 1
            exp[j] += 1
            terms[tuple(exp)] = rel.c
            for k in range(n):
                if rel.linear[k]:
                    unit = [0] * n
                    unit[k] = 1
                    terms[tuple(unit)] = rel.linear[k]
            if rel.constant:
                terms[(0,) * n] = rel.constant
            rhs = format_element(terms, p.gens, p.field)
            out.append(f"  rel: {p.gens[j]}*{p.gens[i]} = {rhs};")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation and transforms
# ---------------------------------------------------------------------------


def validate(presentation: AlgebraPresentation) -> Diagnostics:
    """Structural diagnostics: canonical-form sanity plus classification flags.

    ``findings`` is empty exactly when the presentation is valid.
    ``quasi_commutative`` marks presentations whose relations have no
    lower-order terms; ``bijective`` reflects invertibility of all leading
    coefficients (always true once no zero-coefficient errors are present).
    """
    p = presentation
    findings: list = []
    n = p.n
    for g in p.gens:
        if not g.isidentifier():
            findings.append(Finding("error", "bad-generator", f"generator {g!r} is not an identifier"))
    if len(set(p.gens)) != n:
        findings.append(Finding("error", "bad-generator", "duplicate generator names"))
    expected = {(i, j) for i in range(n) for j in range(i + 1, n)}
    if set(p.relations) != expected:
        findings.append(Finding("error", "bad-indices", "relation keys do not cover exactly the pairs i < j"))
    quasi = True
    zero_c = False
    for (i, j), rel in sorted(p.relations.items()):
        if (rel.i, rel.j) != (i, j):
            findings.append(Finding("error", "bad-indices", f"relation stored at {(i, j)} labeled {(rel.i, rel.j)}"))
        if len(rel.linear) != n:
            findings.append(Finding(
                "error", "malformed-linear",
                f"relation ({p.gens[i]}, {p.gens[j]}) has {len(rel.linear)} linear coefficients, expected {n}",
            ))
        if not rel.c:
            zero_c = True
            findings.append(Finding(
                "error", "zero-coefficient",
                f"relation ({p.gens[i]}, {p.gens[j]}) has vanishing leading coefficient",
            ))
        if rel.has_lower_terms():
            quasi = False
    return Diagnostics(findings=findings, quasi_commutative=quasi, bijective=not zero_c)


def associated_graded(presentation: AlgebraPresentation) -> AlgebraPresentation:
    """Drop all lower-order relation terms, keeping only xj*xi = c*xi*xj.

    The result is quasi-commutative and keeps the same name, generators, and
    field.  Applying the transform twice is the same as applying it once.
    """
    p = presentation
    zeros = tuple(p.field.zero for _ in range(p.n))
    relations = {
        key: Relation(rel.i, rel.j, rel.c, zeros, p.field.zero)
        for key, rel in p.relations.items()
    }
    return AlgebraPresentation(p.name, p.field, p.gens, relations)


def specialize_presentation(
    presentation: AlgebraPresentation,
    assignment: Optional[Mapping[str, Union[Fraction, int]]] = None,
):
    """Numeric instance of a presentation over the parameter-free field.

    Returns ``(specialized_presentation, full_assignment)``.  Rejects
    unknown names, on every field, and assignments that zero any leading
    coefficient c_ij or any denominator.
    """
    p = presentation
    full = p.field.resolve_assignment(assignment)
    if not p.field.params:
        return p, full
    plain = ScalarField(())
    relations = {}
    for key, rel in p.relations.items():
        c = p.field.evaluate(rel.c, full)
        if c == 0:
            raise SpecializationError(
                f"relation {p.gens[rel.j]}*{p.gens[rel.i]}: leading coefficient "
                f"{p.field.format(rel.c)} vanishes under the assignment"
            )
        linear = tuple(p.field.evaluate(s, full) for s in rel.linear)
        const = p.field.evaluate(rel.constant, full)
        relations[key] = Relation(rel.i, rel.j, c, linear, const)
    out = AlgebraPresentation(p.name, plain, p.gens, relations)
    return out, full


def q_matrix(presentation: AlgebraPresentation):
    """The n x n matrix of leading coefficients: entry (i, j) = c_ij for
    i < j, its inverse at (j, i), and 1 on the diagonal."""
    p = presentation
    n = p.n
    one = p.field.one
    rows = [[one for _ in range(n)] for _ in range(n)]
    for (i, j), rel in p.relations.items():
        rows[i][j] = rel.c
        rows[j][i] = one / rel.c
    return rows

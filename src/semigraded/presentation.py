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

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import ClassVar, Mapping, Optional, Union

from .scalars import (
    ParamDecl,
    Scalar,
    ScalarField,
    SpecializationError,
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


@dataclass
class Relation:
    """Canonical relation xj*xi = c*xi*xj + sum_k linear[k]*xk + constant, i < j."""

    i: int
    j: int
    c: Scalar
    linear: tuple
    constant: Scalar

    def is_default(self, field: ScalarField) -> bool:
        return (
            self.c == field.one
            and not any(self.linear)
            and not self.constant
        )

    def has_lower_terms(self) -> bool:
        return bool(any(self.linear) or self.constant)


@dataclass
class AlgebraPresentation:
    """A named algebra given by generators and canonical pair relations.

    ``relations`` is complete: every pair (i, j) with i < j has an entry
    (defaulted pairs commute).  Instances are treated as immutable; transforms
    return new presentations.
    """

    name: str
    field: ScalarField
    gens: tuple
    relations: dict
    _caches: Optional[dict] = dc_field(default=None, compare=False, repr=False)

    #: Scalars commute with the generators (no twisting maps act on them).
    coefficient_action: ClassVar[str] = "central"

    @property
    def n(self) -> int:
        return len(self.gens)

    def relation(self, i: int, j: int) -> Relation:
        return self.relations[(i, j)]

    def runtime_caches(self) -> dict:
        """Mutable per-presentation scratch space (rewrite memo tables)."""
        if self._caches is None:
            self._caches = {}
        return self._caches


def make_presentation(
    name: str,
    field: ScalarField,
    gens: tuple,
    relations: Mapping,
) -> AlgebraPresentation:
    """Build a presentation, filling unmentioned pairs with commutation."""
    gens = tuple(gens)
    n = len(gens)
    complete: dict = {}
    zeros = tuple(field.zero for _ in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            complete[(i, j)] = Relation(i, j, field.one, zeros, field.zero)
    for key, rel in relations.items():
        complete[key] = rel
    return AlgebraPresentation(name, field, gens, complete)


@dataclass
class Finding:
    severity: str  # "error" | "warning" | "info"
    code: str
    message: str
    line: int = 0
    col: int = 0

    def to_dict(self) -> dict:
        d = {"severity": self.severity, "code": self.code, "message": self.message}
        if self.line:
            d["location"] = {"line": self.line, "column": self.col}
        else:
            d["location"] = None
        return d


@dataclass
class Diagnostics:
    """Validation outcome: findings plus structural classification flags."""

    findings: list
    quasi_commutative: bool
    bijective: bool

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


@dataclass
class _Token:
    kind: str  # "name" | "int" | one of _PUNCT | "eof"
    text: str
    line: int
    col: int


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
            if ch.isdigit():
                start = i
                while i < len(raw) and raw[i].isdigit():
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


# ---------------------------------------------------------------------------
# expression evaluation (free words over the generators)
# ---------------------------------------------------------------------------
#
# Expressions evaluate in the free algebra first: values are dicts mapping a
# word (tuple of generator indices, left factor first) to a field scalar.
# Relation sides stay free so canonicalization can see the literal words; for
# normal-form evaluation the caller pushes each word through the rewriter.


def _free_add(field, p, q):
    out = dict(p)
    for w, c in q.items():
        s = out.get(w, field.zero) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def _free_scale(field, p, c):
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
    """

    def __init__(self, tokens, pos, field, var_index, lines):
        self.tokens = tokens
        self.pos = pos
        self.field = field
        self.var_index = var_index
        self.lines = lines

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        src = self.lines[tok.line - 1] if 0 < tok.line <= len(self.lines) else ""
        raise PresentationError(message, tok.line, tok.col, src)

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or tok.kind!r}")
        return self.take()

    def parse_expr(self):
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        value = self.parse_term()
        if negate:
            value = _free_scale(self.field, value, -self.field.one)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.parse_term()
            if op == "-":
                rhs = _free_scale(self.field, rhs, -self.field.one)
            value = _free_add(self.field, value, rhs)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op.kind == "*":
                value = _free_mul(self.field, value, rhs)
            else:
                c = self._as_scalar(rhs)
                if c is None:
                    self.fail("division by a non-scalar element", op)
                if not c:
                    self.fail("division by zero", op)
                value = _free_scale(self.field, value, self.field.one / c)
        return value

    def parse_factor(self):
        value, param_name = self.parse_atom()
        if self.peek().kind != "^":
            return value
        caret = self.take()
        numer, denom = self._parse_exponent()
        if denom != 1:
            if param_name is None:
                self.fail("fractional exponent on a non-parameter", caret)
            try:
                scal = self.field.root_power(param_name, numer, denom)
            except ValueError as exc:
                self.fail(str(exc), caret)
            return {(): scal}
        if numer < 0:
            c = self._as_scalar(value)
            if c is None:
                self.fail("negative exponent on a non-scalar element", caret)
            if not c:
                self.fail("negative power of zero", caret)
            return {(): c ** numer}
        out = {(): self.field.one}
        for _ in range(numer):
            out = _free_mul(self.field, out, value)
        return out

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return {(): self.field.from_int(int(tok.text))}, None
        if tok.kind == "name":
            self.take()
            if tok.text in self.var_index:
                return {(self.var_index[tok.text],): self.field.one}, None
            if any(d.name == tok.text for d in self.field.params):
                return {(): self.field.parameter(tok.text)}, tok.text
            self.fail(f"unknown name {tok.text!r}", tok)
        if tok.kind == "(":
            self.take()
            value = self.parse_expr()
            self.expect(")")
            return value, None
        self.fail(f"expected a value, found {tok.text or tok.kind!r}")

    def _parse_exponent(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return int(tok.text), 1
        if tok.kind == "-":
            self.take()
            num = self.expect("int")
            return -int(num.text), 1
        if tok.kind == "(":
            self.take()
            sign = 1
            if self.peek().kind == "-":
                self.take()
                sign = -1
            num = self.expect("int")
            denom = 1
            if self.peek().kind == "/":
                self.take()
                denom = int(self.expect("int").text)
                if denom == 0:
                    self.fail("zero exponent denominator", num)
            self.expect(")")
            return sign * int(num.text), denom
        self.fail("malformed exponent")

    def _as_scalar(self, value):
        if not value:
            return self.field.zero
        if set(value) == {()}:
            return value[()]
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
    lines = text.splitlines() or [""]
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def fail(message, tok=None):
        tok = tok or peek()
        src = lines[tok.line - 1] if 0 < tok.line <= len(lines) else ""
        raise PresentationError(message, tok.line, tok.col, src)

    def expect(kind, what=""):
        tok = peek()
        if tok.kind != kind:
            fail(what or f"expected {kind!r}, found {tok.text or tok.kind!r}")
        return take()

    def expect_keyword(word):
        tok = peek()
        if tok.kind != "name" or tok.text != word:
            fail(f"expected {word!r}, found {tok.text or tok.kind!r}")
        return take()

    expect_keyword("algebra")
    name_tok = expect("name", "expected an algebra name")
    expect("{")

    params: list = []
    if peek().kind == "name" and peek().text == "params":
        take()
        expect(":")
        while True:
            ptok = expect("name", "expected a parameter name")
            invertible = False
            root = 1
            while peek().kind == "name" and peek().text in ("inv", "root"):
                mod = take()
                if mod.text == "inv":
                    invertible = True
                else:
                    root = int(expect("int", "expected a root order").text)
                    if root < 1:
                        fail("root order must be >= 1", mod)
            try:
                params.append(ParamDecl(ptok.text, invertible, root))
            except ValueError as exc:
                fail(str(exc), ptok)
            if peek().kind == ",":
                take()
                continue
            break
        expect(";")

    try:
        field = ScalarField(tuple(params))
    except ValueError as exc:
        fail(str(exc), name_tok)

    expect_keyword("vars")
    expect(":")
    gens: list = []
    while True:
        vtok = expect("name", "expected a generator name")
        if vtok.text in gens:
            fail(f"duplicate generator {vtok.text!r}", vtok)
        if any(d.name == vtok.text for d in params):
            fail(f"generator {vtok.text!r} clashes with a parameter", vtok)
        gens.append(vtok.text)
        if peek().kind == ",":
            take()
            continue
        break
    expect(";")
    var_index = {g: k for k, g in enumerate(gens)}
    n = len(gens)

    relations: dict = {}
    while peek().kind == "name" and peek().text == "rel":
        rel_tok = take()
        expect(":")
        parser = _ExprParser(tokens, pos, field, var_index, lines)
        lhs = parser.parse_expr()
        pos = parser.pos
        expect("=")
        parser = _ExprParser(tokens, pos, field, var_index, lines)
        rhs = parser.parse_expr()
        pos = parser.pos
        expect(";")
        diff = _free_add(field, lhs, _free_scale(field, rhs, -field.one))
        rel = _canonicalize_relation(field, n, diff, rel_tok, lines, gens)
        key = (rel.i, rel.j)
        if key in relations:
            fail(
                f"pair ({gens[rel.i]}, {gens[rel.j]}) already constrained",
                rel_tok,
            )
        relations[key] = rel

    expect("}")
    if peek().kind != "eof":
        fail(f"unexpected {peek().text!r} after closing brace")

    return make_presentation(name_tok.text, field, tuple(gens), relations)


def _canonicalize_relation(field, n, diff, rel_tok, lines, gens) -> Relation:
    """Solve lhs - rhs = 0 into xj*xi = c*xi*xj + linear + const."""

    def fail(message):
        src = lines[rel_tok.line - 1] if 0 < rel_tok.line <= len(lines) else ""
        raise PresentationError(message, rel_tok.line, rel_tok.col, src)

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
    linear = tuple(-lin.get(k, field.zero) / a for k in range(n))
    e = -const / a
    return Relation(i, j, c, linear, e)


# ---------------------------------------------------------------------------
# element / scalar text entry points
# ---------------------------------------------------------------------------


def _parse_free(presentation: AlgebraPresentation, text: str) -> dict:
    lines = text.splitlines() or [""]
    tokens = _tokenize(text)
    var_index = {g: k for k, g in enumerate(presentation.gens)}
    parser = _ExprParser(tokens, 0, presentation.field, var_index, lines)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        src = lines[tok.line - 1] if 0 < tok.line <= len(lines) else ""
        raise PresentationError(
            f"unexpected {tok.text!r} after expression", tok.line, tok.col, src
        )
    return value


def parse_element(presentation: AlgebraPresentation, text: str):
    """Parse an element expression and return its normal form (NCPoly)."""
    from . import rewrite

    free = _parse_free(presentation, text)
    return rewrite.free_to_normal_form(presentation, free)


def parse_scalar(field: ScalarField, text: str) -> Scalar:
    """Parse a pure scalar expression (no generators)."""
    dummy = AlgebraPresentation("_", field, (), {})
    free = _parse_free(dummy, text)
    if not free:
        return field.zero
    if set(free) != {()}:
        raise PresentationError("expected a scalar, found generators")
    return free[()]


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
    expected_pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
    if set(p.relations) != expected_pairs:
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
    assignments that zero any leading coefficient c_ij or any denominator.
    """
    p = presentation
    if not p.field.params:
        return p, {}
    full = p.field.resolve_assignment(assignment)
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

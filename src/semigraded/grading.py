"""Degree decomposition, filtration windows, and the semi-graded criterion.

The standard filtration of an algebra with PBW basis assigns every monomial
its total degree.  This module decomposes elements into homogeneous pieces,
counts the degree-k monomials by the closed form C(n+k-1, k), enumerates the
finite-dimensional window F_d of all monomials of degree at most d,
intersects left ideals with such windows (as a lower approximation, monotone
in d), and tests whether a window subspace is closed under taking
homogeneous components — the finite-window version of the semi-graded
submodule criterion.  A window is enumerated once, degree by degree, as the
rewrite engine's packed monomials (each degree's from the one below, by
adding every letter), which also serve as the keys of its columns; exponent
tuples are unpacked only where a window is handed out.  ``tests/oracles.py``
checks the counts and the window bases against brute-force generation;
nothing re-derives them at runtime.

Linear algebra is exact over Q after the parameters have been
specialized; the resulting subspace records which specialization was used.
All of it goes through one sparse echelon pivoting on a row's leading
monomial, which keeps primitive integer rows, eliminates fraction-free and
divides by the pivots only when it hands out the reduced rows.  A reduced
row echelon form is unique for a fixed column order, so ranks, pivots and
witnesses are reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .presentation import (
    AlgebraPresentation, format_element, format_monomial, specialize_presentation,
)
from . import rewrite
from .rewrite import NCPoly
from .scalars import ScalarField, _FrozenRecord, _Record

__all__ = [
    "FiltrationWindow",
    "WindowSubspace",
    "SemigradedReport",
    "homogeneous_components",
    "window_dims",
    "left_ideal_window",
    "is_semigraded_window",
]


# ---------------------------------------------------------------------------
# homogeneous decomposition
# ---------------------------------------------------------------------------


def homogeneous_components(p: NCPoly) -> list[tuple[int, NCPoly]]:
    """Split ``p`` into its homogeneous pieces, lowest degree first.

    Returns ``[(degree, piece), ...]`` with strictly increasing degrees and
    every piece nonzero; the pieces sum back to ``p``.  The zero element has
    no components.
    """
    buckets: dict[int, dict] = {}
    for exp, coeff in p.terms.items():
        buckets.setdefault(sum(exp), {})[exp] = coeff
    return [(k, NCPoly(buckets[k])) for k in sorted(buckets)]


# ---------------------------------------------------------------------------
# monomial counting
# ---------------------------------------------------------------------------


def degree_count(n: int, k: int) -> int:
    """Number of degree-k monomials in n commuting variables: C(n+k-1, k).

    With no variables only the constant monomial exists.  The closed form is
    checked against a brute-force count in ``tests/oracles.py``.
    """
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n + k - 1, k)


def window_dims(presentation: AlgebraPresentation, d: int) -> list[int]:
    """Per-degree dimensions ``[dim A_0, ..., dim A_d]`` of the PBW basis.

    Each entry is the closed form :func:`degree_count`, which
    ``tests/oracles.py`` checks against enumerated exponent vectors.
    """
    if d < 0:
        raise ValueError(f"degree bound must be >= 0, got {d}")
    return [degree_count(presentation.n, k) for k in range(d + 1)]


# ---------------------------------------------------------------------------
# filtration windows
# ---------------------------------------------------------------------------


class FiltrationWindow(_FrozenRecord):
    """All monomials of degree <= d, ordered leading-first (descending deglex).

    ``basis`` lists exponent vectors sorted by (total degree, exponents)
    descending, so the constant monomial comes last.  ``dimension`` equals
    the stars-and-bars count C(n+d, d).
    """

    _fields = ("gens", "d", "basis")

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index_of(self, exponents: tuple) -> int:
        return self._positions[exponents]

    @property
    def _positions(self) -> dict:
        cached = self.__dict__.get("_positions_cache")
        if cached is None:
            cached = {exp: c for c, exp in enumerate(self.basis)}
            object.__setattr__(self, "_positions_cache", cached)
        return cached


def filtration_window(presentation: AlgebraPresentation, d: int) -> FiltrationWindow:
    """The window F_d of ``presentation``: all monomials of degree <= d."""
    return _window(presentation, d)[0]


def _window(presentation: AlgebraPresentation, d: int) -> tuple[FiltrationWindow, list, dict]:
    """F_d, its basis as the rewrite engine's packed monomials in window
    order, and the map from each packed monomial to its column."""
    if d < 0:
        raise ValueError(f"degree bound must be >= 0, got {d}")
    eng = rewrite._engine(presentation)
    packed = eng.window(d)
    column = {m: c for c, m in enumerate(packed)}
    basis = tuple(eng.unpack(column))
    return FiltrationWindow(tuple(presentation.gens), d, basis), packed, column


# ---------------------------------------------------------------------------
# row reduction over the integers
# ---------------------------------------------------------------------------


class Echelon:
    """A row space as sparse primitive integer rows ``{key: int}``.

    Keys are any ints, and ``pivots`` maps each row's lowest key to the row.
    A window keys its rows by column, so in its descending-deglex order the
    pivot is the leading monomial; frame growth in ``invariants`` keys them
    by negated packed monomial, so the pivot is the lex-largest monomial,
    since the rewrite engine packs x1 highest.  A stored row has entries with
    gcd 1 and a positive lead; rational input is cleared by the lcm of its
    denominators on the way in.  Elimination is fraction-free,
    ``h * row - a * pivot``, and every division (by a row's content, by its
    lead at the output) is exact, as in E. Bareiss, Math. Comp. 22, 1968.
    Rows are only lead-reduced until :meth:`back_substitute`; :meth:`rref`
    back-substitutes and divides by the leads once, at the output.
    """

    def __init__(self, rows: Iterable[Mapping[int, Fraction]] = ()) -> None:
        self.pivots: dict[int, dict] = {}
        for row in rows:
            self.insert(row)

    def reduce(self, row: Mapping[int, Fraction]) -> dict:
        """Eliminate the lead of ``row`` until it is not a pivot; returns the
        rest as integers, a multiple of the exact remainder.

        The lead is looked up afresh after every subtraction, because a
        pivot row can bring in columns the input did not have.  An all-``int``
        row has no denominators to clear and is only copied.
        """
        if all(type(x) is int for x in row.values()):
            row = dict(row)
        else:
            den = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        while row:
            lead = min(row)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            _eliminate(row, row[lead], hit, hit[lead])
        return row

    def insert(self, row: Mapping[int, Fraction]) -> Optional[dict]:
        """Add ``row``; returns its new pivot row, or None if already spanned."""
        row = self.reduce(row)
        if not row:
            return None
        lead = min(row)
        row = _primitive(row, row[lead])
        self.pivots[lead] = row
        return row

    def contains(self, row: Mapping[int, Fraction]) -> bool:
        return not self.reduce(row)

    def back_substitute(self) -> None:
        """Clear every pivot column from the other rows, in integers.

        Rows are reduced from the highest pivot down, so every row
        subtracted is already free of the other pivots; each stays
        primitive, and afterwards is a multiple of its reduced row.
        """
        pivots = self.pivots
        for lead in sorted(pivots, reverse=True):
            row = pivots[lead]
            cols = [c for c in row if c != lead and c in pivots]
            for col in cols:
                other = pivots[col]
                _eliminate(row, row[col], other, other[col])
            if cols:
                pivots[lead] = _primitive(row, row[lead])

    def rref(self) -> list[dict]:
        """The reduced rows in increasing pivot order, pivots normalized to 1."""
        self.back_substitute()
        pivots = self.pivots
        return [
            {c: Fraction(x, row[lead]) for c, x in row.items()}
            for lead, row in sorted(pivots.items())
        ]


def _eliminate(row: dict, a: int, other: Mapping[int, int], h: int) -> None:
    """``row = h * row - a * other`` in place, with ``a / h`` in lowest terms
    (``h > 0``), dropping entries that cancel."""
    g = gcd(a, h)
    if g != 1:
        a //= g
        h //= g
    if h != 1:
        for c in row:
            row[c] *= h
    for c, x in other.items():
        value = row.get(c, 0) - a * x
        if value:
            row[c] = value
        else:
            del row[c]


def _primitive(row: dict, lead: int) -> dict:
    """``row`` divided by the gcd of its entries, signed so the lead is positive."""
    g = gcd(*row.values())
    if lead < 0:
        g = -g
    if g == 1:
        return row
    return {c: x // g for c, x in row.items()}


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of dense rows, through :class:`Echelon`.

    Returns the nonzero rows (pivots normalized to 1, eliminated above and
    below) and their pivot columns, which are strictly increasing.  For a
    fixed column order the RREF is unique, so the result is the same byte for
    byte whichever rows are eliminated first.
    """
    ncols = len(rows[0]) if rows else 0
    reduced = Echelon({c: x for c, x in enumerate(row) if x} for row in rows).rref()
    return _dense(reduced, ncols), [min(row) for row in reduced]


def _dense(reduced: list[dict], ncols: int) -> list[list[Fraction]]:
    zero = Fraction(0)
    return [[row.get(c, zero) for c in range(ncols)] for row in reduced]


class WindowSubspace(_Record):
    """A subspace of a filtration window in reduced row echelon form.

    ``echelon`` holds it as back-substituted primitive integer rows, one
    per pivot column; ``pivots`` lists those columns in increasing order,
    and the rank is their count.  ``rows``, computed on first use, are the
    dense reduced rows: exact rational coordinates relative to
    ``window.basis``, pivots normalized to 1.  ``specialization`` records
    the parameter assignment under which the coordinates were computed
    (values apply to the declared root of each parameter).
    """

    _fields = ("window", "specialization", "pivots")

    def __init__(self, window, specialization, pivots, echelon: Echelon) -> None:
        super().__init__(window, specialization, pivots)
        self.echelon = echelon

    @cached_property
    def rows(self) -> list[list[Fraction]]:
        return _dense(self.echelon.rref(), self.window.dimension)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_monomials(self) -> list[str]:
        return [
            format_monomial(self.window.basis[col], self.window.gens)
            for col in self.pivots
        ]

    def contains(self, vector: Sequence[Fraction]) -> bool:
        """Whether ``vector`` lies in the row space."""
        return self.echelon.contains({c: x for c, x in enumerate(vector) if x})

    def to_dict(self) -> dict:
        return {
            "window_degree": self.window.d,
            "specialization": {
                name: str(value) for name, value in sorted(self.specialization.items())
            },
            "rank": self.rank,
            "pivot_monomials": self.pivot_monomials(),
        }


# The work of an ideal window grows with its dimension C(n+d, d), not with d
# alone: dispin at d = 40 (dimension 12,341) takes seconds, at d = 60 about
# half a minute.  A larger window is refused.
_WINDOW_DIMENSION_CAP = 10_000


def left_ideal_window(
    presentation: AlgebraPresentation,
    generators: Sequence[NCPoly],
    d: int,
    specialization: Optional[Mapping[str, Union[Fraction, int]]] = None,
) -> WindowSubspace:
    """Degree-``d`` window of the left ideal spanned by ``generators``.

    Spans the normal forms of all products (monomial) * (generator) whose
    degree fits in the window, with parameters specialized to exact
    rationals first.  This is a lower approximation of the true ideal
    intersected with F_d, and its rank is monotone nondecreasing in ``d``.
    Each product is taken on the rewrite engine's packed monomials and
    enters one echelon as an integer row keyed by column; a row's scale
    does not change its span, so the product's denominator is dropped.
    A window of dimension above ``_WINDOW_DIMENSION_CAP`` raises
    ``ValueError``.
    """
    dimension = comb(presentation.n + d, presentation.n) if d >= 0 else 0
    if dimension > _WINDOW_DIMENSION_CAP:
        raise ValueError(
            f"an ideal window of degree {d} in {presentation.n} variables has "
            f"dimension {dimension} (> _WINDOW_DIMENSION_CAP = "
            f"{_WINDOW_DIMENSION_CAP}); lower the window degree"
        )
    spec_pres, full = specialize_presentation(presentation, specialization)
    window, packed, column = _window(spec_pres, d)
    eng = rewrite._engine(spec_pres)
    field = presentation.field
    echelon = Echelon()
    for gen in generators:
        spec_gen = NCPoly(
            {exp: field.evaluate(coeff, full) for exp, coeff in gen.terms.items()}
        )
        if not spec_gen:
            continue
        budget = d - spec_gen.degree()
        if budget < 0:
            continue
        g_terms = eng.pack(spec_gen.terms)[0]
        # the monomials of degree <= budget end the window
        for mu in packed[-comb(presentation.n + budget, budget):]:
            terms = eng.product({mu: 1}, g_terms)[0]
            echelon.insert({column[m]: x for m, x in terms.items()})
    echelon.back_substitute()
    return WindowSubspace(window, dict(full), sorted(echelon.pivots), echelon)


# ---------------------------------------------------------------------------
# semi-graded criterion on a window
# ---------------------------------------------------------------------------


class SemigradedReport(_Record):
    """Outcome of the window criterion: every homogeneous component of every
    element of the subspace must itself lie in the subspace.

    A negative answer carries a witness (the offending element, the degree of
    the escaping component, and the component itself).  A negative at window
    degree d refutes semi-gradedness only as far as the window approximation
    reaches, so the report records the window.
    """

    _fields = ("ok", "window_degree", "witness")
    _defaults = {"witness": None}

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "window_degree": self.window_degree,
            "witness": self.witness,
        }


def is_semigraded_window(ws: WindowSubspace) -> SemigradedReport:
    """Test whether the subspace is closed under homogeneous components.

    Checks each reduced row: its coordinates are split by monomial degree and
    every degree slice must reduce to zero against the row space.  The zero
    subspace passes vacuously.  The rows are the echelon's, in increasing
    pivot order; a row's scale changes neither test, and the witness divides
    by the lead, as the reduced row does.
    """
    window = ws.window
    degrees = [sum(exp) for exp in window.basis]
    field = ScalarField(())
    for lead, row in sorted(ws.echelon.pivots.items()):
        slices: dict[int, dict] = {}
        for c, x in row.items():
            slices.setdefault(degrees[c], {})[c] = x
        if len(slices) <= 1:
            continue
        for k in sorted(slices):
            if not ws.echelon.contains(slices[k]):
                h = row[lead]
                witness = {
                    "row": format_element(
                        {window.basis[c]: Fraction(x, h) for c, x in row.items()},
                        window.gens, field,
                    ),
                    "degree": k,
                    "component": format_element(
                        {window.basis[c]: Fraction(x, h) for c, x in slices[k].items()},
                        window.gens, field,
                    ),
                }
                return SemigradedReport(False, window.d, witness)
    return SemigradedReport(True, window.d)

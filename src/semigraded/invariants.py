"""Hilbert-type growth invariants of the standard filtration.

For an algebra with an n-variable PBW basis the degree-k slice has dimension
C(n+k-1, k).  This module packages that as a Hilbert series (closed form
1/(1-t)^n plus an exact truncation), a Hilbert polynomial of degree n-1 (the
falling product (t+1)...(t+n-1)/(n-1)!), and the growth dimension n = 1 + deg
of the polynomial, together with an empirical estimator that measures the
growth of powers of a finite-dimensional generating frame and fits the growth
exponent by least squares on a log-log scale.  Each function body is the
closed form; ``tests/oracles.py`` checks the closed forms against series
convolution, brute-force monomial counts and polynomial evaluation.  A frame
that spans no full window is grown literally, in one echelon keyed by the
rewrite engine's packed monomials: only ranks are reported, so no window is
enumerated to number its columns.

All series and polynomial arithmetic is exact (integers and Fractions);
floating point enters only in the logarithms of the estimator fit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Mapping, Optional, Sequence, Union

from .grading import Echelon, _specialized, degree_count
from .presentation import AlgebraPresentation
from . import rewrite
from .scalars import (
    ParamDecl, ScalarField, SpecializationError, _assignment_report, _cleared,
    _eval_poly, _format_assignment, _FrozenRecord, _Record,
)

__all__ = [
    "HilbertData",
    "Frame",
    "GkEstimate",
    "hilbert_function",
    "hilbert_series",
    "hilbert_polynomial",
    "format_polynomial",
    "ggk_exact",
    "ggk_estimate",
]


# ---------------------------------------------------------------------------
# Hilbert function / series / polynomial
# ---------------------------------------------------------------------------

_POLYNOMIAL_TRUNCATION = 50

# hilbert_series lists one coefficient per degree up to its bound, so the
# time and the report grow with the bound; a bound beyond this cap is refused.
_TRUNCATION_CAP = 10_000


class HilbertData(_Record):
    """Exact growth data of an n-variable PBW algebra.

    ``truncated_coefficients[k]`` is the dimension C(n+k-1, k) of the
    degree-k slice for k up to the chosen bound; the closed form of the
    generating series is 1/(1-t)^n.  ``polynomial_coefficients`` lists the
    Hilbert polynomial's exact rational coefficients, constant term first
    (``None`` only in the degenerate zero-variable case); its degree is
    n - 1.  ``tests/oracles.py`` checks that it evaluates to the truncated
    coefficients and that its coefficients are strictly positive.
    """

    _fields = (
        "n", "series_denominator_exponent", "truncated_coefficients",
        "polynomial_coefficients",
    )

    @property
    def ggk(self) -> int:
        return self.n

    def polynomial_value(self, k: int) -> Fraction:
        if self.polynomial_coefficients is None:
            raise ValueError("no polynomial in the zero-variable case")
        coefficients = enumerate(self.polynomial_coefficients)
        return _eval_poly({(e,): c for e, c in coefficients}, (k,))

    def to_dict(self) -> dict:
        coefficients = self.polynomial_coefficients
        polynomial = None if coefficients is None else _cleared_polynomial(coefficients)
        exponent = self.series_denominator_exponent
        return {
            "n": self.n,
            "series": "1" if exponent == 0 else f"1/(1-t)^{exponent}",
            "coefficients": list(self.truncated_coefficients),
            "polynomial": polynomial,
            "ggk": self.ggk,
        }


def hilbert_function(presentation: AlgebraPresentation, k: int) -> int:
    """Dimension C(n+k-1, k) of the degree-k slice of the PBW basis.

    ``tests/oracles.py`` checks the closed form against a brute-force count.
    """
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return degree_count(presentation.n, k)


def hilbert_series(presentation: AlgebraPresentation, K: int) -> HilbertData:
    """Series data truncated at degree ``K`` plus the Hilbert polynomial.

    The truncation lists the closed-form slice dimensions C(n+k-1, k), which
    ``tests/oracles.py`` checks against the power series of 1/(1-t)^n
    expanded by convolution; the polynomial part is attached whenever n >= 1.
    """
    if K < 0:
        raise ValueError(f"truncation bound must be >= 0, got {K}")
    if K > _TRUNCATION_CAP:
        raise ValueError(
            f"truncation bound {K} exceeds _TRUNCATION_CAP = {_TRUNCATION_CAP}; "
            "the closed form gives the degree-k coefficient as C(n+k-1, k)"
        )
    n = presentation.n
    coefficients = tuple(degree_count(n, k) for k in range(K + 1))
    polynomial = gp_coefficients(n) if n >= 1 else None
    return HilbertData(n, n, coefficients, polynomial)


def hilbert_polynomial(presentation: AlgebraPresentation) -> HilbertData:
    """Hilbert polynomial of degree n-1, with the series truncated at 50.

    The coefficients are those of :func:`gp_coefficients`;
    ``tests/oracles.py`` checks them against the falling product and their
    values against C(n+k-1, k) for every k in 0..50.
    """
    if presentation.n < 1:
        raise ValueError("the Hilbert polynomial needs at least one variable")
    return hilbert_series(presentation, _POLYNOMIAL_TRUNCATION)


def gp_coefficients(n: int) -> tuple:
    """Coefficients of (t+1)(t+2)...(t+n-1)/(n-1)! for n >= 1, constant first.

    The polynomial has degree n-1, strictly positive coefficients, and takes
    the value C(n+k-1, k) at every k >= 0.
    """
    coeffs = [1]
    for i in range(1, n):
        coeffs = [i * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    denominator = math.factorial(n - 1)
    return tuple(Fraction(c, denominator) for c in coeffs)


# Q(t): a Hilbert polynomial prints as an element of it
_POLYNOMIALS = ScalarField((ParamDecl("t"),))


def format_polynomial(coefficients: Sequence[Fraction]) -> str:
    """Render exact rational polynomial coefficients (constant first).

    The polynomial is printed as an element of Q(t): numerators over the
    least common denominator, highest degree first, a multi-term numerator
    in parentheses — e.g. "(t^2 + 3*t + 2)/2".  The numerators share no
    factor with that denominator, so the field cancels nothing.
    """
    numerators, denominator = _cleared(dict(enumerate(coefficients)))
    return _POLYNOMIALS.format(_POLYNOMIALS.normalize(numerators, denominator))


def _cleared_polynomial(coefficients: Sequence[Fraction]) -> dict:
    """Rational coefficients, constant first, as integer numerators over
    their least common denominator, as reports list them."""
    numerators, denominator = _cleared(dict(enumerate(coefficients)))
    return {"denominator": denominator, "numerator_coefficients": list(numerators.values())}


# ---------------------------------------------------------------------------
# growth dimension: exact value and empirical estimator
# ---------------------------------------------------------------------------


def ggk_exact(presentation: AlgebraPresentation) -> int:
    """The growth dimension: the variable count n, equal to 1 + deg(Gp)."""
    return presentation.n


class Frame(_FrozenRecord):
    """A finite-dimensional generating subspace, given by a spanning basis.

    The span must contain 1 and the basis must stay linearly independent
    under the active specialization; both are enforced when the frame is
    used by the estimator.
    """

    _fields = ("basis",)

    def __init__(self, basis: tuple) -> None:
        if not basis:
            raise ValueError("a frame needs at least one basis element")
        vars(self).update(basis=basis)


class GkEstimate(_Record):
    """Fit report of the growth estimator.

    ``estimate`` is the least-squares slope of ln f(k) against ln k over the
    sample points, where f(k) is the dimension of the k-th power of the
    frame; ``pointwise`` lists log_k f(k) at the same points.  ``method``
    records how f was computed: "closed_form" (default frame),
    "window_power" (frame spans a full filtration window), or "span_growth"
    (literal iterated products).
    """

    _fields = (
        "estimate", "method", "k_max", "sample_points", "dims", "pointwise",
        "specialization",
    )
    _defaults = {"specialization": None}

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "method": self.method,
            "k_max": self.k_max,
            "samples": [
                {"k": k, "dim": dim, "log_k_dim": pw}
                for k, dim, pw in zip(self.sample_points, self.dims, self.pointwise)
            ],
            "specialization": (
                None if self.specialization is None
                else _assignment_report(self.specialization)
            ),
        }


def sample_points(k_max: int) -> tuple:
    """Dyadic anchors {k_max, k_max/2, k_max/4} plus an arithmetic tail.

    The tail spaces six steps evenly between k_max/4 and k_max, so large k
    dominate the fit.
    """
    quarter = k_max // 4
    points = {k_max, k_max // 2, quarter}
    for i in range(7):
        points.add(quarter + round(i * (k_max - quarter) / 6))
    return tuple(sorted(p for p in points if p >= 1))


def _fit_slope(points: Sequence[int], dims: Sequence[int]) -> float:
    xs = [math.log(k) for k in points]
    ys = [math.log(d) for d in dims]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least two distinct sample points")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def _pointwise(points: Sequence[int], dims: Sequence[int]) -> tuple:
    out = []
    for k, d in zip(points, dims):
        if k <= 1:
            out.append(float("nan"))
        else:
            out.append(math.log(d) / math.log(k))
    return tuple(out)


_GROWTH_DIMENSION_CAP = 3_000


def ggk_estimate(
    presentation: AlgebraPresentation,
    frame: Optional[Frame] = None,
    k_max: int = 200,
    specialization: Optional[Mapping[str, Union[Fraction, int]]] = None,
) -> GkEstimate:
    """Empirical growth exponent from the dimensions of frame powers.

    With the default frame (span of 1 and the generators) the k-th power is
    the full degree-k window, so f(k) = C(n+k, k) in closed form.  That
    form uses no specialization and the estimate records none, but a bad
    one is refused there as on every path.  A custom frame whose span is a
    full window F_D likewise gives f(k) = C(n+kD, kD):
    products of k window-D monomials reach every monomial of degree kD, one
    commutation at a time, because leading coefficients stay invertible.
    Any other frame is grown literally — S_{k+1} = span of (frame element) *
    (row of S_k) — which is exact but only affordable while the rows use
    few monomials, which bounds their rank and length: past
    ``_GROWTH_DIMENSION_CAP`` of them (at most dim F_{D*k}) a ValueError
    explains the options.  A round that adds no row ends the growth, since
    every later power spans the same space, so k_max itself costs nothing.

    One echelon serves the frame checks and the growth, its rows the
    rewrite engine's output as it is, pivoting on their lex-largest
    monomials.  Each round multiplies the frame into the rows added last
    round (earlier rows were already absorbed).  A product's scale does not
    change its span, so its denominator is dropped, and a one-letter factor
    c*x_i multiplies a row in one engine step.
    """
    if k_max < 8:
        raise ValueError(f"k_max must be >= 8, got {k_max}")
    n = presentation.n
    if n == 0:
        raise ValueError("the growth estimator needs at least one variable")
    points = sample_points(k_max)

    if frame is None:
        presentation.field.resolve_assignment(specialization)
        dims = tuple(comb(n + k, k) for k in points)
        return GkEstimate(
            _fit_slope(points, dims), "closed_form", k_max, points, dims,
            _pointwise(points, dims), None,
        )

    spec_pres, full, basis = _specialized(presentation, frame.basis, specialization)
    degrees, packed = zip(*basis)
    if not all(packed):
        raise _frame_error("degenerates to zero", full)
    eng = rewrite._engine(spec_pres)
    echelon = Echelon((), max)
    frontier = []
    for b in packed:
        row = echelon.insert(b)
        if row is None:
            raise _frame_error("is linearly dependent", full)
        frontier.append(row)
    if not echelon.contains({0: 1}):
        raise ValueError("the frame span must contain 1")

    degree = max(degrees)
    if len(echelon.pivots) == comb(n + degree, degree) and degree >= 1:
        dims = tuple(comb(n + k * degree, k * degree) for k in points)
        return GkEstimate(
            _fit_slope(points, dims), "window_power", k_max, points, dims,
            _pointwise(points, dims), dict(full),
        )

    letters = {u: i for i, u in enumerate(eng.unit)}
    factors = [
        (letters.get(next(iter(b))) if len(b) == 1 else None, b)
        for b in packed if set(b) != {0}
    ]
    support = set().union(*packed)  # every monomial a row can hold
    ranks = [0, len(echelon.pivots)]  # ranks[k] = f(k)
    while frontier and len(ranks) <= k_max:
        fresh: list[dict] = []
        for i, b in factors:
            for row in frontier:
                if i is None:
                    terms = eng.product(b, row)[0]
                else:
                    terms = eng.var_times_multiple(i, row)
                support.update(terms)
                if len(support) > _GROWTH_DIMENSION_CAP:
                    raise ValueError(
                        f"span growth reached {len(support)} monomials at k = "
                        f"{len(ranks)}, past _GROWTH_DIMENSION_CAP = "
                        f"{_GROWTH_DIMENSION_CAP}; lower k_max or use a frame that "
                        "spans a full filtration window, which has a closed form"
                    )
                added = echelon.adopt(terms)
                if added is not None:
                    fresh.append(added)
        frontier = fresh
        ranks.append(len(echelon.pivots))
    # a round that adds no row ends the growth: every later power of the
    # frame spans the same space
    dims = tuple(ranks[min(k, len(ranks) - 1)] for k in points)
    return GkEstimate(
        _fit_slope(points, dims), "span_growth", k_max, points, dims,
        _pointwise(points, dims), dict(full),
    )


def _frame_error(problem: str, full: dict) -> ValueError:
    """A refused frame basis; the message names the specialization and
    suggests another only where the presentation has parameters."""
    if not full:
        return ValueError(f"frame basis {problem}")
    return SpecializationError(
        f"frame basis {problem} under the specialization "
        f"{_format_assignment(full)}; try a different specialization"
    )

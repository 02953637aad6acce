"""Registry of known algebras with recorded growth-invariant strings.

Each entry records a ring's display name, the exponent of its closed-form
series 1/(1-t)^e (possibly symbolic in n, m, r), and a recorded polynomial
string.  Verification evaluates the closed forms at the entry's dimension and
compares: recorded strings are never corrected, only flagged when they
disagree with the derivation.  ``tests/oracles.py`` checks the closed forms
themselves.

A subset of entries is executable: they carry builders producing concrete
presentations (several variants for the multi-type rows), which are
additionally validated, checked for resolving overlaps, reported with their
window dimensions, and compared with a recorded coefficient matrix of the
associated graded ring where one is known.  Each builder states its
presentation as ``.sgr`` text, the relations as a user would write them,
and returns ``parse_presentation`` of it, so catalog presentations pass
through the same canonicalization and checks as user input.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional

from .grading import window_dims
from .invariants import format_polynomial, gp_coefficients
from .presentation import (
    AlgebraPresentation,
    parse_presentation,
    parse_scalar,
    print_presentation,
    q_matrix,
    sgr_text,
    validate,
)
from .rewrite import check_pbw
from .scalars import Fraction, _FrozenRecord

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "catalog_list",
    "catalog_entry",
    "catalog_verify",
    "export_presentations",
    "recorded_gp_matches",
    "DEFAULT_BINDINGS",
]


class CatalogError(ValueError):
    """Bad bindings or an unknown entry."""


DEFAULT_BINDINGS = {"n": 3, "r": 1, "m": 3}

_GENERIC_GP = {
    "n": "1/(n-1)![t^(n-1)+...+1]",
    "m": "1/(m-1)![t^(m-1)+...+1]",
    "2n": "1/(2n-1)![t^(2n-1)+...+1]",
    "n-1": "1/(n-2)![t^(n-2)+...+1]",
    "n-r": "1/(n-r-1)![t^(n-r-1)+...+1]",
}

_GH_STRINGS = {
    "1": "1/(1-t)",
    "2": "1/(1-t)^2",
    "3": "1/(1-t)^3",
    "6": "1/(1-t)^6",
    "n": "1/(1-t)^n",
    "m": "1/(1-t)^m",
    "2n": "1/(1-t)^(2n)",
    "n-1": "1/(1-t)^(n-1)",
    "n-r": "1/(1-t)^(n-r)",
}


class CatalogEntry(_FrozenRecord):
    """One registry row: recorded strings plus optional executable builders.

    ``table_n`` is the series exponent as recorded (symbolic expressions in
    n, m, r allowed); ``gh_string`` / ``gp_string`` are the recorded series
    and polynomial, ``explicit_gp`` its (denominator, numerators
    constant-first) if given.  ``builders`` maps variant names to presentation
    builders taking a bindings map; ``stated_q_matrix`` is the recorded
    coefficient matrix of the associated graded ring ("ones" for the
    commutative case), compared entrywise during verification.
    """

    _fields = (
        "key", "name", "table_id", "table_n", "gh_string", "gp_string",
        "explicit_gp", "builders", "stated_q_matrix", "notes",
    )
    _defaults = {"explicit_gp": None, "builders": (), "stated_q_matrix": None, "notes": ()}

    @property
    def executable(self) -> bool:
        return bool(self.builders)

    @property
    def symbols(self) -> tuple:
        return tuple(s for s in ("n", "m", "r") if s in self.table_n)

    def presentations(self, bindings: Optional[Mapping[str, int]] = None) -> list:
        """Build all executable variants under the given bindings."""
        merged = dict(DEFAULT_BINDINGS)
        merged.update(bindings or {})
        return [(name, build(merged)) for name, build in self.builders]

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "name": self.name,
            "table": self.table_id,
            "table_n": self.table_n,
            "gh": self.gh_string,
            "gp": self.gp_string,
            "executable": self.executable,
            "variants": [name for name, _ in self.builders],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# executable presentation builders
# ---------------------------------------------------------------------------


def _vars(n: int, stem: str = "x") -> tuple:
    return tuple(f"{stem}{i + 1}" for i in range(n))


def build_enveloping(n: int) -> AlgebraPresentation:
    """Enveloping-algebra model in n variables.

    n = 1 and 2 are the abelian and the nonabelian two-dimensional Lie
    algebras; n >= 3 is sl2 extended by a central abelian complement, so the
    bracket closes and the PBW property holds for every n.
    """
    if n >= 3:
        relations = ("x2*x1 = x1*x2 - x3", "x3*x1 = x1*x3 + 2*x1", "x3*x2 = x2*x3 - 2*x2")
    else:
        relations = ("x2*x1 = x1*x2 - x1",) if n == 2 else ()
    return parse_presentation(sgr_text(f"enveloping{n}", _vars(n), relations))


def build_weyl(n: int) -> AlgebraPresentation:
    """Weyl-type model: 2n variables, y_i acting as d/dx_i."""
    gens = _vars(n) + _vars(n, "y")
    relations = [f"y{i}*x{i} = x{i}*y{i} + 1" for i in range(1, n + 1)]
    return parse_presentation(sgr_text(f"weyl{n}", gens, relations))


def build_quantum_space(n: int) -> AlgebraPresentation:
    """Multiparametric quantum affine space: x_j x_i = q_ij x_i x_j."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return parse_presentation(sgr_text(
        f"quantum_space{n}", _vars(n),
        [f"x{j}*x{i} = q{i}{j}*x{i}*x{j}" for i, j in pairs],
        [f"q{i}{j} inv" for i, j in pairs],
    ))


def build_uso3(_: int = 3) -> AlgebraPresentation:
    return parse_presentation(sgr_text("uso3", _vars(3), (
        "x2*x1 = q*x1*x2 - q^(1/2)*x3",
        "x3*x1 = 1/q*x1*x3 + 1/q^(1/2)*x2",
        "x3*x2 = q*x2*x3 - q^(1/2)*x1",
    ), ("q inv root 2",)))


def build_dispin(_: int = 3) -> AlgebraPresentation:
    return parse_presentation(sgr_text("dispin", _vars(3), (
        "x2*x1 = x1*x2 - x1",
        "x3*x1 = -x1*x3 + x2",
        "x3*x2 = x2*x3 - x3",
    )))


def build_woronowicz(_: int = 3) -> AlgebraPresentation:
    return parse_presentation(sgr_text("woronowicz", _vars(3), (
        "x2*x1 = 1/nu^2*x1*x2 - 1/nu*x3",
        "x3*x1 = 1/nu^4*x1*x3 - (1/nu^4 + 1/nu^2)*x1",
        "x3*x2 = nu^4*x2*x3 + (1 + nu^2)*x2",
    ), ("nu inv",)))


#: The commutators ([x2,x3], [x3,x1], [x1,x2]) of the eight three-variable
#: types; types 1-4 carry the invertible parameter beta on the (x1, x3) pair.
_SKEW3D_TYPES = {
    1: ("x3", "x2", "x1"),
    2: ("0", "x2", "0"),
    3: ("x3", "0", "x1"),
    4: ("x3", "0", "0"),
    5: ("x1", "x2", "x3"),
    6: ("0", "0", "x3"),
    7: ("-x2", "x1 + x2", "0"),
    8: ("x3", "x3", "0"),
}


def build_skew3d(type_number: int) -> AlgebraPresentation:
    """One of the eight three-variable types, stated by its commutators.

    [x2,x3] = t1, [x3,x1] = t2 (with x3 x1 - beta x1 x3 = t2 when the type
    carries the parameter), [x1,x2] = t3.  In the second relation of type 8
    the right-hand generator is recorded ambiguously at the source; x3 is
    the unique completion whose overlap relation closes, so that is what
    this builder uses.
    """
    t1, t2, t3 = _SKEW3D_TYPES[type_number]
    has_beta = type_number <= 4
    beta = "beta" if has_beta else "1"
    return parse_presentation(sgr_text(f"skew3d_type{type_number}", _vars(3), (
        f"x2*x3 - x3*x2 = {t1}",
        f"x3*x1 - {beta}*x1*x3 = {t2}",
        f"x1*x2 - x2*x1 = {t3}",
    ), ("beta inv",) if has_beta else ()))


_USO3_Q_MATRIX = (
    ("1", "q", "q^-1"),
    ("q^-1", "1", "q"),
    ("q", "q^-1", "1"),
)
_DISPIN_Q_MATRIX = (
    ("1", "1", "-1"),
    ("1", "1", "1"),
    ("-1", "1", "1"),
)
_WORONOWICZ_Q_MATRIX = (
    ("1", "nu^-2", "nu^-4"),
    ("nu^2", "1", "nu^4"),
    ("nu^4", "nu^-4", "1"),
)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_REGISTRY: Optional[tuple] = None


def _entry(
    key: str,
    name: str,
    table_id: int,
    table_n: str,
    gp: Optional[tuple] = None,  # (string, (denominator, numerators constant-first))
    builders: tuple = (),
    stated_q_matrix: object = None,
    notes: tuple = (),
) -> CatalogEntry:
    gh = _GH_STRINGS[table_n]
    gp_string, explicit_gp = gp if gp is not None else (_GENERIC_GP.get(table_n), None)
    if gp_string is None:
        raise AssertionError(f"no polynomial string rule for dimension {table_n!r}")
    return CatalogEntry(
        key, name, table_id, table_n, gh, gp_string,
        explicit_gp=explicit_gp, builders=builders,
        stated_q_matrix=stated_q_matrix, notes=notes,
    )


def _fixed_builder(build: Callable[[], AlgebraPresentation]):
    return lambda bindings: build()


def _build_registry() -> tuple:
    flat_gp_1 = ("1", (1, (1,)))
    flat_gp_t1 = ("t+1", (1, (1, 1)))
    gp_bracket3 = ("1/2[t^2+3t+1]", (2, (1, 3, 1)))
    gp_bracket6 = (
        "1/120[t^5+15t^4+85t^3+217t^2+274t+120]",
        (120, (120, 274, 217, 85, 15, 1)),
    )

    entries = [
        _entry("habitual_polynomial_ring", "Habitual polynomial ring R[x1,...,xn]", 1, "n"),
        _entry(
            "ore_extension_bijective",
            "Ore extension of bijective type R[x1;sigma1,delta1]...[xn;sigman,deltan]",
            1, "n",
        ),
        _entry(
            "weyl", "Weyl algebra A_n(K)", 1, "n",
            builders=(("weyl", lambda b: build_weyl(b["n"])),),
            notes=("semi_graduation_differs",),
        ),
        _entry("extended_weyl", "Extended Weyl algebra B_n(K)", 1, "n"),
        _entry(
            "enveloping",
            "Enveloping algebra of a Lie algebra G of dimension n, U(G)", 1, "n",
            builders=(("enveloping", lambda b: build_enveloping(b["n"])),),
            stated_q_matrix="ones",
        ),
        _entry("tensor_enveloping", "Tensor product R (x) U(G)", 1, "n"),
        _entry("crossed_enveloping", "Crossed product R * U(G)", 1, "n"),
        _entry(
            "q_differential_operators",
            "Algebra of q-differential operators D_{q,h}[x,y]", 1, "1",
            gp=flat_gp_1,
        ),
        _entry(
            "shift_operators", "Algebra of shift operators S_h", 1, "1",
            gp=flat_gp_1,
        ),
        _entry(
            "mixed_dh", "Mixed algebra D_h", 1, "2",
            gp=flat_gp_t1,
        ),
        _entry(
            "discrete_linear_systems",
            "Discrete linear systems K[t1,...,tn][x1;sigma1]...[xn;sigman]", 1, "n",
        ),
        _entry(
            "lp_shift_poly",
            "Linear partial shift operators K[t1,...,tn][E1,...,En]", 1, "n",
        ),
        _entry(
            "lp_shift_rational",
            "Linear partial shift operators K(t1,...,tn)[E1,...,En]", 1, "n",
        ),
        _entry(
            "lp_differential_poly",
            "Linear partial differential operators K[t1,...,tn][d1,...,dn]", 1, "n",
        ),
        _entry(
            "lp_differential_rational",
            "Linear partial differential operators K(t1,...,tn)[d1,...,dn]", 1, "n",
        ),
        _entry(
            "lp_difference_poly",
            "Linear partial difference operators K[t1,...,tn][D1,...,Dn]", 1, "n",
        ),
        _entry(
            "lp_difference_rational",
            "Linear partial difference operators K(t1,...,tn)[D1,...,Dn]", 1, "n",
        ),
        _entry(
            "lp_qdilation_poly",
            "Linear partial q-dilation operators K[t1,...,tn][H1,...,Hm]", 1, "m",
        ),
        _entry(
            "lp_qdilation_rational",
            "Linear partial q-dilation operators K(t1,...,tn)[H1,...,Hm]", 1, "m",
        ),
        _entry(
            "lp_qdifferential_poly",
            "Linear partial q-differential operators K[t1,...,tn][D1,...,Dm]", 1, "m",
        ),
        _entry(
            "lp_qdifferential_rational",
            "Linear partial q-differential operators K(t1,...,tn)[D1,...,Dm]", 1, "m",
        ),
        _entry("diffusion", "Diffusion algebras", 1, "n"),
        _entry(
            "additive_weyl_analogue",
            "Additive analogue of the Weyl algebra A_n(q1,...,qn)", 1, "n",
        ),
        _entry(
            "multiplicative_weyl_analogue",
            "Multiplicative analogue of the Weyl algebra O_n(lambda_ji)", 1, "n-1",
        ),
        _entry(
            "uso3", "Quantum algebra U'(so(3,K))", 1, "3",
            gp=gp_bracket3,
            builders=(("uso3", _fixed_builder(build_uso3)),),
            stated_q_matrix=_USO3_Q_MATRIX,
        ),
        _entry(
            "skew3d", "3-dimensional skew polynomial algebras", 1, "3",
            gp=gp_bracket3,
            builders=tuple(
                (f"skew3d_type{t}", (lambda t: lambda b: build_skew3d(t))(t))
                for t in range(1, 9)
            ),
        ),
        _entry(
            "dispin", "Dispin algebra U(osp(1,2))", 1, "3",
            gp=gp_bracket3,
            builders=(("dispin", _fixed_builder(build_dispin)),),
            stated_q_matrix=_DISPIN_Q_MATRIX,
        ),
        _entry(
            "woronowicz", "Woronowicz algebra W_nu(sl(2,K))", 1, "3",
            gp=gp_bracket3,
            builders=(("woronowicz", _fixed_builder(build_woronowicz)),),
            stated_q_matrix=_WORONOWICZ_Q_MATRIX,
        ),
        _entry(
            "vq_sl3", "Complex algebra V_q(sl3(C))", 1, "6",
            gp=gp_bracket6,
        ),
        _entry("algebra_u", "Algebra U", 1, "2n"),
        _entry(
            "manin", "Manin algebra O_q(M_2(K))", 1, "3",
            gp=gp_bracket3,
        ),
        _entry(
            "slq2", "Coordinate algebra of the quantum group SL_q(2)", 1, "3",
            gp=gp_bracket3,
        ),
        _entry("q_heisenberg", "q-Heisenberg algebra H_n(q)", 1, "2n"),
        _entry(
            "uq_sl2",
            "Quantum enveloping algebra of sl(2,K), U_q(sl(2,K))", 1, "2",
            gp=flat_gp_t1,
        ),
        _entry("hayashi", "Hayashi algebra W_q(J)", 1, "2n"),
        _entry(
            "diff_ops_quantum_space",
            "Differential operators on a quantum space S_q, D_q(S_q)", 1, "n",
        ),
        _entry(
            "witten_deformation", "Witten's deformation of U(sl(2,K))", 1, "1",
            gp=flat_gp_1,
        ),
        _entry(
            "maltsiniotis_weyl",
            "Quantum Weyl algebra of Maltsiniotis A_n^{q,lambda}", 1, "2",
            gp=flat_gp_t1,
        ),
        _entry(
            "quantum_weyl_qpij", "Quantum Weyl algebra A_n(q,p_ij)", 1, "2",
            gp=flat_gp_t1,
        ),
        _entry(
            "multiparameter_weyl", "Multiparameter Weyl algebra A_n^{Q,Gamma}(K)", 1, "2",
            gp=flat_gp_t1,
        ),
        _entry(
            "quantum_symplectic", "Quantum symplectic space O_q(sp(K^2n))", 1, "2",
            gp=flat_gp_t1,
        ),
        _entry(
            "quadratic_3var", "Quadratic algebras in 3 variables", 1, "1",
            gp=flat_gp_1,
        ),
        # localized / quantum-polynomial rows
        _entry(
            "skew_quantum_space_r",
            "n-Multiparametric skew quantum space R_{q,sigma}[x1,...,xn]", 2, "n",
        ),
        _entry(
            "quantum_space_r", "n-Multiparametric quantum space R_q[x1,...,xn]", 2, "n",
        ),
        _entry(
            "skew_quantum_space_k",
            "n-Multiparametric skew quantum space K_{q,sigma}[x1,...,xn]", 2, "n",
        ),
        _entry(
            "quantum_space_k", "n-Multiparametric quantum space K_q[x1,...,xn]", 2, "n",
            builders=(("quantum_space", lambda b: build_quantum_space(b["n"])),),
        ),
        _entry(
            "skew_quantum_polynomials_r",
            "Ring of skew quantum polynomials R_{q,sigma}[x1^+-1,...,xr^+-1,x_{r+1},...,xn]",
            2, "n-r",
        ),
        _entry(
            "quantum_polynomials_r",
            "Ring of quantum polynomials R_q[x1^+-1,...,xr^+-1,x_{r+1},...,xn]", 2, "n-r",
        ),
        _entry(
            "skew_quantum_polynomials_k",
            "Algebra of skew quantum polynomials K_{q,sigma}[x1^+-1,...,xr^+-1,x_{r+1},...,xn]",
            2, "n-r",
        ),
        _entry(
            "quantum_polynomials_k",
            "Algebra of quantum polynomials O_q = K_q[x1^+-1,...,xr^+-1,x_{r+1},...,xn]",
            2, "n-r",
        ),
    ]
    keys = [e.key for e in entries]
    if len(set(keys)) != len(keys):
        raise AssertionError("duplicate catalog keys")
    return tuple(entries)


def catalog_list() -> tuple:
    """All registry entries, in table order."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def catalog_entry(key: str) -> CatalogEntry:
    for entry in catalog_list():
        if entry.key == key:
            return entry
    raise CatalogError(f"unknown catalog entry {key!r}")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _dim_value(expr: str, bindings: Mapping[str, int]) -> int:
    def need(symbol: str) -> int:
        if symbol not in bindings:
            raise CatalogError(f"binding missing for symbol {symbol!r}")
        value = bindings[symbol]
        if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 8:
            raise CatalogError(f"binding {symbol}={value!r} must be an integer in 1..8")
        return value

    if expr.isdigit():
        return int(expr)
    if expr == "n":
        return need("n")
    if expr == "m":
        return need("m")
    if expr == "2n":
        return 2 * need("n")
    if expr == "n-1":
        return need("n") - 1
    if expr == "n-r":
        return need("n") - need("r")
    raise CatalogError(f"unsupported dimension expression {expr!r}")


def recorded_gp_matches(entry: CatalogEntry, coefficients: tuple) -> bool:
    """Whether the entry's recorded polynomial equals ``coefficients``
    (constant first).

    Generic rows abbreviate the bracket's interior coefficients; the intended
    literal reading is ambiguous, so they have no exact recording, are
    verified against the derived polynomial only and always match.
    """
    if entry.explicit_gp is None:
        return True
    den, numerators = entry.explicit_gp
    return tuple(Fraction(num, den) for num in numerators) == coefficients


def catalog_verify(
    entry: CatalogEntry, bindings: Optional[Mapping[str, int]] = None
) -> dict:
    """Compare an entry's recorded strings against derived invariants.

    Resolves symbolic dimensions with ``bindings`` (falling back to the
    defaults), evaluates the closed-form series and polynomial at that
    dimension, and reports per-field agreement.  Executable entries are
    also built and validated: each reports its window dimensions to degree
    10 (a closed form, which ``tests/oracles.py`` checks against
    brute-force counts) and, as ``window_ok``, whether every overlap
    resolves.  The ordered monomials then form a basis (Bergman's diamond
    lemma), so the listed dimensions are the algebra's.  The associated
    graded coefficient matrix must match the recorded one where present.
    """
    merged = dict(DEFAULT_BINDINGS)
    merged.update(bindings or {})
    e = _dim_value(entry.table_n, merged)
    if e < 1:
        raise CatalogError(
            f"dimension {entry.table_n!r} resolves to {e} under "
            f"{ {s: merged[s] for s in entry.symbols} }; need a value >= 1"
        )
    formula_gp_coeffs = gp_coefficients(e)
    formula_den = math.factorial(e - 1)
    formula_numerators = tuple(int(c * formula_den) for c in formula_gp_coeffs)

    matches_gp = recorded_gp_matches(entry, formula_gp_coeffs)
    if entry.explicit_gp is not None:
        table_den, table_numerators = entry.explicit_gp
        gp_comparison = "exact"
        table_gp_resolved = {
            "denominator": table_den,
            "numerator_coefficients": list(table_numerators),
            "abbreviated": False,
        }
    else:
        gp_comparison = "abbreviated"
        table_gp_resolved = {
            "denominator": formula_den,
            "numerator_coefficients": list(formula_numerators),
            "abbreviated": True,
            "compared": "formula-only",
        }

    report: dict = {
        "entry": entry.key,
        "name": entry.name,
        "table": entry.table_id,
        "bindings": {s: merged[s] for s in entry.symbols},
        "dimension": e,
        "table_gh": entry.gh_string,
        "formula_gh": f"1/(1-t)^{e}",
        "table_gh_exponent": e,
        "formula_gh_exponent": e,
        "table_gp": entry.gp_string,
        "formula_gp": format_polynomial(formula_gp_coeffs),
        "table_gp_resolved": table_gp_resolved,
        "gp_comparison": gp_comparison,
        "matches_formula": {"gh": True, "gp": matches_gp},
        "executable": entry.executable,
        "flags": [],
    }
    if not matches_gp:
        report["flags"].append("gp-table-mismatch")
    if "semi_graduation_differs" in entry.notes:
        report["flags"].append("semi-graduation-differs")

    if entry.executable:
        variants = []
        for variant_name, p in entry.presentations(merged):
            item = {
                "variant": variant_name,
                "n": p.n,
                "valid": validate(p).valid,
                "window_ok": check_pbw(p, samples=0).ok,
                "window_dims": window_dims(p, 10),
            }
            if entry.stated_q_matrix is not None:
                item["q_matrix_ok"] = _q_matrix_matches(p, entry.stated_q_matrix)
            variants.append(item)
        report["variants"] = variants

    return report


def _q_matrix_matches(p: AlgebraPresentation, stated) -> bool:
    matrix = q_matrix(p)
    n = p.n
    if stated == "ones":
        return all(matrix[i][j] == p.field.one for i in range(n) for j in range(n))
    if len(stated) != n:
        return False
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != parse_scalar(p.field, stated[i][j]):
                return False
    return True


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_presentations(
    out_dir: str, bindings: Optional[Mapping[str, int]] = None
) -> list:
    """Write every executable variant to ``<out_dir>/<variant>.sgr``."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for entry in catalog_list():
        for _, p in entry.presentations(bindings):
            path = os.path.join(out_dir, f"{p.name}.sgr")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(print_presentation(p))
            written.append(path)
    return sorted(written)

"""Command-line interface binding the whole package.

Subcommands parse presentation files, compute normal forms and growth
invariants, run the consistency and semi-gradedness checks, and query the
catalog.  Every command emits a report with the same top-level shape:

    {command, fingerprint, results, warnings, timing_ms}

JSON output is key-sorted and byte-identical across runs for identical
inputs (timing is reported as null there; the text format shows real
timings).  The fingerprint is a content hash of the canonical presentation
print, so it is stable under whitespace and relation reordering in the
input file.

Every subcommand is a function ``(subject, args) -> (results, warnings,
ok)``; ``subject`` is the parsed presentation, or the catalog bindings for
``catalog``.  ``main`` alone checks flag floors, loads the file, computes
the fingerprint, times the call, emits the report and maps errors to exit
codes: 0 on success, 1 on domain errors (parse/validation/specialization
failures, overlaps that do not resolve, a cap), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

try:
    # hashlib loads the OpenSSL binding on every call; the builtin module
    # gives the same digest (as random does for _sha512)
    from _sha256 import sha256
except ImportError:
    try:  # Python 3.12 renamed it _sha2
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .catalog import (
    DEFAULT_BINDINGS,
    catalog_entry,
    catalog_list,
    catalog_verify,
    export_presentations,
    recorded_gp_matches,
)
from .grading import left_ideal_window, is_semigraded_window
from .invariants import (
    Frame,
    format_polynomial,
    ggk_estimate,
    ggk_exact,
    gp_coefficients,
    hilbert_series,
)
from .presentation import (
    associated_graded,
    format_element,
    parse_element,
    parse_presentation,
    print_presentation,
    q_matrix,
    validate,
)
from .rewrite import check_pbw

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flag values; maps to exit code 2."""


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _parse_assignments(text: str, what: str) -> dict:
    """Parse "name=value,name=value" with fractional values."""
    result: dict = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep or not name or not value.strip():
            raise _UsageError(f"bad {what} entry {chunk!r}; expected name=value")
        try:
            result[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"bad {what} value in {chunk!r}: {exc}") from None
    return result


def _parse_bindings(text: str) -> dict:
    bindings = {}
    for name, value in _parse_assignments(text, "binding").items():
        if value.denominator != 1:
            raise _UsageError(f"binding {name}={value} must be an integer")
        bindings[name] = int(value)
    return bindings


def _render_text(value, indent: int = 0) -> list:
    pad = "  " * indent
    lines: list = []
    if isinstance(value, dict):
        for key in value:
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit(report: dict, fmt: str, started: float) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        report = dict(report)
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        sys.stdout.write("\n".join(_render_text(report)) + "\n")


def _specialization_warning(assignment: dict) -> dict:
    values = {name: str(value) for name, value in sorted(assignment.items())}
    return {
        "code": "specialization-applied",
        "message": "parameters were specialized to rational values for this computation",
        "values": values,
    }


def _gp_divergence_warnings(n: int) -> list:
    """Catalog rows of this dimension whose recorded polynomial is off."""
    if n < 1:
        return []
    formula = gp_coefficients(n)
    divergent = [
        entry for entry in catalog_list()
        if entry.table_n.isdigit() and int(entry.table_n) == n
        and not recorded_gp_matches(entry, formula)
    ]
    if not divergent:
        return []
    return [
        {
            "code": "gp-table-mismatch",
            "message": (
                f"catalog rows of dimension {n} record the polynomial "
                f"{divergent[-1].gp_string!r}, which differs from the derived "
                f"{format_polynomial(formula)!r}"
            ),
            "entries": [entry.key for entry in divergent],
        }
    ]


def _require_basis(p) -> None:
    """Refuse a presentation whose overlaps do not resolve.

    The answers of ``nf``, ``gr``, ``hilbert``, ``gkdim`` and ``ideal-window``
    hold only when the ordered monomials form a basis, which the overlaps alone prove
    (Bergman's diamond lemma); the random triples of ``validate`` are skipped.
    """
    failures = check_pbw(p, samples=0).failures
    if failures:
        f = failures[0]
        raise ValueError(
            f"overlap {f['triple']} resolves two ways ({f['left']} against "
            f"{f['right']}), so the ordered monomials are not a basis; "
            "'sgr validate' reports every failing check"
        )


# ---------------------------------------------------------------------------
# subcommands: (presentation or catalog bindings, args) -> (results, warnings, ok)
# ---------------------------------------------------------------------------


def _cmd_validate(p, args):
    diag = validate(p)
    results = {"name": p.name, "n": p.n, "diagnostics": diag.to_dict()}
    if not diag.valid:
        return results, [], False
    pbw = check_pbw(p, degree_bound=args.pbw_degree)
    results["pbw"] = pbw.to_dict()
    return results, [], pbw.ok


def _cmd_nf(p, args):
    element = parse_element(p, args.expression)
    results = {
        "input": args.expression,
        "normal_form": format_element(element.terms, p.gens, p.field),
        "degree": None if not element else element.degree(),
        "terms": len(element.terms),
    }
    return results, [], True


def _cmd_hilbert(p, args):
    data = hilbert_series(p, args.trunc)
    results = data.to_dict()
    if args.poly:
        coefficients = data.polynomial_coefficients
        results["polynomial_string"] = (
            None if coefficients is None else format_polynomial(coefficients)
        )
    return results, _gp_divergence_warnings(p.n), True


def _cmd_gkdim(p, args):
    specialization = None
    if args.specialize:
        specialization = _parse_assignments(args.specialize, "specialization")
    frame = None
    if args.frame:
        frame = Frame(tuple(parse_element(p, expr) for expr in args.frame.split(",")))
    estimate = ggk_estimate(p, frame=frame, k_max=args.kmax, specialization=specialization)
    warnings = [
        {
            "code": "finite-window-estimate",
            "message": (
                f"the estimate is fitted from window dimensions sampled up to "
                f"k_max={args.kmax}; the exact dimension is the 'exact' field"
            ),
            "k_max": args.kmax,
        }
    ]
    if estimate.specialization is not None and p.field.params:
        warnings.append(_specialization_warning(estimate.specialization))
    return {"exact": ggk_exact(p), "estimate": estimate.to_dict()}, warnings, True


def _cmd_gr(p, args):
    graded = associated_graded(p)
    results = {
        "presentation": print_presentation(graded),
        "quasi_commutative": validate(graded).quasi_commutative,
        "q_matrix": [
            [p.field.format(entry) for entry in row] for row in q_matrix(graded)
        ],
    }
    return results, [], True


def _cmd_ideal_window(p, args):
    specialization = (
        _parse_assignments(args.specialize, "specialization")
        if args.specialize
        else None
    )
    generators = [parse_element(p, expr) for expr in args.gens.split(",")]
    ws = left_ideal_window(p, generators, args.degree, specialization)
    results = {
        "window": ws.to_dict(),
        "semigraded": is_semigraded_window(ws).to_dict(),
        "generators": [format_element(g.terms, p.gens, p.field) for g in generators],
    }
    warnings = [_specialization_warning(ws.specialization)] if p.field.params else []
    return results, warnings, True


def _cmd_catalog(bindings, args):
    if args.action == "list":
        entries = catalog_list()
        return {"count": len(entries), "entries": [e.to_dict() for e in entries]}, [], True
    if args.action == "export":
        if not args.out:
            raise _UsageError("catalog export requires --out DIR")
        written = export_presentations(args.out, bindings)
        return {"written": written, "count": len(written)}, [], True

    targets = [catalog_entry(args.entry)] if args.entry else list(catalog_list())
    reports = [catalog_verify(entry, bindings) for entry in targets]
    summary = {
        "total": len(reports),
        "gh_matches": sum(1 for r in reports if r["matches_formula"]["gh"]),
        "gp_matches": sum(1 for r in reports if r["matches_formula"]["gp"]),
        "gp_mismatches": [r["entry"] for r in reports if not r["matches_formula"]["gp"]],
    }
    warnings = []
    for r in reports:
        if "gp-table-mismatch" in r["flags"]:
            warnings.append(
                {
                    "code": "gp-table-mismatch",
                    "entry": r["entry"],
                    "message": (
                        f"recorded polynomial {r['table_gp']!r} differs from "
                        f"derived {r['formula_gp']!r}"
                    ),
                }
            )
        if "semi-graduation-differs" in r["flags"]:
            warnings.append(
                {
                    "code": "semi-graduation-differs",
                    "entry": r["entry"],
                    "message": (
                        "the executable model grades by total degree, which "
                        "differs from the graduation behind the recorded "
                        "dimension"
                    ),
                }
            )
    return {"bindings": bindings, "summary": summary, "reports": reports}, warnings, True


# ---------------------------------------------------------------------------
# argument parsing and the command pipeline
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=["json", "text"], default="text",
        help="report format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="sgr",
        description="Invariants of semi-graded rings given by PBW presentations.",
    )
    # floors: the least value of each integer flag, by dest; gated commands
    # answer only for presentations whose overlaps resolve
    parser.set_defaults(floors={}, gated=False)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser(
        "validate", parents=[shared],
        help="parse a presentation and run diagnostics plus the PBW check",
    )
    s.add_argument("file")
    s.add_argument("--pbw-degree", type=int, default=3, dest="pbw_degree")
    s.set_defaults(run=_cmd_validate, floors={"pbw_degree": 1})

    s = sub.add_parser(
        "nf", parents=[shared], help="normal form of an element expression"
    )
    s.add_argument("file")
    s.add_argument("expression")
    s.set_defaults(run=_cmd_nf, gated=True)

    s = sub.add_parser(
        "hilbert", parents=[shared],
        help="series truncation, closed form, and polynomial",
    )
    s.add_argument("file")
    s.add_argument("--trunc", type=int, default=10)
    s.add_argument("--poly", action="store_true")
    s.set_defaults(run=_cmd_hilbert, floors={"trunc": 0}, gated=True)

    s = sub.add_parser(
        "gkdim", parents=[shared],
        help="exact growth dimension and the frame-based estimator",
    )
    s.add_argument("file")
    s.add_argument("--kmax", type=int, default=200)
    s.add_argument("--frame", help="comma-separated frame basis expressions")
    s.add_argument("--specialize", help="parameter values, e.g. q=3,nu=1/2")
    s.set_defaults(run=_cmd_gkdim, floors={"kmax": 8}, gated=True)

    s = sub.add_parser(
        "gr", parents=[shared], help="associated graded presentation"
    )
    s.add_argument("file")
    s.set_defaults(run=_cmd_gr, gated=True)

    s = sub.add_parser(
        "ideal-window", parents=[shared],
        help="left-ideal window basis and the semi-gradedness check",
    )
    s.add_argument("file")
    s.add_argument("--gens", required=True, help="comma-separated generators")
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--specialize")
    s.set_defaults(run=_cmd_ideal_window, floors={"degree": 0}, gated=True)

    s = sub.add_parser(
        "catalog", parents=[shared], help="list, verify, or export the catalog"
    )
    s.add_argument("action", choices=["list", "verify", "export"])
    s.add_argument("--entry", help="restrict to one entry key")
    s.add_argument("--bind", help="dimension bindings, e.g. n=3,r=1")
    s.add_argument("--out", help="output directory for export")
    s.set_defaults(run=_cmd_catalog)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for dest, floor in args.floors.items():
            if getattr(args, dest) < floor:
                need = "nonnegative" if floor == 0 else f"at least {floor}"
                raise _UsageError(f"--{dest.replace('_', '-')} must be {need}")
        started = time.perf_counter()
        if args.command == "catalog":
            command = f"catalog {args.action}"
            subject = dict(DEFAULT_BINDINGS)
            if args.bind:
                subject.update(_parse_bindings(args.bind))
            bind_text = ",".join(f"{k}={v}" for k, v in sorted(subject.items()))
            identity = f"{command} entry={args.entry or '*'} bind={bind_text}"
        else:
            command = args.command
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
            subject = parse_presentation(text)
            identity = print_presentation(subject)
            if args.gated:
                _require_basis(subject)
        results, warnings, ok = args.run(subject, args)
        report = {
            "command": command,
            "fingerprint": sha256(identity.encode("utf-8")).hexdigest(),
            "results": results,
            "warnings": warnings,
            "timing_ms": None,
        }
        _emit(report, args.format, started)
        return 0 if ok else 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        # PresentationError, SpecializationError and CatalogError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

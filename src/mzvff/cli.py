"""Command-line surface: closed forms, series, residues, and verification.

Exit codes: 0 success, 1 verification failure, 2 usage or unsupported
request, 3 invalid field-spec document, 4 work budget exceeded (the
enumeration oracle's tuple count, the series box or the genus-0 closed-form
size; see ``MZVFF_BUDGET``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import higher_genus, oracle, polyring, rational_field, verification
from .exactalg import (
    BudgetExceededError,
    TruncatedSeries,
    UsageError,
    default_names,
    render_rational,
    render_series,
)
from .fieldspec import FunctionFieldSpec, InvalidSpecError, spec_from_dict
from .polyring import PolyZetaContext

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SPEC = 3
EXIT_BUDGET = 4

SERIES_BOUND_CAP = 64
GENUS_DEPTH_MESSAGE = "closed form at genus >= 1 is available for depth 2 only"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InvalidSpecError as exc:
        print(f"error: invalid field spec: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args keeps no state between calls.
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzvff",
        description="Exact multiple zeta functions over function fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    closed = sub.add_parser("closed-form", help="print a closed form")
    _add_ring_arguments(closed)
    closed.set_defaults(handler=cmd_closed_form)

    series = sub.add_parser("series", help="print truncated series coefficients")
    _add_ring_arguments(series)
    series.add_argument("--trunc", type=int, required=True, help="truncation bound")
    series.add_argument(
        "--source",
        choices=["closed", "oracle"],
        default="closed",
        help="closed-form expansion or brute-force audit path",
    )
    series.set_defaults(handler=cmd_series)

    euler = sub.add_parser(
        "euler", help="expand the Euler product over F_q[T] up to an irreducible degree"
    )
    euler.add_argument("--q", type=int, required=True, help="prime base")
    euler.add_argument("--depth", type=int, required=True)
    euler.add_argument("--max-degree", type=int, required=True, help="largest irreducible degree")
    euler.add_argument(
        "--trunc", type=int, default=None,
        help="display bound (default depth * max-degree, the exact box)",
    )
    euler.add_argument("--format", choices=["text", "json"], default="text")
    euler.set_defaults(handler=cmd_euler)

    residue = sub.add_parser("residue", help="scaled residue of the depth-2 zeta over F_q[T]")
    residue.add_argument("--q", type=int, required=True)
    residue.add_argument("--pole", required=True, help="w=1 or s+w=2")
    residue.add_argument("--in", dest="residue_in", choices=["s", "w"], default=None)
    residue.add_argument("--format", choices=["text", "json"], default="text")
    residue.set_defaults(handler=cmd_residue)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--only", default=None, help="comma-separated check names")
    verify.add_argument("--q", default=None, help="comma-separated bases, e.g. 2,3,5")
    verify.add_argument("--depth", default=None, help="depth list or range, e.g. 2 or 1..3")
    verify.add_argument("--trunc", type=int, default=None)
    verify.add_argument("--spec", default=None, help="field-spec JSON path ('-' for stdin)")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--list", action="store_true", help="list available checks")
    verify.set_defaults(handler=cmd_verify)

    return parser


def _add_ring_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ring",
        choices=["poly", "rational", "genus"],
        required=True,
        help="poly: F_q[T]; rational: F_q(T); genus: a field given by a spec file",
    )
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--depth", type=int, required=True)
    parser.add_argument("--spec", default=None, help="field-spec JSON path ('-' for stdin)")
    parser.add_argument("--format", choices=["text", "json"], default="text")


def load_spec(path: str) -> FunctionFieldSpec:
    try:
        if path == "-":
            document = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read field spec: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidSpecError("document", f"not valid JSON: {exc}") from exc
    return spec_from_dict(document)


def _require_q(args) -> int:
    if args.q is None:
        raise UsageError(f"--ring {args.ring} requires --q")
    return args.q


def _genus_spec(args) -> FunctionFieldSpec:
    if args.spec is None:
        raise UsageError("--ring genus requires --spec")
    return load_spec(args.spec)


def _emit(args, text: str, payload: dict) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return EXIT_OK


def cmd_closed_form(args) -> int:
    if args.ring == "poly":
        value = polyring.closed_form_poly(PolyZetaContext(_require_q(args), args.depth))
        names = default_names(args.depth)
    elif args.ring == "rational":
        value = rational_field.closed_form_genus0(_require_q(args), args.depth)
        names = default_names(args.depth)
    else:
        spec = _genus_spec(args)
        if args.depth != 2:
            print(f"error: {GENUS_DEPTH_MESSAGE}", file=sys.stderr)
            return EXIT_USAGE
        value = higher_genus.closed_form_genus_d2(spec).total
        names = ["u", "v"]
    text = render_rational(value, names)
    return _emit(
        args,
        text,
        {"command": "closed-form", "ring": args.ring, "depth": args.depth,
         "value": value.to_dict(), "text": text},
    )


def cmd_series(args) -> int:
    if args.trunc < 0 or args.trunc > SERIES_BOUND_CAP:
        raise UsageError(f"--trunc must be in 0..{SERIES_BOUND_CAP}")
    series, names = _compute_series(args)
    text = render_series(series, names)
    payload = {
        "command": "series",
        "ring": args.ring,
        "depth": args.depth,
        "trunc": args.trunc,
        "source": args.source,
        "variables": list(names),
        "series": series.to_dict(),
    }
    return _emit(args, text, payload)


def _compute_series(args) -> tuple[TruncatedSeries, list[str]]:
    bound = args.trunc
    if args.ring == "poly":
        q = _require_q(args)
        if args.source == "closed":
            series = polyring.closed_form_poly(PolyZetaContext(q, args.depth)).series(bound)
        else:
            series = oracle.truncated_series_enum(q, args.depth, bound)
        return series, default_names(args.depth)
    if args.ring == "rational":
        q = _require_q(args)
        if args.source == "closed":
            series = rational_field.closed_form_genus0(q, args.depth).series(bound)
        else:
            series = oracle.truncated_series_b(oracle.genus0_weights(q), args.depth, bound)
        return series, default_names(args.depth)
    spec = _genus_spec(args)
    if args.depth == 2:
        if args.source == "closed":
            series = higher_genus.closed_form_genus_d2(spec).total.series(bound)
        else:
            series = _uv_series_from_counts(spec, bound)
        return series, ["u", "v"]
    if args.source == "closed":
        raise UsageError(GENUS_DEPTH_MESSAGE)
    return oracle.truncated_series_b(spec, args.depth, bound), default_names(args.depth)


def _uv_series_from_counts(spec: FunctionFieldSpec, bound: int) -> TruncatedSeries:
    """Audit path for the depth-2 genus series in (u, v): the definitional sum
    at x-degrees (n, n+m) lands on the coefficient of u^n v^m."""
    direct = oracle.truncated_series_b(spec, 2, 2 * bound)
    coeffs = {
        (n, m): direct.coefficient((n, n + m))
        for n in range(bound + 1)
        for m in range(bound + 1)
    }
    return TruncatedSeries(2, bound, coeffs)


def cmd_euler(args) -> int:
    series = polyring.euler_truncation(
        PolyZetaContext(args.q, args.depth), args.max_degree
    )
    bound = series.bound if args.trunc is None else args.trunc
    if bound < 0 or bound > series.bound:
        raise UsageError(f"--trunc must be in 0..{series.bound} for this product")
    if bound < series.bound:
        series = TruncatedSeries(
            series.arity,
            bound,
            {e: c for e, c in series.coefficients.items() if all(x <= bound for x in e)},
        )
    names = default_names(args.depth)
    payload = {
        "command": "euler",
        "q": args.q,
        "depth": args.depth,
        "max_degree": args.max_degree,
        "variables": list(names),
        "series": series.to_dict(),
    }
    return _emit(args, render_series(series, names), payload)


def cmd_residue(args) -> int:
    residue = polyring.scaled_residue_d2(args.q, args.pole, args.residue_in)
    text = f"{residue.display} × {residue.annotation()}"
    payload = {
        "command": "residue",
        "pole": residue.pole,
        "in": residue.residue_in,
        "value": residue.value.to_dict(),
        "annotation": residue.annotation(),
        "text": text,
    }
    return _emit(args, text, payload)


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def parse_depth_list(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"expected a range like 1..3, got {text!r}") from None
        if stop < start:
            raise UsageError(f"empty depth range {text!r}")
        return list(range(start, stop + 1))
    return parse_int_list(text)


def cmd_verify(args) -> int:
    if args.list:
        for name in verification.available_checks():
            print(name)
        return EXIT_OK
    context = verification.CheckContext()
    if args.q:
        context.qs = parse_int_list(args.q)
    if args.depth:
        context.depths = parse_depth_list(args.depth)
    if args.trunc is not None:
        context.trunc = args.trunc
    if args.spec:
        spec = load_spec(args.spec)
        context.specs = dict(context.specs)
        context.specs[f"cli:{args.spec}"] = spec
    names = args.only.split(",") if args.only else None
    results = verification.run_checks(names, context)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "results": [
                        {"check": r.name, "params": r.params, "passed": r.passed, "detail": r.detail}
                        for r in results
                    ],
                    "total": len(results),
                    "failed": len(failed),
                },
                sort_keys=True,
            )
        )
    else:
        for result in results:
            print(result.describe())
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands:

* ``value``   — one exact number, printed as ``num/den``.
* ``table``   — CSV or JSON tables of the number families.
* ``verify``  — run the exact identity suite, one line per check.
* ``numeric`` — floating-point / Monte Carlo checks, one JSON line each.

Exit codes: 0 success, 1 a check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys
from contextlib import suppress
from fractions import Fraction
from math import comb, factorial, gcd, inf, isfinite

from .exact_core import format_rational, parse_rational
from .pbell import BackendMismatch, _pbell_numerators, pbell_column, pbell_number
from .polybell import polybell_neg, polybell_neg_columns, polybell_neg_derivative

__all__ = ["main", "main_entry", "render_table"]

_TABLE_KINDS = ("pbell-numbers", "polybell-neg", "pbell-poly-coeffs")


def _rational_or_float(text: str):
    with suppress(ValueError):
        return parse_rational(text)
    with suppress(ValueError):
        if isfinite(x := float(text)):
            return x
    raise ValueError(f"--x takes num/den with a nonzero denominator, or a float, not {text!r}")


# ---------------------------------------------------------------------------
# table rendering


def _cell(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for den > 0, with one gcd and no ``Fraction``."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)


def render_table(kind: str, n_max: int, p_max: int, fmt: str = "csv") -> str:
    """The full table as text (trailing newline included)."""
    if n_max < 0 or p_max < (kind == "polybell-neg"):  # its columns are the orders -1..-p_max
        raise ValueError(f"table bounds out of range for {kind}, got nmax={n_max}, pmax={p_max}")
    if kind == "pbell-numbers":
        us, ls = _pbell_numerators(n_max, p_max)
        labels, rows = range(p_max + 1), zip(*(map(_cell, u, ls[p:]) for p, u in enumerate(us)))
    elif kind == "polybell-neg":
        labels = range(-1, -p_max - 1, -1)
        rows = (map(str, row) for row in zip(*polybell_neg_columns(n_max, p_max)[1:]))
    elif kind == "pbell-poly-coeffs":
        # the coefficient of x^k in B_{n,p}(x) is C(n,k) B_{n-k,p}, zero for k > n
        ratios = [b.as_integer_ratio() for b in pbell_column(n_max, p_max)]
        labels = range(n_max + 1)
        rows = ([_cell(comb(n, k) * a, b) for k, (a, b) in enumerate(ratios[n::-1])] + ["0"] * (n_max - n)
                for n in labels)
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    col_key = "k" if kind == "pbell-poly-coeffs" else "p"
    if fmt == "csv":
        lines = [f"n\\{col_key}," + ",".join(map(str, labels))]
        lines += (f"{n}," + ",".join(row) for n, row in enumerate(rows))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        cells = [
            {"n": n, col_key: label, "value": text}
            for n, row in enumerate(rows)
            for label, text in zip(labels, row)
        ]
        return json.dumps(cells) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _approx(value: Fraction) -> str:
    """``repr(float(value))``, or, outside the normal float range, 17
    significant digits from exact decimal division of the integers."""
    try:
        f = float(value)
    except OverflowError:
        f = inf
    if value == 0 or sys.float_info.min <= abs(f) < inf:
        return repr(f)
    ctx = decimal.Context(prec=17, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return format(ctx.divide(value.numerator, value.denominator).normalize(ctx), "e")


def _cmd_value(args) -> int:
    if args.p >= 0:
        value = pbell_number(args.n, args.p, cross_check=args.cross_check)
        if args.kind == "polybell":
            value /= factorial(args.p)
    elif args.kind == "pbell":
        print("value: --kind pbell requires p >= 0", file=sys.stderr)
        return 2
    else:  # polybell, negative order
        value = polybell_neg(args.n, -args.p)
        if args.cross_check:
            alt = polybell_neg_derivative(args.n, -args.p)
            if alt != value:
                raise BackendMismatch(args.n, args.p, {"direct": value, "derivative": alt})
    text = format_rational(value)
    if args.approx:
        text += f" approx={_approx(value)}"
    print(text)
    return 0


def _cmd_table(args) -> int:
    text = render_table(args.kind, args.nmax, args.pmax, args.format)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"table: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    from .identity_verifier import run_all  # loaded only by the subcommand that runs it

    only = None
    if args.only is not None:
        only = [token for chunk in args.only for token in chunk.split(",") if token]
    try:
        reports = run_all(n_max=args.nmax, p_max=args.pmax, order=args.order, only=only)
    except KeyError as exc:
        print(f"verify: {exc.args[0]}", file=sys.stderr)
        return 2
    failures = 0
    for report in reports:
        params = " ".join(f"{k}={v}" for k, v in report.params.items())
        line = f"[{report.status.upper()}] {report.identity_id} {params}".rstrip()
        if not report.passed:
            failures += 1
            line += f" -- {report.detail}"
        print(line)
    print(f"{len(reports) - failures}/{len(reports)} identity checks passed")
    return 0 if failures == 0 else 1


def _cmd_numeric(args) -> int:
    from .numeric_bridge import (  # loaded only by the subcommand that runs it
        RngStream, cesaro_pbell, dobinski_pbell, dobinski_pbell_poly, mc_moment_check, mgf_check, pmf_check,
    )

    if args.numeric_check == "dobinski":
        check = dobinski_pbell(args.n, args.p, tol=args.tol)
        params = {"n": args.n, "p": args.p}
    elif args.numeric_check == "dobinski-poly":
        x = _rational_or_float(args.x)
        check = dobinski_pbell_poly(args.n, args.p, x, tol=args.tol)
        params = {"n": args.n, "p": args.p, "x": args.x}
    elif args.numeric_check == "cesaro":
        check = cesaro_pbell(args.n, args.p, tol=args.tol)
        params = {"n": args.n, "p": args.p}
    elif args.numeric_check == "mc":
        x = _rational_or_float(args.x)
        check = mc_moment_check(args.n, args.p, x, args.samples, RngStream(args.seed))
        params = {"n": args.n, "p": args.p, "x": args.x, "seed": args.seed}
    elif args.numeric_check == "mgf":
        check = mgf_check(args.p, args.t, args.samples, RngStream(args.seed))
        params = {"p": args.p, "t": args.t, "seed": args.seed}
    elif args.numeric_check == "pmf":
        check = pmf_check(args.p, args.k, args.samples, RngStream(args.seed))
        params = {"p": args.p, "k": args.k, "seed": args.seed}
    payload = {"check": args.numeric_check, "params": params, "passed": check.passed}
    payload.update(check.to_json_dict())
    print(json.dumps(payload))
    return 0 if check.passed else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: building it costs about 30 parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybell",
        description="Exact p-Bell and poly-Bell numbers, identity checks, and numeric cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="print one exact value")
    p_value.add_argument("--kind", choices=("pbell", "polybell"), required=True)
    p_value.add_argument("--n", type=int, required=True)
    p_value.add_argument("--p", type=int, required=True, help="signed for --kind polybell")
    p_value.add_argument("--cross-check", action="store_true")
    p_value.add_argument("--approx", action="store_true", help="append a float approximation")

    p_table = sub.add_parser("table", help="emit a table as CSV or JSON")
    p_table.add_argument("--kind", choices=_TABLE_KINDS, required=True)
    p_table.add_argument("--nmax", type=int, required=True)
    p_table.add_argument(
        "--pmax",
        type=int,
        required=True,
        help="max column order; for pbell-poly-coeffs this is the (single) order p",
    )
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default=None, help="write to a file instead of stdout")

    p_verify = sub.add_parser("verify", help="run the exact identity suite")
    p_verify.add_argument("--nmax", type=int, default=12)
    p_verify.add_argument("--pmax", type=int, default=5)
    p_verify.add_argument("--order", type=int, default=12)
    p_verify.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="ID",
        help="subset of identity ids (comma or space separated); an unknown id's error lists them all",
    )

    p_numeric = sub.add_parser("numeric", help="numeric and Monte Carlo checks")
    nsub = p_numeric.add_subparsers(dest="numeric_check", required=True)

    n_dob = nsub.add_parser("dobinski", help="series estimate of a p-Bell number")
    n_dob.add_argument("--n", type=int, required=True)
    n_dob.add_argument("--p", type=int, required=True)
    n_dob.add_argument("--tol", type=float, default=1e-9)

    n_dobp = nsub.add_parser("dobinski-poly", help="series estimate of a p-Bell polynomial value")
    n_dobp.add_argument("--n", type=int, required=True)
    n_dobp.add_argument("--p", type=int, required=True)
    n_dobp.add_argument("--x", required=True, help="evaluation point, num/den or float; write -1/2 as --x=-1/2")
    n_dobp.add_argument("--tol", type=float, default=1e-9)

    n_ces = nsub.add_parser("cesaro", help="contour-integral estimate of a p-Bell number")
    n_ces.add_argument("--n", type=int, required=True)
    n_ces.add_argument("--p", type=int, required=True)
    n_ces.add_argument("--tol", type=float, default=1e-6)

    n_mc = nsub.add_parser("mc", help="Monte Carlo moment check of a polynomial value")
    n_mc.add_argument("--n", type=int, required=True)
    n_mc.add_argument("--p", type=int, required=True)
    n_mc.add_argument("--x", required=True, help="evaluation point, num/den or float; write -1/2 as --x=-1/2")
    n_mc.add_argument("--samples", type=int, default=1_000_000)

    n_mgf = nsub.add_parser("mgf", help="Monte Carlo check of the moment generating function")
    n_mgf.add_argument("--p", type=int, required=True)
    n_mgf.add_argument("--t", type=float, required=True)
    n_mgf.add_argument("--samples", type=int, default=1_000_000)

    n_pmf = nsub.add_parser("pmf", help="Monte Carlo check of the mixture pmf")
    n_pmf.add_argument("--p", type=int, required=True)
    n_pmf.add_argument("--k", type=int, required=True)
    n_pmf.add_argument("--samples", type=int, default=1_000_000)

    for np_ in (n_mc, n_mgf, n_pmf):  # the seeded Monte Carlo checks
        np_.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values are printed in full, whatever their size
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code not in (0, None) else int(code or 0)
    handlers = {
        "value": _cmd_value,
        "table": _cmd_table,
        "verify": _cmd_verify,
        "numeric": _cmd_numeric,
    }
    try:
        return handlers[args.command](args)
    except BackendMismatch as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())

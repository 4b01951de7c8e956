"""Command-line surface.

Subcommands: oracle, series, exact, jensen, table, threshold. Exit codes:
0 success, 1 usage error, 2 domain/arithmetic error, 3 golden-table mismatch.
Output is deterministic for a fixed command line and FRACPART_DIGITS setting.
This module renders every result, Jensen polynomials included, but the table
text that goldens writes: --format json or csv where the command has that
form, plain text otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

import mpmath as mp

from fracpart import circle, goldens, jensen, oracle
from fracpart.numkernel import (
    DomainError,
    ParseError,
    Precision,
    parse_alpha,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_GOLDEN = 3

ENV_DIGITS = "FRACPART_DIGITS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit-code contract
    # reserves 2 for domain errors, so route usage faults to status 1
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    p = _Parser(prog="fracpart", description=__doc__.splitlines()[0])
    p.add_argument("--digits", type=int, default=None,
                   help="working decimal digits (default: $%s or 60)" % ENV_DIGITS)
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("oracle", help="exact/high-precision p_alpha(0..N)")
    sp.set_defaults(run=_cmd_oracle)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("series", help="truncated series p_alpha(n; delta) with tail bound")
    sp.set_defaults(run=_cmd_series)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--n", type=int, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--terms", type=int, help="m-term truncation via delta = 2 pi mu0/(m+1)")
    g.add_argument("--delta", help="explicit truncation parameter")

    sp = sub.add_parser("exact", help="exact rational p_alpha(n) for rational alpha")
    sp.set_defaults(run=_cmd_exact)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--report-terms", action="store_true",
                    help="also print guaranteed (M) and stable (M*) term counts")

    sp = sub.add_parser("jensen", help="Jensen polynomial report at (alpha, d, n)")
    sp.set_defaults(run=_cmd_jensen)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("table", help="recompute a reference table and diff it")
    sp.set_defaults(run=_cmd_table)
    sp.add_argument("table_id", choices=goldens.TABLE_IDS)

    sp = sub.add_parser("threshold", help="empirical hyperbolicity threshold scan")
    sp.set_defaults(run=_cmd_threshold)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--horizon", type=int, required=True)

    return p


def _precision(args) -> Precision:
    digits = args.digits
    if digits is None:
        digits = int(os.environ.get(ENV_DIGITS, "60"))
    return Precision(decimal_digits=digits)


# Each _cmd_* formats every number once and returns (exit code, plain text,
# JSON document or None, CSV text or None); main picks one of the three.

def _ratio(v: Fraction) -> str:
    return "%d/%d" % (v.numerator, v.denominator)


def _coef(c, digits: int) -> str:
    """A Jensen coefficient: exact values as they are, floats to digits."""
    return str(c) if isinstance(c, (int, Fraction)) else mp.nstr(mp.mpf(c), digits)


def _poly(p: tuple) -> str:
    """p in descending powers of X without its zero terms, floats to 10 digits."""
    text = ""
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        cs = _coef(c, 10)
        neg = cs.startswith("-")
        if text:
            text += " - " if neg else " + "
        elif neg:
            text = "-"
        text += (cs[1:] if neg else cs) + ("" if i == 0 else " X" if i == 1 else " X^%d" % i)
    return text or "0"


def _csv(rows, end: str = "\n") -> str:
    return "".join(",".join(str(v) for v in row) + end for row in rows)


def _cmd_oracle(args):
    prec = _precision(args)
    table = oracle.coeffs(parse_alpha(args.alpha), args.n, prec)
    # a Fraction as a/b, an integer or mpf through mp.nstr
    values = [_ratio(v) if isinstance(v, Fraction) else mp.nstr(v, prec.decimal_digits)
              for v in table.values]
    doc = {"alpha": args.alpha, "upto": len(table.values) - 1, "values": values}
    # \r\n line ends: this CSV was first written by csv.writer
    csv_text = _csv([("n", "value"), *enumerate(values)], end="\r\n")
    return EXIT_OK, "".join(v + "\n" for v in values), doc, csv_text


def _cmd_series(args):
    prec = _precision(args)
    alpha = parse_alpha(args.alpha)
    if args.terms is not None:
        dv = circle.m_term_delta(alpha, args.terms, prec)
    else:
        with prec.ctx():
            dv = mp.mpf(args.delta)
    approx = circle.partial_series(alpha, args.n, dv, prec)
    digits, terms = prec.decimal_digits, list(approx.terms_per_m)
    total = sum(terms)
    value = mp.nstr(approx.value, digits)
    delta = mp.nstr(dv, digits)
    tail = mp.nstr(approx.tail_bound, 10)
    text = ("value = %s\ndelta = %s\ntail_bound = %s\nterms_per_m = %s (total %d)\n"
            "precision = %d\n" % (value, delta, tail, terms, total, digits))
    doc = {"alpha": args.alpha, "n": args.n, "delta": delta, "value": value,
           "tail_bound": tail, "terms": terms, "precision": digits}
    csv_text = _csv([("value", "delta", "tail_bound", "terms", "precision"),
                     (value, delta, tail, total, digits)])
    return EXIT_OK, text, doc, csv_text


def _cmd_exact(args):
    a = parse_alpha(args.alpha).rational
    if a is None:
        raise DomainError("exact requires a rational alpha, got %r" % args.alpha)
    record = {"alpha": args.alpha, "n": args.n,
              "value": _ratio(circle.exact_value(a.numerator, a.denominator, args.n))}
    text = "p = %s\n" % record["value"]
    if args.report_terms:
        record["M"] = circle.guaranteed_terms(a.numerator, a.denominator, args.n)
        record["Mstar"] = circle.empirical_min_terms(a.numerator, a.denominator, args.n)
        text += "M = %d\nM* = %d\n" % (record["M"], record["Mstar"])
    return EXIT_OK, text, record, _csv([record.keys(), record.values()])


def _cmd_jensen(args):
    prec = _precision(args)
    alpha = parse_alpha(args.alpha)
    try:
        report = jensen.build_report(alpha, args.d, args.n, prec)
    except jensen.IndeterminateVerdict as exc:
        return EXIT_OK, "hyperbolic = indeterminate (%s)\n" % exc, None, None
    verdict = str(report.hyperbolic).lower()
    dist = mp.nstr(report.hermite_distance, 10)
    text = "raw = %s\nrenormalized = %s\nhyperbolic = %s\nhermite_distance = %s\n" % (
        _poly(report.raw), _poly(report.renormalized), verdict, dist)
    doc = {"alpha": args.alpha, "d": args.d, "n": args.n,
           "raw": [_coef(c, 15) for c in report.raw],
           "renormalized": [_coef(c, 15) for c in report.renormalized],
           "hyperbolic": report.hyperbolic, "hermite_distance": dist}
    csv_text = _csv([("n", "d", "hyperbolic", "gap_to_hermite"),
                     (args.n, args.d, verdict, dist)])
    return EXIT_OK, text, doc, csv_text


def _cmd_table(args):
    artifact = goldens.compute_table(args.table_id)
    doc = {
        "table_id": artifact.table_id,
        "header": list(artifact.header),
        "rows": [list(r) for r in artifact.rows],
        "mismatches": [
            {"row": d.row, "column": d.column, "printed": d.printed,
             "recomputed": d.recomputed}
            for d in artifact.mismatches
        ],
    }
    code = EXIT_GOLDEN if artifact.mismatches else EXIT_OK
    return code, artifact.formatted() + "\n" + artifact.diff_report() + "\n", doc, None


def _cmd_threshold(args):
    prec = _precision(args)
    alpha = parse_alpha(args.alpha)
    n0 = jensen.hyperbolicity_threshold(alpha, args.d, args.horizon, prec)
    return EXIT_OK, "threshold = %s\n" % ("none" if n0 is None else n0), None, None


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    try:
        code, text, doc, csv_text = args.run(args)
    except (DomainError, ParseError, ArithmeticError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_DOMAIN
    # the one format choice: JSON or CSV where the command has that form
    if args.format == "json" and doc is not None:
        out.write(json.dumps(doc) + "\n")
    elif args.format == "csv" and csv_text is not None:
        out.write(csv_text)
    else:
        out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

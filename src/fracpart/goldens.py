"""Reference tables T1..T6 and the one loop that recomputes every cell.

Golden values live in tables/*.csv verbatim as printed in the reference
tables, with one exception: 24 printed cells of T5 cannot come from the
table's definition (six rows break delta(n)^d * Jhat^{d,n}(1/delta(n)) = 1,
which holds for any source), so they hold the values of an independent
fixed-point divisor-sum recurrence, rounded to the printed decimals; the
printed rows stay in comments in T5.csv.
Each table supplies only a generator that yields, per golden row, the row
key and {column: recomputed value}, using the library's public operations.
compute_table pairs it with the golden rows, takes the header from the CSV
and diffs every cell. A cell matches when |recomputed - printed| is at most
one unit in the last printed digit of that cell (exact string equality for
rationals and integers), which absorbs the reference's own rounding and
truncation choices. Mismatches are returned as structured diffs, never
silently dropped.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from math import floor

import mpmath as mp

from fracpart import circle, jensen, oracle
from fracpart.numkernel import (
    DomainError,
    Precision,
    mpf_to_fraction,
    parse_alpha,
    to_mpf,
)

@dataclass(frozen=True)
class CellDiff:
    row: str
    column: str
    printed: str
    recomputed: str
    ok: bool


@dataclass(frozen=True)
class TableArtifact:
    table_id: str
    header: tuple
    rows: tuple          # recomputed values, rendered at printed precision
    diffs: tuple         # one CellDiff per golden-compared cell

    @property
    def mismatches(self):
        return tuple(d for d in self.diffs if not d.ok)

    def formatted(self) -> str:
        widths = [
            max(len(self.header[i]), max((len(r[i]) for r in self.rows), default=0))
            for i in range(len(self.header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(self.header, widths))]
        for r in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def diff_report(self) -> str:
        bad = self.mismatches
        if not bad:
            return "%s: all %d compared cells within one printed ulp" % (
                self.table_id, len(self.diffs))
        lines = ["%s: %d of %d cells mismatch:" % (self.table_id, len(bad), len(self.diffs))]
        for d in bad:
            lines.append(
                "  row %s col %s: printed %s, recomputed %s"
                % (d.row, d.column, d.printed, d.recomputed)
            )
        return "\n".join(lines)


def load_table(table_id: str):
    """Rows of the golden CSV as dicts (comment lines stripped)."""
    if table_id not in TABLE_IDS:
        raise DomainError("unknown table id %r" % table_id)
    text = (resources.files("fracpart") / "tables" / (table_id + ".csv")).read_text()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# printed-precision helpers
# ---------------------------------------------------------------------------

def within_print_ulp(printed: str, value) -> bool:
    """|value - printed| <= 1 unit in the printed string's last digit.

    Rationals ("a/b") and plain integers compare exactly.
    """
    printed = printed.strip()
    if "/" in printed or "." not in printed:
        return mpf_to_fraction(value) == Fraction(printed)
    ulp = Fraction(1, 10 ** len(printed.split(".")[1]))
    return abs(mpf_to_fraction(value) - Fraction(printed)) <= ulp


def fmt_like(printed: str, value) -> str:
    """Render value with the printed cell's format (same decimal count,
    half-away-from-zero), so tables read like the reference."""
    printed = printed.strip()
    if "/" in printed:
        f = mpf_to_fraction(value)
        return "%d/%d" % (f.numerator, f.denominator)
    if "." not in printed:
        return str(int(value))
    dp = len(printed.split(".")[1])
    # round the exact value once; rendering to a few more digits first would
    # round twice and can land on the wrong side of a tie
    scaled = mpf_to_fraction(value) * 10 ** dp
    digits = floor(abs(scaled) + Fraction(1, 2))
    return str(Decimal((int(scaled < 0), tuple(map(int, str(digits))), -dp)))


def _cell(row_key, column, printed, value) -> tuple:
    """(rendered string, CellDiff) for one golden-compared cell."""
    rendered = fmt_like(printed, value)
    return rendered, CellDiff(
        row=str(row_key),
        column=column,
        printed=printed,
        recomputed=rendered if "." not in printed else mp.nstr(mp.mpf(value), len(printed) + 4),
        ok=within_print_ulp(printed, value),
    )


# ---------------------------------------------------------------------------
# per-table row generators and the recompute loop
# ---------------------------------------------------------------------------

def _m_term(alpha, n: int, m: int, p, prec: Precision) -> tuple:
    """(m-term series value at n, its ratio to the oracle value p). A Fraction
    p is rounded once by to_mpf; an int or an mpf divides as it is."""
    with prec.ctx():
        value = circle.partial_series(alpha, n, circle.m_term_delta(alpha, m, prec), prec).value
        return value, value / (to_mpf(p) if isinstance(p, Fraction) else p)


def _t1(golden, prec):
    """alpha = e, n = 1..10: oracle value, one-term series, their ratio."""
    alpha = parse_alpha("e")
    table = oracle.coeffs(alpha, 10, prec)
    for g in golden:
        n = int(g["n"])
        p = table.values[n]
        one, ratio = _m_term(alpha, n, 1, p, prec)
        yield n, {"p": p, "one_term": one, "ratio": ratio}


def _t2(golden, prec):
    """alpha = 1/e, n = 50, m = 1..10: m-term value and ratio to the oracle."""
    alpha = parse_alpha("1/e")
    p50 = oracle.coeffs(alpha, 50, prec).values[50]
    for g in golden:
        m = int(g["m"])
        approx, ratio = _m_term(alpha, 50, m, p50, prec)
        yield m, {"approx": approx, "ratio": ratio}


def _t3(golden, prec):
    """alpha in {1/pi, 5}, n = 1..14, m in {1, 5}: ratios to the oracle."""
    inv_pi, five = parse_alpha("1/pi"), parse_alpha("5")
    columns = {"r_1pi_m1": (inv_pi, 1), "r_1pi_m5": (inv_pi, 5),
               "r_5_m1": (five, 1), "r_5_m5": (five, 5)}
    tables = {alpha: oracle.coeffs(alpha, 14, prec) for alpha in (inv_pi, five)}
    for g in golden:
        n = int(g["n"])
        yield n, {col: _m_term(alpha, n, m, tables[alpha].values[n], prec)[1]
                  for col, (alpha, m) in columns.items()}


def _t4(golden, prec):
    """n = 100, alpha in {0.01, 0.1, 1, 10}, m = 1..10: ratios to the oracle."""
    columns = {"r_a001": "0.01", "r_a01": "0.1", "r_a1": "1", "r_a10": "10"}
    alphas = {col: parse_alpha(text) for col, text in columns.items()}
    oracles = {col: oracle.coeffs(alpha, 100, prec).values[100] for col, alpha in alphas.items()}
    for g in golden:
        m = int(g["m"])
        yield m, {col: _m_term(alpha, 100, m, oracles[col], prec)[1]
                  for col, alpha in alphas.items()}


def _t5(golden, prec):
    """alpha = sqrt(3), d in {2, 3}, n in {10000..50000}: renormalized
    Jensen coefficients from the 100-term certified series source; the term
    cache serves p(n..n+2) to both degrees."""
    alpha = parse_alpha("sqrt(3)")
    for g in golden:
        n, d = int(g["n"]), int(g["d"])
        poly = jensen.renormalized_jensen(alpha, d, n, prec)
        yield "%d/d=%d" % (n, d), {"c%d" % i: c for i, c in enumerate(poly)}


def _t6(golden, prec):
    """alpha = 51/7, n = 1..10: exact rational, guaranteed and stable counts."""
    for g in golden:
        n = int(g["n"])
        yield n, {"p": circle.exact_value(51, 7, n),
                  "M": circle.guaranteed_terms(51, 7, n),
                  "Mstar": circle.empirical_min_terms(51, 7, n)}


# table id -> (row generator, working decimal digits)
_TABLES = {"T1": (_t1, 60), "T2": (_t2, 60), "T3": (_t3, 60),
           "T4": (_t4, 60), "T5": (_t5, 90), "T6": (_t6, 60)}
TABLE_IDS = tuple(_TABLES)


def compute_table(table_id: str) -> TableArtifact:
    """Recompute every golden cell of a table and diff it against the print."""
    golden = load_table(table_id)
    generate, digits = _TABLES[table_id]
    rows, diffs = [], []
    for g, (key, values) in zip(golden, generate(golden, Precision(digits)), strict=True):
        row = [str(key)]
        for column, value in values.items():
            rendered, diff = _cell(key, column, g[column], value)
            row.append(rendered)
            diffs.append(diff)
        rows.append(tuple(row))
    header = tuple(golden[0])
    if table_id == "T5":  # as printed: [c0, c1, c2] and [c0, .., c3] side by side per n
        by_n = {}
        for key, *cells in rows:
            by_n.setdefault(key.split("/")[0], []).append("[" + ", ".join(cells) + "]")
        header = ("n", "Jhat2 (c0,c1,c2)", "Jhat3 (c0,c1,c2,c3)")
        rows = [(n, *per_d) for n, per_d in by_n.items()]
    return TableArtifact(table_id, header, tuple(rows), tuple(diffs))

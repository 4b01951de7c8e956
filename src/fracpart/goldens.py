"""Reference tables T1..T6 and the harness that recomputes every cell.

Golden values live in tables/*.csv verbatim as printed in the reference
tables, with one exception: 24 printed cells of T5 cannot come from the
table's definition (six rows break delta(n)^d * Jhat^{d,n}(1/delta(n)) = 1,
which holds for any source), so they hold the values of an independent
fixed-point divisor-sum recurrence, rounded to the printed decimals; the
printed rows stay in comments in T5.csv.
Recomputation uses only the library's public operations. A cell
matches when |recomputed - printed| is at most one unit in the last printed
digit of that cell (exact string equality for rationals and integers), which
absorbs the reference's own rounding/truncation choices. Mismatches are
returned as structured diffs, never silently dropped.
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

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6")

# published row counts for the artifact-level invariant (T5 groups d=2 and
# d=3 per n into a single row)
ROW_COUNTS = {"T1": 10, "T2": 10, "T3": 14, "T4": 10, "T5": 5, "T6": 10}


@dataclass(frozen=True)
class CellDiff:
    table_id: str
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


def _cell(table_id, row_key, column, printed, value) -> tuple:
    """(rendered string, CellDiff) for one golden-compared cell."""
    rendered = fmt_like(printed, value)
    return rendered, CellDiff(
        table_id=table_id,
        row=str(row_key),
        column=column,
        printed=printed,
        recomputed=rendered if "." not in printed else mp.nstr(mp.mpf(value), len(printed) + 4),
        ok=within_print_ulp(printed, value),
    )


# ---------------------------------------------------------------------------
# per-table recomputation
# ---------------------------------------------------------------------------

def _m_term(alpha, n: int, m: int, p, prec: Precision) -> tuple:
    """(m-term series value at n, its ratio to the oracle value p). A Fraction
    p is rounded once by to_mpf; an int or an mpf divides as it is."""
    with prec.ctx():
        value = circle.partial_series(alpha, n, circle.m_term_delta(alpha, m, prec), prec).value
        return value, value / (to_mpf(p) if isinstance(p, Fraction) else p)


def compute_T1(prec: Precision = Precision(60, 10)) -> TableArtifact:
    """alpha = e, n = 1..10: oracle value, one-term series, their ratio."""
    golden = load_table("T1")
    alpha = parse_alpha("e")
    table = oracle.coeffs(alpha, 10, prec)
    rows, diffs = [], []
    for g in golden:
        n = int(g["n"])
        p = table.values[n]
        one, ratio = _m_term(alpha, n, 1, p, prec)
        c1, d1 = _cell("T1", n, "p", g["p"], p)
        c2, d2 = _cell("T1", n, "one_term", g["one_term"], one)
        c3, d3 = _cell("T1", n, "ratio", g["ratio"], ratio)
        rows.append((str(n), c1, c2, c3))
        diffs += [d1, d2, d3]
    return TableArtifact("T1", ("n", "p", "one_term", "ratio"), tuple(rows), tuple(diffs))


def compute_T2(prec: Precision = Precision(60, 10)) -> TableArtifact:
    """alpha = 1/e, n = 50, m = 1..10: m-term value and ratio to the oracle."""
    golden = load_table("T2")
    alpha = parse_alpha("1/e")
    p50 = oracle.coeffs(alpha, 50, prec).values[50]
    rows, diffs = [], []
    for g in golden:
        m = int(g["m"])
        approx, ratio = _m_term(alpha, 50, m, p50, prec)
        c1, d1 = _cell("T2", m, "approx", g["approx"], approx)
        c2, d2 = _cell("T2", m, "ratio", g["ratio"], ratio)
        rows.append((str(m), c1, c2))
        diffs += [d1, d2]
    return TableArtifact("T2", ("m", "approx", "ratio"), tuple(rows), tuple(diffs))


def compute_T3(prec: Precision = Precision(60, 10)) -> TableArtifact:
    """alpha in {1/pi, 5}, n = 1..14, m in {1, 5}: ratios to the oracle."""
    golden = load_table("T3")
    inv_pi, five = parse_alpha("1/pi"), parse_alpha("5")
    columns = (
        ("r_1pi_m1", inv_pi, 1),
        ("r_1pi_m5", inv_pi, 5),
        ("r_5_m1", five, 1),
        ("r_5_m5", five, 5),
    )
    tables = {alpha: oracle.coeffs(alpha, 14, prec) for alpha in (inv_pi, five)}
    rows, diffs = [], []
    for g in golden:
        n = int(g["n"])
        out = [str(n)]
        for col, alpha, m in columns:
            _, ratio = _m_term(alpha, n, m, tables[alpha].values[n], prec)
            c, d = _cell("T3", n, col, g[col], ratio)
            out.append(c)
            diffs.append(d)
        rows.append(tuple(out))
    return TableArtifact("T3", ("n",) + tuple(c[0] for c in columns), tuple(rows), tuple(diffs))


def compute_T4(prec: Precision = Precision(60, 10)) -> TableArtifact:
    """n = 100, alpha in {0.01, 0.1, 1, 10}, m = 1..10: ratios to the oracle."""
    golden = load_table("T4")
    columns = (
        ("r_a001", parse_alpha("0.01")),
        ("r_a01", parse_alpha("0.1")),
        ("r_a1", parse_alpha("1")),
        ("r_a10", parse_alpha("10")),
    )
    oracles = {col: oracle.coeffs(alpha, 100, prec).values[100] for col, alpha in columns}
    rows, diffs = [], []
    for g in golden:
        m = int(g["m"])
        out = [str(m)]
        for col, alpha in columns:
            _, ratio = _m_term(alpha, 100, m, oracles[col], prec)
            c, d = _cell("T4", m, col, g[col], ratio)
            out.append(c)
            diffs.append(d)
        rows.append(tuple(out))
    return TableArtifact("T4", ("m",) + tuple(c[0] for c in columns), tuple(rows), tuple(diffs))


def compute_T5(prec: Precision = Precision(90, 10)) -> TableArtifact:
    """alpha = sqrt(3), d in {2, 3}, n in {10000..50000}: renormalized
    Jensen coefficients from the 100-term certified series source."""
    golden = load_table("T5")
    alpha = parse_alpha("sqrt(3)")
    by_n = {}
    for g in golden:
        by_n.setdefault(int(g["n"]), {})[int(g["d"])] = g
    rows, diffs = [], []
    for n in sorted(by_n):
        vals, _ = jensen.default_values(alpha, n, 3, prec)
        source = {n + j: vals[j] for j in range(4)}
        rendered = {}
        for d in (2, 3):
            g = by_n[n][d]
            poly = jensen.renormalized_jensen(alpha, d, n, prec, values=source)
            parts = []
            for i in range(d + 1):
                printed = g["c%d" % i]
                c, diff = _cell("T5", "%d/d=%d" % (n, d), "c%d" % i, printed, poly.coefficients[i])
                parts.append(c)
                diffs.append(diff)
            rendered[d] = "[" + ", ".join(parts) + "]"
        rows.append((str(n), rendered[2], rendered[3]))
    return TableArtifact(
        "T5", ("n", "Jhat2 (c0,c1,c2)", "Jhat3 (c0,c1,c2,c3)"), tuple(rows), tuple(diffs)
    )


def compute_T6(prec: Precision = Precision(60, 10)) -> TableArtifact:
    """alpha = 51/7, n = 1..10: exact rational, guaranteed and stable counts."""
    golden = load_table("T6")
    rows, diffs = [], []
    for g in golden:
        n = int(g["n"])
        p = circle.exact_value(51, 7, n)
        m_guar = circle.guaranteed_terms(51, 7, n)
        m_star = circle.empirical_min_terms(51, 7, n)
        c1, d1 = _cell("T6", n, "p", g["p"], p)
        c2, d2 = _cell("T6", n, "M", g["M"], m_guar)
        c3, d3 = _cell("T6", n, "Mstar", g["Mstar"], m_star)
        rows.append((str(n), c1, c2, c3))
        diffs += [d1, d2, d3]
    return TableArtifact("T6", ("n", "p", "M", "Mstar"), tuple(rows), tuple(diffs))


_COMPUTE = {
    "T1": compute_T1,
    "T2": compute_T2,
    "T3": compute_T3,
    "T4": compute_T4,
    "T5": compute_T5,
    "T6": compute_T6,
}


def compute_table(table_id: str) -> TableArtifact:
    if table_id not in _COMPUTE:
        raise DomainError("unknown table id %r (expected T1..T6)" % table_id)
    return _COMPUTE[table_id]()

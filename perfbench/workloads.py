"""Seeded, stratified query lists for the three workloads.

A query is a dict with the CLI argv the program receives plus the parameters
the checks need. Every workload is a fixed list of strata; a seed only draws
which members of each stratum run, so every seed gives the same cost mix:

- template strata fix alpha, d, terms and digits and draw n (or the horizon)
  from a band a few percent wide, where cost moves smoothly with n;
- `exact-recovery` has no smooth knob, so its strata draw (a, b, n) from the
  fixed pool in exact_catalogue.json by measured cost band, and a draw is kept
  only when its summed cost is within 3% of the stratum's expected sum.

Queries within one list are distinct.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

WHY = {
    "exact-recovery": "rational-branch Kloosterman and Dedekind sums do nearly all the work; "
                      "term cache reuse-heavy, precision escalation exercised",
    "real-series": "Bessel I_nu at large argument dominates; real-alpha Kloosterman in the "
                   "minority; term cache write-only",
    "hyperbolicity": "no circle calls: oracle Fraction recurrence and Sturm/numeric "
                     "is_hyperbolic share the work",
}

WORKLOADS = tuple(WHY)

# published hyperbolicity thresholds N_d(1) of the classical partition function
PUBLISHED_THRESHOLDS = {2: 25, 3: 94, 4: 206, 5: 381}


def make_queries(workload: str, seed: int) -> list:
    """The query list of one run: same workload and seed, same list."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "exact-recovery":
        queries = _exact_recovery(rng)
    elif workload == "real-series":
        queries = _real_series(rng)
    elif workload == "hyperbolicity":
        queries = _hyperbolicity(rng)
    else:
        raise ValueError("unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS)))
    keys = [tuple(q["argv"]) for q in queries]
    if len(set(keys)) != len(keys):
        raise AssertionError("workload %s seed %d drew a repeated query" % (workload, seed))
    return queries


def _band(rng, lo: int, width: float = 0.05) -> int:
    return rng.randrange(lo, lo + max(2, int(lo * width)))


# ---------------------------------------------------------------------------
# exact-recovery
# ---------------------------------------------------------------------------

# name, count, measured cost band (ms, see calibrate.py).
# The median and the tail latency both fall inside the medium stratum, where
# the order statistics of a draw of equal-cost queries are steadiest.
_EXACT_STRATA = (
    ("light", 6, (20, 30)),
    ("medium", 14, (90, 105)),
)

# The regime of table T6 (alpha = 51/7, n >= 8): b = 7, n = 9, 129 terms. A
# single query cannot be balanced by its neighbours, and one timing places a
# catalogue entry only to within tens of percent, so it is the same at every
# seed.
_T6_REGIME = (61, 7, 9)


def _load_catalogue():
    with open(os.path.join(HERE, "exact_catalogue.json")) as fh:
        return [tuple(r) for r in json.load(fh)]


def _balanced_sample(rng, pool, count, weight, tolerance=0.03):
    target = count * sum(weight(p) for p in pool) / len(pool)
    for _ in range(10000):
        pick = rng.sample(pool, count)
        if abs(sum(weight(p) for p in pick) - target) <= tolerance * target:
            return pick
    raise AssertionError("no balanced draw of %d from a pool of %d" % (count, len(pool)))


def _exact_recovery(rng) -> list:
    catalogue = _load_catalogue()
    queries = []
    for name, count, (lo, hi) in _EXACT_STRATA:
        pool = [(a, b, n, cost) for a, b, n, _, cost in catalogue if lo <= cost <= hi]
        pick = _balanced_sample(rng, pool, count, lambda r: r[3])
        queries += [_exact_query(name, a, b, n) for a, b, n, _ in pick]
    queries.append(_exact_query("t6-regime", *_T6_REGIME))
    # integer alpha at large n: p(n) passes 10^60, so the 60-digit start
    # precision is too coarse and exact_value escalates
    escalation = set()
    while len(escalation) < 4:
        escalation.add((rng.randrange(20, 24), rng.randrange(240, 321)))
    queries += [_exact_query("escalation", a, 1, n) for a, n in sorted(escalation)]
    rng.shuffle(queries)
    return queries


def _exact_query(stratum, a, b, n):
    alpha = "%d/%d" % (a, b) if b > 1 else str(a)
    return {
        "stratum": stratum,
        "command": "exact",
        "argv": ["exact", "--alpha", alpha, "--n", str(n), "--report-terms"],
        "a": a, "b": b, "n": n,
    }


# ---------------------------------------------------------------------------
# real-series
# ---------------------------------------------------------------------------

_REAL_ALPHAS = ("sqrt(3)", "e", "pi", "1/e", "1/pi")

# (n lower edge, terms, digits): large n, few terms. The two 20-term rows
# make a cluster of equal cost around rank N - 10, where the tail is read.
_LARGE_N = (
    (10000, 20, 60), (12000, 20, 60), (15000, 16, 45), (25000, 10, 30), (40000, 8, 45),
    (60000, 6, 30), (80000, 5, 45), (110000, 4, 30), (150000, 3, 45), (190000, 2, 60),
)

# alpha = 8*pi > 24 has q = 1, so m_term_delta does not apply: explicit delta,
# small enough that the m = 1 block keeps at least one term
_Q1_ALPHA = "8*pi"
_Q1 = ((10000, "0.3"), (100000, "0.6"), (190000, "1.2"))

# n small enough for the oracle recurrence to referee the value directly
_SMALL_N = (("sqrt(3)", 150, 6), ("e", 200, 4), ("1/pi", 120, 10))

# the T5 regime: n near 1e4, 100 terms, 90 digits
_T5_ALPHAS = ("sqrt(3)", "e")


def _real_series(rng) -> list:
    queries = []
    for alpha in _REAL_ALPHAS:
        for n0, terms, digits in _LARGE_N:
            queries.append(_series_query("large-n", alpha, _band(rng, n0), digits, terms=terms))
    for n0, delta in _Q1:
        queries.append(_series_query("q1", _Q1_ALPHA, _band(rng, n0), 60, delta=delta))
    for alpha, n0, terms in _SMALL_N:
        queries.append(_series_query("oracle-reach", alpha, _band(rng, n0, 0.1), 60, terms=terms))
    for alpha in _T5_ALPHAS:
        queries.append(_series_query("t5-regime", alpha, _band(rng, 9800, 0.04), 90, terms=100))
    rng.shuffle(queries)
    return queries


def _series_query(stratum, alpha, n, digits, terms=None, delta=None):
    argv = ["--digits", str(digits), "series", "--alpha", alpha, "--n", str(n)]
    argv += ["--terms", str(terms)] if terms is not None else ["--delta", delta]
    return {
        "stratum": stratum,
        "command": "series",
        "argv": argv,
        "alpha": alpha, "n": n, "digits": digits, "terms": terms, "delta": delta,
    }


# ---------------------------------------------------------------------------
# hyperbolicity
# ---------------------------------------------------------------------------

# alpha = 1 reproduces the published thresholds: horizon above N_d(1)
_PUBLISHED = ((2, 200), (3, 200), (4, 230), (5, 390))

# (alpha, d, horizon lower edge)
_INTEGER = (
    ("2", 2, 200), ("2", 3, 300), ("2", 4, 250), ("2", 5, 300),
    ("3", 2, 380), ("3", 3, 220), ("3", 4, 300), ("3", 5, 260),
    ("4", 5, 240), ("4", 3, 340), ("5", 4, 360), ("5", 5, 300),
    ("6", 5, 220), ("6", 3, 260), ("8", 4, 300), ("8", 5, 240),
    ("4", 2, 300), ("5", 2, 260), ("5", 3, 280), ("8", 2, 220),
)
_RATIONAL = (("13/3", 3, 240), ("51/7", 4, 180))
# numeric-mode verdicts cost 2^(d+1) exact Sturm runs per n: short horizons
_IRRATIONAL = (("e", 3, 25), ("pi", 2, 100), ("sqrt(3)", 4, 8))


def _hyperbolicity(rng) -> list:
    queries = []
    for d, h0 in _PUBLISHED:
        queries.append(_threshold_query("published", "1", d, _band(rng, h0, 0.1)))
    for stratum, table in (("integer", _INTEGER), ("rational", _RATIONAL), ("irrational", _IRRATIONAL)):
        for alpha, d, h0 in table:
            queries.append(_threshold_query(stratum, alpha, d, _band(rng, h0)))
    rng.shuffle(queries)
    return queries


def _threshold_query(stratum, alpha, d, horizon):
    return {
        "stratum": stratum,
        "command": "threshold",
        "argv": ["threshold", "--alpha", alpha, "--d", str(d), "--horizon", str(horizon)],
        "alpha": alpha, "d": d, "horizon": horizon,
    }

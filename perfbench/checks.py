"""Independent checks of query outputs, run after the timed passes.

`check(query, output)` returns (verdict, reason): True when the output is
right, False when it is wrong, None when no reference could decide (counted
as unchecked, not as a failure). The references take another route than the
command under test:

- exact: the value equals the oracle recurrence's exact Fraction and the
  reported term counts satisfy M >= M* >= 1;
- series: within reach of the oracle, |value - oracle| <= tail_bound;
  otherwise a second truncation (other term count or delta) must agree within
  the sum of both tail bounds;
- threshold: every verdict of the scan is recomputed on the oracle's
  coefficients, by discriminant sign for d <= 3 and by the signs of the
  Hermite (power-sum Hankel) matrix's leading minors for d >= 4; alpha = 1
  must also give the published threshold.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

import mpmath as mp

from fracpart import circle, oracle
from fracpart.numkernel import Precision, parse_alpha

from workloads import PUBLISHED_THRESHOLDS

# largest n whose real-alpha oracle recurrence (O(n^2) mpf steps) is cheap
ORACLE_REACH = 400


def check(query: dict, output: str):
    try:
        return _CHECKS[query["command"]](query, output)
    except (ArithmeticError, ValueError, KeyError, IndexError, AttributeError) as exc:
        return False, "output rejected (%s: %s)" % (type(exc).__name__, exc)


def _fields(output: str) -> dict:
    out = {}
    for line in output.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _check_exact(query, output):
    f = _fields(output)
    value = Fraction(f["p"])
    m, m_star = int(f["M"]), int(f["M*"])
    a, b, n = query["a"], query["b"], query["n"]
    truth = Fraction(oracle.coeffs(Fraction(a, b), n).values[n])
    if value != truth:
        return False, "p = %s, oracle gives %s" % (value, truth)
    if not m >= m_star >= 1:
        return False, "term counts violate M >= M* >= 1 (M=%d, M*=%d)" % (m, m_star)
    return True, "equals oracle"


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _check_series(query, output):
    f = _fields(output)
    digits = query["digits"]
    prec = Precision(decimal_digits=digits)
    alpha = parse_alpha(query["alpha"])
    n = query["n"]
    with prec.ctx():
        value = mp.mpf(f["value"])
        # printed with 10 digits: allow for rounding down
        tail = mp.mpf(f["tail_bound"]) * (1 + mp.mpf(10) ** -9)
        # the value is printed to `digits` digits
        slack = abs(value) * mp.mpf(10) ** (3 - digits)
    if n <= ORACLE_REACH:
        truth = oracle.coeffs(alpha, n, prec).values[n]
        with prec.ctx():
            err = abs(value - truth)
            ok = err <= tail + slack
        return ok, "oracle distance %s vs tail bound %s" % (mp.nstr(err, 5), mp.nstr(tail, 5))
    if query["terms"] is not None:
        terms = query["terms"]
        other = circle.m_term_delta(alpha, terms // 2 if terms > 1 else 2, prec)
    else:
        with prec.ctx():
            other = mp.mpf(query["delta"]) * mp.mpf("1.5")
    second = circle.partial_series(alpha, n, other, prec)
    with prec.ctx():
        err = abs(value - second.value)
        ok = err <= tail + second.tail_bound + slack
    return ok, "second truncation distance %s vs summed tail bounds %s" % (
        mp.nstr(err, 5), mp.nstr(tail + second.tail_bound, 5))


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

def _to_fraction(v) -> Fraction:
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    man, exp = mp.mpf(v).man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def _integer_coefficients(coeffs):
    """Scale rational coefficients by a positive integer to make them integers."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return [int(c * den) for c in coeffs]


def _discriminant_verdict(c):
    """Real-rootedness of a degree-2 or degree-3 polynomial (ascending integer coefficients)."""
    if len(c) == 3:
        disc = c[1] * c[1] - 4 * c[2] * c[0]
    else:
        d0, c1, b2, a3 = c
        disc = (18 * a3 * b2 * c1 * d0 - 4 * b2 ** 3 * d0 + b2 * b2 * c1 * c1
                - 4 * a3 * c1 ** 3 - 27 * a3 * a3 * d0 * d0)
    return disc >= 0


def _hermite_verdict(c):
    """Real-rootedness by Hermite's theorem: all roots are real iff the Hankel
    matrix of the root power sums is positive semidefinite. All leading minors
    positive decides True, a negative one decides False, a zero one (a
    repeated root) is left undecided (None).

    With lead = c[-1], S_k = lead^k * s_k are integers by Newton's identities,
    and each minor of (S_{i+j}) is the matching minor of (s_{i+j}) times an
    even power of lead, so the signs agree.
    """
    d = len(c) - 1
    lead = c[-1]
    b = [0] + [c[d - i] * lead ** (i - 1) for i in range(1, d + 1)]
    s = [d]
    for k in range(1, 2 * d - 1):
        acc = k * b[k] if k <= d else 0
        acc += sum(b[i] * s[k - i] for i in range(1, min(k - 1, d) + 1))
        s.append(-acc)
    # Bareiss fraction-free elimination: the k-th pivot is the k-th leading minor
    m = [[s[i + j] for j in range(d)] for i in range(d)]
    prev = 1
    for k in range(d):
        pivot = m[k][k]
        if pivot <= 0:
            return False if pivot < 0 else None
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return True


def _scan_verdict(values, d, n):
    coeffs = _integer_coefficients([comb(d, j) * _to_fraction(values[n + j]) for j in range(d + 1)])
    if d <= 3:
        return _discriminant_verdict(coeffs)
    return _hermite_verdict(coeffs)


def _check_threshold(query, output):
    f = _fields(output)
    got = None if f["threshold"] == "none" else int(f["threshold"])
    d, horizon = query["d"], query["horizon"]
    alpha = parse_alpha(query["alpha"])
    values = oracle.coeffs(alpha, horizon + d, Precision()).values
    last_fail = last_undecided = None
    for n in range(horizon + 1):
        verdict = _scan_verdict(values, d, n)
        if verdict is None:
            last_undecided = n
        elif not verdict:
            last_fail = n
    if last_undecided is not None and (last_fail is None or last_undecided > last_fail):
        # the threshold hinges on a verdict the reference cannot decide
        return None, "repeated root at n=%d: Hermite minors undecided" % last_undecided
    if last_fail is None:
        want = 0
    elif last_fail == horizon:
        want = None
    else:
        want = last_fail + 1
    if got != want:
        return False, "threshold %s, reference scan gives %s" % (got, want)
    if query["alpha"] == "1" and got != PUBLISHED_THRESHOLDS[d]:
        return False, "threshold %s, published N_%d(1) = %d" % (got, d, PUBLISHED_THRESHOLDS[d])
    return True, "matches reference scan"


_CHECKS = {"exact": _check_exact, "series": _check_series, "threshold": _check_threshold}

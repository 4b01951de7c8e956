"""Circle-method analytic core.

Dedekind sums, alpha-Kloosterman sums, the truncated Rademacher-type series
p_alpha(n; delta) with a certified tail bound, the asymptotic main term, the
finite exact-rational recovery for rational alpha, and a two-sided numeric
check of the generating function's modular transformation law.

Notation used throughout (all for alpha > 0):

    nu    = sqrt(n - alpha/24)
    mu(m) = sqrt(alpha/24 - m),  m = 0..q,  q = floor(alpha/24)
    order = alpha/2 + 1          (Bessel order of every series term)

and the truncated series

    p_alpha(n; delta) = nu^(-order) * sum_{m<=q} mu(m)^order p_alpha(m)
                        * sum_{1<=k<2 pi mu(m)/delta} (2 pi/k) A_k(n,m)
                        * I_order(4 pi nu mu(m) / k)

whose distance from p_alpha(n) is certified by tail_bound. A_k is real, and
so is every sum. Summation is in canonical order (m ascending, k ascending;
inside A_k, an exact integer sum of the cosines of h <= k/2, rounded once)
so identical inputs give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath as mp

from fracpart import oracle
from fracpart.numkernel import (
    DEFAULT_PRECISION,
    AlphaValue,
    BesselFamily,
    DomainError,
    Precision,
    as_alpha,
    bessel_i,
    cos_sum,
    phase_sum,
    to_mpf,
)


# ---------------------------------------------------------------------------
# Dedekind sums and modular inverses
# ---------------------------------------------------------------------------

def dedekind_sum(h: int, k: int) -> Fraction:
    """Exact Dedekind sum s(h, k), gcd(h, k) = 1, 0 <= h < k.

    Fast path: the reciprocity law folded into a Euclidean descent,
    O(log k) integer operations instead of the O(k) defining sum.
    """
    _check_coprime_pair(h, k)
    return Fraction(_dedekind_12k(h, k), 12 * k)


def _dedekind_12k(h: int, k: int) -> int:
    """F(h, k) = 12k s(h, k), an integer, for coprime 0 <= h < k (unchecked).

    Reciprocity s(h,k) + s(k,h) = -1/4 + (h^2 + k^2 + 1)/(12hk), times 12hk,
    reads h F(h,k) + k F(k mod h, h) = h^2 + k^2 + 1 - 3hk, with F(0,1) = 0.
    The Euclidean descent records the pairs and the climb back solves for F;
    every division is exact.
    """
    chain = []
    while h:
        chain.append((h, k))
        h, k = k % h, h
    f = 0
    for h, k in reversed(chain):
        f = (h * h + k * k + 1 - 3 * h * k - k * f) // h
    return f


def dedekind_sum_direct(h: int, k: int) -> Fraction:
    """s(h, k) by the defining sum; O(k), kept as the referee for the fast path."""
    _check_coprime_pair(h, k)
    acc = Fraction(0)
    for r in range(1, k):
        hr = h * r
        acc += Fraction(r, k) * (Fraction(hr, k) - hr // k - Fraction(1, 2))
    return acc


def inverse_neg(h: int, k: int) -> int:
    """H in [0, k) with h*H = -1 (mod k); 0 when k = 1."""
    _check_coprime_pair(h, k)
    if k == 1:
        return 0
    return (-pow(h % k, -1, k)) % k


def _check_coprime_pair(h: int, k: int):
    if k < 1:
        raise DomainError("k must be a positive integer")
    if not 0 <= h < k:
        raise DomainError("require 0 <= h < k")
    if gcd(h, k) != 1:
        raise DomainError("require gcd(h, k) = 1")


# ---------------------------------------------------------------------------
# alpha-Kloosterman sums
# ---------------------------------------------------------------------------

def kloosterman(alpha, n: int, m: int, k: int, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """A_k(n, m) = sum over h in [0,k), gcd(h,k)=1 of exp(i theta_h), where

        theta_h = alpha*pi*s(h,k) + (2 pi / k)(m*H - n*h),  h*H = -1 mod k.

    A_k is real for real alpha: s(k-h,k) = -s(h,k) and H(k-h) = k - H(h) make
    the h and k-h terms conjugate. So cos theta_h is summed over h <= k/2 and
    doubled when k > 2 (for k <= 2 it is one term).

    With S_h = 6k s(h,k), an integer from the reciprocity descent, the phase
    over pi for rational alpha = a/b is r/(6kb) with the integer residue
    r = a S_h + 12b(m H - n h) mod 12kb, and cos_sum adds the cosines. For
    real alpha the phase is pi alpha S_h/(6k) + 2 pi r/k with
    r = m H - n h mod k, and phase_sum adds the cosines from powers of
    exp(i pi alpha/(6k)) and exp(2 pi i/k). Either kernel sums exactly on
    integers and rounds once: A_k is within half an ulp plus 2^-wp of its
    exact value, wp the working precision in bits.
    """
    alpha = as_alpha(alpha)
    if k < 1:
        raise DomainError("k must be a positive integer")
    # (h, S_h, H) for the coprime h <= k/2
    triples = [(h, _dedekind_12k(h, k) // 2, (-pow(h, -1, k)) % k)
               for h in range(k // 2 + 1) if gcd(h, k) == 1]
    with prec.ctx():
        if alpha.rational is not None:
            a, b = alpha.rational.numerator, alpha.rational.denominator
            total = cos_sum([a * s_h + 12 * b * (m * big_h - n * h) for h, s_h, big_h in triples],
                            12 * k * b, prec)
        else:
            total = phase_sum(alpha, k, [(s_h, m * big_h - n * h) for h, s_h, big_h in triples], prec)
        return 2 * total if k > 2 else total


# ---------------------------------------------------------------------------
# series geometry: alpha, order, nu, the mu ladder, weights, tail constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CirclePoint:
    """Fixed data of the series at (alpha, n) and one working precision.

    av is alpha at working precision, order = av/2 + 1, nu_order the
    series' divisor nu^order, mus the ladder mu(0..q), weights the products
    mu(m)^order p_alpha(m) for the oracle prefix p_alpha(0..q) and c the tail
    constant C. A truncation delta only moves the k-cutoffs, so every series
    routine reads these fields.
    """

    alpha: AlphaValue
    n: int
    nu: mp.mpf
    nu_order: mp.mpf
    q: int
    mus: tuple
    av: mp.mpf
    order: mp.mpf
    weights: tuple
    c: mp.mpf


def _alpha_floor24(alpha: AlphaValue, prec: Precision) -> int:
    a = alpha.rational
    if a is not None:
        return a.numerator // (24 * a.denominator)
    with prec.ctx():
        return int(mp.floor(alpha.value_at(prec) / 24))


def _check_n(alpha: AlphaValue, n: int, prec: Precision) -> None:
    """nu = sqrt(n - alpha/24) is real for n > alpha/24, i.e. n > q."""
    if n <= _alpha_floor24(alpha, prec):
        raise DomainError("require n > alpha/24")


def circle_point(alpha, n: int, prec: Precision = DEFAULT_PRECISION) -> CirclePoint:
    """Assemble the series geometry at (alpha, n). n is checked before the
    oracle runs; only nu depends on n."""
    alpha = as_alpha(alpha)
    _check_n(alpha, n, prec)
    q = _alpha_floor24(alpha, prec)
    pm = oracle.coeffs(alpha, q, prec).values
    with prec.ctx():
        av = alpha.value_at(prec)
        order = av / 2 + 1
        mus = tuple(mp.sqrt(av / 24 - m) for m in range(q + 1))
        weights = tuple(mu ** order * to_mpf(p) for mu, p in zip(mus, pm))
        c = 4 * mp.pi ** 2 * (1 + 2 / av) * mus[0] * sum(weights, mp.mpf(0))
        nu = mp.sqrt(n - av / 24)
        nu_order = nu ** order
    return CirclePoint(alpha=alpha, n=n, nu=nu, nu_order=nu_order, q=q, mus=mus, av=av,
                       order=order, weights=weights, c=c)


def _term_cutoff(x: mp.mpf) -> int:
    """Number of integers k with 1 <= k < x, snapping x to an integer when it
    sits within working-precision noise of one (delta values built as
    2*pi*mu/(m+1) land exactly on integer boundaries in exact arithmetic)."""
    if x <= 1:
        return 0
    xr = mp.nint(x)
    snap = mp.mpf(10) ** (-(mp.mp.dps - 8)) * max(mp.mpf(1), abs(x))
    if abs(x - xr) < snap:
        return max(0, int(xr) - 1)
    return max(0, int(mp.ceil(x)) - 1)


def _ladder_counts(point: CirclePoint, j: int) -> tuple:
    """Term count per m at ladder index j, rational alpha = a/b, exactly:
    k < 2 pi mu(m)/delta_j = (j+1) mu(m)/mu(0) holds for the k >= 1 with
    k^2 a < (j+1)^2 (a - 24mb)."""
    a, b = point.alpha.rational.numerator, point.alpha.rational.denominator
    return tuple(isqrt(max((j + 1) ** 2 * (a - 24 * m * b) - 1, 0) // a) for m in range(point.q + 1))


# The helpers below run inside the caller's working-precision context.

def _ladder_delta(mu0: mp.mpf, j: int) -> mp.mpf:
    """delta_j = 2 pi mu(0)/(j+1), the truncation with j terms in block m = 0."""
    return 2 * mp.pi * mu0 / (j + 1)


def _first_form_bound(point: CirclePoint, dv: mp.mpf, prec: Precision, bessel=None) -> mp.mpf:
    """The first-form tail bound (C/delta) I_order(2 delta nu) / nu^order.
    bessel_i gives I_order for a user-given delta; the ladder scan passes in
    its own value, a member of a term cache's m = 0 family."""
    if bessel is None:
        bessel = bessel_i(point.order, 2 * dv * point.nu, prec)
    return (point.c / dv) * bessel / point.nu_order


# ---------------------------------------------------------------------------
# cached series terms
# ---------------------------------------------------------------------------
#
# For fixed (alpha, n, working precision) the term
#     t(m, k) = (2 pi / k) A_k(n, m) I_order(4 pi nu mu(m) / k)
# does not depend on delta; delta only moves the k-cutoffs. The scans in
# guaranteed/empirical/exact evaluate thousands of truncations of the same
# term sequence, so the prefix sums of the terms are cached per (alpha, n,
# precision), together with the ladder index each recovery threshold needs.

class _TermCache:
    """The prefix sums of t(m, k) per m-block, and the ladder index of each
    recovery threshold. The Bessel values of block m are the members
    I_order(4 pi nu mu(m) / k) of one BesselFamily, whose first term the
    cache keeps; each ensure builds that family's coefficient table once and
    drops it when it returns."""

    def __init__(self, point: CirclePoint, prec: Precision):
        self.point = point
        self.prec = prec
        self.prefix = [[mp.mpf(0)] for _ in range(point.q + 1)]  # sums of t(m, 1..k)
        self.ladder = {}  # threshold -> smallest ladder index whose tail bound is below it
        self.families = {}  # m -> BesselFamily of base 4 pi nu mu(m)

    def family(self, m: int) -> BesselFamily:
        if m not in self.families:
            point = self.point
            with self.prec.ctx():
                base = 4 * mp.pi * point.nu * point.mus[m]
            self.families[m] = BesselFamily(point.order, base, self.prec)
        return self.families[m]

    def ensure(self, m: int, count: int):
        prefix = self.prefix[m]
        if len(prefix) > count:
            return
        point, prec = self.point, self.prec
        bessel = self.family(m).members(len(prefix), count)
        with prec.ctx():
            two_pi = 2 * mp.pi
            for k in range(len(prefix), count + 1):
                ak = kloosterman(point.alpha, point.n, m, k, prec)
                t = (two_pi / k) * ak * bessel(k)
                prefix.append(prefix[-1] + t)

    def sum_blocks(self, counts: tuple) -> mp.mpf:
        """The truncated series with counts[m] terms in block m.

        The weighted prefix sums of the m-blocks are added in m ascending
        order and the total is divided by nu^order.
        """
        point = self.point
        with self.prec.ctx():
            total = mp.mpf(0)
            for m, count in enumerate(counts):
                if count:
                    self.ensure(m, count)
                    total += point.weights[m] * self.prefix[m][count]
            return total / point.nu_order


# Least recently used term caches. T5 builds 20 of them and the acceptance
# check of its source values reuses four, so the bound stays above 20.
@lru_cache(maxsize=32)
def _term_cache(alpha: AlphaValue, n: int, prec: Precision) -> _TermCache:
    return _TermCache(circle_point(alpha, n, prec), prec)


def clear_caches():
    _term_cache.cache_clear()


# ---------------------------------------------------------------------------
# truncated series and its certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesApproximation:
    """One evaluation of p_alpha(n; delta) plus its certificates."""

    value: mp.mpf            # the computed sum
    terms_per_m: tuple
    tail_bound: mp.mpf       # certified |p_alpha(n) - value|


def _delta_range_check(delta, mu0):
    if not delta > 0:  # NaN fails here too
        raise DomainError("delta must be positive")
    if delta >= 2 * mp.pi * mu0:
        raise DomainError("delta must be below 2*pi*mu(0)")


def partial_series(alpha, n: int, delta, prec: Precision = DEFAULT_PRECISION) -> SeriesApproximation:
    """Truncated series p_alpha(n; delta) with certified tail bound.

    Summation order is m ascending then k ascending (each Kloosterman sum
    an exact integer sum, rounded once); reruns are bit-identical.
    """
    alpha = as_alpha(alpha)
    cache = _term_cache(alpha, n, prec)
    point = cache.point
    with prec.ctx():
        dv = to_mpf(delta)
        _delta_range_check(dv, point.mus[0])
        # the k with 1 <= k < 2 pi mu(m)/dv, per m
        counts = tuple(_term_cutoff(2 * mp.pi * mu / dv) for mu in point.mus)
        return SeriesApproximation(value=cache.sum_blocks(counts), terms_per_m=counts,
                                   tail_bound=_first_form_bound(point, dv, prec))


def m_term_delta(alpha, m_terms: int, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """delta = 2 pi mu(0) / (m_terms + 1): exactly m_terms series terms.

    Only meaningful for 0 < alpha < 24 (q = 0, a single m-block).
    """
    alpha = as_alpha(alpha)
    if m_terms < 1:
        raise DomainError("m_terms must be >= 1")
    if _alpha_floor24(alpha, prec) != 0:
        raise DomainError("m_term_delta requires alpha < 24")
    with prec.ctx():
        return _ladder_delta(mp.sqrt(alpha.value_at(prec) / 24), m_terms)


def tail_constant(alpha, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """C = 4 pi^2 (1 + 2/alpha) mu(0) sum_{m<=q} mu(m)^(alpha/2+1) p_alpha(m)."""
    alpha = as_alpha(alpha)
    return circle_point(alpha, _alpha_floor24(alpha, prec) + 1, prec).c


def tail_bound(alpha, n: int, delta, prec: Precision = DEFAULT_PRECISION,
               second_form: bool = False) -> mp.mpf:
    """Certified bound on |p_alpha(n) - p_alpha(n; delta)|.

    Default is the sharper form (C/delta) I_order(2 delta nu) / nu^order;
    second_form=True gives C delta^(alpha/2) I_order(4 pi mu0 nu) /
    (2 pi mu0 nu)^order, the variant whose inversion yields the closed-form
    exact-recovery delta (see recovery_delta).
    """
    point = circle_point(alpha, n, prec)
    with prec.ctx():
        dv = to_mpf(delta)
        _delta_range_check(dv, point.mus[0])
        if second_form:
            x = 2 * mp.pi * point.mus[0] * point.nu
            return point.c * dv ** (point.av / 2) * bessel_i(point.order, 2 * x, prec) / x ** point.order
        return _first_form_bound(point, dv, prec)


@dataclass(frozen=True)
class AsymptoticEstimate:
    bessel_form: mp.mpf
    elementary_form: mp.mpf


def asymptotic(alpha, n: int, prec: Precision = DEFAULT_PRECISION) -> AsymptoticEstimate:
    """Leading-order estimates of p_alpha(n), lambda = sqrt(24n/alpha - 1):

    bessel_form     = 2 pi I_order((pi alpha / 6) lambda) / lambda^order
                      (identical to the one-term series truncation when q=0),
    elementary_form = sqrt(12/alpha) exp((alpha pi / 6) lambda) / lambda^((alpha+3)/2).

    Needs alpha and order = alpha/2 + 1 only, not the oracle prefix.
    """
    alpha = as_alpha(alpha)
    _check_n(alpha, n, prec)
    with prec.ctx():
        av = alpha.value_at(prec)
        order = av / 2 + 1
        lam = mp.sqrt(24 * n / av - 1)
        bessel_form = 2 * mp.pi * bessel_i(order, (mp.pi * av / 6) * lam, prec) / lam ** order
        elementary_form = (
            mp.sqrt(12 / av) * mp.exp((av * mp.pi / 6) * lam) / lam ** ((av + 3) / 2)
        )
        return AsymptoticEstimate(bessel_form=bessel_form, elementary_form=elementary_form)


# ---------------------------------------------------------------------------
# exact rational recovery
# ---------------------------------------------------------------------------

def _recovery_alpha(a: int, b: int, n: int) -> AlphaValue:
    """alpha = a/b, refused at n <= alpha/24 before D = denominator(a, b, n)
    is built: D has at least n log10(b) digits, millions at n = 10**7."""
    if b < 1:  # denominator's message; Fraction(a, 0) would raise ZeroDivisionError
        raise DomainError("denominator requires b >= 1")
    alpha = as_alpha(Fraction(a, b))
    _check_n(alpha, n, DEFAULT_PRECISION)
    return alpha


def recovery_delta(a: int, b: int, n: int, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Closed-form certificate delta for exact recovery, clamped into range:

        delta = ((2 pi mu0 nu)^order / (2 D C I_order(4 pi mu0 nu)))^(2/alpha)

    At this delta the second-form tail bound equals 1/(2D) exactly, so any
    smaller delta certifies correct rounding of D * p_alpha(n; delta).
    """
    alpha = _recovery_alpha(a, b, n)
    d = oracle.denominator(a, b, n)
    point = circle_point(alpha, n, prec)
    with prec.ctx():
        x = 2 * mp.pi * point.mus[0] * point.nu
        delta = (x ** point.order / (2 * d * point.c * bessel_i(point.order, 2 * x, prec))) ** (2 / point.av)
        cap = 2 * mp.pi * point.mus[0] * (1 - mp.mpf(10) ** -6)
        return min(delta, cap)


def _recovery_setup(a: int, b: int, n: int, share: int):
    """(term cache, D, ladder index j at tail bound < 1/(share D)) for
    p_{a/b}(n). One scan at 60 digits finds j, kept in that cache's ladder
    dict: the bound multiplies and divides positive factors, so more digits
    move it by about 1e-68 relative, and j past _LADDER_CAP is refused before
    any series term. _recovery_cache alone sets the working precision,
    reading only the k = 1 terms of this cache."""
    alpha = _recovery_alpha(a, b, n)
    d = oracle.denominator(a, b, n)
    threshold = Fraction(1, share * d)
    cache = _term_cache(alpha, n, DEFAULT_PRECISION)
    if threshold not in cache.ladder:
        cache.ladder[threshold] = _ladder_scan(cache, threshold)
    return cache, d, cache.ladder[threshold]


_LADDER_CAP = 2 ** 19  # largest ladder index the scan tries


def _ladder_scan(cache: _TermCache, threshold: Fraction) -> int:
    """Smallest ladder index j (delta_j = 2 pi mu0 / (j+1)) whose first-form
    tail bound is below threshold. Every term of (C/delta) I(2 delta nu) is a
    positive power of delta, so the bound strictly decreases as j grows;
    bracket the crossing by doubling and bisect for the minimal index.
    I_order(2 delta_j nu) = I_order(4 pi nu mu(0) / (j+1)) is member j + 1
    of the cache's m = 0 family, read from one coefficient table that is
    dropped when the scan returns."""
    point, prec = cache.point, cache.prec
    bessel = cache.family(0).members(2)
    with prec.ctx():
        limit = to_mpf(threshold)

        def clears(j):
            dv = _ladder_delta(point.mus[0], j)
            return _first_form_bound(point, dv, prec, bessel(j + 1)) < limit

        hi = 1
        while not clears(hi):
            hi *= 2
            if hi > _LADDER_CAP:
                raise ArithmeticError(
                    "tail bound never met threshold within %d ladder steps" % _LADDER_CAP)
        if hi == 1:
            return 1
        lo = hi // 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if clears(mid):
                hi = mid
            else:
                lo = mid
        return hi


def _recovery_cache(cache: _TermCache, j: int, d: int) -> _TermCache:
    """The term cache at the one recovery precision of ladder index j, set
    before any term is built at it. A_1 = 1, |A_k| <= phi(k) < k for k >= 2
    and I_order increases, so no term exceeds the k = 1 term of its block:
    the largest scaled term t1 = max |weights[m] t(m, 1)| / nu^order comes
    from the k = 1 terms of the 60-digit cache, and |value| <= c t1 for c
    terms. digits = max(60, floor(log10(4 D c^2 t1)) + 1) then puts the
    rounding-noise estimate c 10^-digits max(t1, |value|) below 1/(4D), and
    below it for every smaller index too."""
    point = cache.point
    counts = _ladder_counts(point, j)
    blocks = [m for m, count in enumerate(counts) if count]
    with cache.prec.ctx():
        for m in blocks:
            cache.ensure(m, 1)
        t1 = max(abs(point.weights[m] * cache.prefix[m][1]) for m in blocks) / point.nu_order
        digits = max(DEFAULT_PRECISION.decimal_digits,
                     int(mp.floor(mp.log10(4 * d * sum(counts) ** 2 * t1))) + 1)
    return _term_cache(point.alpha, point.n, Precision(decimal_digits=digits))


def exact_value(a: int, b: int, n: int) -> Fraction:
    """Exact p_{a/b}(n) by rounding D * p_alpha(n; delta), no oracle involved.

    Policy: D = denominator(a, b, n); evaluation point is the coarsest ladder
    delta_j = 2 pi mu0/(j+1) whose first-form tail bound is < 1/(4D), found
    once at 60 digits; working precision, set once from the k = 1 terms by
    _recovery_cache, puts the rounding noise estimate (term count x
    10^-digits x largest term) below 1/(4D). The tail bound is proved but
    the noise is an estimate, not a bound, so the rounding is only as safe as
    that estimate. The closed-form delta (see recovery_delta) also meets the
    tail condition but implies astronomically many terms; the ladder delta
    meets it with the sharper first bound form.
    """
    cache, d, j = _recovery_setup(a, b, n, 4)
    cache = _recovery_cache(cache, j, d)
    value = cache.sum_blocks(_ladder_counts(cache.point, j))
    with cache.prec.ctx():
        dv_scaled = d * value
        r = int(mp.nint(dv_scaled))
        if abs(dv_scaled - r) > mp.mpf("0.49"):
            raise ArithmeticError(
                "rounding ambiguity at n=%d: D*value=%s" % (n, mp.nstr(dv_scaled, 30))
            )
        return Fraction(r, d)


def guaranteed_terms(a: int, b: int, n: int) -> int:
    """Smallest ladder term count whose first-form tail bound certifies that
    rounding D * p_alpha(n; delta) recovers p_alpha(n) (bound < 1/(2D)).
    The scan runs on the cached series point exact_value starts from, and
    empirical_min_terms reads the index it records there."""
    cache, _, j = _recovery_setup(a, b, n, 2)
    # the ladder index as a total (m, k) term count
    return sum(_ladder_counts(cache.point, j))


def empirical_min_terms(a: int, b: int, n: int) -> int:
    """Smallest term count from which rounding is stably correct: one past the
    last ladder index in [1, guaranteed] where rounding D * p_alpha(n; delta_j)
    misses the oracle value. Aborts if the certified index itself fails."""
    cache, d, j_guaranteed = _recovery_setup(a, b, n, 2)
    # an integer: the oracle's checked recurrence raises if D does not clear p(n)
    target = int(oracle.coeffs(cache.point.alpha, n).values[n] * d)
    # exact_value's precision, so that rounding reflects truncation error,
    # not floating noise, and a --report-terms query builds its terms once:
    # the 1/(4D) index has at least the terms of the guaranteed one
    cache = _recovery_cache(cache, _recovery_setup(a, b, n, 4)[2], d)
    point = cache.point
    for m, count in enumerate(_ladder_counts(point, j_guaranteed)):
        cache.ensure(m, count)
    last_fail = 0
    with cache.prec.ctx():
        for j in range(1, j_guaranteed + 1):
            value = cache.sum_blocks(_ladder_counts(point, j))
            if int(mp.nint(d * value)) != target:
                last_fail = j
        if last_fail >= j_guaranteed:
            raise ArithmeticError(
                "rounding failed at the certified term count (n=%d, terms=%d)" % (n, j_guaranteed)
            )
        return sum(_ladder_counts(point, last_fail + 1))


# ---------------------------------------------------------------------------
# modular transformation residual
# ---------------------------------------------------------------------------

def functional_equation_residual(alpha, h: int, k: int, z, K: int,
                                 prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """|LHS - RHS| of the transformation law of P(x)^alpha, evaluated two-sided:

        P(x)^alpha = exp(i pi alpha s(h,k)) (z/k)^(alpha/2)
                     * exp((alpha pi / 12 k)(k/z - z/k)) P(x')^alpha

    with x = exp((2 pi/k)(i h - z/k)), x' = exp((2 pi/k)(i H - k/z)), Re z > 0.
    Both sides use the K-factor product evaluation with principal branches
    (every exponentiated quantity here has positive real part, where the
    principal branch and the stated branch convention agree). The
    transformation law forces the residual to the size of the two
    product-truncation tails; eval_P_alpha rejects |x| or |x'| >= 0.999.
    """
    alpha = as_alpha(alpha)
    _check_coprime_pair(h, k)
    with prec.ctx():
        zv = mp.mpmathify(z)
        if mp.re(zv) <= 0:
            raise DomainError("require Re z > 0")
        av = alpha.value_at(prec)
        s_hk = to_mpf(dedekind_sum(h, k))
        big_h = inverse_neg(h, k)
        two_pi_over_k = 2 * mp.pi / k
        x = mp.exp(two_pi_over_k * (mp.mpc(0, h) - zv / k))
        xp = mp.exp(two_pi_over_k * (mp.mpc(0, big_h) - k / zv))
        lhs = oracle.eval_P_alpha(x, alpha, K, prec)
        prefactor = (
            mp.exp(mp.mpc(0, mp.pi * av * s_hk))
            * mp.power(zv / k, av / 2)
            * mp.exp((av * mp.pi / (12 * k)) * (k / zv - zv / k))
        )
        rhs = prefactor * oracle.eval_P_alpha(xp, alpha, K, prec)
        return abs(lhs - rhs)

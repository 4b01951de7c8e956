"""Ground-truth coefficients of P(x)^alpha = prod_k (1 - x^k)^(-alpha).

Two recurrences, both exact identities and independent of the circle-method
machinery, which is what makes them usable as a referee for everything else.

Rational alpha = a/b runs Euler's pentagonal theorem, P(x)^alpha =
E(x)^(-alpha) with E(x) = prod_k (1 - x^k) = sum_j (-1)^j x^(j(3j-1)/2),
through J. C. P. Miller's power recurrence on u(n) = D p(n),
D = denominator(a, b, N):

    b n u(n) = sum_k ((b - a) k - b n) g_k u(n - k),    u(0) = D,

over the generalized pentagonal numbers k <= n, where g_k = +-1 are E's
coefficients: O(sqrt n) integer steps per n. Every division is checked, so
a D that fails to clear some p(n) raises instead of giving a wrong value;
the entries are Fractions u(n)/D (plain integers when alpha is an integer,
where D = 1).

Real alpha keeps the logarithmic-derivative recurrence

    n p(n) = alpha sum_{j=1..n} sigma(j) p(n - j),    p(0) = 1,

O(n) steps per n, evaluated in mpmath with extra guard digits because it
accumulates O(N) roundings. Its terms are all positive; the pentagonal
recurrence's signed terms cancel, and rounded they lose digits as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath as mp

from fracpart.numkernel import (
    DEFAULT_PRECISION,
    DomainError,
    Precision,
    as_alpha,
)

@dataclass(frozen=True)
class CoefficientTable:
    """p_alpha(0..N): int (integer alpha), Fraction or mpf values."""

    values: tuple


def coeffs(alpha, N: int, prec: Precision = DEFAULT_PRECISION) -> CoefficientTable:
    """Exact/high-precision table of p_alpha(0..N).

    alpha's kind selects the recurrence: the pentagonal one on the scaled
    integers u(n) = D p(n), one checked division per step, for rational
    alpha; the divisor-sum one in mpf arithmetic, with the sigma sieve it
    needs, for real alpha, whose rounded values the pentagonal one's
    cancellation would erode.
    """
    alpha = as_alpha(alpha)
    if N < 0:
        raise DomainError("coeffs requires N >= 0")
    r = alpha.rational
    if r is None:
        # sig[j] = sum of the divisors of j, sieved in O(N log N) for this call
        sig = [0] * (N + 1)
        for d in range(1, N + 1):
            for m in range(d, N + 1, d):
                sig[m] += d
        # 10 extra guard digits on top of work_dps for the O(N) roundings
        with prec.ctx(10):
            av = alpha.value_at(prec)
            vals = [mp.mpf(1)]
            for n in range(1, N + 1):
                acc = mp.mpf(0)
                for j in range(1, n + 1):
                    acc += sig[j] * vals[n - j]
                vals.append(av * acc / n)
        return CoefficientTable(tuple(vals))
    a, b = r.numerator, r.denominator
    # (k, (b - a) k g_k, b g_k) for the generalized pentagonal numbers
    # k = j(3j - 1)/2 and j(3j + 1)/2 up to N, in increasing order; g_k = (-1)^j
    pent = []
    j = 1
    while (k := j * (3 * j - 1) // 2) <= N:
        g = -1 if j % 2 else 1
        pent += [(i, (b - a) * i * g, b * g) for i in (k, k + j) if i <= N]
        j += 1
    D = denominator(a, b, N)
    vals = [D]  # u(0) = D; 1 for integer alpha
    for n in range(1, N + 1):
        acc = 0
        for k, w, bg in pent:
            if k > n:
                break
            acc += (w - n * bg) * vals[n - k]
        u, rem = divmod(acc, b * n)
        if rem:
            raise ArithmeticError("denominator(%d, %d, %d) does not clear p(%d)" % (a, b, N, n))
        vals.append(u)
    if b > 1:
        vals = [Fraction(u, D) for u in vals]
    return CoefficientTable(tuple(vals))


def denominator(a: int, b: int, n: int) -> int:
    """Denominator bound D for p_{a/b}(n): b^n * prod_{p | b} p^(ord_p(n!)).

    The true reduced denominator of p_{a/b}(n) always divides D, so D clears
    it; ord_p(n!) by Legendre's formula.
    """
    if b < 1:
        raise DomainError("denominator requires b >= 1")
    if gcd(a, b) != 1:
        raise DomainError("denominator requires gcd(a, b) = 1")
    if n < 0:
        raise DomainError("denominator requires n >= 0")
    d = b ** n
    # distinct primes of b
    rem = b
    p = 2
    primes = []
    while p * p <= rem:
        if rem % p == 0:
            primes.append(p)
            while rem % p == 0:
                rem //= p
        p += 1
    if rem > 1:
        primes.append(rem)
    for p in primes:
        ordp = 0
        pk = p
        while pk <= n:
            ordp += n // pk
            pk *= p
        d *= p ** ordp
    return d


def eval_P_alpha(x, alpha, K: int, prec: Precision = DEFAULT_PRECISION):
    """K-factor truncation of P(x)^alpha = prod_{k<=K} exp(-alpha log(1 - x^k)).

    Principal branch throughout; requires |x| < 0.999 so the truncated tail
    factor is exp(O(alpha |x|^(K+1) / (1 - |x|))).
    """
    alpha = as_alpha(alpha)
    if K < 1:
        raise DomainError("eval_P_alpha requires K >= 1")
    with prec.ctx():
        xv = mp.mpmathify(x)
        if abs(xv) >= mp.mpf("0.999"):
            raise DomainError("eval_P_alpha requires |x| < 0.999")
        av = alpha.value_at(prec)
        log_sum = mp.mpf(0)
        xk = mp.mpf(1) if mp.im(xv) == 0 else mp.mpc(1)
        for _ in range(K):
            xk = xk * xv
            log_sum = log_sum + mp.log(1 - xk)
        return mp.exp(-av * log_sum)

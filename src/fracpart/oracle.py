"""Ground-truth coefficients of P(x)^alpha = prod_k (1 - x^k)^(-alpha).

The logarithmic-derivative recurrence

    n * p(n) = alpha * sum_{j=1..n} sigma(j) * p(n - j),    p(0) = 1,

is exact over the rationals and independent of the circle-method machinery,
which is what makes it usable as a referee for everything else. Rational
alpha = a/b runs on the integers u(n) = D p(n), D = denominator(a, b, N),
with every division checked, so a D that fails to clear some p(n) raises
instead of giving a wrong value; the entries are Fractions u(n)/D (plain
integers when alpha is an integer, where D = 1). Real alpha is evaluated in
mpmath with extra guard digits because the recurrence accumulates O(N)
roundings.
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
    """Exact/high-precision table of p_alpha(0..N) via the recurrence.

    One loop serves every alpha; only p(0) and the step from n*p(n) to p(n)
    differ: a checked integer division of the scaled values u(n) = D p(n)
    for rational alpha, mpf arithmetic for real alpha.
    """
    alpha = as_alpha(alpha)
    if N < 0:
        raise DomainError("coeffs requires N >= 0")
    # sig[j] = sum of the divisors of j, sieved in O(N log N) for this call
    sig = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            sig[m] += d
    r = alpha.rational
    # real alpha: 10 extra guard digits on top of work_dps for the O(N) roundings
    with prec.ctx(10):
        if r is None:
            av = alpha.value_at(prec)
            one, step = mp.mpf(1), lambda acc, n: av * acc / n
        else:
            a, b = r.numerator, r.denominator
            one = denominator(a, b, N)  # u(0) = D; 1 for integer alpha

            def step(acc, n):
                u, rem = divmod(a * acc, b * n)
                if rem:
                    raise ArithmeticError("denominator(%d, %d, %d) does not clear p(%d)" % (a, b, N, n))
                return u
        vals, zero = [one], one - one
        for n in range(1, N + 1):
            acc = zero
            for j in range(1, n + 1):
                acc += sig[j] * vals[n - j]
            vals.append(step(acc, n))
    if r is not None and r.denominator > 1:
        vals = [Fraction(u, one) for u in vals]
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

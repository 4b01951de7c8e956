"""Jensen polynomials of p_alpha, renormalization, and hyperbolicity tests.

The degree-d shift-n Jensen polynomial of a coefficient source a(.) is

    J^{d,n}(x) = sum_{j=0..d} binom(d,j) a(n+j) x^j,

"hyperbolic" meaning all roots real. The renormalized polynomial

    Jhat^{d,n}(X) = (delta(n)^-d / p(n)) * J^{d,n}((delta(n) X - 1) / exp(A(n)))

with the explicit A(n), delta(n) below converges coefficientwise to the
Hermite polynomial H_d (normalization H_{d+1} = X H_d - 2d H_{d-1}).

A polynomial is a tuple of coefficients in ascending degree, trimmed of
trailing zeros; () is the zero polynomial.

Real-rootedness of rational coefficients is decided on the integers: by the
discriminant's sign for 3 or 4 coefficients (for a Jensen polynomial, the
Turan and higher-order Turan inequalities), by one Sturm chain, a primitive
signed pseudo-remainder sequence, above that. The numeric mode (for
irrational alpha) scales the box the tolerance spans to integers once. With
at most 4 coefficients it bounds the discriminant over the whole box, so a
verdict holds for every polynomial in it; above that it reruns the Sturm
chain on corners of the box, which proves nothing. It refuses to answer when
the box straddles the verdict (or the corners disagree). Nothing yet proves
that the box holds the true coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm

import mpmath as mp

from fracpart import circle, oracle
from fracpart.numkernel import (
    DEFAULT_PRECISION,
    AlphaValue,
    DomainError,
    Precision,
    as_alpha,
    mpf_to_fraction,
    to_mpf,
)


class IndeterminateVerdict(ArithmeticError):
    """Numeric-mode hyperbolicity verdict flips within the stated tolerance."""


# ---------------------------------------------------------------------------
# coefficient sources
# ---------------------------------------------------------------------------

def _source_get(values, idx: int):
    try:
        return values[idx]
    except (IndexError, KeyError) as exc:
        raise DomainError("coefficient source lacks index %d" % idx) from exc


def default_values(alpha: AlphaValue, n: int, d: int, prec: Precision):
    """p_alpha(n..n+d) plus a certified error bound per value.

    Rational alpha: the exact oracle recurrence (ints for integer alpha,
    Fractions otherwise), error 0; for alpha = 1 exact recovery of the four
    values p(n..n+3) ties with it at n = 10 000 and beats it at n = 30 000,
    but recovery needs exponentially many terms in n when b > 1.
    Irrational alpha: the 100-term series truncation, error = its certified
    tail bound.
    """
    if alpha.rational is not None:
        return list(oracle.coeffs(alpha, n + d, prec).values[n:]), [mp.mpf(0)] * (d + 1)
    delta = circle.m_term_delta(alpha, 100, prec)
    approx = [circle.partial_series(alpha, n + j, delta, prec) for j in range(d + 1)]
    return [x.value for x in approx], [x.tail_bound for x in approx]


def _window(alpha: AlphaValue, n: int, d: int, prec: Precision, values):
    """p(n..n+d) and their error bounds: default_values, or values with error 0."""
    if values is None:
        return default_values(alpha, n, d, prec)
    return [_source_get(values, n + j) for j in range(d + 1)], [mp.mpf(0)] * (d + 1)


# ---------------------------------------------------------------------------
# Jensen polynomial, renormalization, Hermite target
# ---------------------------------------------------------------------------

def jensen_poly(values, d: int, n: int) -> tuple:
    """J^{d,n}(x) with coefficient of x^j equal to binom(d,j) * values(n+j)."""
    if d < 1:
        raise DomainError("d must be a positive integer")
    if n < 0:
        raise DomainError("n must be >= 0")
    return tuple(_trim([comb(d, j) * _source_get(values, n + j) for j in range(d + 1)]))


@dataclass(frozen=True)
class RenormParams:
    A_n: mp.mpf
    delta_n: mp.mpf


def renorm_params(alpha, n: int, prec: Precision = DEFAULT_PRECISION) -> RenormParams:
    """A(n) = 2 pi sqrt(alpha/(24n - alpha)) - 24/(24n - alpha) and
    delta(n) = sqrt(12 pi sqrt(alpha)/(24n - alpha)^(3/2) - 288 alpha/(24n - alpha)^2).

    Errors out (rather than defining behavior) when the radicand is <= 0,
    which happens for n below roughly alpha * (1 + 576/pi^2) / 24.
    """
    alpha = as_alpha(alpha)
    with prec.ctx():
        av = alpha.value_at(prec)
        t = 24 * n - av
        if t <= 0:
            raise DomainError("renorm_params requires 24n > alpha")
        a_n = 2 * mp.pi * mp.sqrt(av / t) - 24 / t
        radicand = 12 * mp.pi * mp.sqrt(av) / t ** mp.mpf("1.5") - 288 * av / t ** 2
        if radicand <= 0:
            raise DomainError("delta(n) radicand is nonpositive at n=%d" % n)
        return RenormParams(A_n=a_n, delta_n=mp.sqrt(radicand))


def renormalized_jensen(alpha, d: int, n: int, prec: Precision = DEFAULT_PRECISION,
                        values=None) -> tuple:
    """Jhat^{d,n}(X) = (delta^-d / p(n)) J^{d,n}((delta X - 1)/exp(A)).

    Expanding the affine substitution, the coefficient of X^i is

        delta^(i-d)/p(n) * sum_{j>=i} binom(d,j) p(n+j) e^(-Aj) binom(j,i) (-1)^(j-i).

    values overrides the coefficient source (defaults to default_values: exact
    values for rational alpha, the 100-term certified series for irrational
    alpha); it may be a sequence or a dict indexed by n.
    """
    alpha = as_alpha(alpha)
    if d < 1:
        raise DomainError("d must be a positive integer")
    params = renorm_params(alpha, n, prec)
    vals, _ = _window(alpha, n, d, prec, values)
    return _renormalize(params, d, vals, prec)


def _renormalize(params: RenormParams, d: int, vals, prec: Precision) -> tuple:
    """Jhat^{d,n} from the window vals = p(n..n+d)."""
    with prec.ctx():
        pv = [to_mpf(v) for v in vals]
        if pv[0] == 0:
            raise DomainError("p_alpha(n) = 0; renormalization undefined")
        e_neg_a = mp.exp(-params.A_n)
        dl = params.delta_n
        coeffs = []
        for i in range(d + 1):
            acc = mp.mpf(0)
            for j in range(i, d + 1):
                acc += comb(d, j) * pv[j] * e_neg_a ** j * comb(j, i) * (-1) ** (j - i)
            coeffs.append(acc * dl ** i / (dl ** d * pv[0]))
        return tuple(_trim(coeffs))


def hermite(d: int) -> tuple:
    """H_d with H_0 = 1, H_1 = X, H_{d+1} = X H_d - 2d H_{d-1} (integer coeffs)."""
    if d < 0:
        raise DomainError("d must be >= 0")
    prev, cur = [1], [0, 1]
    if d == 0:
        return tuple(prev)
    for m in range(1, d):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= 2 * m * c
        prev, cur = cur, nxt
    return tuple(cur)


# ---------------------------------------------------------------------------
# exact real-rootedness on the integers (discriminants, primitive Sturm chains)
# ---------------------------------------------------------------------------

def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _integers(values):
    """Rationals (ints or Fractions) times the lcm of their denominators."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values]


def _prem(a, b):
    """The remainder of a by b times a positive integer, divided by its content.
    Each step takes a to |lc(b)| a - sgn(lc(b)) lc(a) x^s b; a, b are trimmed."""
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        top = sign * a[-1]
        a = [lead * c for c in a]
        for i, c in enumerate(b, len(a) - len(b)):
            a[i] -= top * c
        _trim(a)
    g = gcd(*a)
    return [c // g for c in a]


def _variations(signs) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _discriminant_parts(c):
    """(P, N) with P - N the discriminant F of c0 + c1 X + ... for the
    integers c = (c0, c1, c2) or (c0, c1, c2, c3): P sums F's monomials with
    positive coefficients, N the others negated, so P + N is G, the same
    monomials with positive coefficients. F is homogeneous of even degree:
    a common factor of c keeps its sign."""
    if len(c) == 3:
        c0, c1, c2 = c
        return c1 * c1, 4 * c0 * c2
    c0, c1, c2, c3 = c
    return (18 * c0 * c1 * c2 * c3 + c1 * c1 * c2 * c2,
            4 * (c0 * c2 ** 3 + c1 ** 3 * c3) + 27 * c0 * c0 * c3 * c3)


def _exact_hyperbolic(coeffs) -> bool:
    """The verdict for rational coefficients, not all zero. A quadratic or a
    cubic has only real roots exactly when its discriminant is >= 0 (for a
    Jensen polynomial: the Turan and the higher-order Turan inequality);
    above 4 coefficients one Sturm chain decides."""
    cs = _trim(_integers(coeffs))
    if len(cs) <= 2:
        return True  # constants and linear polynomials
    if len(cs) <= 4:
        pos, neg = _discriminant_parts(cs)
        return pos >= neg
    # Sturm chain p, p', then the negated remainders, each member a positive
    # multiple of the rational chain's; its last member is gcd(p, p'). The
    # theorem needs no squarefree p: V(-inf) - V(+inf) counts the distinct
    # real roots, and p has deg p - deg gcd(p, p') distinct roots
    chain = [cs, [i * c for i, c in enumerate(cs)][1:]]
    while r := _prem(chain[-2], chain[-1]):
        chain.append([-c for c in r])
    at_pos = [p[-1] > 0 for p in chain]
    at_neg = [s == (len(p) % 2 == 1) for s, p in zip(at_pos, chain)]
    return _variations(at_neg) - _variations(at_pos) == len(cs) - len(chain[-1])


def is_hyperbolic(p, mode: str = "exact", tolerance=None) -> bool:
    """All roots real? p is any sequence of coefficients in ascending degree,
    trimmed of trailing zeros first. Exact verdict for rational ones.

    mode="numeric" widens every coefficient into an interval of radius
    `tolerance` and raises IndeterminateVerdict when the leading interval
    holds 0. With at most 4 coefficients the sign of the discriminant F at
    the center c is the verdict, proved for every polynomial in the box, when
    |F(c)| > R = G(|c| + tolerance) - G(|c|), which bounds how far F moves in
    the box (G: F's monomials with positive coefficients); otherwise it
    raises IndeterminateVerdict. Above 4 coefficients the exact test reruns on
    every corner of the box for up to 12 coefficients, on six fixed sign
    patterns above that, and IndeterminateVerdict is raised if any of them
    disagrees with the center; that probe proves nothing for the box. Nothing
    yet proves that the box holds the true values.
    """
    p = _trim(list(p))
    if not p:
        raise DomainError("zero polynomial has no hyperbolicity verdict")
    if mode == "exact":
        for c in p:
            if not isinstance(c, (int, Fraction)):
                raise DomainError("exact mode needs rational coefficients; use numeric mode")
        return _exact_hyperbolic(p)
    if mode != "numeric":
        raise DomainError("mode must be 'exact' or 'numeric'")
    if tolerance is None or tolerance <= 0:
        raise DomainError("numeric mode needs a positive tolerance")
    # one common denominator, a power of 2 for mpf values, makes the box integral
    *center, tol = _integers([mpf_to_fraction(c) for c in (*p, tolerance)])
    if abs(center[-1]) <= tol:
        raise IndeterminateVerdict("leading coefficient smaller than tolerance")
    n = len(center)
    if n <= 2:
        return True  # every polynomial in the box has degree n - 1
    if n <= 4:
        # each monomial m of F has |m(c + e) - m(c)| <= m(|c| + tol) - m(|c|)
        # for |e_i| <= tol, as its expansion shows term by term
        pos, neg = _discriminant_parts(center)
        mags = [abs(c) for c in center]
        spread = (sum(_discriminant_parts([m + tol for m in mags]))
                  - sum(_discriminant_parts(mags)))
        if pos - neg > spread:
            return True
        if neg - pos > spread:
            return False
        raise IndeterminateVerdict("verdict flips within tolerance")
    verdict = _exact_hyperbolic(center)
    if n <= 12:
        patterns = ([tol if (mask >> i) & 1 else -tol for i in range(n)] for mask in range(1 << n))
    else:  # probe a fixed set of sign patterns instead of 2^n corners
        patterns = ([s * tol * (1 if (i % per) == 0 else -1) for i in range(n)]
                    for s in (1, -1) for per in (1, 2, 3))
    for shift in patterns:
        jittered = [c + ds for c, ds in zip(center, shift)]
        if _exact_hyperbolic(jittered) != verdict:
            raise IndeterminateVerdict("verdict flips within tolerance")
    return verdict


def _tolerance(raw: tuple, errs, prec: Precision):
    """Numeric-mode radius for a raw Jensen polynomial whose values p(n+j)
    carry the error bounds errs (empty if none): the largest binom(d,j) err_j,
    and at least 10^(10 - digits) of the largest coefficient. Call inside
    prec.ctx()."""
    d = len(errs) - 1
    scale = max(abs(to_mpf(c)) for c in raw)
    return max([comb(d, j) * e for j, e in enumerate(errs)]
               + [scale * mp.mpf(10) ** (10 - prec.decimal_digits)])


def _verdict(alpha: AlphaValue, raw: tuple, errs, prec: Precision) -> bool:
    """Exact verdict for rational alpha, numeric mode at _tolerance
    otherwise. Call inside prec.ctx()."""
    if alpha.rational is not None:
        return is_hyperbolic(raw, mode="exact")
    return is_hyperbolic(raw, mode="numeric", tolerance=_tolerance(raw, errs, prec))


def hyperbolicity_threshold(alpha, d: int, horizon: int,
                            prec: Precision = DEFAULT_PRECISION, values=None):
    """Smallest n0 <= horizon with J^{d,n} hyperbolic for every n in [n0, horizon].

    Empirical proxy for the true threshold N_d(alpha): the scan cannot rule
    out failures beyond the horizon. Returns None when even n = horizon fails.
    Rational alpha gets exact verdicts from the oracle table; irrational alpha
    uses numeric mode with a tolerance tied to the table's precision. values
    replaces the oracle table: a sequence or a dict indexed by n.

    The threshold is one past the largest failing n, so the scan runs down
    from the horizon and stops at the first failure. It reads values only
    from that n (from 0 when none fails) up to horizon + d, and asks for no
    verdict below it, so an IndeterminateVerdict there, which could not
    change the answer, does not raise.
    """
    alpha = as_alpha(alpha)
    if horizon <= d:
        raise DomainError("horizon must exceed d")
    if values is None:
        values = oracle.coeffs(alpha, horizon + d, prec).values
    with prec.ctx():
        for n in range(horizon, -1, -1):
            if not _verdict(alpha, jensen_poly(values, d, n), (), prec):
                return None if n == horizon else n + 1
    return 0


# ---------------------------------------------------------------------------
# report record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenReport:
    raw: tuple
    renormalized: tuple
    hyperbolic: bool
    hermite_distance: mp.mpf


def build_report(alpha, d: int, n: int, prec: Precision = DEFAULT_PRECISION,
                 values=None) -> JensenReport:
    """Raw + renormalized Jensen polynomial at (alpha, d, n) with verdict.

    values overrides the coefficient source as in renormalized_jensen: a
    sequence or a dict indexed by n.
    """
    alpha = as_alpha(alpha)
    if d < 1:
        raise DomainError("d must be a positive integer")
    params = renorm_params(alpha, n, prec)
    vals, errs = _window(alpha, n, d, prec, values)
    renorm = _renormalize(params, d, vals, prec)
    with prec.ctx():
        raw = jensen_poly(vals, d, 0)  # the window starts at index 0
        verdict = _verdict(alpha, raw, errs, prec)
        pairs = zip_longest(renorm, hermite(d), fillvalue=0)
        dist = max(abs(to_mpf(a) - to_mpf(b)) for a, b in pairs)
    return JensenReport(raw=raw, renormalized=renorm, hyperbolic=verdict, hermite_distance=dist)

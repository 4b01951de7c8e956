"""Shared fixtures: independent reference data and the acceptance reporter.

The classical partition numbers here come from Euler's pentagonal-number
recurrence, implemented in the test suite only. The library runs the same
algorithm for rational alpha (at alpha = 1 it is exactly this recurrence), so
classical_p checks its code, not its method; the independent check of the
classical values is reference_rational_coeffs, the divisor-sum recurrence.
Fractional ones (alpha = sqrt(3)) come from a fixed-point integer version of
the divisor-sum recurrence, also test-only, so that the circle-method series
is checked against code that shares nothing with it.

reference_kloosterman and reference_bessel_i are the straightforward mpf
versions of the library's two inner kernels (Fraction phases, separate
cospi/sinpi calls, an mpc sum over all h; an mpf series loop).
reference_kloosterman_real sums the same phases' cosines over h <= k/2 only,
doubled when k > 2. reference_series_member and reference_hankel_bessel_i
run BesselFamily's two documented integer routes over Fractions, the series
member (for any k) and the Hankel expansion with the rule that switches
between them, importing nothing from the library. reference_series_bessel_i
sums the same integer terms forward with a stop relative to the running sum,
a different stop rule to check bessel_i's bound against. The library's
kernels must reproduce the referee of the route they take bit for bit, stay
within a derived rounding bound of reference_kloosterman, whose imaginary
part is the check that the conjugate symmetry behind the half sum holds, and
bessel_i within its stated error bound (bessel_error_bound) of
reference_bessel_i and mp.besseli. kloosterman sums its cosines exactly on
integers (cos_sum for rational alpha, phase_sum for real alpha), so it must
lie within their proved bound of reference_kloosterman_real run at 40 more
digits.

reference_dedekind_sum is the defining sum of s(h, k), the referee of
circle.dedekind_sum's reciprocity descent.

reference_rational_coeffs is the divisor-sum recurrence over Fractions, one
gcd per step, sharing no code with the library's scaled-integer loop. It
imports nothing from the library, so it also referees oracle.denominator.

reference_exact_hyperbolic decides real-rootedness the long way: divide out
gcd(p, p') first, then count the real roots of the squarefree part with a
Sturm chain. The library's single-chain verdict must agree with it.
"""

import time
from fractions import Fraction
from hashlib import sha256
from math import gcd, isqrt
from operator import mul

import pytest

_CLASSICAL_LIMIT = 10000

# p_sqrt(3)(10000..10003) is the source of the criterion-5 premise check
SQRT3_LIMIT = 10003
SQRT3_FRAC_BITS = 320

_ACCEPTANCE_LINES = []


def _pentagonal_partitions(limit):
    # p(n) = sum_j (-1)^(j-1) [p(n - j(3j-1)/2) + p(n - j(3j+1)/2)]
    p = [0] * (limit + 1)
    p[0] = 1
    for n in range(1, limit + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            total += sign * p[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


def fixed_point_partitions(alpha_fixed, limit, frac_bits):
    """p_alpha(0..limit) * 2^frac_bits as integers.

    alpha_fixed is floor(alpha * 2^frac_bits). The divisor-sum recurrence
    n p(n) = alpha sum_j sigma(j) p(n - j), p(0) = 1, runs with each p(n)
    floored to frac_bits fractional bits. For alpha >= 1 every p(n) >= 1, all
    weights are nonnegative, and each step loses less than one unit
    2^-frac_bits, so the relative error of p(n) stays below
    n * 2^-frac_bits * (1 + 1/alpha) to first order.
    """
    sigma = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sigma[m] += d
    rev_sigma = sigma[::-1]          # rev_sigma[limit - j] = sigma(j)
    p = [1 << frac_bits]
    for n in range(1, limit + 1):
        # sum_{k < n} p(k) sigma(n - k)
        acc = sum(map(mul, p, rev_sigma[limit - n:limit]))
        p.append(alpha_fixed * acc // (n << frac_bits))
    return p


def sqrt_fixed(r, frac_bits):
    """floor(sqrt(r) * 2^frac_bits) for an integer r >= 0."""
    return isqrt(r << (2 * frac_bits))


def t5_identity_residual(row, alpha, prec):
    """(|sum_i c_i delta^(d-i) - 1|, sum_i ulp(c_i)/2 delta^(d-i)) for a T5 row.

    At X = 1/delta(n) the argument of J^{d,n} is 0, so the definition gives
    delta(n)^d * Jhat^{d,n}(1/delta(n)) = J(0)/p(n) = 1 for any source values
    and any A(n). A printed row can miss it only by its cells' rounding, half
    a printed ulp each, weighted by delta^(d-i).
    """
    import mpmath as mp

    from fracpart import jensen

    n, d = int(row["n"]), int(row["d"])
    printed = [row["c%d" % i] for i in range(d + 1)]
    with prec.ctx():
        dl = jensen.renorm_params(alpha, n, prec).delta_n
        resid = abs(sum(mp.mpf(c) * dl ** (d - i) for i, c in enumerate(printed)) - 1)
        allowed = sum(mp.mpf(10) ** -len(c.split(".")[1]) / 2 * dl ** (d - i)
                      for i, c in enumerate(printed))
    return resid, allowed


# sha256 of formatted(), of diff_report() and of the sorted (row, column,
# printed, recomputed, ok) diffs of each table artifact, recorded from the
# per-table compute functions that the single recompute loop replaced
TABLE_DIGESTS = {
    "T1": (
        "0e9b81b4f43c9e25bcf4ea2f854ff41519b94f521e7cc8be9e219652cc9bb53d",
        "cdb1970231a94da772d1173d11118214eebfc0456482b4a87a7ef4a49f7e20c6",
        "8ca4a692e5233e0438b4e73fc96e5fc9f756afda74b6e7c567c42e5f33737478",
    ),
    "T2": (
        "8a313fe1798a1f06d5b42439350263cbc941b463fb0bda6d244da6d1c5095da6",
        "89a3c3c93a3af3392b91be267c74e3a32182bad22af868810219823effc26d7f",
        "71ba3685025ef63b12b545f613b26543f04d2f55cf8a25e238c9867056006d3e",
    ),
    "T3": (
        "7d66baf56d3927d83a710b3bbe47e0877016a8ecb120f60facde90c20a768b2a",
        "6dd9040acda6cb7e700c027ddb5385a2a4b08d254b0f2a3cdd54c61550e25166",
        "ebc8aae690cbfe686e6ad04fbbe6b093c482b0a93eed38c6ac11197da47a788c",
    ),
    "T4": (
        "588f10398fe7e929ca4d6352dc4bf19d0ad200d0dae8a53e59647a3a01763b69",
        "d6141d0351f1f810d9bbc0f282bdbcc68e3cab21a5b0aed801552729e4514728",
        "31d23696d5a498a52996b04e3b3aa71270cc6597617053c68fc2d3b7c2a3a088",
    ),
    "T5": (
        "23cdde38febf31063f62c3b0b27eaafb92a91f6d85f67b72d83a8cb2422ce9f8",
        "32eaadef4ab1860376b1185c4cc78cb497a55b81eb00c2aef76b92f43a0691b8",
        "b9b7c78917f21f07189353f0e64997b0989c19bd03e1204dcca081cd06b71ee3",
    ),
    "T6": (
        "fbb106ec0a5e9aa3e72b638b8c093e869c12f5073e123b6e8a038bb52716c12f",
        "cb53f88d842c0d6097601c4da788ddaff98c86ffa62f2f364e11c33943a7471e",
        "6ee45ea82d881b33962f5103b162c88a6843f40348753a95aca28473d912d58f",
    ),
}


def artifact_digests(art):
    """The three digests TABLE_DIGESTS pins, for a goldens.TableArtifact."""
    cells = sorted((d.row, d.column, d.printed, d.recomputed, d.ok) for d in art.diffs)
    return tuple(sha256(text.encode()).hexdigest()
                 for text in (art.formatted(), art.diff_report(), repr(cells)))


def reference_dedekind_sum(h, k):
    """s(h, k) by the defining sum sum_(r<k) (r/k) ((hr/k)), O(k), for
    coprime 0 <= h < k (unchecked)."""
    acc = Fraction(0)
    for r in range(1, k):
        hr = h * r
        acc += Fraction(r, k) * (Fraction(hr, k) - hr // k - Fraction(1, 2))
    return acc


def reference_rational_coeffs(alpha, limit):
    """p_alpha(0..limit) for rational alpha > 0 by
    n p(n) = alpha sum_{j<=n} sigma(j) p(n - j), p(0) = 1, in Fraction
    arithmetic: ints when alpha is an integer, Fractions otherwise."""
    alpha = Fraction(alpha)
    sig = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sig[m] += d
    vals = [Fraction(1)]
    for n in range(1, limit + 1):
        vals.append(alpha * sum(sig[j] * vals[n - j] for j in range(1, n + 1)) / n)
    if alpha.denominator > 1:
        return vals
    assert all(v.denominator == 1 for v in vals)
    return [v.numerator for v in vals]


def _reference_phases(alpha, n, m, k, prec, hs):
    """theta_h / pi for h in hs coprime to k, in the order of hs, at the
    current mpmath precision; the phase is reduced mod 2 in Fraction
    arithmetic (for real alpha, its irrational part by mp.fmod)."""
    import mpmath as mp

    from fracpart import circle
    from fracpart.numkernel import to_mpf

    if alpha.rational is None:
        av = alpha.value_at(prec)
    for h in hs:
        if gcd(h, k) != 1:
            continue
        s_hk = circle.dedekind_sum(h, k)
        big_h = circle.inverse_neg(h, k)
        frac_part = Fraction(2 * (m * big_h - n * h), k) % 2
        if alpha.rational is not None:
            yield to_mpf((alpha.rational * s_hk + frac_part) % 2)
        else:
            yield mp.fmod(av * to_mpf(s_hk), 2) + to_mpf(frac_part)


def reference_kloosterman(alpha, n, m, k, prec):
    """A_k(n, m) as the complex sum over all h in [0, k)."""
    import mpmath as mp

    from fracpart.numkernel import as_alpha

    alpha = as_alpha(alpha)
    with prec.ctx():
        total = mp.mpc(0)
        for t in _reference_phases(alpha, n, m, k, prec, range(k)):
            total += mp.mpc(mp.cospi(t), mp.sinpi(t))
        return total


def reference_kloosterman_real(alpha, n, m, k, prec):
    """A_k(n, m) as the cosine sum over h <= k/2, doubled when k > 2."""
    import mpmath as mp

    from fracpart.numkernel import as_alpha

    alpha = as_alpha(alpha)
    with prec.ctx():
        total = mp.mpf(0)
        for t in _reference_phases(alpha, n, m, k, prec, range(k // 2 + 1)):
            total += mp.cospi(t)
        return 2 * total if k > 2 else total


def reference_bessel_i(nu, z, prec):
    """I_nu(z), nu > 0, z > 0, by the ascending series in mpf arithmetic."""
    import mpmath as mp

    from fracpart.numkernel import to_mpf

    with prec.ctx(5):
        nuv = to_mpf(nu)
        half = to_mpf(z) / 2
        term = half ** nuv / mp.gamma(nuv + 1)
        total = term
        ratio_num = half * half
        cutoff = mp.mpf(10) ** -prec.work_dps
        k = 0
        while True:
            k += 1
            term = term * ratio_num / (k * (nuv + k))
            total += term
            if term < cutoff * total:
                break
        return +total


def reference_series_bessel_i(nu, z, prec):
    """(I_nu(z), steps K, tail bound) for mpf nu > 0 and z > 0 by the integer
    series with a running-sum stop, computed over Fractions.

    Each term is the floor of the last one times the exact ratio
    r = (z/2)^2/(k(nu+k)); the term and the sum shift right together when the
    term passes W + 8 bits; the stop is the first K with r < 1 and
    (T_K + K) r/(1-r) < 10^-dps S, and that tail bound, as a fraction of S,
    is the third value returned.
    """
    import mpmath as mp

    with prec.ctx(5):
        nu, half = mp.mpf(nu), mp.mpf(z) / 2
        first = half ** nu / mp.gamma(nu + 1)
        exact_nu = Fraction(int(nu.man)) * Fraction(2) ** int(nu.exp)
        exact_half = Fraction(int(half.man)) * Fraction(2) ** int(half.exp)
        w = mp.mp.prec + 64
        threshold = Fraction(1, 10 ** prec.work_dps)
        term = total = 2 ** w
        scale = -w  # total 2^scale is the series factor
        k = 0
        while True:
            r = exact_half ** 2 / ((k + 1) * (exact_nu + k + 1))
            tail = (term + k) * r / (1 - r) / total if r < 1 else None
            if tail is not None and tail < threshold:
                break
            k += 1
            term = term * r.numerator // r.denominator
            total += term
            if term >= 2 ** (w + 8):
                drop = term.bit_length() - w - 1
                term //= 2 ** drop
                total //= 2 ** drop
                scale += drop
        return first * mp.ldexp(mp.mpf(total), scale), k, tail


def _series_peak(nu, x):
    """The number of j >= 1 with (x/2)^2 >= j (nu + j), for Fractions nu, x,
    by doubling and bisection on j."""
    quarter = x * x / 4
    lo, hi = 0, 1  # lo meets the condition (or is 0), hi does not
    while hi * (nu + hi) <= quarter:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * (nu + mid) <= quarter:
            lo = mid
        else:
            hi = mid
    return lo


def reference_series_member(nu, z, prec, k=1):
    """(I_nu(z/k), stop K) for mpf nu > 0 and z > 0 by the series member
    BesselFamily documents, for any k >= 1, computed over Fractions.

    The table: T_0 = 2^W at the scale 2^-W, T_j the floor of T_(j-1) times
    the exact ratio r_j = (z/2)^2/(j(nu+j)), and when T_j passes W + 8 bits
    it is floored back to W + 1 bits, the scale moving up with it. With p
    the number of j >= 1 with r_j >= k^2, the stop K is the first j >= p with
    (T_j + j) 2^(e_j - e_p) rho/(1 - rho) < 10^-dps T_p k^(2(j-p)),
    rho = r_(j+1)/k^2, found going forward. The Horner pass starts from
    H = T_K at the scale 2^e_K; each step down adds T_j at the scale of H
    (floored) to floor(H/k^2) and then floors or extends H to L .. L + 7
    bits, L = W + bits(k^2) + 1. The value is t0 k^-nu H 2^E for
    t0 = (z/2)^nu/Gamma(nu+1), k^-nu a product of powers of k's prime
    factors taken least prime first (p^-nu (k/p)^-nu, rounded each time).
    """
    import mpmath as mp

    with prec.ctx(5):
        nu, z = mp.mpf(nu), mp.mpf(z)
        first = (z / 2) ** nu / mp.gamma(nu + 1)
        exact_nu = Fraction(int(nu.man)) * Fraction(2) ** int(nu.exp)
        exact_z = Fraction(int(z.man)) * Fraction(2) ** int(z.exp)
        w = mp.mp.prec + 64
        threshold = Fraction(1, 10 ** prec.work_dps)
        k2 = k * k
        p = _series_peak(exact_nu, exact_z / k)
        table = [(2 ** w, -w)]  # (T_j, e_j)

        def ratio(j):
            return (exact_z / 2) ** 2 / (j * (exact_nu + j))

        def grow(j):
            while len(table) <= j:
                term, scale = table[-1]
                term = int(term * ratio(len(table)) // 1)
                if term >= 2 ** (w + 8):
                    drop = term.bit_length() - w - 1
                    term, scale = term // 2 ** drop, scale + drop
                table.append((term, scale))
            return table[j]

        stop = p
        while True:
            (term, scale), (peak, peak_scale) = grow(stop), grow(p)
            rho = ratio(stop + 1) / k2
            tail = (term + stop) * Fraction(2) ** (scale - peak_scale) * rho / (1 - rho)
            if tail < threshold * peak * k2 ** (stop - p):
                break
            stop += 1
        low = w + k2.bit_length() + 1
        acc, e = table[stop]
        for j in range(stop, -1, -1):
            if j < stop:
                term, scale = table[j]
                acc = int(Fraction(term) * Fraction(2) ** (scale - e) // 1) + acc // k2
            size = acc.bit_length()
            if not low <= size <= low + 7:
                acc = int(Fraction(acc) * Fraction(2) ** (low - size) // 1)
                e += size - low

        def inv_power(m):
            q = next(d for d in range(2, m + 1) if m % d == 0)
            return mp.mpf(m) ** -nu if q == m else inv_power(q) * inv_power(m // q)

        scale = first if k == 1 else first * inv_power(k)
        return scale * mp.ldexp(mp.mpf(acc), e), stop


def reference_hankel_bessel_i(nu, z, prec, k=1):
    """(I_nu(z/k), terms l) for mpf nu > 0 and z > 0 by the Hankel branch
    BesselFamily documents, computed over Fractions, or None where that
    branch leaves the member to the series.

    With x = z/k exact, t_j = t_(j-1) ((2j-1)^2 - 4nu^2) / (8jx) is summed
    at the scale 2^W, each term floored; any |ratio| > 1 ends the branch. It
    stops at the first l up to the series' peak p where
    2 (R + C) < 10^-dps S with S >= 2^W / 4, S the sum of the terms before
    l, R = floor(X_l (|T_l| + l) 2^c / 2^16) + 1 the remainder bound
    (X_l = isqrt(floor(710 (l+2) 2^32 / 113) + 1) + 1 above 2^16 2 chi(l),
    2^c with c = ceil(pi 1.4427 |ratio_1|), pi read as 355/113, above
    exp(pi |nu^2 - 1/4| / (2x))), and C = 2^max(W - m + 5, 0),
    m = floor(2.8852 x), the companion bound. The value is
    S - R - C - l(l-1)/2 times e^x / sqrt(2 pi x), x rounded for the
    exponential at wp plus the bits of its integer part plus 10.
    """
    import mpmath as mp

    with prec.ctx(5):
        nu, z = mp.mpf(nu), mp.mpf(z)
        wp = mp.mp.prec
        w = wp + 64
        exact_nu = Fraction(int(nu.man)) * Fraction(2) ** int(nu.exp)
        x = Fraction(int(z.man)) * Fraction(2) ** int(z.exp) / k
        unit = 2 ** w
        threshold = Fraction(1, 10 ** prec.work_dps)
        p = _series_peak(exact_nu, x)
        comp = 2 ** max(w - int(Fraction(28852, 10000) * x) + 5, 0)
        if 2 * comp >= threshold * p * unit:
            return None
        ratio_1 = (1 - 4 * exact_nu ** 2) / (8 * x)
        if abs(ratio_1) > 1:
            return None
        c = -int(-(Fraction(355, 113) * Fraction(14427, 10000) * abs(ratio_1)) // 1)
        term = total = unit
        for l in range(1, p + 1):
            ratio = ((2 * l - 1) ** 2 - 4 * exact_nu ** 2) / (8 * l * x)
            if abs(ratio) > 1:
                return None
            term = int((term * ratio) // 1)
            chi = isqrt(int(Fraction(710 * (l + 2), 113) * 2 ** 32) + 1) + 1
            bound = (chi * (abs(term) + l) * 2 ** c) // 2 ** 16 + 1 + comp
            if 2 * bound < threshold * total and 4 * total >= unit:
                low = total - bound - l * (l - 1) // 2
                with mp.workprec(wp + max(z.exp + z.bc, 0) + 10):
                    xv = z / k
                return mp.exp(xv) / mp.sqrt(2 * mp.pi * xv) * mp.ldexp(mp.mpf(low), -w), l
            total += term
        return None


def bessel_error_bound(prec, steps):
    """bessel_i's relative error bound after K = steps series steps: the
    series factor's proved 10^-dps + 2 (K+1)^2 2^-W, W = wp + 64, plus 3 units
    of 2^-wp for the two roundings after it and 5 allowed for the first term,
    whose error is not proved."""
    import mpmath as mp

    with prec.ctx(5):
        wp = mp.mp.prec
        return (mp.mpf(10) ** -prec.work_dps + 2 * (steps + 1) ** 2 * mp.mpf(2) ** -(wp + 64)
                + 8 * mp.mpf(2) ** -wp)


def _ref_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_deriv(cs):
    return [i * c for i, c in enumerate(cs)][1:]


def _ref_divmod(a, b):
    a, b = _ref_trim(a[:]), _ref_trim(b[:])
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        q[shift] = factor = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        _ref_trim(a)
    return _ref_trim(q), a


def _ref_variations(signs):
    v, prev = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def reference_exact_hyperbolic(coeffs):
    """All roots of the rational polynomial coeffs (ascending) real?

    The squarefree part cs / gcd(cs, cs') has the same distinct roots; it is
    hyperbolic iff its Sturm chain counts deg of it real roots.
    """
    cs = _ref_trim([Fraction(c) for c in coeffs])
    assert cs, "zero polynomial"
    if len(cs) <= 2:
        return True
    a, b = cs[:], _ref_deriv(cs)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    if len(a) > 1:
        cs, rem = _ref_divmod(cs, a)
        assert not rem
    chain = [cs, _ref_deriv(cs)]
    while chain[-1]:
        chain.append([-c for c in _ref_divmod(chain[-2], chain[-1])[1]])
    chain.pop()

    def sign(x):
        return (x > 0) - (x < 0)

    at_pos = [sign(p[-1]) for p in chain]
    at_neg = [sign(p[-1]) * (-1) ** (len(p) - 1) for p in chain]
    return _ref_variations(at_neg) - _ref_variations(at_pos) == len(cs) - 1


@pytest.fixture(scope="session")
def sqrt3_fixed_point():
    """(p_sqrt(3)(0..10003) * 2^bits as integers, bits) from the fixed-point
    divisor-sum recurrence (test-only oracle)."""
    bits = SQRT3_FRAC_BITS
    return fixed_point_partitions(sqrt_fixed(3, bits), SQRT3_LIMIT, bits), bits


@pytest.fixture(scope="session")
def classical_p():
    """Classical p(0..10000) from the pentagonal recurrence (test-only oracle)."""
    return _pentagonal_partitions(_CLASSICAL_LIMIT)


@pytest.fixture(scope="session")
def coeff_cache():
    """Memoized oracle tables keyed by (AlphaValue, N, decimal digits)."""
    from fracpart import oracle
    from fracpart.numkernel import DEFAULT_PRECISION, as_alpha

    cache = {}

    def get(alpha, upto, prec=DEFAULT_PRECISION):
        alpha = as_alpha(alpha)
        key = (alpha, upto, prec.decimal_digits)
        if key not in cache:
            cache[key] = oracle.coeffs(alpha, upto, prec)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def t6_artifact():
    """(goldens.compute_table("T6"), seconds it took), computed once per
    session: criterion 2 and the CLI table test read the same artifact."""
    from fracpart import goldens

    t0 = time.perf_counter()
    art = goldens.compute_table("T6")
    return art, time.perf_counter() - t0


@pytest.fixture(scope="session")
def criterion():
    """Reporter for the acceptance suite: one [PASS]/[FAIL] line per criterion."""

    def report(num, desc, ok, detail=""):
        line = "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc)
        if detail:
            line += " -- " + detail
        _ACCEPTANCE_LINES.append((num, line))
        print(line)
        return ok

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

"""Dedekind sums, Kloosterman sums, the truncated series, tail bounds,
exact recovery, asymptotics, and the functional-equation residual."""

import tracemalloc
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_dedekind_sum, reference_kloosterman, reference_kloosterman_real
from fracpart import circle, oracle
from fracpart.numkernel import DEFAULT_PRECISION, DomainError, Precision, as_alpha, bessel_i, parse_alpha, to_mpf


def coprime_pairs():
    return st.integers(min_value=1, max_value=700).flatmap(
        lambda k: st.sampled_from([h for h in range(k) if gcd(h, k) == 1]).map(lambda h: (h, k))
    )


# ---------------------------------------------------------------------------
# Dedekind sums
# ---------------------------------------------------------------------------

def test_dedekind_examples():
    assert circle.dedekind_sum(0, 1) == 0
    assert circle.dedekind_sum(1, 3) == Fraction(1, 18)
    assert circle.dedekind_sum(5, 7) == Fraction(-1, 14)
    assert circle.dedekind_sum(5, 7) == reference_dedekind_sum(5, 7)


@settings(deadline=None, max_examples=80)
@given(coprime_pairs())
def test_dedekind_fast_equals_direct(pair):
    h, k = pair
    assert circle.dedekind_sum(h, k) == reference_dedekind_sum(h, k)


@settings(deadline=None, max_examples=80)
@given(coprime_pairs())
def test_dedekind_denominator_divides_6k(pair):
    h, k = pair
    assert (6 * k * circle.dedekind_sum(h, k)).denominator == 1


@settings(deadline=None, max_examples=80)
@given(coprime_pairs())
def test_dedekind_reciprocity(pair):
    h, k = pair
    if h == 0:
        return
    lhs = circle.dedekind_sum(h, k) + circle.dedekind_sum(k % h, h)
    rhs = Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
    assert lhs == rhs


def test_dedekind_rejects_common_factor():
    with pytest.raises(DomainError):
        circle.dedekind_sum(2, 4)


# ---------------------------------------------------------------------------
# inverse_neg
# ---------------------------------------------------------------------------

def test_inverse_neg_examples():
    assert circle.inverse_neg(0, 1) == 0
    assert circle.inverse_neg(1, 5) == 4
    assert circle.inverse_neg(3, 7) == 2


@settings(deadline=None, max_examples=60)
@given(coprime_pairs())
def test_inverse_neg_property(pair):
    h, k = pair
    H = circle.inverse_neg(h, k)
    assert 0 <= H < k
    if k > 1:
        assert (h * H + 1) % k == 0


# ---------------------------------------------------------------------------
# Kloosterman sums
# ---------------------------------------------------------------------------

def test_kloosterman_k_equal_one():
    for alpha in ("1", "e", "51/7"):
        v = circle.kloosterman(parse_alpha(alpha), 9, 0, 1)
        assert v == 1


def _classical_A(n, k):
    # direct transcription of the classical Rademacher sum
    # A_k(n) = sum over 0 <= h < k, (h,k)=1 of exp(pi i s(h,k) - 2 pi i n h / k)
    with mp.workdps(70):
        total = mp.mpc(0)
        for h in range(k):
            if gcd(h, k) == 1:
                s = reference_dedekind_sum(h, k)
                theta = mp.pi * mp.mpf(s.numerator) / s.denominator - 2 * mp.pi * n * h / k
                total += mp.exp(1j * theta)
        return total


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 17, 20])
def test_kloosterman_matches_classical(k):
    for n in (0, 1, 7, 19):
        got = circle.kloosterman(1, n, 0, k)
        want = _classical_A(n, k)
        assert abs(got - want) < mp.mpf(10) ** -55


def test_kloosterman_classical_is_real():
    # the kernel sums only h <= k/2 because the h and k-h terms are conjugate
    # for every real alpha; the complex referee sums all h and shows it
    for alpha_text in ("1", "51/7", "e", "sqrt(3)"):
        a = parse_alpha(alpha_text)
        for k in (2, 3, 5, 11, 97):
            for n, m in ((0, 0), (4, 1), (10, 0)):
                want = reference_kloosterman(a, n, m, k, DEFAULT_PRECISION)
                assert abs(want.imag) < mp.mpf(10) ** -55
                assert isinstance(circle.kloosterman(a, n, m, k), mp.mpf)


@settings(deadline=None, max_examples=50)
@given(
    alpha_text=st.sampled_from(["1", "1/3", "51/7", "e", "sqrt(3)"]),
    n=st.integers(min_value=0, max_value=100),
    m=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=1, max_value=30),
)
def test_kloosterman_modulus_bound(alpha_text, n, m, k):
    v = circle.kloosterman(parse_alpha(alpha_text), n, m, k)
    assert abs(v) <= k + mp.mpf(10) ** -40


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=0, max_value=60),
    k=st.integers(min_value=1, max_value=24),
)
def test_kloosterman_periodic_in_n(n, k):
    # for rational alpha the phase depends on n only through n mod k
    a = parse_alpha("51/7")
    v1 = circle.kloosterman(a, n, 0, k)
    v2 = circle.kloosterman(a, n + k, 0, k)
    assert abs(v1 - v2) < mp.mpf(10) ** -60


_REAL_ALPHAS = ["e", "sqrt(3)", "pi", "1/e", "1/pi", "8*pi", "sqrt(2)/3"]


_RATIONAL_ALPHAS = st.builds(lambda a, b: "%d/%d" % (a, b),
                             st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=12))

_KLOOSTERMAN_INPUTS = dict(
    alpha_text=st.one_of(_RATIONAL_ALPHAS, st.sampled_from(_REAL_ALPHAS)),
    n=st.integers(min_value=0, max_value=300_000),
    m=st.integers(min_value=0, max_value=1),
    k=st.integers(min_value=1, max_value=700),
    digits=st.integers(min_value=30, max_value=200),
)


def _assert_within_proved_bound(alpha, n, m, k, prec):
    """A_k within half an ulp plus 2^-wp of its exact value.

    The exact value is the half-sum referee at 40 more digits, whose own
    error (the complex-reference bound below at u' = 2^-wp') is added to the
    allowance. Its phases are within E' of exact: 2u' for rational alpha,
    rounded once; for real alpha u'(alpha k/6 + 9) from the rounded phase
    arithmetic plus (2/3) T alpha k u' from alpha itself, read within
    relative 8T u' (T bytes of text, two roundings of one ulp at most per
    byte) and multiplied by |s(h,k)| < k/12.
    """
    got = circle.kloosterman(alpha, n, m, k, prec)
    fine = Precision(prec.decimal_digits + 40)
    exact = reference_kloosterman_real(alpha, n, m, k, fine)
    with prec.ctx():
        wp = mp.mp.prec
    with fine.ctx():
        u = mp.ldexp(1, -mp.mp.prec)
    with mp.workdps(fine.work_dps + 20):
        phase = 2 * u
        if alpha.rational is None:
            av = alpha.value_at(fine)
            phase = u * (av * k * (mp.mpf(1) / 6 + len(alpha.text.encode())) + 9)
        half_ulp = mp.ldexp(1, got._mpf_[2] + got._mpf_[3] - wp - 1) if got else 0
        referee = k * (mp.pi * phase + 2 * u) + k * k * u
        assert abs(got - exact) <= half_ulp + mp.ldexp(1, -wp) + referee


@settings(deadline=None, max_examples=60)
@given(**dict(_KLOOSTERMAN_INPUTS, alpha_text=st.sampled_from(_REAL_ALPHAS)))
def test_kloosterman_real_within_proved_bound(alpha_text, n, m, k, digits):
    _assert_within_proved_bound(parse_alpha(alpha_text), n, m, k, Precision(digits))


@pytest.mark.parametrize("alpha_text, n, m, k, digits", [
    ("e", 9, 0, 1, 60),           # k = 1: S = 0, r = 0, no table, no doubling
    ("pi", 1, 0, 2, 60),          # k = 2: S = 0, r = 1 (cos = -1)
    ("sqrt(3)", 4, 0, 7, 60),     # k = 7: S_3 = -3, read as a conjugate
    ("1/e", 17, 1, 9, 90),        # k = 9: S_4 = -8
    ("e", 123_457, 1, 700, 200),  # k = 700 at 200 digits: max |S| = 243 951
    ("8*pi", 10_001, 1, 13, 60),  # alpha > 24 with m = 1
    ("8*pi", 99_999, 1, 3, 30),   # x = alpha / (6k) above 1, at 30 digits
    ("sqrt(2)/3", 5, 0, 31, 60),  # a chained expression, several roundings
])
def test_kloosterman_real_boundary_cases(alpha_text, n, m, k, digits):
    _assert_within_proved_bound(parse_alpha(alpha_text), n, m, k, Precision(digits))


@settings(deadline=None, max_examples=60)
@given(**dict(_KLOOSTERMAN_INPUTS, alpha_text=_RATIONAL_ALPHAS))
def test_kloosterman_rational_within_proved_bound(alpha_text, n, m, k, digits):
    _assert_within_proved_bound(parse_alpha(alpha_text), n, m, k, Precision(digits))


@pytest.mark.parametrize("alpha_text, n, m, k, digits", [
    ("51/7", 9, 0, 1, 60),      # k = 1: one term, residue 0, no doubling
    ("51/7", 1, 0, 2, 60),      # k = 2: one term, residue P/2 (cos = -1)
    ("13/3", 4, 1, 2, 200),
    ("1", 5, 0, 12, 60),        # 3kb = 36, a perfect square
    ("5/12", 17, 0, 25, 90),    # 3kb = 900
    ("2", 3, 0, 3, 30),         # 3kb = 9
    ("301/12", 123_457, 1, 20_011, 60),  # N P = 10005 * 2881584 > 2^34: g = 36
])
def test_kloosterman_rational_boundary_cases(alpha_text, n, m, k, digits):
    _assert_within_proved_bound(parse_alpha(alpha_text), n, m, k, Precision(digits))


@settings(deadline=None, max_examples=60)
@given(**_KLOOSTERMAN_INPUTS)
def test_kloosterman_within_rounding_of_complex_reference(alpha_text, n, m, k, digits):
    """The half sum K against the complex sum R over all h of the referee.

    Let p be the working precision in bits and u = 2^-p; every mpmath
    operation rounds to nearest, within u times its result. Let phi_h be the
    exact phase over pi built from av, alpha at working precision (exact for
    rational alpha). s(k-h,k) = -s(h,k) and H(k-h) = k - H(h) give
    phi_(k-h) = -phi_h mod 2, so S = sum_h exp(i pi phi_h) is real.

    - Phase. For real alpha R's rounded phase t_h is built from av:
      s(h,k) (|s| < k/12) rounds within uk/12, its product with av within
      av k u/6 (1 + u), the exact-then-rounded mod 2 and the rational part
      (both in [0, 2)) within 2u each, and their sum (< 4) within 4u. For
      rational alpha R's t_h is phi_h in [0, 2) rounded once:
      |t_h - phi_h| <= 2u. So |t_h - phi_h mod 2| <= E = u (av k/6 + 9).
    - K takes no rounded phase: its half sum is cos_sum's or phase_sum's
      exact integer sum of cosines, rounded once, within half an ulp plus u
      of the exact half sum for alpha itself, then doubled, so it is within
      u (k + 2) of that sum. For rational alpha that sum is S. For real
      alpha av, two roundings at most for the alphas drawn here, is within
      relative 2u (1 + u) of alpha; with |s(h,k)| < k/12 that moves each of
      the k terms by at most pi av k u/6 (1 + 4u), so again
      |K - S| <= u (k + 2) + pi av k^2 u/6 (1 + 4u) <= B below.
    - Cosine and sine. mpmath's cospi and sinpi are taken to be within one
      unit in the last place, 2u for values of modulus <= 1. With
      |cos pi t - cos pi phi| <= pi |t - phi|, each term is within
      pi E + 2u of its exact value.
    - Summation. N terms of modulus <= 1 added in order round within
      u (2 + ... + N) <= u N^2. K sums N <= k/2 cosines and doubles
      exactly; Re R and Im R each sum at most k terms.

    So |K - S|, |Re R - S| and |Im R| are each at most
    B = k (pi E + 2u) + k^2 u, and |K - Re R| <= 2B.
    """
    alpha, prec = parse_alpha(alpha_text), Precision(digits)
    got = circle.kloosterman(alpha, n, m, k, prec)
    want = reference_kloosterman(alpha, n, m, k, prec)
    av = alpha.value_at(prec)
    with prec.ctx():
        u = mp.ldexp(1, -mp.mp.prec)
    with mp.workdps(prec.work_dps + 20):
        bound = k * (mp.pi * u * (av * k / 6 + 9) + 2 * u) + k * k * u
        assert abs(want.imag) <= bound
        assert abs(got - want.real) <= 2 * bound


# ---------------------------------------------------------------------------
# circle point geometry
# ---------------------------------------------------------------------------

def test_circle_point_small_alpha():
    pt = circle.circle_point(parse_alpha("51/7"), 10)
    assert pt.q == 0
    assert len(pt.mus) == 1
    with DEFAULT_PRECISION.ctx():
        assert pt.weights[0] == pt.mus[0] ** pt.order  # p(0) = 1
    with mp.workdps(40):
        assert abs(pt.nu ** 2 - (10 - Fraction(51, 7) / 24)) < mp.mpf(10) ** -35


def test_circle_point_large_alpha_has_q_terms():
    pt = circle.circle_point(parse_alpha("30"), 5)
    assert pt.q == 1
    assert len(pt.mus) == 2
    with DEFAULT_PRECISION.ctx():
        assert pt.weights[1] == pt.mus[1] ** pt.order * 30  # p(1) = alpha
    assert pt.mus[0] > pt.mus[1] >= 0


# ---------------------------------------------------------------------------
# partial series
# ---------------------------------------------------------------------------

def test_one_term_series_equals_bessel_form():
    a = parse_alpha("e")
    approx = circle.partial_series(a, 10, circle.m_term_delta(a, 1))
    est = circle.asymptotic(a, 10)
    assert approx.terms_per_m == (1,)
    with mp.workdps(60):
        assert abs(approx.value - est.bessel_form) < abs(est.bessel_form) * mp.mpf(10) ** -50


def test_series_value_examples():
    a = parse_alpha("e")
    v = circle.partial_series(a, 10, circle.m_term_delta(a, 1)).value
    assert abs(v - mp.mpf("1709.075395")) < mp.mpf("0.000001")

    b = parse_alpha("1/e")
    w = circle.partial_series(b, 50, circle.m_term_delta(b, 3)).value
    assert abs(w - mp.mpf("357.1278034")) < mp.mpf("0.0000001")


def test_terms_per_m_counts():
    # q = 1 for alpha = 30: both m = 0 and m = 1 blocks contribute
    s = circle.partial_series(30, 5, mp.mpf(1))
    assert s.terms_per_m == (7, 3)


def test_terms_per_m_integer_boundary():
    # delta = 2 pi mu0 / 4 puts the cutoff exactly at k = 4; k < 4 terms survive
    s = circle.partial_series(5, 14, circle.m_term_delta(5, 3))
    assert s.terms_per_m == (3,)
    # alpha = 32: mu1 = mu0/2, so delta = 2 pi mu0 / 4 puts the m = 1 cutoff
    # exactly at k = 2, where only k = 1 survives
    with DEFAULT_PRECISION.ctx():
        delta = 2 * mp.pi * mp.sqrt(mp.mpf(32) / 24) / 4
    assert circle.partial_series(32, 5, delta).terms_per_m == (3, 1)


def test_series_imaginary_residue_is_small():
    # the series rebuilt from the complex referee: its imaginary part, which
    # the real series never carries, is rounding noise, and its real part is
    # the library's value
    for alpha_text, n in (("sqrt(3)", 20), ("51/7", 10)):
        a = parse_alpha(alpha_text)
        s = circle.partial_series(a, n, circle.m_term_delta(a, 10))
        pt = circle.circle_point(a, n)
        with DEFAULT_PRECISION.ctx():
            total = mp.mpc(0)
            for k in range(1, s.terms_per_m[0] + 1):
                ak = reference_kloosterman(a, n, 0, k, DEFAULT_PRECISION)
                x = 4 * mp.pi * pt.nu * pt.mus[0] / k
                total += (2 * mp.pi / k) * ak * bessel_i(pt.order, x, DEFAULT_PRECISION)
            total *= pt.weights[0] / pt.nu ** pt.order
            assert abs(total.imag) <= abs(s.value) * mp.mpf(10) ** -55
            assert abs(total.real - s.value) <= abs(s.value) * mp.mpf(10) ** -55


def test_series_domain_errors():
    a = parse_alpha("51/7")
    with pytest.raises(DomainError):
        circle.partial_series(a, 0, mp.mpf("0.5"))  # n <= alpha/24
    with pytest.raises(DomainError):
        circle.partial_series(a, 10, mp.mpf(0))
    with pytest.raises(DomainError):
        circle.partial_series(a, 10, mp.mpf(100))  # delta >= 2 pi mu0


def test_clear_caches_keeps_values():
    a = parse_alpha("51/7")
    before = circle.partial_series(a, 10, circle.m_term_delta(a, 8)).value
    circle.clear_caches()
    after = circle.partial_series(a, 10, circle.m_term_delta(a, 8)).value
    assert before == after


def test_large_n_series_builds_no_coefficient_table():
    # at n = 10^12 the three Bessel values of a 3-term series, and that of
    # its tail bound, take the Hankel branch, so no member builds the
    # series' coefficient table (one W-bit integer per term, over 100 MB
    # here); the remaining peak is the oracle prefix and a few mpf values
    alpha = parse_alpha("e")
    delta = circle.m_term_delta(alpha, 3)
    circle.clear_caches()
    tracemalloc.start()
    try:
        series = circle.partial_series(alpha, 10 ** 12, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.value > 0 and series.tail_bound > 0
    assert peak < 2 * 2 ** 20


def _series_hits_cache(alpha, n, delta):
    """Evaluate one truncation; True when its term cache was already held."""
    hits = circle._term_cache.cache_info().hits
    circle.partial_series(alpha, n, delta)
    return circle._term_cache.cache_info().hits == hits + 1


def test_term_cache_is_a_bounded_lru():
    a = parse_alpha("1")
    delta = circle.m_term_delta(a, 1)
    circle.clear_caches()
    for n in range(1, 41):
        circle.partial_series(a, n, delta)
    assert circle._term_cache.cache_info().currsize == 32
    assert _series_hits_cache(a, 40, delta)
    # n = 9 and n = 10 are the two oldest entries; a hit refreshes n = 9, so
    # the next eviction takes n = 10
    assert _series_hits_cache(a, 9, delta)
    circle.partial_series(a, 41, delta)
    assert _series_hits_cache(a, 9, delta)
    assert not _series_hits_cache(a, 10, delta)
    assert circle._term_cache.cache_info().currsize == 32
    circle.clear_caches()
    assert circle._term_cache.cache_info().currsize == 0
    # exact recovery and the series path share the entry of alpha = 51/7
    circle.exact_value(51, 7, 5)
    b = parse_alpha("51/7")
    assert _series_hits_cache(b, 5, circle.m_term_delta(b, 1))


def _counted_scans(monkeypatch):
    """The (threshold, digits) of every ladder scan from here on."""
    scans = []
    scan = circle._ladder_scan

    def counted(cache, threshold):
        scans.append((threshold, cache.prec.decimal_digits))
        return scan(cache, threshold)

    monkeypatch.setattr(circle, "_ladder_scan", counted)
    circle.clear_caches()
    return scans


def test_recovery_scans_the_ladder_once_per_threshold(monkeypatch):
    # guaranteed_terms and empirical_min_terms both need the index at 1/(2D);
    # the term cache keeps it, so the second call does not scan again.
    # empirical_min_terms also reads exact_value's index at 1/(4D), which
    # sets its precision, and exact_value then scans nothing
    scans = _counted_scans(monkeypatch)
    assert circle.guaranteed_terms(51, 7, 5) == 22
    assert circle.empirical_min_terms(51, 7, 5) == 7
    assert circle.exact_value(51, 7, 5) == oracle.coeffs(Fraction(51, 7), 5).values[5]
    d = oracle.denominator(51, 7, 5)
    assert scans == [(Fraction(1, 2 * d), 60), (Fraction(1, 4 * d), 60)]


@pytest.mark.parametrize("a,b,n,m,m_star", [
    (479, 2, 70, 23, 23),  # D has 42 digits; recovery runs at 121 digits
    (479, 7, 45, 59, 50),  # D has 44 digits; recovery runs at 84 digits
])
def test_recovery_scans_at_60_digits_when_d_sets_a_higher_start(monkeypatch, a, b, n, m, m_star):
    # the recovery precision is above 60 here, but each threshold is still
    # scanned once, at 60 digits; only _recovery_cache's cache builds full
    # terms at the higher precision
    scans = _counted_scans(monkeypatch)
    assert circle.exact_value(a, b, n) == oracle.coeffs(Fraction(a, b), n).values[n]
    assert circle.guaranteed_terms(a, b, n) == m
    assert circle.empirical_min_terms(a, b, n) == m_star
    d = oracle.denominator(a, b, n)
    assert scans == [(Fraction(1, 4 * d), 60), (Fraction(1, 2 * d), 60)]


def _largest_first_term(point, counts):
    """max over the blocks with terms of |weights[m] t(m, 1)| / nu^order,
    t(m, 1) = 2 pi I_order(4 pi nu mu(m)) since A_1 = 1; at 60 digits."""
    with DEFAULT_PRECISION.ctx():
        return max(abs(point.weights[m] * 2 * mp.pi
                       * bessel_i(point.order, 4 * mp.pi * point.nu * point.mus[m]))
                   for m, count in enumerate(counts) if count) / point.nu_order


@pytest.mark.parametrize("a,b,n,m,m_star,digits", [
    (20, 1, 240, 5, 5, 65),  # D = 1, a 63-digit value
    (479, 7, 45, 59, 50, 84),  # D has 44 digits
    # the 1/(2D) index alone would give one digit less
    (5, 1, 1500, 17, 13, 93),
    (22, 1, 297, 5, 5, 77),
])
def test_recovery_builds_full_terms_at_one_precision(monkeypatch, a, b, n, m, m_star, digits):
    # digits = max(60, floor(log10(4 D c^2 t1)) + 1) from the k = 1 terms of
    # the 60-digit cache at exact_value's 1/(4D) index; empirical_min_terms
    # builds at that precision too, so full terms are built at it only
    circle.clear_caches()
    calls = []
    term_cache = circle._term_cache

    def recorded(alpha, n, prec):
        calls.append(prec.decimal_digits)
        return term_cache(alpha, n, prec)

    monkeypatch.setattr(circle, "_term_cache", recorded)
    assert circle.exact_value(a, b, n) == oracle.coeffs(Fraction(a, b), n).values[n]
    assert circle.empirical_min_terms(a, b, n) == m_star
    assert set(calls) == {60, digits}
    assert circle.guaranteed_terms(a, b, n) == m
    # the cache exact recovery used, keyed by as_alpha(Fraction(a, b));
    # parse_alpha("20/1") would key another, empty one
    low = term_cache(as_alpha(Fraction(a, b)), n, DEFAULT_PRECISION)
    assert all(len(prefix) <= 2 for prefix in low.prefix)  # only k = 1 terms at 60 digits
    d = oracle.denominator(a, b, n)
    for share in (4, 2):  # the 1/(2D) index has no more terms
        counts = circle._ladder_counts(low.point, low.ladder[Fraction(1, share * d)])
        t1 = _largest_first_term(low.point, counts)
        with DEFAULT_PRECISION.ctx():
            needed = max(60, int(mp.floor(mp.log10(4 * d * sum(counts) ** 2 * t1))) + 1)
        assert needed == digits if share == 4 else needed <= digits


@pytest.mark.parametrize("alpha_text", ["1", "5/2", "51/7", "32", "49/2", "sqrt(3)", "e"])
def test_largest_series_term_is_a_first_term(alpha_text):
    # the premise of the recovery precision: A_1 = 1, |A_k| <= phi(k) < k for
    # k >= 2 and I_order increases, so over 300 terms per block the largest
    # scaled term |weights[m] t(m, k)| / nu^order is a k = 1 term
    a = parse_alpha(alpha_text)
    for n in (2, 40, 600):
        point = circle.circle_point(a, n)
        with DEFAULT_PRECISION.ctx():
            scaled = {(m, k): abs(point.weights[m] * (2 * mp.pi / k) * circle.kloosterman(a, n, m, k)
                                  * bessel_i(point.order, 4 * mp.pi * point.nu * point.mus[m] / k))
                      for m in range(point.q + 1) for k in range(1, 301)}
        assert max(scaled.values()) == max(scaled[m, 1] for m in range(point.q + 1))


@pytest.mark.parametrize("alpha_text", ["30", "51/2", "100/3", "97", "49", "48", "24", "73/3",
                                        "51/7", "1", "23", "300/7"])
def test_ladder_counts_match_the_snapped_cutoffs(alpha_text):
    # the exact integer count of k^2 a < (j+1)^2 (a - 24mb) is what the
    # working-precision cutoff 2 pi mu(m)/delta_j gives after its snap to
    # integers; 24 and 48 have mu(q) = 0, an empty last block
    a = parse_alpha(alpha_text)
    for digits in (60, 100):
        prec = Precision(digits)
        point = circle.circle_point(a, circle._alpha_floor24(a, prec) + 1, prec)
        with prec.ctx():
            for j in [*range(1, 120), 1000, 4095, 65535]:
                dv = circle._ladder_delta(point.mus[0], j)
                snapped = tuple(circle._term_cutoff(2 * mp.pi * mu / dv) for mu in point.mus)
                assert circle._ladder_counts(point, j) == snapped


# ---------------------------------------------------------------------------
# m_term_delta
# ---------------------------------------------------------------------------

def test_m_term_delta_formula():
    a = parse_alpha("5")
    with mp.workdps(60):
        mu0 = mp.sqrt(mp.mpf(5) / 24)
        assert abs(circle.m_term_delta(a, 1) - 2 * mp.pi * mu0 / 2) < mp.mpf(10) ** -55
    s = circle.partial_series(a, 14, circle.m_term_delta(a, 5))
    assert s.terms_per_m == (5,)


def test_m_term_delta_rejects_large_alpha():
    with pytest.raises(DomainError):
        circle.m_term_delta(parse_alpha("30"), 3)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_tail_constant_positive():
    for alpha in ("1/3", "51/7", "e", "30"):
        assert circle.tail_constant(parse_alpha(alpha)) > 0


@pytest.mark.parametrize("alpha_text", ["1/3", "1", "5"])
def test_tail_bound_dominates_truncation_error(alpha_text, coeff_cache):
    # certified bound vs the exact oracle over a small grid
    a = parse_alpha(alpha_text)
    tab = coeff_cache(a, 60)
    for n in (10, 30, 60):
        for j in (1, 2, 4, 8, 16):
            s = circle.partial_series(a, n, circle.m_term_delta(a, j))
            with mp.workdps(70):
                err = abs(s.value - to_mpf(tab.values[n]))
                assert err <= s.tail_bound


def test_tail_bound_first_form_not_above_second():
    for alpha_text in ("1/3", "5", "e"):
        a = parse_alpha(alpha_text)
        for n in (10, 50):
            for j in (1, 3, 9):
                d = circle.m_term_delta(a, j)
                first = circle.tail_bound(a, n, d)
                second = circle.tail_bound(a, n, d, second_form=True)
                assert first <= second


def test_tail_bound_decreases_along_ladder():
    a = parse_alpha("sqrt(3)")
    bounds = [circle.tail_bound(a, 30, circle.m_term_delta(a, j)) for j in (1, 2, 4, 8, 16, 32)]
    assert all(x > y for x, y in zip(bounds, bounds[1:]))


def test_tail_bound_rejects_out_of_range_delta():
    a = parse_alpha("5")
    with pytest.raises(DomainError):
        circle.tail_bound(a, 14, mp.mpf(10))
    # NaN must fail the range check: bessel_i's stop test never holds for it
    with pytest.raises(DomainError, match="delta must be positive"):
        circle.tail_bound(a, 14, mp.nan)


# ---------------------------------------------------------------------------
# pinned bits of the series layer
# ---------------------------------------------------------------------------
#
# _mpf_ tuples (sign, mantissa, exponent, bit count) at the default precision.
# Summation order is canonical, so a rework of the series layer must
# reproduce every bit, not just the printed digits.
#
# A Moved pin is one whose bits a change of the Bessel kernel moved; old
# holds the bits before that change. The integer series moved some from the
# bits of the mpf series loop. Member 1's stop, once relative to its running
# sum and now the series members' stop, moved others from the bits of the
# running-sum stop. The value must have the new bits, and the old ones
# must lie within the two kernels' error bounds of it: both Bessel values
# fall short of the exact one, the new by less than 10^-dps plus a few units
# of 2^-wp (proved, but for the first term) and the old by its tail, below
# 2 10^-dps at every pinned argument (the largest is checked by
# test_bessel_accuracy_where_the_scale_shifts_many_times). Each pinned value
# is a product or a sum of Bessel values times factors that did not move, and
# no sum cancels (its terms' absolute values add up to |value| to eight
# digits), so the relative move is at most 2 10^-dps plus the value's final
# roundings, allowed for as 4 units in its last place.


class Moved(NamedTuple):
    new: tuple
    old: tuple


def assert_pinned(value, pin):
    if isinstance(pin, Moved):
        with DEFAULT_PRECISION.ctx():
            ulp = mp.ldexp(1, value._mpf_[2] + value._mpf_[3] - mp.mp.prec)
        with mp.workdps(2 * DEFAULT_PRECISION.work_dps):
            moved = abs(value - mp.mpf(pin.old))
            assert moved <= 2 * mp.mpf(10) ** -DEFAULT_PRECISION.work_dps * abs(value) + 4 * ulp
        pin = pin.new
    assert value._mpf_ == pin


PINNED_SERIES = [
    # alpha, n, delta (a term count or a decimal), value, first-form bound,
    # second-form bound
    ("51/7", 10, 8,
     Moved(new=(0, 102098571647082734867867658780083632446324124861012017910402086981357141, -218, 236),
           old=(0, 102098571647082734867867658780083632446324124861012017910402086981357143, -218, 236)),
     Moved(new=(0, 58945907933825106819898230136256251203162257522123952318651296312631403, -245, 236),
           old=(0, 14736476983456276704974557534064062800790564380530988079662824078157851, -243, 234)),
     Moved(new=(0, 11128324356501904393886199469321505139295943209555256102512650531010913, -226, 233),
           old=(0, 89026594852015235151089595754572041114367545676442048820101204248087305, -229, 236))),
    ("e", 10, 1,
     Moved(new=(0, 46076581492300228246622053605849232670026959341427717813934459779505387, -224, 235),
           old=(0, 92153162984600456493244107211698465340053918682855435627868919559010769, -225, 236)),
     (0, 30051671485472052567729011343910412605690238245976890329274766111260053, -231, 235),
     Moved(new=(0, 62353015129030538295159381552310897341401687752523300632185897477548371, -225, 236),
           old=(0, 62353015129030538295159381552310897341401687752523300632185897477548367, -225, 236))),
    ("30", 5, "1",
     Moved(new=(0, 48105180462113563070439887877037542107797713348919559047201951330963655, -216, 235),
           old=(0, 48105180462113563070439887877037542107797713348919559047201951330963651, -216, 235)),
     Moved(new=(0, 63370669868740153883116600128485656789081449890635251485411001096023875, -271, 236),
           old=(0, 31685334934370076941558300064242828394540724945317625742705500548011939, -270, 235)),
     Moved(new=(0, 90161394622667700693316096529763762857510108046301429297392474719974729, -259, 236),
           old=(0, 1408771790979182823333064008277558794648595438223459832771757417499605, -253, 230))),
    ("8*pi", 30, "0.7",
     (0, 22213593747218903914031126344374582380223225989566853806529116660371015, -170, 234),
     (0, 14962881643787270540906572684649403032245342292064046965495948260235925, -267, 234),
     Moved(new=(0, 20818501872560205809793352097859257168507383258384256295491445448305991, -210, 234),
           old=(0, 83274007490240823239173408391437028674029533033537025181965781793223963, -212, 236))),
]

PINNED_TAIL_CONSTANTS = {
    "1/3": (0, 37096809680805727771783126590021550920363895351359520325010980662666625, -233, 235),
    "51/7": (0, 96158569321540424870310253632483428155500320778208847829089062003153769, -235, 236),
    "e": (0, 12191981147117219649537134123986283572937137615948557434498621886643611, -232, 233),
    "30": (0, 7566167511625283147819913938298154670594644080119578366108154199169679, -224, 233),
}


@pytest.mark.parametrize("alpha_text, n, delta, value, first, second", PINNED_SERIES)
def test_series_bits_pinned(alpha_text, n, delta, value, first, second):
    a = parse_alpha(alpha_text)
    if isinstance(delta, int):
        delta = circle.m_term_delta(a, delta)
    else:
        with DEFAULT_PRECISION.ctx():
            delta = mp.mpf(delta)
    s = circle.partial_series(a, n, delta)
    assert_pinned(s.value, value)
    assert_pinned(s.tail_bound, first)
    assert_pinned(circle.tail_bound(a, n, delta), first)
    assert_pinned(circle.tail_bound(a, n, delta, second_form=True), second)


def test_tail_constant_and_recovery_delta_bits_pinned():
    for alpha_text, bits in PINNED_TAIL_CONSTANTS.items():
        assert circle.tail_constant(parse_alpha(alpha_text))._mpf_ == bits
    assert circle.recovery_delta(51, 7, 10)._mpf_ == (
        0, 56520956936864789251904068025861066991927724406244848650592539625958629, -247, 236)
    # asymptotic computes alpha and its order with the series geometry's bits
    est = circle.asymptotic(parse_alpha("e"), 10)
    assert_pinned(est.bessel_form, Moved(
        new=(0, 92153162984600456493244107211698465340053918682855435627868919559010773, -225, 236),
        old=(0, 5759572686537528530827756700731154083753369917678464726741807472438173, -221, 232)))
    assert est.elementary_form._mpf_ == (
        0, 28347622218430195610959527451498861751605460916655065879462937595615901, -223, 235)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotic_bessel_example():
    est = circle.asymptotic(parse_alpha("e"), 10)
    assert abs(est.bessel_form - mp.mpf("1709.075395")) < mp.mpf("0.000001")


def test_asymptotic_ratio_example(coeff_cache):
    a = parse_alpha("e")
    est = circle.asymptotic(a, 10)
    tab = coeff_cache(a, 10)
    with mp.workdps(60):
        ratio = est.bessel_form / tab.values[10]
        assert abs(ratio - mp.mpf("0.99927")) < mp.mpf("0.00001")


def test_asymptotic_elementary_converges(classical_p):
    with mp.workdps(60):
        r200 = circle.asymptotic(1, 200).elementary_form / mp.mpf(classical_p[200])
        r10k = circle.asymptotic(1, 10000).elementary_form / mp.mpf(classical_p[10000])
        assert abs(r10k - 1) < mp.mpf("0.02")
        assert abs(r10k - 1) < abs(r200 - 1)


def test_asymptotic_skips_the_oracle(monkeypatch):
    # alpha = 24000 has an oracle prefix p(0..1000); asymptotic needs none of it
    def never(*args):
        pytest.fail("asymptotic ran the oracle")

    monkeypatch.setattr(oracle, "coeffs", never)
    est = circle.asymptotic(parse_alpha("24000"), 2000)
    assert_pinned(est.bessel_form, Moved(
        new=(0, 63453896912511410291970913981106378184029945435169177989773081890324353, 10125, 236),
        old=(0, 63453896912511410291970913981106378184029945435169177989773081890324347, 10125, 236)))
    assert est.elementary_form._mpf_ == (
        0, 3351104368373377105343760100372707895537805615199401034534701404653175, 17893, 231)
    est = circle.asymptotic(parse_alpha("51/7"), 10)
    assert_pinned(est.bessel_form, Moved(
        new=(0, 25524413982487228024786809004235090169521863012615603606425049231666319, -216, 234),
        old=(0, 102097655929948912099147236016940360678087452050462414425700196926665277, -218, 236)))
    assert est.elementary_form._mpf_ == (
        0, 42250990298336114082978805831570610277492157541067513291807720395118403, -216, 235)
    with pytest.raises(DomainError, match="require n > alpha/24"):
        circle.asymptotic(parse_alpha("24000"), 1000)


def test_asymptotic_rejects_small_n():
    with pytest.raises(DomainError):
        circle.asymptotic(parse_alpha("30"), 1)


# ---------------------------------------------------------------------------
# exact recovery
# ---------------------------------------------------------------------------

def test_recovery_delta_solves_half_denominator_bound():
    a = parse_alpha("51/7")
    d = circle.recovery_delta(51, 7, 10)
    D = oracle.denominator(51, 7, 10)
    with mp.workdps(60):
        product = circle.tail_bound(a, 10, d, second_form=True) * 2 * D
        assert abs(product - 1) < mp.mpf(10) ** -30


def test_recovery_delta_clamped_into_range():
    a = parse_alpha("1")
    d = circle.recovery_delta(1, 1, 1)
    with mp.workdps(40):
        assert 0 < d < 2 * mp.pi * mp.sqrt(mp.mpf(1) / 24)


def test_exact_value_examples():
    assert circle.exact_value(51, 7, 2) == Fraction(1836, 49)
    assert circle.exact_value(51, 7, 10) == Fraction(479246612549889, 1977326743)
    assert circle.exact_value(1, 1, 50) == 204226


def test_exact_value_integer_alpha_cross_route():
    # denominator 1: recovery must land on the oracle integers
    assert circle.exact_value(2, 1, 30) == oracle.coeffs(2, 30).values[30] == 589128
    assert circle.exact_value(5, 1, 20) == oracle.coeffs(5, 20).values[20] == 16313440
    # values of 188 (a = 1) and 267 (a = 2) digits: recovery runs at 193 and
    # 271 digits
    for a in (1, 2):
        assert circle.exact_value(a, 1, 30000) == oracle.coeffs(a, 30000).values[30000]
    # alpha >= 24 (q >= 1): the weight mu(1)^order p(1) and the m = 1 block
    # enter the series
    for a, b, ns in ((32, 1, (2, 5, 30)), (49, 2, (6, 12)), (97, 3, (4, 8))):
        table = oracle.coeffs(Fraction(a, b), max(ns)).values
        for n in ns:
            assert circle.exact_value(a, b, n) == table[n]
            assert circle.guaranteed_terms(a, b, n) >= circle.empirical_min_terms(a, b, n) >= 1


def test_exact_value_meets_ramanujan_congruences():
    # p(385k + 369) = 0 mod 5 7 11 by Ramanujan's congruences
    # p(5k + 4) = 0 mod 5, p(7k + 5) = 0 mod 7 and p(11k + 6) = 0 mod 11:
    # a check of a 346-digit value that shares nothing with the series
    value = circle.exact_value(1, 1, 385 * 258 + 369)
    assert value.denominator == 1 and value.numerator % 385 == 0


@pytest.mark.parametrize("n", [100, 300, 500])
def test_exact_value_classical_regression(n, classical_p):
    assert circle.exact_value(1, 1, n) == classical_p[n]


def test_exact_value_rejects_bad_input(monkeypatch):
    bad = [
        (6, 4, 3),    # gcd != 1
        (51, 7, 0),   # n <= alpha/24
        (0, 1, 3),    # alpha = 0
        (-5, 1, 3),   # alpha < 0
        (1, 0, 3),    # b = 0
        (10 ** 10, 3, 10 ** 7),  # n <= alpha/24, where D has 7.2 million digits
    ]
    true_denominator = oracle.denominator

    def denominator(a, b, n):
        if n == 10 ** 7:
            pytest.fail("D built for an n below alpha/24")
        return true_denominator(a, b, n)

    monkeypatch.setattr(oracle, "denominator", denominator)
    for routine in (circle.exact_value, circle.recovery_delta,
                    circle.guaranteed_terms, circle.empirical_min_terms):
        for a, b, n in bad:
            with pytest.raises(DomainError):
                routine(a, b, n)


def test_exact_value_reports_infeasible_cases():
    # the tail decays like delta^(alpha/2), so 1/(2 D) targets with huge D
    # exceed the ladder cap; the contract is an error, not a wrong answer.
    # The last index the doubling scan probes is 2^19; n = 21 needs 570 517
    # (1/(2D)) and 690 088 (1/(4D)). At n = 6000 D has about 5 900 digits:
    # the one scan, at 60 digits, refuses it before any series term is
    # computed.
    for n in (21, 30, 6000):
        for routine in (circle.exact_value, circle.guaranteed_terms, circle.empirical_min_terms):
            with pytest.raises(ArithmeticError, match="within 524288 ladder steps"):
                routine(51, 7, n)


def test_guaranteed_terms_frozen_scan():
    got = [circle.guaranteed_terms(51, 7, n) for n in range(1, 11)]
    assert got == [2, 4, 7, 13, 22, 38, 110, 189, 322, 550]


@pytest.mark.parametrize("n,j", [(1, 2), (3, 7)])
def test_guaranteed_terms_is_minimal_ladder_step(n, j):
    # at the returned ladder step the certified bound clears 1/(2D);
    # one step earlier it does not
    a = parse_alpha("51/7")
    D = oracle.denominator(51, 7, n)
    with mp.workdps(70):
        threshold = mp.mpf(1) / (2 * D)
        assert circle.tail_bound(a, n, circle.m_term_delta(a, j)) < threshold
        assert circle.tail_bound(a, n, circle.m_term_delta(a, j - 1)) >= threshold


def test_empirical_min_terms_frozen_scan():
    got = [circle.empirical_min_terms(51, 7, n) for n in range(1, 11)]
    assert got == [1, 2, 3, 4, 7, 10, 26, 43, 63, 109]


def test_empirical_not_above_guaranteed():
    for n in (1, 4, 7):
        assert circle.empirical_min_terms(51, 7, n) <= circle.guaranteed_terms(51, 7, n)


# ---------------------------------------------------------------------------
# functional equation residual
# ---------------------------------------------------------------------------

def test_residual_eta_symmetric_point():
    r = circle.functional_equation_residual(1, 0, 1, mp.mpf(1), 400)
    assert r < mp.mpf(10) ** -30


def test_residual_complex_z():
    a = parse_alpha("sqrt(3)")
    with mp.workdps(70):
        r = circle.functional_equation_residual(a, 1, 2, mp.mpc("0.8", "0.1"), 600)
    assert r < mp.mpf(10) ** -25


def test_residual_integer_alpha():
    with mp.workdps(70):
        r = circle.functional_equation_residual(5, 2, 5, mp.mpf("1.2"), 600)
    assert r < mp.mpf(10) ** -25


def test_residual_rejects_large_modulus():
    # tiny Re z pushes |x| = exp(-2 pi Re z / k^2) past the cutoff
    with pytest.raises(DomainError):
        circle.functional_equation_residual(1, 0, 1, mp.mpf("0.0001"), 200)
    # large z pushes |x'| = exp(-2 pi Re(1/z)) past it instead
    with pytest.raises(DomainError):
        circle.functional_equation_residual(1, 0, 1, mp.mpf(10000), 200)

"""Jensen polynomials, renormalization, Hermite limits, hyperbolicity."""

from fractions import Fraction
from math import comb, factorial, gcd

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _ref_divmod, reference_exact_hyperbolic
from fracpart import circle, jensen, oracle
from fracpart.numkernel import DomainError, Precision, mpf_to_fraction, parse_alpha


# ---------------------------------------------------------------------------
# polynomials as coefficient tuples
# ---------------------------------------------------------------------------

def test_polynomial_strips_trailing_zeros():
    # a window with zero top values gives a trimmed tuple, degree len - 1
    p = jensen.jensen_poly([1, 2, 0, 0], 3, 0)
    assert p == (1, 6)
    assert len(p) - 1 == 1
    # is_hyperbolic trims what it is given: numeric mode reads the leading
    # coefficient, which an untrimmed X^2 - 2 would give as 0
    assert jensen.is_hyperbolic([-2, 0, 1, 0, 0])
    assert not jensen.is_hyperbolic([1, 0, 1, 0])
    tol = mp.mpf("1e-30")
    assert jensen.is_hyperbolic([mp.mpf(-2), mp.mpf(0), mp.mpf(1), mp.mpf(0)],
                                mode="numeric", tolerance=tol)
    # all zeros trim to the zero polynomial, refused in either mode
    for mode in ("exact", "numeric"):
        with pytest.raises(DomainError, match="zero polynomial"):
            jensen.is_hyperbolic([0, 0], mode=mode, tolerance=tol)


# ---------------------------------------------------------------------------
# jensen_poly
# ---------------------------------------------------------------------------

def test_jensen_poly_degree_two_shift_zero(classical_p):
    p = jensen.jensen_poly(classical_p, 2, 0)
    assert p == (1, 2, 2)


def test_jensen_poly_shift_one_is_hyperbolic(classical_p):
    # p(1..3) = 1, 2, 3: discriminant (2*2)^2 - 4*1*3 = 4 > 0
    p = jensen.jensen_poly(classical_p, 2, 1)
    assert p == (1, 4, 3)
    assert jensen.is_hyperbolic(p)


def test_jensen_poly_shift_two_is_not_hyperbolic(classical_p):
    # p(2..4) = 2, 3, 5: discriminant 36 - 40 < 0
    p = jensen.jensen_poly(classical_p, 2, 2)
    assert not jensen.is_hyperbolic(p)


def test_jensen_poly_shift_25_is_hyperbolic(classical_p):
    assert jensen.is_hyperbolic(jensen.jensen_poly(classical_p, 2, 25))


def test_jensen_poly_binomial_weights():
    tab = oracle.coeffs(parse_alpha("51/7"), 8)
    p = jensen.jensen_poly(tab.values, 3, 5)
    want = tuple(comb(3, j) * tab.values[5 + j] for j in range(4))
    assert p == want


def test_jensen_poly_insufficient_values():
    for source in ([1, 2, 3], oracle.coeffs(parse_alpha("1"), 3).values, {1: 1, 2: 2, 3: 3}):
        with pytest.raises(DomainError):
            jensen.jensen_poly(source, 3, 1)


# ---------------------------------------------------------------------------
# hermite
# ---------------------------------------------------------------------------

def test_hermite_small_cases():
    assert jensen.hermite(2) == (-2, 0, 1)
    assert jensen.hermite(3) == (0, -6, 0, 1)
    assert jensen.hermite(4) == (12, 0, -12, 0, 1)


@pytest.mark.parametrize("d", range(0, 9))
def test_hermite_closed_form(d):
    # coefficient of x^(d-2j) is (-1)^j d!/(j!(d-2j)!)
    got = jensen.hermite(d)
    want = [0] * (d + 1)
    for j in range(d // 2 + 1):
        want[d - 2 * j] = (-1) ** j * factorial(d) // (factorial(j) * factorial(d - 2 * j))
    assert list(got) == want


def test_hermite_polynomials_are_hyperbolic():
    for d in range(1, 9):
        assert jensen.is_hyperbolic(jensen.hermite(d))


# ---------------------------------------------------------------------------
# is_hyperbolic
# ---------------------------------------------------------------------------

def test_hyperbolic_examples():
    assert jensen.is_hyperbolic([-2, 0, 1])       # X^2 - 2
    assert not jensen.is_hyperbolic([1, 0, 1])    # X^2 + 1
    assert jensen.is_hyperbolic([0, -6, 0, 1])    # X^3 - 6X
    assert not jensen.is_hyperbolic([-1, 1, -1, 1])  # (X-1)(X^2+1)


def test_hyperbolic_with_repeated_roots():
    # (X - 1)^2 and X^3: all roots real with multiplicity
    assert jensen.is_hyperbolic([1, -2, 1])
    assert jensen.is_hyperbolic([0, 0, 0, 1])


def test_degree_three_classical_window(classical_p):
    # degree-3 Jensen polynomials of p(n) hold from n = 94 on
    for n in range(94, 201):
        assert jensen.is_hyperbolic(jensen.jensen_poly(classical_p, 3, n))


def test_numeric_mode_determinate():
    p = [mp.mpf(-2), mp.mpf(0), mp.mpf(1)]
    assert jensen.is_hyperbolic(p, mode="numeric", tolerance=mp.mpf("1e-30"))
    q = [mp.mpf(1), mp.mpf(0), mp.mpf(1)]
    assert not jensen.is_hyperbolic(q, mode="numeric", tolerance=mp.mpf("1e-30"))


def test_numeric_mode_reads_coefficients_exactly():
    # X^2 - X + (1/4 + 1e-30) has no real root; at 53 bits its constant term
    # would round to 1/4 and leave a double root
    with mp.workdps(50):
        p = [mp.mpf(1) / 4 + mp.mpf(10) ** -30, mp.mpf(-1), mp.mpf(1)]
        tol = mp.mpf(10) ** -40
    assert jensen.is_hyperbolic(p, mode="numeric", tolerance=tol) is False


def test_numeric_mode_indeterminate_near_double_root():
    # X^2 flips verdict under a +/- tolerance on the constant term
    p = [mp.mpf(0), mp.mpf(0), mp.mpf(1)]
    with pytest.raises(jensen.IndeterminateVerdict):
        jensen.is_hyperbolic(p, mode="numeric", tolerance=mp.mpf("1e-10"))


def test_numeric_mode_above_twelve_coefficients():
    # 13 coefficients take the fixed sign patterns in place of the 2^13 corners
    tol = mp.mpf("1e-30")
    h12 = [mp.mpf(c) for c in jensen.hermite(12)]
    assert jensen.is_hyperbolic(h12, mode="numeric", tolerance=tol)
    x12_plus_1 = [mp.mpf(1)] + [mp.mpf(0)] * 11 + [mp.mpf(1)]
    assert not jensen.is_hyperbolic(x12_plus_1, mode="numeric", tolerance=tol)
    x12 = [mp.mpf(0)] * 12 + [mp.mpf(1)]
    with pytest.raises(jensen.IndeterminateVerdict):
        jensen.is_hyperbolic(x12, mode="numeric", tolerance=tol)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _factored_polynomials(draw):
    """(coefficients, hyperbolic?) for a rational multiple of a product of
    linear and irreducible quadratic factors, some repeated."""
    poly = [draw(_small_rationals.filter(bool))]
    real_rooted = True
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            factor = [-draw(_small_rationals), 1]
        else:
            b = draw(_small_rationals)
            gap = draw(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
            factor = [b * b / 4 + gap, b, 1]  # discriminant -4 gap < 0
            real_rooted = False
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            poly = _poly_mul(poly, factor)
    return poly, real_rooted


@settings(deadline=None, max_examples=300)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                min_size=1, max_size=10).filter(any))
def test_single_sturm_chain_matches_squarefree_reference_dense(coeffs):
    assert jensen._exact_hyperbolic(coeffs) == reference_exact_hyperbolic(coeffs)


@settings(deadline=None, max_examples=300)
@given(_factored_polynomials())
def test_single_sturm_chain_matches_squarefree_reference_factored(case):
    coeffs, real_rooted = case
    assert jensen._exact_hyperbolic(coeffs) == reference_exact_hyperbolic(coeffs) == real_rooted


_int_polys = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8)


@settings(deadline=None, max_examples=300)
@given(_int_polys, _int_polys.filter(any))
def test_pseudo_remainder_is_a_primitive_positive_multiple(a, b):
    a, b = jensen._trim(a), jensen._trim(b)
    got = jensen._prem(a, b)
    want = _ref_divmod([Fraction(c) for c in a], [Fraction(c) for c in b])[1]
    assert len(got) == len(want)
    if want:
        ratio = Fraction(got[-1]) / want[-1]
        assert ratio > 0
        assert got == [ratio * c for c in want]
        assert gcd(*got) == 1


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(min_value=10 ** 150, max_value=10 ** 170), min_size=3, max_size=7),
       st.lists(st.booleans(), min_size=7, max_size=7))
def test_sturm_chain_matches_reference_above_1e150(magnitudes, negate):
    coeffs = [-m if s else m for m, s in zip(magnitudes, negate)]
    assert jensen._exact_hyperbolic(coeffs) == reference_exact_hyperbolic(coeffs)


@settings(deadline=None, max_examples=60)
@given(d=st.integers(min_value=2, max_value=5), n=st.integers(min_value=230, max_value=300),
       nudge=st.integers(min_value=-1000, max_value=1000))
def test_sturm_chain_matches_reference_on_alpha_8_windows(d, n, nudge, coeff_cache):
    # Jensen polynomials of p_8(n), n up to 300 (p_8(300) has 47 digits); a
    # constant term nudged by up to 1000 parts in 10^(2d) crosses the verdict
    # boundary for some of them
    coeffs = list(jensen.jensen_poly(coeff_cache(parse_alpha("8"), 305).values, d, n))
    coeffs[0] += nudge * (coeffs[0] // 10 ** (2 * d))
    assert jensen._exact_hyperbolic(coeffs) == reference_exact_hyperbolic(coeffs)


@settings(deadline=None, max_examples=200)
@given(_factored_polynomials(), st.integers(min_value=20, max_value=120),
       st.integers(min_value=1, max_value=2 ** 20), st.integers(min_value=0, max_value=127))
def test_sturm_chain_matches_reference_on_dyadic_corners(case, bits, radius, mask):
    # a numeric-mode corner: a dyadic center (the factored polynomial read at
    # `bits` binary digits) shifted by +-radius/2^(bits+20) per coefficient
    coeffs, _ = case
    scale = 2 ** bits
    tol = Fraction(radius, scale << 20)
    center = [Fraction(round(c * scale), scale) for c in coeffs]
    corner = [c + (tol if (mask >> i) & 1 else -tol) for i, c in enumerate(center)]
    for poly in (center, corner):
        if any(poly):
            assert jensen._exact_hyperbolic(poly) == reference_exact_hyperbolic(poly)


@settings(deadline=None, max_examples=200)
@given(_factored_polynomials().filter(lambda case: len(case[0]) in (3, 4)),
       st.integers(min_value=20, max_value=120), st.integers(min_value=1, max_value=2 ** 20),
       st.integers(min_value=0, max_value=160))
def test_numeric_box_verdict_holds_at_center_and_corners(case, bits, radius, shift):
    # a degree-2 or -3 factored polynomial read at `bits` binary digits, a box of
    # radius radius/2^shift around it: a verdict holds for every polynomial in
    # the box, so the referee must give it at the center and at every corner
    coeffs, _ = case
    scale = 2 ** bits
    center = [Fraction(round(c * scale), scale) for c in coeffs]
    tol = Fraction(radius, 2 ** shift)
    try:
        verdict = jensen.is_hyperbolic(center, mode="numeric", tolerance=tol)
    except jensen.IndeterminateVerdict:
        return
    assert reference_exact_hyperbolic(center) == verdict
    for mask in range(1 << len(center)):
        corner = [c + (tol if (mask >> i) & 1 else -tol) for i, c in enumerate(center)]
        assert reference_exact_hyperbolic(corner) == verdict


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=-2 ** 40, max_value=2 ** 40), st.integers(min_value=-2 ** 40, max_value=2 ** 40),
       st.integers(min_value=0, max_value=60), st.sampled_from([(2, 0), (3, 0), (2, 1)]),
       st.integers(min_value=1, max_value=2 ** 20), st.integers(min_value=0, max_value=400))
def test_numeric_box_refuses_a_zero_discriminant(r, s, bits, shape, radius, shift):
    # (X - r)^2, (X - r)^3 and (X - r)^2 (X - s) with dyadic r, s, held
    # exactly as mpf: no tolerance, however small, proves their verdict
    r_times, s_times = shape
    poly = [Fraction(1)]
    for root, times in ((Fraction(r, 2 ** bits), r_times), (Fraction(s, 2 ** bits), s_times)):
        for _ in range(times):
            poly = _poly_mul(poly, [-root, 1])
    with mp.workprec(1000):
        center = [mp.mpf(c.numerator) / c.denominator for c in poly]
    assert [mpf_to_fraction(c) for c in center] == poly
    with pytest.raises(jensen.IndeterminateVerdict):
        jensen.is_hyperbolic(center, mode="numeric", tolerance=mp.mpf(radius) * mp.mpf(2) ** -shift)


@st.composite
def _repeated_root_polynomials(draw):
    """(integer coefficients, hyperbolic?) for c * prod f_i^m_i with some
    m_i >= 2, so that gcd(p, p') is nontrivial."""
    roots = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
    poly = [draw(st.integers(min_value=1, max_value=10 ** 6)) * draw(st.sampled_from([1, -1]))]
    real_rooted = True
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            factor = [-draw(roots), 1]
        else:
            factor = [draw(st.integers(min_value=1, max_value=10 ** 12)), 0, 1]  # X^2 + c
            real_rooted = False
        low = 2 if k == 0 else 1  # the first factor always repeats
        for _ in range(draw(st.integers(min_value=low, max_value=3))):
            poly = _poly_mul(poly, factor)
    return [int(c) for c in poly], real_rooted


@settings(deadline=None, max_examples=200)
@given(_repeated_root_polynomials())
def test_sturm_chain_matches_reference_with_repeated_roots(case):
    coeffs, real_rooted = case
    assert jensen._exact_hyperbolic(coeffs) == reference_exact_hyperbolic(coeffs) == real_rooted


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(min_value=10 ** 150, max_value=10 ** 170), min_size=3, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_discriminant_matches_reference_above_1e150(magnitudes, negate):
    # quadratics and cubics only: the verdicts the discriminant decides
    coeffs = [-m if s else m for m, s in zip(magnitudes, negate)]
    assert jensen._exact_hyperbolic(coeffs) == reference_exact_hyperbolic(coeffs)


@st.composite
def _low_degree_repeated_roots(draw):
    """(rational coefficients, hyperbolic?) for k (X - r)^2, k (X - r)^3 and
    k (X - r)^2 (X - s), whose discriminant is 0, for k (X - r)(X^2 + c), and
    for k (X - r)^2 (X^2 + c), one degree up, where the Sturm chain takes
    over; |k| lies in [10^150, 10^170] over a denominator up to 10^6."""
    roots = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
    lin_r, lin_s = [-draw(roots), 1], [-draw(roots), 1]
    quad = [draw(st.integers(min_value=1, max_value=10 ** 12)), 0, 1]
    factors, real_rooted = draw(st.sampled_from([
        ((lin_r, lin_r), True),
        ((lin_r, lin_r, lin_r), True),
        ((lin_r, lin_r, lin_s), True),
        ((lin_r, quad), False),
        ((lin_r, lin_r, quad), False),
    ]))
    k = draw(st.integers(min_value=10 ** 150, max_value=10 ** 170)) * draw(st.sampled_from([1, -1]))
    poly = [Fraction(k, draw(st.integers(min_value=1, max_value=10 ** 6)))]
    for factor in factors:
        poly = _poly_mul(poly, factor)
    return poly, real_rooted


@settings(deadline=None, max_examples=200)
@given(_low_degree_repeated_roots())
def test_discriminant_matches_reference_with_repeated_roots(case):
    coeffs, real_rooted = case
    assert jensen._exact_hyperbolic(coeffs) == reference_exact_hyperbolic(coeffs) == real_rooted


def _compose_affine(p, a, b):
    # exact coefficients of p(a X + b)
    out = [Fraction(0)] * len(p)
    for j, c in enumerate(p):
        c = Fraction(c)
        # expand c (a X + b)^j
        for i in range(j + 1):
            out[i] += c * comb(j, i) * Fraction(a) ** i * Fraction(b) ** (j - i)
    return out


@pytest.mark.parametrize("shift", [1, 2, 25, 30])
def test_hyperbolicity_invariance(shift, classical_p):
    p = jensen.jensen_poly(classical_p, 2, shift)
    verdict = jensen.is_hyperbolic(p)
    scaled = [7 * c for c in p]
    assert jensen.is_hyperbolic(scaled) == verdict
    substituted = _compose_affine(p, Fraction(2), Fraction(-3))
    assert jensen.is_hyperbolic(substituted) == verdict


@settings(deadline=None, max_examples=60)
@given(
    alpha_text=st.sampled_from(["1", "51/7"]),
    n=st.integers(min_value=0, max_value=300),
)
def test_degree_two_is_log_concavity(alpha_text, n, coeff_cache):
    tab = coeff_cache(parse_alpha(alpha_text), 302)
    p = jensen.jensen_poly(tab.values, 2, n)
    log_concave = tab.values[n + 1] ** 2 >= tab.values[n] * tab.values[n + 2]
    assert jensen.is_hyperbolic(p) == log_concave == reference_exact_hyperbolic(p)


@settings(deadline=None, max_examples=60)
@given(
    alpha_text=st.sampled_from(["1", "51/7"]),
    n=st.integers(min_value=0, max_value=300),
)
def test_degree_three_is_the_higher_order_turan_inequality(alpha_text, n, coeff_cache):
    # J^{3,n} is hyperbolic iff 4(a1^2 - a0 a2)(a2^2 - a1 a3) - (a1 a2 - a0 a3)^2 >= 0
    tab = coeff_cache(parse_alpha(alpha_text), 303)
    a0, a1, a2, a3 = tab.values[n:n + 4]
    turan = 4 * (a1 ** 2 - a0 * a2) * (a2 ** 2 - a1 * a3) - (a1 * a2 - a0 * a3) ** 2 >= 0
    p = jensen.jensen_poly(tab.values, 3, n)
    assert jensen.is_hyperbolic(p) == turan == reference_exact_hyperbolic(p)


# ---------------------------------------------------------------------------
# renormalization
# ---------------------------------------------------------------------------

def test_renorm_params_rejects_small_n():
    with pytest.raises(DomainError):
        jensen.renorm_params(parse_alpha("sqrt(3)"), 4)


def test_renorm_params_values():
    rp = jensen.renorm_params(parse_alpha("sqrt(3)"), 5)
    assert abs(rp.A_n - mp.mpf("0.5574439")) < mp.mpf("1e-6")
    assert abs(rp.delta_n - mp.mpf("0.053966138")) < mp.mpf("1e-8")


def test_renorm_params_decay():
    a = parse_alpha("sqrt(3)")
    params = [jensen.renorm_params(a, n) for n in (1000, 10000, 100000)]
    assert params[0].A_n > params[1].A_n > params[2].A_n > 0
    assert params[0].delta_n > params[1].delta_n > params[2].delta_n > 0


def test_renormalized_jensen_degree_preserved():
    a = parse_alpha("sqrt(3)")
    prec = Precision(60)
    for d in (2, 3):
        assert len(jensen.renormalized_jensen(a, d, 1000, prec)) == d + 1


def test_renormalized_jensen_frozen_values():
    a = parse_alpha("sqrt(3)")
    prec = Precision(90)
    p2 = jensen.renormalized_jensen(a, 2, 20000, prec)
    want2 = ("-2.00861401158", "0.0495971787117", "0.999981277596")
    for got, want in zip(p2, want2, strict=True):
        assert abs(got - mp.mpf(want)) < mp.mpf("1e-10")
    p3 = jensen.renormalized_jensen(a, 3, 10000, prec)
    want3 = ("-0.648694505941", "-6.03525590617", "0.0939816899668", "0.999942073409")
    for got, want in zip(p3, want3, strict=True):
        assert abs(got - mp.mpf(want)) < mp.mpf("1e-10")


def test_renormalized_jensen_approaches_hermite():
    a = parse_alpha("sqrt(3)")
    prec = Precision(90)
    for d in (2, 3):
        h = jensen.hermite(d)
        dists = []
        for n in (10000, 50000):
            p = jensen.renormalized_jensen(a, d, n, prec)
            dists.append(max(abs(x - y) for x, y in zip(p, h)))
        assert dists[1] < dists[0]


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------

def test_threshold_classical_log_concavity():
    assert jensen.hyperbolicity_threshold(1, 2, 200) == 25


def test_threshold_degree_one_never_fails():
    assert jensen.hyperbolicity_threshold(parse_alpha("51/7"), 1, 100) == 0


def test_threshold_frozen_scan():
    assert jensen.hyperbolicity_threshold(parse_alpha("51/7"), 3, 400) == 0


@pytest.mark.parametrize("alpha_text, d, horizon, want", [
    ("e", 3, 25, 12),
    ("pi", 2, 100, 0),
    ("sqrt(3)", 4, 8, None),
    ("8", 5, 240, 3),
])
def test_threshold_pinned_workload_scans(alpha_text, d, horizon, want):
    # the irrational scans run in numeric mode, alpha = 8 in exact mode
    assert jensen.hyperbolicity_threshold(parse_alpha(alpha_text), d, horizon) == want


@pytest.mark.parametrize("alpha, n2, n3", [(3, 0, 10), (2, 5, 24), (1, 25, 94), (Fraction(1, 2), 95, 290)])
def test_threshold_map_rows(alpha, n2, n3):
    # N_2 and N_3 scanned to horizon 1500, recorded from the upward scan
    assert jensen.hyperbolicity_threshold(alpha, 2, 1500) == n2
    assert jensen.hyperbolicity_threshold(alpha, 3, 1500) == n3


def test_threshold_reads_values_only_from_the_last_failure():
    # alpha = 1, d = 4, H = 245 has threshold 206: the downward scan stops at
    # n = 205 and needs p(205..249) only
    full = oracle.coeffs(1, 249).values
    values = {n: full[n] for n in range(205, 250)}
    assert jensen.hyperbolicity_threshold(1, 4, 245, values=values) == 206


def _verdict_indeterminate_at(monkeypatch, bad):
    # _verdict sees only the Jensen polynomial, so map it back to its shift n
    values = oracle.coeffs(1, 249).values
    shift = {jensen.jensen_poly(values, 4, n): n for n in range(246)}
    verdict = jensen._verdict

    def patched(alpha, raw, errs, prec):
        if bad(shift[raw]):
            raise jensen.IndeterminateVerdict("patched")
        return verdict(alpha, raw, errs, prec)

    monkeypatch.setattr(jensen, "_verdict", patched)


def test_threshold_ignores_indeterminate_verdicts_below_the_last_failure(monkeypatch):
    _verdict_indeterminate_at(monkeypatch, lambda n: n < 205)
    assert jensen.hyperbolicity_threshold(1, 4, 245) == 206


def test_threshold_raises_indeterminate_verdicts_above_the_last_failure(monkeypatch):
    _verdict_indeterminate_at(monkeypatch, lambda n: n == 230)
    with pytest.raises(jensen.IndeterminateVerdict):
        jensen.hyperbolicity_threshold(1, 4, 245)


def test_threshold_rejects_small_horizon():
    with pytest.raises(DomainError):
        jensen.hyperbolicity_threshold(1, 3, 3)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_build_report_classical():
    rep = jensen.build_report(parse_alpha("1"), 2, 30)
    assert rep.hyperbolic is True
    assert len(rep.raw) == len(rep.renormalized) == 3
    assert rep.hermite_distance > 0


def test_build_report_rational_with_supplied_values():
    tab = oracle.coeffs(parse_alpha("51/7"), 35)
    rep = jensen.build_report(parse_alpha("51/7"), 2, 30, values=tab.values)
    assert rep.hyperbolic is True
    assert rep.raw[0] == tab.values[30]


def test_build_report_real_alpha():
    rep = jensen.build_report(parse_alpha("sqrt(3)"), 2, 100)
    assert rep.hyperbolic is True
    assert len(rep.raw) == 3


def test_build_report_raw_coefficients_at_working_precision():
    prec = Precision(60)
    a = parse_alpha("sqrt(3)")
    rep = jensen.build_report(a, 3, 200, prec)
    vals, _ = jensen.default_values(a, 200, 3, prec)
    with prec.ctx():
        expected = [comb(3, j) * vals[j] for j in range(4)]
    assert list(rep.raw) == expected


def test_default_values_non_integer_rational_reads_the_oracle():
    # the window p_{51/7}(1..8) from the recurrence equals exact recovery
    vals, errs = jensen.default_values(parse_alpha("51/7"), 1, 7, Precision())
    assert vals == [circle.exact_value(51, 7, m) for m in range(1, 9)]
    assert all(type(v) is Fraction for v in vals)
    assert errs == [0] * 8


def test_default_values_integer_alpha_reads_the_oracle():
    # exact recovery, the route integer alpha took before, is the referee
    vals, errs = jensen.default_values(parse_alpha("1"), 40, 3, Precision())
    assert vals == [circle.exact_value(1, 1, m) for m in range(40, 44)]
    assert all(type(v) is int for v in vals)
    assert errs == [0] * 4


def test_build_report_integer_alpha_needs_no_exact_recovery(monkeypatch):
    def never(*args):
        pytest.fail("a Jensen window of rational alpha ran exact recovery")

    monkeypatch.setattr(circle, "exact_value", never)
    rep = jensen.build_report(1, 3, 40)
    assert rep.raw == (37338, 3 * 44583, 3 * 53174, 63261)  # p(40..43)
    assert rep.hyperbolic is False  # the degree-3 threshold of p(n) is 94


def test_build_report_rejects_n_before_computing_values(monkeypatch):
    # delta(n) is undefined at n = 9 for alpha = 51/7; no coefficient source
    # may run before that is noticed
    def never(*args):
        pytest.fail("coefficients computed for an n that renorm_params rejects")

    monkeypatch.setattr(circle, "exact_value", never)
    monkeypatch.setattr(oracle, "coeffs", never)
    with pytest.raises(DomainError, match="radicand is nonpositive at n=9"):
        jensen.build_report(parse_alpha("51/7"), 2, 9)

"""Coefficient oracle: the recurrence, denominators, P(x)^alpha."""

import hashlib
import time
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_rational_coeffs
from fracpart import oracle
from fracpart.numkernel import DomainError, Precision, parse_alpha, to_mpf


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def test_classical_partition_numbers():
    tab = oracle.coeffs(1, 10)
    assert list(tab.values) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert all(isinstance(v, int) for v in tab.values)


def test_classical_against_pentagonal(classical_p):
    tab = oracle.coeffs(1, 500)
    assert list(tab.values) == classical_p[:501]


def test_classical_against_divisor_sum_referee():
    # at alpha = 1 the library's pentagonal loop is the same algorithm as the
    # classical_p referee, so it is also checked against the divisor sum
    assert list(oracle.coeffs(1, 500).values) == reference_rational_coeffs(1, 500)


def test_rational_examples():
    assert oracle.coeffs(parse_alpha("51/7"), 2).values[2] == Fraction(1836, 49)
    assert oracle.coeffs(Fraction(1, 2), 3).values[3] == Fraction(17, 16)


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(5), Fraction(51, 7)])
def test_low_order_closed_forms(alpha):
    tab = oracle.coeffs(alpha, 2)
    assert tab.values[0] == 1
    assert tab.values[1] == alpha
    assert tab.values[2] == alpha * (alpha + 3) / 2


def test_low_order_closed_forms_real():
    prec = Precision(60)
    tab = oracle.coeffs(parse_alpha("e"), 2, prec)
    with prec.ctx():
        assert tab.values[0] == 1
        assert abs(tab.values[1] - mp.e) < mp.mpf(10) ** -58
        assert abs(tab.values[2] - mp.e * (mp.e + 3) / 2) < mp.mpf(10) ** -57


def test_alpha_two_is_cauchy_square(classical_p):
    # coefficients of P(x)^2 are the convolution of p with itself
    tab = oracle.coeffs(2, 80)
    for n in range(81):
        assert tab.values[n] == sum(classical_p[j] * classical_p[n - j] for j in range(n + 1))


def test_positivity():
    assert all(v > 0 for v in oracle.coeffs(Fraction(1, 3), 200).values)
    assert all(v > 0 for v in oracle.coeffs(parse_alpha("sqrt(3)"), 100).values)


@settings(deadline=None, max_examples=30)
@given(
    a=st.integers(min_value=1, max_value=400),
    b=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=0, max_value=120),
)
@example(a=1, b=100, n=100)
@example(a=1, b=10, n=100)
@example(a=5, b=6, n=120)
@example(a=7, b=12, n=120)
def test_rational_coeffs_match_fraction_referee(a, b, n):
    alpha = Fraction(a, b)
    got = list(oracle.coeffs(alpha, n).values)
    want = reference_rational_coeffs(alpha, n)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def test_wrong_denominator_raises(monkeypatch):
    # every division of the scaled recurrence is checked, so a scale D that
    # misses a factor of b raises instead of giving wrong Fractions
    true_denominator = oracle.denominator
    monkeypatch.setattr(oracle, "denominator", lambda a, b, n: true_denominator(a, b, n) // b)
    with pytest.raises(ArithmeticError, match="does not clear"):
        oracle.coeffs("51/7", 20)


def test_rational_coeffs_fast():
    # one gcd per step, as in reference_rational_coeffs, takes about 15 s on a 2-core VM
    start = time.perf_counter()
    oracle.coeffs("51/7", 1000)
    assert time.perf_counter() - start < 5


def test_coeffs_rejects_negative_n():
    with pytest.raises(DomainError):
        oracle.coeffs(1, -1)


# sha256 of [(type name, value or _mpf_ tuple)] over p(0..40), and the one
# value type of each table; recorded from the three kind-specific loops that
# the single recurrence replaced
COEFF_PINS = {
    ("e", 30): ("d664d735ae5ff765be351cb0dbcef5008e044d029c11e5ea3792c7d19fdd0615", "mpf"),
    ("e", 60): ("9ccb3a9cfe6f12f85a7b0d0361db268e4d907c365e7713fb1db735986d72e535", "mpf"),
    ("1/pi", 30): ("93c13d4a768b27ee30cbf25de3b6148b79eeeb8491a788cf98d51f514cdeca19", "mpf"),
    ("1/pi", 60): ("a9afba35958521e573ab8f993f260e47aefbb739d18887c62b517f86fe9c3308", "mpf"),
    ("51/7", 60): ("60869ae135aeecf8501c1bf092cae472fabe9608162bb0bf87498f7acc5e2b21", "Fraction"),
    ("5", 60): ("7b9fba8bf9607903cfb56f5cf2cd803fc249e629fd161c6e3154e9135446f3de", "int"),
}


@pytest.mark.parametrize("alpha,digits", sorted(COEFF_PINS))
def test_coeffs_bits_and_types_pinned(alpha, digits):
    values = oracle.coeffs(alpha, 40, Precision(digits)).values
    rep = repr([(type(v).__name__, tuple(map(int, v._mpf_)) if isinstance(v, mp.mpf) else v)
                for v in values])
    digest, kind = COEFF_PINS[alpha, digits]
    assert {type(v).__name__ for v in values} == {kind}
    assert hashlib.sha256(rep.encode()).hexdigest() == digest


def test_coeffs_real_value_pinned():
    assert oracle.coeffs("e", 10).values[10]._mpf_ == (
        0, 49510141296022499255328910704464298377549167150604647114992433999404455737492507,
        -254, 265)
    assert oracle.coeffs("1/pi", 10).values[10]._mpf_ == (
        0, 263048354205412452776293292438412247248842883593344477526202967956860473928968031,
        -266, 268)


# ---------------------------------------------------------------------------
# denominator
# ---------------------------------------------------------------------------

def test_denominator_examples():
    for n in range(6):
        assert oracle.denominator(3, 1, n) == 1
    assert oracle.denominator(51, 7, 2) == 49
    assert oracle.denominator(1, 2, 3) == 16
    assert oracle.denominator(51, 7, 10) == 7 ** 11 == 1977326743


def test_denominator_rejects_common_factor():
    with pytest.raises(DomainError):
        oracle.denominator(6, 4, 3)


@settings(deadline=None, max_examples=40)
@given(
    a=st.integers(min_value=1, max_value=60),
    b=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=0, max_value=40),
)
def test_denominator_is_multiple_of_true_denominator(a, b, n):
    g = gcd(a, b)
    a, b = a // g, b // g
    got = oracle.denominator(a, b, n)
    true_den = reference_rational_coeffs(Fraction(a, b), n)[n].denominator
    assert got % true_den == 0


# ---------------------------------------------------------------------------
# eval_P_alpha
# ---------------------------------------------------------------------------

def test_eval_at_zero_is_one():
    assert oracle.eval_P_alpha(mp.mpf(0), parse_alpha("e"), 50) == 1


def test_eval_real_point(classical_p):
    # sum of p(n)(0.1)^n, first digits 1.12358275484865...
    prec = Precision(40)
    with prec.ctx():
        x = mp.mpf(1) / 10
        got = oracle.eval_P_alpha(x, 1, 200, prec)
        want = sum(classical_p[n] * x ** n for n in range(201))
        assert abs(got - want) < mp.mpf(10) ** -30
        assert mp.nstr(got, 15) == "1.12358275484865"


def test_eval_complex_point_matches_series():
    prec = Precision(60)
    tab = oracle.coeffs(2, 200, prec)
    with prec.ctx():
        x = mp.mpc("0.2", "0.1")
        direct = oracle.eval_P_alpha(x, 2, 300, prec)
        series = sum(int(tab.values[n]) * x ** n for n in range(201))
        assert abs(direct - series) < mp.mpf(10) ** -30


@pytest.mark.parametrize("alpha_text", ["1/2", "1", "2", "e"])
@pytest.mark.parametrize("x_parts", [("0.5", "0"), ("-0.3", "0.25"), ("0.1", "0.45")])
def test_product_series_equivalence(alpha_text, x_parts, coeff_cache):
    alpha = parse_alpha(alpha_text)
    prec = Precision(60)
    tab = coeff_cache(alpha, 300, prec)
    with prec.ctx():
        x = mp.mpc(mp.mpf(x_parts[0]), mp.mpf(x_parts[1]))
        direct = oracle.eval_P_alpha(x, alpha, 400, prec)
        series = sum(to_mpf(tab.values[n]) * x ** n for n in range(301))
        assert abs(direct - series) < mp.mpf(10) ** -25


def test_eval_rejects_near_unit_modulus():
    with pytest.raises(DomainError):
        oracle.eval_P_alpha(mp.mpf("0.9995"), 1, 100)
    with pytest.raises(DomainError):
        oracle.eval_P_alpha(mp.mpc("0.8", "0.7"), 1, 100)

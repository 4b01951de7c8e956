"""Precision policy, the alpha expression parser, gamma, and Bessel I."""

from fractions import Fraction
from math import log10

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_bessel_i
from fracpart.numkernel import (
    DEFAULT_PRECISION,
    AlphaValue,
    DomainError,
    ParseError,
    Precision,
    as_alpha,
    bessel_i,
    gamma,
    mpf_to_fraction,
    nearest_int,
    parse_alpha,
    to_mpf,
)


# ---------------------------------------------------------------------------
# Precision
# ---------------------------------------------------------------------------

def test_precision_defaults():
    assert DEFAULT_PRECISION.decimal_digits == 60
    assert DEFAULT_PRECISION.guard_digits == 10
    assert DEFAULT_PRECISION.work_dps == 70


def test_precision_validation():
    with pytest.raises(DomainError):
        Precision(decimal_digits=29)
    with pytest.raises(DomainError):
        Precision(decimal_digits=60, guard_digits=9)
    Precision(decimal_digits=30, guard_digits=10)


def test_precision_context_sets_dps():
    prec = Precision(decimal_digits=45, guard_digits=10)
    with prec.ctx():
        assert mp.mp.dps == 55
    with prec.ctx(extra=5):
        assert mp.mp.dps == 60


def test_precision_eps():
    prec = Precision(decimal_digits=40, guard_digits=10)
    assert prec.eps() == mp.mpf(10) ** (-40)


# ---------------------------------------------------------------------------
# parse_alpha: rational forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("51/7", Fraction(51, 7)),
    ("5", Fraction(5)),
    ("1/3", Fraction(1, 3)),
    ("0.01", Fraction(1, 100)),
    ("2*3/4", Fraction(3, 2)),
    ("0.5/0.25", Fraction(2)),
])
def test_parse_rational(text, expected):
    a = parse_alpha(text)
    assert a.kind == "rational"
    assert a.rational == expected


def test_parse_decimal_is_exact():
    # decimal literals are exact rationals, not binary floats
    assert parse_alpha("0.1").rational == Fraction(1, 10)


@pytest.mark.parametrize("text", ["e", "pi", "sqrt(3)", "1/e", "sqrt(2)/2", "pi*pi"])
def test_parse_real_kind(text):
    a = parse_alpha(text)
    assert a.kind == "real"
    assert a.rational is None


def test_parse_sqrt3_value():
    a = parse_alpha("sqrt(3)")
    with mp.workdps(60):
        want = mp.mpf("1.73205080756887729352744634150587236694280525381038062805581")
        assert abs(a.value_at(Precision(50, 10)) - want) < mp.mpf(10) ** -49


def test_parse_inverse_e_value():
    a = parse_alpha("1/e")
    with mp.workdps(40):
        want = mp.mpf("0.367879441171442321595523770161460867445")
        assert abs(a.value_at(Precision(35, 10)) - want) < mp.mpf(10) ** -34


def test_parse_pi_over_six():
    a = parse_alpha("pi/6")
    with mp.workdps(40):
        assert abs(a.value_at(Precision(35, 10)) - mp.pi / 6) < mp.mpf(10) ** -34


@pytest.mark.parametrize("text,offset", [
    ("1//2", 2),
    ("1/0", 1),
    ("1x", 1),
])
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_alpha(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text", ["", "sqrt(", "q", "2**3", "(1/2)"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_alpha(text)


@pytest.mark.parametrize("text", ["0", "0.0", "sqrt(0)", "0*pi"])
def test_parse_rejects_structural_zero(text):
    with pytest.raises(DomainError):
        parse_alpha(text)


def test_value_at_precision_independence():
    # real-kind values agree across precisions to the coarser precision
    a = parse_alpha("sqrt(3)")
    lo = a.value_at(Precision(40, 10))
    hi = a.value_at(Precision(80, 10))
    with mp.workdps(90):
        assert abs(lo - hi) / hi < mp.mpf(10) ** -40


def test_as_alpha_coercions():
    assert as_alpha(Fraction(3, 2)).rational == Fraction(3, 2)
    assert as_alpha(2).rational == Fraction(2)
    assert as_alpha("e").kind == "real"
    a = parse_alpha("51/7")
    assert as_alpha(a) is a


def test_alpha_str_round_trip():
    assert str(parse_alpha("51/7")) == "51/7"
    assert str(parse_alpha("sqrt(3)")) == "sqrt(3)"


def test_alpha_key_distinguishes_kind():
    assert parse_alpha("2").key() != parse_alpha("sqrt(4)").key()


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_integers():
    assert gamma(mp.mpf(1)) == 1
    assert gamma(mp.mpf(5)) == 24


def test_gamma_half():
    # independent sqrt(pi) reference value
    with mp.workdps(70):
        want = mp.mpf("1.77245385090551602729816748334114518279754945612238712821381")
        got = gamma(mp.mpf(1) / 2, Precision(60, 10))
        assert abs(got - want) < mp.mpf(10) ** -58


# ---------------------------------------------------------------------------
# bessel_i
# ---------------------------------------------------------------------------

def test_bessel_zero_argument():
    assert bessel_i(mp.mpf(1) / 2, mp.mpf(0)) == 0
    assert bessel_i(mp.mpf(3), mp.mpf(0)) == 0


def test_bessel_half_order_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    prec = Precision(60, 10)
    with prec.ctx():
        want = mp.sqrt(2 / mp.pi) * mp.sinh(1)
        got = bessel_i(mp.mpf(1) / 2, mp.mpf(1), prec)
        assert abs(got - want) / want < mp.mpf(10) ** -55


def test_bessel_three_halves_closed_form():
    # I_{3/2}(z) = sqrt(2/(pi z)) (cosh z - sinh z / z)
    prec = Precision(60, 10)
    with prec.ctx():
        z = mp.mpf(2)
        want = mp.sqrt(2 / (mp.pi * z)) * (mp.cosh(z) - mp.sinh(z) / z)
        got = bessel_i(mp.mpf(3) / 2, z, prec)
        assert abs(got - want) / want < mp.mpf(10) ** -55


def test_bessel_monotone_in_z():
    prec = Precision(40, 10)
    for nu in (mp.mpf(1) / 2, mp.mpf(1), mp.mpf(7) / 2):
        grid = [mp.mpf(z) for z in ("0.5", "1", "2", "5", "10", "20", "35", "50")]
        vals = [bessel_i(nu, z, prec) for z in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@settings(deadline=None, max_examples=60)
@given(
    nu=st.floats(min_value=1.01, max_value=30),
    x=st.floats(min_value=0.01, max_value=50),
    y=st.floats(min_value=0.01, max_value=50),
)
def test_bessel_ratio_inequality(nu, x, y):
    # for 0 < x < y and nu > 1: I_nu(x)/I_nu(y) < (x/y)^nu
    if x == y:
        return
    x, y = sorted((x, y))
    prec = Precision(40, 10)
    with prec.ctx():
        lhs = bessel_i(mp.mpf(nu), mp.mpf(x), prec) / bessel_i(mp.mpf(nu), mp.mpf(y), prec)
        rhs = (mp.mpf(x) / mp.mpf(y)) ** mp.mpf(nu)
        assert lhs < rhs


def test_bessel_precision_stability():
    lo = bessel_i(mp.mpf(7) / 2, mp.mpf("13.7"), Precision(40, 10))
    hi = bessel_i(mp.mpf(7) / 2, mp.mpf("13.7"), Precision(80, 10))
    with mp.workdps(90):
        assert abs(lo - hi) / hi < mp.mpf(10) ** -38


@settings(deadline=None, max_examples=150)
@given(
    nu=st.floats(min_value=1.1, max_value=20),
    log_z=st.floats(min_value=-3, max_value=log10(800)),
    digits=st.integers(min_value=30, max_value=120),
)
def test_bessel_bit_identical_to_reference(nu, log_z, digits):
    # the raw-tuple series loop must round exactly like the mpf loop
    prec = Precision(digits, 10)
    with prec.ctx():
        nuv, z = mp.mpf(nu), mp.mpf(10) ** mp.mpf(log_z)
    assert bessel_i(nuv, z, prec)._mpf_ == reference_bessel_i(nuv, z, prec)._mpf_


# ---------------------------------------------------------------------------
# conversion helpers
# ---------------------------------------------------------------------------

@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_mpf_to_fraction_matches_float_semantics(x):
    assert mpf_to_fraction(mp.mpf(x)) == Fraction(x)


def test_mpf_to_fraction_round_trip_exact():
    with mp.workdps(60):
        v = mp.sqrt(2)
        frac = mpf_to_fraction(v)
        assert to_mpf(frac) == v


def test_mpf_to_fraction_exact_under_default_precision():
    with mp.workprec(200):
        v = 1 - mp.mpf(2) ** -199
    assert mpf_to_fraction(v) == 1 - Fraction(1, 2 ** 199)
    # exact inputs stay exact rather than rounding to 53 bits
    assert mpf_to_fraction(10 ** 30 + 1) == 10 ** 30 + 1
    assert mpf_to_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_to_mpf_accepts_fraction():
    with mp.workdps(30):
        assert to_mpf(Fraction(1, 4)) == mp.mpf("0.25")


def test_nearest_int():
    assert nearest_int(mp.mpf("2.4")) == 2
    assert nearest_int(mp.mpf("-2.6")) == -3
    assert nearest_int(mp.mpf(3)) == 3

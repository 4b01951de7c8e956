"""Precision policy, the alpha expression parser, and Bessel I."""

import random
from fractions import Fraction
from math import log10

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bessel_error_bound,
    reference_bessel_i,
    reference_hankel_bessel_i,
    reference_series_bessel_i,
    reference_series_member,
)
from fracpart import circle
from fracpart.numkernel import (
    DEFAULT_PRECISION,
    MAX_SQRT_NESTING,
    AlphaValue,
    BesselFamily,
    DomainError,
    ParseError,
    Precision,
    as_alpha,
    bessel_i,
    cos_sum,
    mpf_to_fraction,
    parse_alpha,
    phase_sum,
    to_mpf,
)


# ---------------------------------------------------------------------------
# Precision
# ---------------------------------------------------------------------------

def test_precision_defaults():
    assert DEFAULT_PRECISION.decimal_digits == 60
    assert DEFAULT_PRECISION.work_dps == 70


def test_precision_validation():
    with pytest.raises(DomainError):
        Precision(decimal_digits=29)
    Precision(decimal_digits=30)


def test_precision_context_sets_dps():
    prec = Precision(decimal_digits=45)
    with prec.ctx():
        assert mp.mp.dps == 55
    with prec.ctx(extra=5):
        assert mp.mp.dps == 60


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
    assert parse_alpha(text).rational == expected


def test_parse_decimal_is_exact():
    # decimal literals are exact rationals, not binary floats
    assert parse_alpha("0.1").rational == Fraction(1, 10)


@pytest.mark.parametrize("text", ["e", "pi", "sqrt(3)", "1/e", "sqrt(2)/2", "pi*pi"])
def test_parse_real_kind(text):
    assert parse_alpha(text).rational is None


def test_parse_sqrt3_value():
    a = parse_alpha("sqrt(3)")
    with mp.workdps(60):
        want = mp.mpf("1.73205080756887729352744634150587236694280525381038062805581")
        assert abs(a.value_at(Precision(50)) - want) < mp.mpf(10) ** -49


def test_parse_inverse_e_value():
    a = parse_alpha("1/e")
    with mp.workdps(40):
        want = mp.mpf("0.367879441171442321595523770161460867445")
        assert abs(a.value_at(Precision(35)) - want) < mp.mpf(10) ** -34


def test_parse_pi_over_six():
    a = parse_alpha("pi/6")
    with mp.workdps(40):
        assert abs(a.value_at(Precision(35)) - mp.pi / 6) < mp.mpf(10) ** -34


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


# One case per ParseError message, plus the ranking of faults: scan errors,
# then syntax errors in parse order, then trailing input, then the first
# division by zero in post-order. Recorded from the tokenizer-and-walkers
# parser that the one-pass parser replaced.
MALFORMED = [
    ("1.x", "decimal literal needs digits after '.'", 2),
    ("2*q", "unknown name 'q'", 2),
    ("1 + 2", "unexpected character '+'", 2),
    ("2/\u00e9", "unexpected character '\ufffd'", 2),
    ("sqrt 2", "expected '(' after sqrt", 5),
    ("sqrt(2", "expected ')'", 6),
    ("2*", "expected a number, e, pi or sqrt(...)", 2),
    ("", "expected a number, e, pi or sqrt(...)", 0),
    ("2 3", "unexpected trailing input", 2),
    ("(1/2)", "expected a number, e, pi or sqrt(...)", 0),
    ("1/0", "division by zero", 1),
    ("1/0)", "unexpected trailing input", 3),
    ("sqrt( x", "unknown name 'x'", 6),
    ("1/0 * (", "expected a number, e, pi or sqrt(...)", 6),
    ("sqrt(1/0)/0", "division by zero", 6),
    ("1/sqrt(0/0)", "division by zero", 8),
    ("0/0", "division by zero", 1),
    ("1//2", "expected a number, e, pi or sqrt(...)", 2),
    ("2**3", "expected a number, e, pi or sqrt(...)", 2),
    ("1.5.3", "unexpected character '.'", 3),
    ("\t 7 \n/", "expected a number, e, pi or sqrt(...)", 6),
    ("pi2", "unexpected trailing input", 2),
    ("sqrtpi", "unknown name 'sqrtpi'", 0),
    # one sqrt past the limit: the fault is at the first sqrt too many
    pytest.param("sqrt(" * (MAX_SQRT_NESTING + 1) + "2" + ")" * (MAX_SQRT_NESTING + 1),
                 "sqrt(...) nested too deeply", 5 * MAX_SQRT_NESTING, id="sqrt-nested-too-deeply"),
]


@pytest.mark.parametrize("text,message,offset", MALFORMED)
def test_parse_error_messages_and_offsets(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_alpha(text)
    assert str(exc.value) == "%s (byte %d)" % (message, offset)
    assert exc.value.offset == offset


def test_parse_accepts_sqrt_nested_to_the_limit():
    a = parse_alpha("sqrt(" * MAX_SQRT_NESTING + "4" + ")" * MAX_SQRT_NESTING)
    assert a.rational is None
    assert mp.almosteq(a.value_at(), 1)


# Expression trees drawn from the grammar: an expr is a term or
# ("chain", term, [(op, term), ...]); a term is a literal, a constant or
# ("sqrt", expr).
_NUMERALS = st.sampled_from(["0", "1", "2", "3", "7", "10", "51", "00", "0.0", "0.25",
                             "0.01", "1.5", "3.000"])
_LEAVES = st.one_of(_NUMERALS, st.sampled_from(["e", "pi"]))


def _exprs(terms):
    ops = st.lists(st.tuples(st.sampled_from("*/"), terms), min_size=1, max_size=3)
    return st.one_of(terms, st.tuples(st.just("chain"), terms, ops))


_TREES = st.one_of(_exprs(_NUMERALS), _exprs(st.recursive(
    _LEAVES, lambda terms: st.tuples(st.just("sqrt"), _exprs(terms)), max_leaves=10)))
_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c"])


def _render(tree, draw_space, out, zero_divs):
    """Append tree's text to out (with drawn whitespace around every token);
    record the offset of each '/' before a zero term, in post-order."""
    def emit(tok):
        out.append(draw_space())
        out.append(tok)

    if isinstance(tree, str):
        emit(tree)
    elif tree[0] == "sqrt":
        emit("sqrt")
        emit("(")
        _render(tree[1], draw_space, out, zero_divs)
        emit(")")
    else:
        _render(tree[1], draw_space, out, zero_divs)
        for op, term in tree[2]:
            emit(op)
            off = len("".join(out)) - 1
            _render(term, draw_space, out, zero_divs)
            if op == "/" and _is_zero(term):
                zero_divs.append(off)


def _is_zero(tree):
    if isinstance(tree, str):
        return tree not in ("e", "pi") and Fraction(tree) == 0
    if tree[0] == "sqrt":
        return _is_zero(tree[1])
    return _is_zero(tree[1]) or any(op == "*" and _is_zero(t) for op, t in tree[2])


def _exact(tree):
    """Left-to-right Fraction value, None once e, pi or sqrt occurs."""
    if isinstance(tree, str):
        return None if tree in ("e", "pi") else Fraction(tree)
    if tree[0] == "sqrt":
        return None
    acc = _exact(tree[1])
    for op, term in tree[2]:
        v = _exact(term)
        if acc is None or v is None:
            return None
        acc = acc * v if op == "*" else acc / v
    return acc


def _real(tree):
    """Left-to-right mpf value at the current precision."""
    if isinstance(tree, str):
        if tree in ("e", "pi"):
            return mp.e if tree == "e" else mp.pi
        f = Fraction(tree)
        return mp.mpf(f.numerator) / f.denominator
    if tree[0] == "sqrt":
        return mp.sqrt(_real(tree[1]))
    acc = _real(tree[1])
    for op, term in tree[2]:
        v = _real(term)
        acc = acc * v if op == "*" else acc / v
    return acc


@settings(deadline=None, max_examples=300)
@given(tree=_TREES, data=st.data(), digits=st.sampled_from([30, 60, 90]))
def test_parse_matches_left_to_right_evaluation(tree, data, digits):
    out, zero_divs = [], []
    _render(tree, lambda: data.draw(_SPACE), out, zero_divs)
    out.append(data.draw(_SPACE))
    text = "".join(out)
    if zero_divs:
        with pytest.raises(ParseError) as exc:
            parse_alpha(text)
        assert str(exc.value) == "division by zero (byte %d)" % zero_divs[0]
        return
    if _is_zero(tree):
        with pytest.raises(DomainError):
            parse_alpha(text)
        return
    a = parse_alpha(text)
    exact = _exact(tree)
    assert a.rational == exact
    prec = Precision(digits)
    with prec.ctx():
        want = _real(tree) if exact is None else mp.mpf(exact.numerator) / exact.denominator
    assert a.value_at(prec)._mpf_ == want._mpf_


def test_value_at_precision_independence():
    # real-kind values agree across precisions to the coarser precision
    a = parse_alpha("sqrt(3)")
    lo = a.value_at(Precision(40))
    hi = a.value_at(Precision(80))
    with mp.workdps(90):
        assert abs(lo - hi) / hi < mp.mpf(10) ** -40


def test_as_alpha_coercions():
    assert as_alpha(Fraction(3, 2)).rational == Fraction(3, 2)
    assert as_alpha(2).rational == Fraction(2)
    assert as_alpha("e").rational is None
    a = parse_alpha("51/7")
    assert as_alpha(a) is a


def test_alpha_str_round_trip():
    assert str(parse_alpha("51/7")) == "51/7"
    assert str(parse_alpha("sqrt(3)")) == "sqrt(3)"


def test_alpha_key_distinguishes_kind():
    # an AlphaValue is its own cache key: equal value, different kind, two entries
    rational, tree = parse_alpha("2"), parse_alpha("sqrt(4)")
    assert rational != tree
    circle.clear_caches()
    delta = circle.m_term_delta(rational, 1)
    circle.partial_series(rational, 5, delta)
    circle.partial_series(tree, 5, delta)
    assert circle._term_cache.cache_info().currsize == 2


# ---------------------------------------------------------------------------
# bessel_i
# ---------------------------------------------------------------------------

def test_bessel_zero_argument():
    assert bessel_i(mp.mpf(1) / 2, mp.mpf(0)) == 0
    assert bessel_i(mp.mpf(3), mp.mpf(0)) == 0


@pytest.mark.parametrize("nu,z", [(2, mp.nan), (2, mp.inf), (mp.nan, 1), (mp.inf, 1)])
def test_bessel_rejects_non_finite_input(nu, z):
    # the series stop test is never true for NaN or infinity
    with pytest.raises(DomainError, match="finite"):
        bessel_i(nu, z)


def test_bessel_half_order_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    prec = Precision(60)
    with prec.ctx():
        want = mp.sqrt(2 / mp.pi) * mp.sinh(1)
        got = bessel_i(mp.mpf(1) / 2, mp.mpf(1), prec)
        assert abs(got - want) / want < mp.mpf(10) ** -55


def test_bessel_three_halves_closed_form():
    # I_{3/2}(z) = sqrt(2/(pi z)) (cosh z - sinh z / z)
    prec = Precision(60)
    with prec.ctx():
        z = mp.mpf(2)
        want = mp.sqrt(2 / (mp.pi * z)) * (mp.cosh(z) - mp.sinh(z) / z)
        got = bessel_i(mp.mpf(3) / 2, z, prec)
        assert abs(got - want) / want < mp.mpf(10) ** -55


def test_bessel_monotone_in_z():
    prec = Precision(40)
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
    prec = Precision(40)
    with prec.ctx():
        lhs = bessel_i(mp.mpf(nu), mp.mpf(x), prec) / bessel_i(mp.mpf(nu), mp.mpf(y), prec)
        rhs = (mp.mpf(x) / mp.mpf(y)) ** mp.mpf(nu)
        assert lhs < rhs


def test_bessel_precision_stability():
    lo = bessel_i(mp.mpf(7) / 2, mp.mpf("13.7"), Precision(40))
    hi = bessel_i(mp.mpf(7) / 2, mp.mpf("13.7"), Precision(80))
    with mp.workdps(90):
        assert abs(lo - hi) / hi < mp.mpf(10) ** -38


def _assert_within_bound(value, referee, steps, prec):
    """value is within bessel_i's stated bound of referee (relative)."""
    with mp.workdps(2 * prec.work_dps):
        assert abs(value - referee) <= bessel_error_bound(prec, steps) * referee


def _assert_is_a_referee(value, nu, z, prec, k=1):
    """value, member k of the family of (nu, z), is bit for bit the referee
    of the branch it takes: above the switch the Hankel referee, below it the
    series-member referee. Member 1 is also within the stated bound of the
    forward-sum series referee. Returns the Hankel term count (None below
    the switch) and a series step count for the bound: the member's stop
    below the switch, the forward-sum referee's above it (None for k >= 2)."""
    hankel = reference_hankel_bessel_i(nu, z, prec, k)
    steps = None
    if hankel is None:
        series, steps = reference_series_member(nu, z, prec, k)
        assert value._mpf_ == series._mpf_
    else:
        assert value._mpf_ == hankel[0]._mpf_
    if k == 1:
        forward, forward_steps, _ = reference_series_bessel_i(nu, z, prec)
        steps = max(steps or 0, forward_steps)
        _assert_within_bound(value, forward, steps, prec)
    return (hankel[1] if hankel else None), steps


@settings(deadline=None, max_examples=150)
@given(
    nu=st.floats(min_value=1.1, max_value=20),
    log_z=st.floats(min_value=-3, max_value=log10(800)),
    digits=st.integers(min_value=30, max_value=120),
)
def test_bessel_bit_identical_to_reference(nu, log_z, digits):
    # bessel_i is, bit for bit, the referee of its branch: the series member
    # reference_series_member runs over Fractions below the switch, the
    # Hankel expansion reference_hankel_bessel_i runs over Fractions above
    # it. That one value is within the stated bound of the forward-sum
    # series reference_series_bessel_i, of the mpf series loop bessel_i ran
    # before it and of mp.besseli at twice the precision
    prec = Precision(digits)
    with prec.ctx():
        nuv, z = mp.mpf(nu), mp.mpf(10) ** mp.mpf(log_z)
    value = bessel_i(nuv, z, prec)
    _, steps = _assert_is_a_referee(value, nuv, z, prec)
    _assert_within_bound(value, reference_bessel_i(nuv, z, prec), steps, prec)
    with mp.workdps(2 * prec.work_dps):
        _assert_within_bound(value, mp.besseli(nuv, z), steps, prec)


@pytest.mark.parametrize("alpha", ["e", "sqrt(3)", "51/7", "8*pi"])
@pytest.mark.parametrize("z_over_pi", [7, 108, 318, 796])  # z = 22, 339, 999, 2501
def test_bessel_large_argument_accuracy(alpha, z_over_pi):
    # the orders alpha/2 + 1 of the series terms, with full-width mantissas;
    # the referee gives only the step count K that the bound needs
    prec = DEFAULT_PRECISION
    with prec.ctx():
        nu = parse_alpha(alpha).value_at(prec) / 2 + 1
        z = z_over_pi * mp.pi
    _, steps, _ = reference_series_bessel_i(nu, z, prec)
    with mp.workdps(2 * prec.work_dps):
        _assert_within_bound(bessel_i(nu, z, prec), mp.besseli(nu, z), steps, prec)


def test_bessel_accuracy_where_the_scale_shifts_many_times():
    # asymptotic(24000, 2000) takes I_12001(4000 pi): the series factor
    # I / t0 passes 2^1000, so the integer terms outgrow W + 8 bits and are
    # shifted back dozens of times. The mpf loop's stop left 1.94 thresholds
    # of tail here (the pins this kernel moved rely on less than 2).
    prec = DEFAULT_PRECISION
    with prec.ctx():
        nu, z = mp.mpf(12001), 4000 * mp.pi
    value = bessel_i(nu, z, prec)
    terms, steps = _assert_is_a_referee(value, nu, z, prec)
    assert terms is None
    with mp.workdps(2 * prec.work_dps):
        truth = mp.besseli(nu, z)
        assert mp.log(truth * mp.gamma(nu + 1) / (z / 2) ** nu, 2) > 1000
        _assert_within_bound(value, truth, steps, prec)
        old_shortfall = (truth - reference_bessel_i(nu, z, prec)) / truth
        assert mp.mpf(10) ** -prec.work_dps < old_shortfall < 2 * mp.mpf(10) ** -prec.work_dps


def test_bessel_stops_at_its_peak_at_tiny_argument():
    # At z = 2.2e-20 and 30 digits the first ratio (z/2)^2 / (nu + 1) is
    # below 10^-work_dps / 2, so the stop is the peak index 0 itself, while
    # the term T_1 it leaves out is far above a unit in the last place
    prec = Precision(30)
    with prec.ctx(5):
        nu, z = mp.mpf(3) / 2, mp.mpf("2.2e-20")
    value = bessel_i(nu, z, prec)
    assert _assert_is_a_referee(value, nu, z, prec) == (None, 0)
    with mp.workdps(2 * prec.work_dps):
        _assert_within_bound(value, mp.besseli(nu, z), 0, prec)


def test_bessel_stop_rule_bounds_the_tail():
    # The mpf loop stopped at the first term below 10^-dps of the sum. At
    # z = 2500 the ratio there was 0.53, so the geometric tail bound
    # T r/(1-r) exceeded the threshold and the value fell short by more
    # than 10^-dps. The integer stop bounds the tail below the threshold.
    # bessel_i takes the Hankel branch here, within the series' bound of it.
    prec = DEFAULT_PRECISION
    threshold = Fraction(1, 10 ** prec.work_dps)
    with prec.ctx(5):
        nu, z = mp.e / 2 + 1, mp.mpf(2500)
        half, term, total, k = z / 2, mp.mpf(1), mp.mpf(1), 0
        while term >= to_mpf(threshold) * total:  # the mpf loop's stop
            k += 1
            term = term * half ** 2 / (k * (nu + k))
            total += term
        r = half ** 2 / ((k + 1) * (nu + k + 1))
        assert mp.mpf("0.52") < r < mp.mpf("0.54")
        assert term * r / (1 - r) > to_mpf(threshold) * total
    value, steps, tail = reference_series_bessel_i(nu, z, prec)
    assert tail < threshold
    got = bessel_i(nu, z, prec)
    assert _assert_is_a_referee(got, nu, z, prec)[0] is not None
    with mp.workdps(2 * prec.work_dps):
        truth = mp.besseli(nu, z)
        _assert_within_bound(value, truth, steps, prec)
        _assert_within_bound(got, truth, steps, prec)
        assert truth - reference_bessel_i(nu, z, prec) > to_mpf(threshold) * truth


@settings(deadline=None, max_examples=30)
@given(
    nu=st.one_of(st.floats(min_value=0.05, max_value=40), st.sampled_from([0.5, 1.5, 2.5, 7.5])),
    digits=st.integers(min_value=30, max_value=120),
)
def test_bessel_across_the_switch(nu, digits):
    # bisect z in [1, 10^4] down to a pair of arguments 2^-16 apart where the
    # Hankel referee hands over to the series; on both sides bessel_i is its
    # branch's referee bit for bit and within the stated bound of mp.besseli.
    # At a half-integer order the expansion ends, and the companion bound
    # alone places the switch
    prec = Precision(digits)
    with prec.ctx(5):
        nuv, lo, hi = mp.mpf(nu), mp.mpf(1), mp.mpf(10 ** 4)
        assert reference_hankel_bessel_i(nuv, lo, prec) is None
        assert reference_hankel_bessel_i(nuv, hi, prec) is not None
        while hi - lo > mp.mpf(2) ** -16:
            mid = mp.ldexp(mp.floor(mp.ldexp(lo + hi, 15)), -16)
            if reference_hankel_bessel_i(nuv, mid, prec) is None:
                lo = mid
            else:
                hi = mid
    for z, above in ((lo, False), (hi, True)):
        value = bessel_i(nuv, z, prec)
        terms, steps = _assert_is_a_referee(value, nuv, z, prec)
        assert (terms is not None) == above
        with mp.workdps(2 * prec.work_dps):
            _assert_within_bound(value, mp.besseli(nuv, z), steps, prec)


def test_bessel_hankel_branch_at_half_integer_order_and_huge_argument():
    # for nu = 3/2 the expansion ends after a_1 (I_3/2(z) = sqrt(2/(pi z))
    # (cosh z - sinh z / z)): two terms at any large z, where the series would
    # need about e z / 2 of them
    prec = DEFAULT_PRECISION
    for z in (mp.mpf(200), mp.mpf(10) ** 30):
        with prec.ctx(5):
            nu, z = mp.mpf(3) / 2, mp.mpf(z)
        value = bessel_i(nu, z, prec)
        want, terms = reference_hankel_bessel_i(nu, z, prec)
        assert value._mpf_ == want._mpf_ and terms == 2
        with mp.workdps(2 * prec.work_dps):
            truth = mp.sqrt(2 / (mp.pi * z)) * (mp.cosh(z) - mp.sinh(z) / z)
            _assert_member_within_bound(value, truth, prec)


@pytest.mark.parametrize("nu,z", [(12001, 4000 * mp.pi), (10 ** 6, 10 ** 4), (2 ** 200, 2 ** 300)])
def test_bessel_switch_screen_never_raises_on_large_orders(nu, z):
    # 4 nu^2 - 1 > 8z: the screen reads integers only and hands these to the
    # series at its first ratio, where exp(pi |nu^2 - 1/4| / (2z)) would
    # overflow a float (exp(18 000) for nu = 12001)
    prec = DEFAULT_PRECISION
    with prec.ctx(5):
        nu, z = mp.mpf(nu), mp.mpf(z)
    family = BesselFamily(nu, z, prec)
    assert family._hankel(1, family._peak(1)) is None
    assert reference_hankel_bessel_i(nu, z, prec) is None
    if nu < 2 ** 100:
        assert _assert_is_a_referee(bessel_i(nu, z, prec), nu, z, prec)[0] is None


@pytest.mark.parametrize("nu,z,message", [(0, 1, "nu > 0"), (-1.5, 1, "nu > 0"), (2, -1, "z >= 0")])
def test_bessel_domain_errors(nu, z, message):
    # non-finite input: test_bessel_rejects_non_finite_input
    with pytest.raises(DomainError, match=message):
        bessel_i(nu, z)


# ---------------------------------------------------------------------------
# Bessel families I_nu(z/k)
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(
    nu=st.floats(min_value=1.1, max_value=20),
    log_z=st.floats(min_value=-3, max_value=log10(800)),
    digits=st.integers(min_value=30, max_value=120),
    before=st.sampled_from([(), (2,), (40,), (2, 40)]),
)
def test_family_first_member_is_bessel_i(nu, log_z, digits, before):
    # the k = 1 member is bessel_i, bit for bit, also when higher members
    # have built part of the table first, and every member read is the
    # referee of its branch
    prec = Precision(digits)
    with prec.ctx():
        nuv, z = mp.mpf(nu), mp.mpf(10) ** mp.mpf(log_z)
    member = BesselFamily(nuv, z, prec).members()
    for k in before:
        member(k)
    value = member(1)
    assert value._mpf_ == bessel_i(nuv, z, prec)._mpf_
    _assert_is_a_referee(value, nuv, z, prec)
    for k in (2, 40):
        value = member(k)
        _assert_is_a_referee(value, nuv, z, prec, k)
        with mp.workdps(2 * prec.work_dps):
            _assert_member_within_bound(value, mp.besseli(nuv, z / k), prec)


FAMILY_ORDERS = {
    "3/2": lambda: mp.mpf(3) / 2,  # dyadic: the order of alpha = 1
    "137/14": lambda: mp.mpf(137) / 14,
    "e/2+1": lambda: mp.e / 2 + 1,
}
FAMILY_BASES = ("0.001", "6", "40", "420", "2500")
# 352 digits is the precision of exact recovery at n = 10^5 (alpha = 1,
# order 3/2). The referee, at 724 digits, takes over 20 s per 300 members
# of the other two orders, so for those it reads a spread of members.
EVERY_MEMBER = range(1, 301)
SPREAD = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 299, 300)


def _family_members(order, digits):
    return SPREAD if digits == 352 and order != "3/2" else EVERY_MEMBER


def _family_referee(nu, z, prec, ks):
    """I_nu(z/k) for k in ks at twice the working digits, by the series
    mp.besseli sums, (x/2)^nu / Gamma(nu+1) 0F1(; nu+1; x^2/4), with
    Gamma(nu+1) taken once; mp.besseli itself checks it at the last k."""
    with mp.workdps(2 * prec.work_dps):
        gamma = mp.gamma(nu + 1)
        values = {}
        for k in ks:
            half = z / (2 * k)
            values[k] = half ** nu / gamma * mp.hyp0f1(nu + 1, half * half)
        k = ks[-1]
        assert abs(values[k] / mp.besseli(nu, z / k) - 1) < mp.mpf(10) ** (10 - mp.mp.dps)
        return values


def _assert_member_within_bound(value, truth, prec):
    """A member against its exact value: the series factor is never high and
    is low by less than 10^-dps + 2 (K+1)^2 2^-W < 10^-dps + 2^-wp
    (K < 2^31). The first term t0 k^-nu, whose error is not proved, gets the
    8 units of 2^-wp bessel_error_bound allows it, either way."""
    with prec.ctx(5):
        wp = mp.mp.prec
    with mp.workdps(2 * prec.work_dps):
        first = 8 * mp.mpf(2) ** -wp
        assert value - truth <= first * truth
        assert truth - value < (mp.mpf(10) ** -prec.work_dps + mp.mpf(2) ** -wp + first) * truth


@pytest.mark.parametrize("digits", [30, 60, 90, 352])
@pytest.mark.parametrize("order", FAMILY_ORDERS)
def test_family_members_within_proved_bound(order, digits):
    prec = Precision(digits)
    ks = _family_members(order, digits)
    for base in FAMILY_BASES:
        with prec.ctx(5):
            nu, z = FAMILY_ORDERS[order](), mp.mpf(base)
        member = BesselFamily(nu, z, prec).members()
        truth = _family_referee(nu, z, prec, ks)
        for k in ks:
            _assert_member_within_bound(member(k), truth[k], prec)


def test_family_members_do_not_depend_on_how_they_are_read():
    # a member stops at the first index where its test passes, and the test
    # passes there for every higher member too, and a member's branch rests
    # on nu, z/k and the precision alone: the bits depend neither on the
    # order of the reads (the ladder scan bisects) nor on the lowest member
    # of the table (a term cache extended by a second ensure), also where
    # the reads cross the switch (base 420 and 2500: the lowest members take
    # the Hankel branch, each its referee bit for bit; base 40: member 1
    # takes the series, and the members read after it search down from its
    # stop). Below the switch every member is the series-member referee
    prec = DEFAULT_PRECISION
    for base in ("40", "420", "2500"):
        with prec.ctx(5):
            nu, z = mp.e / 2 + 1, mp.mpf(base)
        family = BesselFamily(nu, z, prec)
        ks = range(2, 120)
        ascending = family.members()
        want = {k: ascending(k)._mpf_ for k in ks}
        hankel = {k: reference_hankel_bessel_i(nu, z, prec, k) for k in ks}
        assert all(hankel[k] is None or want[k] == hankel[k][0]._mpf_ for k in ks)
        assert (hankel[2] is not None) == (base != "40") and hankel[119] is None
        for k in (2, 3, 5, 8, 13, 21, 34, 55, 89, 119):
            if hankel[k] is None:
                assert want[k] == reference_series_member(nu, z, prec, k)[0]._mpf_
        shuffled = list(ks)
        random.Random(7).shuffle(shuffled)
        member = family.members()
        assert all(member(k)._mpf_ == want[k] for k in shuffled)
        member = family.members()
        assert all(member(k)._mpf_ == want[k] for k in range(37, 81))
        member = family.members()
        assert member(1)._mpf_ == bessel_i(nu, z, prec)._mpf_
        assert all(member(k)._mpf_ == want[k] for k in shuffled)
        assert family.members()(119)._mpf_ == want[119]


def test_family_members_vanish_at_zero_argument():
    assert BesselFamily(2, 0).members()(7) == 0


# ---------------------------------------------------------------------------
# cosine sums over a table of roots of unity
# ---------------------------------------------------------------------------

def _assert_cos_sum_within_bound(residues, period, prec):
    # cos_sum's proved bound: half an ulp of the result plus 2^-(wp+1) of
    # the exact sum, here mpmath's cospi summed at 40 more digits (whose own
    # error is far below the 2^-(wp+1) slack left by typical inputs)
    value = cos_sum(residues, period, prec)
    with prec.ctx():
        wp = mp.mp.prec
    with mp.workdps(prec.work_dps + 40):
        exact = mp.fsum(mp.cospi(mp.mpf(2 * r) / period) for r in residues)
        half_ulp = mp.ldexp(1, value._mpf_[2] + value._mpf_[3] - wp - 1) if value else 0
        assert abs(value - exact) <= half_ulp + mp.ldexp(1, -wp - 1)


@settings(deadline=None, max_examples=80)
@given(
    quarter=st.integers(min_value=1, max_value=200_000),
    residues=st.lists(st.integers(min_value=-10 ** 7, max_value=10 ** 7), max_size=80),
    digits=st.integers(min_value=30, max_value=200),
)
def test_cos_sum_within_proved_bound(quarter, residues, digits):
    _assert_cos_sum_within_bound(residues, 4 * quarter, Precision(digits))


@pytest.mark.parametrize("period", [4, 12, 36, 144, 2_881_584])
def test_cos_sum_quadrant_edges(period):
    # r = 0, P/2 fold onto omega^0 and are exact; P/4 and 3P/4 give cos = 0
    # within the bound; residues outside [0, P) reduce mod P
    half, quarter = period // 2, period // 4
    assert cos_sum([0, period, -period], period) == 3
    assert cos_sum([half, -half, 3 * half], period) == -3
    assert cos_sum([0, half], period) == 0
    edges = [0, quarter, half, 3 * quarter, period - 1, 1, quarter + 1, half - 1]
    _assert_cos_sum_within_bound(edges, period, DEFAULT_PRECISION)
    _assert_cos_sum_within_bound([quarter, 3 * quarter, -quarter], period, Precision(120))


def test_cos_sum_refuses_a_period_not_a_multiple_of_four():
    for period in (0, -4, 2, 6, 30):
        with pytest.raises(DomainError):
            cos_sum([1], period)
    assert cos_sum([], 8) == 0


def _assert_phase_sum_within_bound(alpha_text, k, pairs, prec):
    # phase_sum's proved bound: half an ulp of the result plus 2^-(wp+1) of
    # the exact sum, here mpmath's cos summed at 40 more digits from alpha
    # read there (whose own error is far below the 2^-(wp+1) slack)
    value = phase_sum(alpha_text, k, pairs, prec)
    fine = Precision(prec.decimal_digits + 40)
    av = parse_alpha(alpha_text).value_at(fine)
    with prec.ctx():
        wp = mp.mp.prec
    with fine.ctx():
        exact = mp.fsum(mp.cos(mp.pi * av * s / (6 * k) + 2 * mp.pi * r / k) for s, r in pairs)
        half_ulp = mp.ldexp(1, value._mpf_[2] + value._mpf_[3] - wp - 1) if value else 0
        assert abs(value - exact) <= half_ulp + mp.ldexp(1, -wp - 1)


@settings(deadline=None, max_examples=60)
@given(
    alpha_text=st.sampled_from(["e", "sqrt(3)", "pi", "1/e", "8*pi", "sqrt(2)/3", "51/7"]),
    k=st.integers(min_value=1, max_value=2000),
    pairs=st.lists(st.tuples(st.integers(min_value=-10 ** 7, max_value=10 ** 7),
                             st.integers(min_value=-10 ** 6, max_value=10 ** 6)), max_size=40),
    digits=st.integers(min_value=30, max_value=200),
)
def test_phase_sum_within_proved_bound(alpha_text, k, pairs, digits):
    # S far past the Dedekind range |S| < k^2/2, r outside [0, k), both signs
    _assert_phase_sum_within_bound(alpha_text, k, pairs, Precision(digits))


def test_phase_sum_exact_cases_and_refusals():
    # S = 0 with k <= 2 needs no u, and zeta = -1 is exact: an exact integer
    assert phase_sum("e", 1, [(0, 0), (0, 5)]) == 2
    assert phase_sum("pi", 2, [(0, 1), (0, 3), (0, 0)]) == -1
    # zeta^3 = -1 for k = 6 comes from rounded tables, but within less than
    # half an ulp of -1
    assert phase_sum("pi", 6, [(0, 3)]) == -1
    assert phase_sum("e", 5, []) == 0
    for k in (0, -3):
        with pytest.raises(DomainError):
            phase_sum("e", k, [(1, 1)])
    _assert_phase_sum_within_bound("e", 4, [(0, 1), (0, 3)], Precision(120))  # cos = 0


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

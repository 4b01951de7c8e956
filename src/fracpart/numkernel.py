"""Arbitrary-precision numeric kernel.

Precision policy, exact<->float conversions, the real-order modified Bessel
function I_nu, sums of cosines at rational multiples of 2 pi and at the
phases of real-alpha Kloosterman sums, and the one-pass parser (one regex
scan, one recursive descent) for alpha expressions such as "51/7",
"sqrt(3)", "1/e", "0.01".

A BesselFamily reads every I_nu(z/k), k >= 1, of one order; bessel_i is its
k = 1 member. A member sums the Hankel expansion on Python ints, with a
proved remainder, wherever that expansion stops within the ascending
series' growing terms. Every other member is one Horner pass on Python ints
over one table of the series' terms (exact term ratios, a scale relative to
the largest term), ended by one stop rule that bounds the tail, so both
routes have proved error bounds. cos_sum reads each cosine
from one baby-step/giant-step table of roots of unity on Python ints and
phase_sum from two such tables, one of them of powers of an irrational root;
both sum exactly, also with proved bounds. Everything else is done with
mpmath at an explicit working precision; every public operation takes a
Precision and restores the global mpmath state on exit (mp.workdps context),
so callers never see precision leakage.
"""

from __future__ import annotations

import re
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, log2

import mpmath as mp
from mpmath.libmp import from_int, from_rational, mpf_cos_sin_pi, mpf_div, round_nearest, to_fixed


class DomainError(ValueError):
    """Argument outside an operation's mathematical domain."""


class ParseError(ValueError):
    """Malformed alpha expression; offset is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (byte %d)" % (message, offset))
        self.offset = offset


GUARD_DIGITS = 10


@dataclass(frozen=True)
class Precision:
    """Working precision: decimal_digits visible, GUARD_DIGITS carried extra."""

    decimal_digits: int = 60

    def __post_init__(self):
        if self.decimal_digits < 30:
            raise DomainError("decimal_digits must be >= 30")

    @property
    def work_dps(self) -> int:
        return self.decimal_digits + GUARD_DIGITS

    def ctx(self, extra: int = 0):
        """mpmath context manager running at work_dps + extra digits."""
        return mp.workdps(self.work_dps + extra)


DEFAULT_PRECISION = Precision()


# ---------------------------------------------------------------------------
# exact <-> float conversions
# ---------------------------------------------------------------------------

def to_mpf(x) -> mp.mpf:
    """Convert int/Fraction/mpf/float at the current mpmath precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def mpf_to_fraction(x: mp.mpf) -> Fraction:
    """Exact rational value of a finite mpf (mantissa * 2^exponent).

    An mpf is read as it is, whatever the ambient precision; an int or a
    Fraction is returned as a Fraction unchanged; anything else goes through
    mp.mpf first.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    sign, man, exp, _ = (x if isinstance(x, mp.mpf) else mp.mpf(x))._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise DomainError("cannot convert non-finite value to a fraction")
    f = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -f if sign else f


# ---------------------------------------------------------------------------
# alpha expressions
# ---------------------------------------------------------------------------
# grammar:  expr := term (('*' | '/') term)*
#           term := integer | decimal | 'e' | 'pi' | 'sqrt' '(' expr ')'
# whitespace ignored; offsets reported against the utf-8 byte stream.
# nodes:    ("rat", Fraction) | ("const", "e"|"pi") | ("sqrt", node)
#           | ("chain", first, (("*"|"/", node), ...))
# With no unary minus, a value is zero exactly when a multiplied-in literal
# (possibly under sqrt) is, so the zero checks are exact. Faults rank: scan,
# syntax (parse order), trailing input, first division by zero (post-order),
# zero alpha. A token: numeral, name, operator, or (group 2) a stray byte.
_TOKEN = re.compile(rb"\s*(?:(\d+(?:\.\d*)?|[A-Za-z]+|[*/()])|(\S))")
# The descent recurses twice per sqrt level; deeper input is a ParseError at
# the offending sqrt instead of a RecursionError (which starts near 490 levels).
MAX_SQRT_NESTING = 300


@dataclass(frozen=True)
class AlphaValue:
    """A parsed alpha > 0: exact rational, or an expression tree over e/pi/sqrt.

    rational is None exactly for an expression tree. value_at evaluates to
    working precision; for a rational it is just the fraction rounded once.
    """

    text: str
    rational: Fraction | None
    _ast: tuple | None = None

    def value_at(self, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
        with prec.ctx():
            return self._value()

    def _value(self) -> mp.mpf:
        """alpha at the current mpmath precision."""
        if self.rational is not None:
            return to_mpf(self.rational)
        return _eval_ast(self._ast)

    def __str__(self):
        return self.text


def as_alpha(value) -> AlphaValue:
    """Coerce int/Fraction/str/AlphaValue to AlphaValue."""
    if isinstance(value, AlphaValue):
        return value
    if isinstance(value, str):
        return parse_alpha(value)
    if not isinstance(value, (int, Fraction)):
        raise DomainError("alpha must be AlphaValue, str, int or Fraction")
    frac = Fraction(value)
    if frac <= 0:
        raise DomainError("alpha must be positive")
    return AlphaValue(text=str(frac), rational=frac)


def _eval_ast(node) -> mp.mpf:
    tag = node[0]
    if tag == "rat":
        return to_mpf(node[1])
    if tag == "const":
        return mp.e if node[1] == "e" else mp.pi
    if tag == "sqrt":
        return mp.sqrt(_eval_ast(node[1]))
    acc = _eval_ast(node[1])
    for op, term in node[2]:
        v = _eval_ast(term)
        acc = acc * v if op == "*" else acc / v
    return acc


def parse_alpha(text: str) -> AlphaValue:
    """Parse an alpha expression; rational is set when no e/pi/sqrt occurs.

    Decimal literals are exact ("0.01" is 1/100). Raises ParseError (with byte
    offset) for syntax faults and division by zero, DomainError for zero.
    """
    if not isinstance(text, str):
        raise DomainError("alpha expression must be a string")
    raw = text.encode("utf-8")
    tokens = []  # (token, byte offset): the whole input is scanned first
    for m in _TOKEN.finditer(raw):
        tok, off = m.group(1), m.start(1)
        if tok is None:
            raise ParseError("unexpected character %r" % m[2].decode("utf-8", "replace"), m.start(2))
        if tok.endswith(b"."):
            raise ParseError("decimal literal needs digits after '.'", m.end())
        if tok.isalpha() and tok not in (b"e", b"pi", b"sqrt"):
            raise ParseError("unknown name %r" % tok.decode(), off)
        tokens.append((tok.decode(), off))
    tokens = [("", len(raw))] + tokens[::-1]  # the parse pops from the end
    zero_divisors = []  # offsets of each '/' before a zero term, in post-order

    # expr and term give (node, exact rational or None, is zero); depth counts
    # the sqrt levels open around them
    def expr(depth):
        node, rat, zero = term(depth)
        ops = []
        while tokens[-1][0] in ("*", "/"):
            op, off = tokens.pop()
            t_node, t_rat, t_zero = term(depth)
            ops.append((op, t_node))
            if op == "*":
                zero = zero or t_zero
            elif t_zero:
                zero_divisors.append(off)
            exact = rat is not None and t_rat is not None and not (op == "/" and t_zero)
            rat = (rat * t_rat if op == "*" else rat / t_rat) if exact else None
        return (("chain", node, tuple(ops)) if ops else node), rat, zero

    def term(depth):
        tok, off = tokens.pop()
        if tok[:1].isdigit():
            rat = Fraction(tok)  # a decimal string converts exactly
            return ("rat", rat), rat, rat == 0
        if tok in ("e", "pi"):
            return ("const", tok), None, False
        if tok != "sqrt":
            raise ParseError("expected a number, e, pi or sqrt(...)", off)
        if depth == MAX_SQRT_NESTING:
            raise ParseError("sqrt(...) nested too deeply", off)
        tok, off = tokens.pop()
        if tok != "(":
            raise ParseError("expected '(' after sqrt", off)
        node, _, zero = expr(depth + 1)
        tok, off = tokens.pop()
        if tok != ")":
            raise ParseError("expected ')'", off)
        return ("sqrt", node), None, zero

    node, rat, zero = expr(0)
    if tokens[-1][0]:
        raise ParseError("unexpected trailing input", tokens[-1][1])
    if zero_divisors:
        raise ParseError("division by zero", zero_divisors[0])
    if zero:
        raise DomainError("alpha must be positive, got zero from %r" % text)
    return AlphaValue(text=text, rational=rat, _ast=None if rat is not None else node)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gamma_plus_one(nu: tuple, wp: int) -> mp.mpf:
    """Gamma(nu + 1) at wp bits for the mpf bits nu: every family of a series
    cache, and every direct bessel_i call of its order, takes the same one."""
    with mp.workprec(wp):
        return mp.gamma(mp.mpf(nu) + 1)


def _least_prime_factor(k: int) -> int:
    p = 2
    while p * p <= k:
        if k % p == 0:
            return p
        p += 1 + (p > 2)
    return k


class BesselFamily:
    """The modified Bessel functions I_nu(z/k), k = 1, 2, ..., of one finite
    order nu > 0 and base argument z >= 0, at one working precision.

    A member takes one of two routes, chosen from (nu, z/k, precision) alone,
    so its bits depend neither on the other members read nor on the order of
    reads: the Hankel expansion where its proved stop comes within p terms,
    and the ascending series otherwise. p is the number of growing terms of
    the member's series, which runs at least to its largest term, and a term
    of either sum costs about one multiply and one floor division on Python
    ints, so the expansion is taken only where it is the shorter sum.

    Hankel branch. With x = z/k (DLMF 10.34.2 at m = 1, and 10.40.10 at
    ph = pi; a_j(nu) = (4nu^2 - 1^2)(4nu^2 - 3^2)...(4nu^2 - (2j-1)^2) /
    (j! 8^j)),
        I_nu(x) = e^x / sqrt(2 pi x) (sum_(j<l) (-1)^j a_j(nu) x^-j + Re R_l)
                  - sin(nu pi) K_nu(x) / pi,
    |R_l| <= 2 chi(l) |a_l(nu)| x^-l exp(pi |nu^2 - 1/4| / (2x)) for l >= 1
    (10.40.11 with the bounds 10.40.12 at ph = pi), and chi(l) =
    sqrt(pi) Gamma(l/2 + 1) / Gamma(l/2 + 1/2) < sqrt(pi (l/2 + 1)) by
    Gautschi's inequality. The companion: 10.40.11 at ph = 0 and l = 1 gives
    K_nu(x) <= sqrt(pi / (2x)) e^-x (1 + 2 |a_1| x^-1 exp(|nu^2 - 1/4| / x)).
    The terms t_j = (-1)^j a_j x^-j have the exact ratios
    r_j = ((2j-1)^2 - 4nu^2) / (8jx), rationals since nu and z are dyadic.
    _hankel sums them at the scale 2^W: T_0 = 2^W, T_j = floor(T_(j-1) r_j),
    each checked for |r_j| <= 1 (otherwise: the series), so every |T_j| <= 2^W
    and T_j is within j units of 2^W t_j: a floor loses less than a unit and
    |r_j| <= 1 carries the loss before it over at most whole. |r_1| <= 1 also
    bounds, in units of 2^W,
    - the remainder factor: exp(pi |r_1|) <= 2^c,
      c = ceil((355/113) (14427/10^4) |r_1|) <= 5, and
      2 chi(l) < sqrt(2 pi (l + 2)) < X_l / 2^16 for
      X_l = isqrt(floor(710 (l+2) 2^32 / 113) + 1) + 1, so below
      R = floor(X_l (|T_l| + l) 2^(c-16)) + 1;
    - the companion, relative to e^x / sqrt(2 pi x): e^-2x (1 +
      2 |r_1| e^(2 |r_1|)) < 17 e^-2x < 2^(5-m), m = floor(2.8852 x),
      so below C = 2^max(W - m + 5, 0).
    The expansion stops at the first l <= p with 2 (R + C) 10^work_dps < S
    and S >= 2^(W-2), S = T_0 + ... + T_(l-1), decided on integers, and
    returns S_lo = S - R - C - l(l-1)/2, the last term bounding what the
    floors took from S. The exact factor 2^W sqrt(2 pi x) e^-x I_nu(x) lies
    between S_lo and S_lo + 2 (R + C + l(l-1)/2) < S_lo + 10^-work_dps S + l^2,
    so the computed factor is never high and low by less than
    10^-work_dps + 2^-wp of it: l^2 units are below 2^-(wp+1) of
    S >= 2^(W-2) while l < 2^30. The screen reads integers only (no exp of
    nu^2/x is formed), so it never overflows: an order with 4nu^2 - 1 > 8x,
    or a member whose companion alone fails the stop test where S can reach
    p 2^W, goes to the series at once. The first factor e^x / sqrt(2 pi x)
    is an mpf computation at wp bits, x = z/k read at wp plus the bits of
    its integer part plus 10, whose error is not proved, as for t0.

    Series branch. I_nu(z/k) = t0 k^-nu F(z/k) with the first term
    t0 = (z/2)^nu / Gamma(nu+1), computed once when a series member first
    needs it, and F(z/k) = sum_j c_j k^(-2j), c_j = (z/2)^(2j) / (j! (nu+1)_j).
    members() keeps a memo of k^-nu: one mpf power per prime, and per
    composite the product of two memo entries, k = p (k/p) for the least
    prime p dividing k. The memo and the coefficient table are freed with
    the function members() returns.

    The table. c_j = r_1 ... r_j with r_j = (z/2)^2 / (j (nu+j)), which
    falls with j. nu and z are read at wp = mp.prec bits of work_dps + 5
    digits, so both are dyadic and r_j = a / d_j is an exact rational: a step
    of the table's loop is one multiply and one floor division. On Python
    ints at W = wp + 64 bits, T_0 = 2^W at the scale 2^e_0 = 2^-W and
    T_j = floor(T_(j-1) r_j); when T_j passes W + 8 bits it is shifted right
    back to W + 1 bits and the scale 2^e_j moves up with it, a scale relative
    to the largest term. A member is one Horner pass over the table on Python
    ints, from its stop K down: H_K = T_K, H_j = T_j + floor(H_(j+1) / k^2),
    F = H_0. H is held at a floating scale 2^E: T_j is brought to it
    (floored where it is coarser than 2^e_j), and after each step H is
    shifted back to L to L + 7 bits, L = W + bits(k^2) + 1 (exactly to the
    left, floored to the right).

    Let p be the number of j >= 1 with d_j k^2 <= a, so the member's term p
    is its largest. K is the first j >= p with
    (T_j + j) a 10^work_dps 2^(e_j - e_p) < (d_(j+1) k^2 - a) T_p k^(2(j-p)),
    decided on integers.
    - For k >= 2, past p this test, once true, stays true. From j to j + 1
      its right side grows by k^2 (d_(j+2) k^2 - a) / (d_(j+1) k^2 - a) >
      k^2 (j+2)/(j+1). Its left side grows by at most max(r_(j+1), 2)
      (r_1 + 2^-W at j = 0), or r_(j+1) (1 + (j+1) 2^-W) where the scale
      shifts, and r_(j+1) < k^2. For k = 1 the growth of the left side can
      exceed that of the right, so member 1's test is never searched.
    - A higher member's test holds wherever a lower one's does, member 1's
      included. Its right side is larger by k^2 per power, and
      T_p 2^e_p k^(-2p) only grows from the lower member's p down to its
      own, since floors never raise a term and r_j < k^2 there.
    So a member stops no later than any lower one. The table grows only when
    a series member needs an entry past its end: its loop resumes where it
    stopped, the same for every reader. Member 1 goes forward from p, over
    the table and then through the loop, to the first index where its test
    passes. A series member k >= 2 searches down from the stop of the nearest
    lower series member read, by doubling steps and then bisection; with
    none read, from the table's last entry if its test passes there, and
    otherwise it extends the table to its own stop. So the table ends at the
    stop of the lowest series member read.

    Proved error of F, for every k >= 1. Every floor and shift of the table
    loses less than one unit of the current scale. Up to the peak term
    T_j >= 2^W, so a loss there costs at most 2^-W of the term; past it
    nothing shifts and the ratios are below 1, so each step adds less than a
    unit to the shortfall. Hence every table term is low, and T_j falls
    short of its exact term by less than j units plus 2j 2^-W of it. A unit
    of 2^e_j at index j is at most 2^-W k^(2j) F: up to the last j with
    T_j >= 2^W it is 2^-W of a term, and past it the scale stops moving
    while the terms fall. Each step of the pass floors at most three times,
    each by less than a unit of 2^E. H // k^2 keeps at least 2^W units, and
    the computed H_j is at most the exact sum_(i>=j) c_i k^(-2(i-j)), so
    that unit too is at most 2^-W k^(2j) F. So the table costs less than
    (K(K+1)/2 + 2K) 2^-W of F and the pass less than 3K 2^-W. The tail past
    K is at most its term K, below (T_K + K) 2^e_K k^-2K (1 + 4K 2^-W),
    times rho/(1 - rho) for rho = a / (d_(K+1) k^2), since the ratios fall.
    The stop test puts that below 10^-work_dps (1 + 4K 2^-W) of the
    member's term p, which is below F. So the computed factor is never
    high, and it is low by less than 10^-work_dps + 2 (K+1)^2 2^-W of F,
    and 2 (K+1)^2 2^-W < 2^-wp while K < 2^31. The factor is rounded once
    to wp bits and multiplied by t0 k^-nu, mpf computations (power, gamma
    and quotient at wp bits; the gamma is kept per nu and wp; the memo's
    powers and products) whose error is not proved. With them exact the
    relative error would be below 10^-work_dps + 4 2^-wp (K < 2^31).
    """

    def __init__(self, nu, z, prec: Precision = DEFAULT_PRECISION):
        self.prec = prec
        self._a = None  # stays None for z = 0, whose every member is 0
        with prec.ctx(5):
            nuv = to_mpf(nu)
            zv = to_mpf(z)
            if not (mp.isfinite(nuv) and mp.isfinite(zv)):
                raise DomainError("bessel_i requires finite nu and z")
            if nuv <= 0:
                raise DomainError("bessel_i requires nu > 0")
            if zv < 0:
                raise DomainError("bessel_i requires z >= 0")
            if zv == 0:
                return
            self.nu, self._z, self._first = nuv, zv, None
            # z/2 = hm 2^he and nu = nm 2^ne. With f = max(-ne, 0), nu 2^f is an
            # integer and r_k = hm^2 2^s / (k (nu + k) 2^f), s = 2 he + f. 2^|s| goes
            # to the numerator a if s >= 0, else to the denominator: r_k = a / d_k,
            # d_k = k (n + (k << f_d)) = k (nu + k) 2^f_d
            _, hm, he, _ = (zv / 2)._mpf_
            _, nm, ne, _ = nuv._mpf_
            f = max(-ne, 0)
            s = 2 * he + f
            self._a = hm * hm << max(s, 0)
            self._f_d = f + max(-s, 0)
            self._n = nm << (ne + self._f_d)
            self._w = mp.mp.prec + 64
            # Hankel: with nu 2^f = N and x = hm 2^(he+1) / k, the ratio
            # ((2j-1)^2 - 4 nu^2) / (8jx) is ((2j-1)^2 hb - hn) (k << hk) / (j hd),
            # and 2.8852 x is _m[0] / (k _m[1])
            h = he + 4 + 2 * f
            self._hn = 4 * (nm << (ne + f)) ** 2
            self._hb = 1 << 2 * f
            self._hk = max(-h, 0)
            self._hd = hm << max(h, 0)
            self._m = (28852 * hm << max(he + 1, 0), 10000 << max(-he - 1, 0))
        self._p10 = 10 ** prec.work_dps
        self._gate = self._a.bit_length() + self._p10.bit_length() - 2

    def _inv_power(self, k: int, memo: dict) -> mp.mpf:
        """k^-nu at wp bits, kept in memo with the entries it was built from."""
        if k not in memo:
            p = _least_prime_factor(k)
            memo[k] = mp.mpf(k) ** -self.nu if p == k else self._inv_power(p, memo) * self._inv_power(k // p, memo)
        return memo[k]

    def _t0(self) -> mp.mpf:
        """t0 = (z/2)^nu / Gamma(nu+1), at wp bits, formed once."""
        if self._first is None:
            self._first = (self._z / 2) ** self.nu / _gamma_plus_one(self.nu._mpf_, mp.mp.prec)
        return self._first

    def _peak(self, k2: int) -> int:
        """The number of j >= 1 with d_j k^2 <= a, for k2 = k^2."""
        a, n, u = self._a, self._n, 1 << self._f_d  # d_j = j (n + j u)
        j = max((isqrt(n * n + 4 * u * (a // k2)) - n) // (2 * u), 0)
        while (j + 1) * (n + (j + 1) * u) * k2 <= a:
            j += 1
        while j and j * (n + j * u) * k2 > a:
            j -= 1
        return j

    def _stops(self, k2: int, j: int, p: int, ts: list, exps: list) -> bool:
        """The stop test of member k (k2 = k^2) at index j >= p, decided on
        integers. k2^(j-p) has at most (j-p) log2(k2) + 1 bits, so a bound on
        the bit lengths of the two sides, widened by 2 bits for the float
        product, rules the test out at most indices before any power."""
        a, t, peak, shift = self._a, ts[j], ts[p], exps[j] - exps[p]
        d = (j + 1) * (self._n + ((j + 1) << self._f_d)) * k2
        if (t.bit_length() + self._gate + shift
                > d.bit_length() + peak.bit_length() + int((j - p) * log2(k2)) + 3):
            return False
        return ((t + j) * a * self._p10 << shift) < (d - a) * peak * k2 ** (j - p)

    def _hankel(self, k: int, p: int):
        """I_nu(z/k) by the Hankel branch, or None where that branch does not
        stop within p terms (the class docstring has the rule and its proof)."""
        w, p10 = self._w, self._p10
        m_num, m_den = self._m  # m = floor(2.8852 x) = m_num // (k m_den)
        comp = max(w - m_num // (k * m_den) + 5, 0)
        if p10 << comp + 1 >= p << w:  # S <= p 2^W: the companion alone fails
            return None
        comp = 1 << comp
        hb, hn, hd, kk = self._hb, self._hn, self._hd, k << self._hk
        t = total = 1 << w
        for j in range(1, p + 1):
            num, den = ((2 * j - 1) ** 2 * hb - hn) * kk, j * hd
            if abs(num) > den:
                return None
            if j == 1:
                c = -(-5121585 * abs(num) // (1130000 * den))  # exp(pi |r_1|) <= 2^c
            t = t * num // den
            bound = ((isqrt((710 * (j + 2) << 32) // 113 + 1) + 1) * (abs(t) + j) << c >> 16) + 1 + comp
            if 2 * bound * p10 < total and total >= 1 << (w - 2):
                total -= bound + j * (j - 1) // 2
                break
            total += t
        else:
            return None
        with self.prec.ctx(5):
            wp = mp.mp.prec
            _, _, exp, bc = self._z._mpf_
            with mp.workprec(wp + max(exp + bc, 0) + 10):
                x = self._z / k
            return mp.exp(x) / mp.sqrt(2 * mp.pi * x) * mp.mpf((total, -w))

    def members(self):
        """The function k -> I_nu(z/k), k >= 1, at wp = mp.prec bits of
        work_dps + 5 digits. The series' loop runs only when a series member
        needs an entry past the table's end."""
        prec = self.prec
        if self._a is None:
            return lambda k: mp.mpf(0)
        a, n, f_d, w = self._a, self._n, self._f_d, self._w
        ts, exps = [], []  # T_j and e_j of the indices the loop has passed
        t, exp = 1 << w, -w  # the loop's next term T_j at the scale 2^exp

        def advance(k2, p):
            """Resume the loop up to the first new table index j >= p at which
            the test of member k (k2 = k^2) passes, which it returns."""
            nonlocal t, exp
            while True:
                j = len(ts)
                ts.append(t)
                exps.append(exp)
                t = t * a // ((j + 1) * (n + ((j + 1) << f_d)))
                if t.bit_length() > w + 8:
                    drop = t.bit_length() - w - 1
                    t >>= drop
                    exp += drop
                if j >= p and self._stops(k2, j, p, ts, exps):
                    return j

        # series member -> its stop K, the first j >= p where its test passes.
        # Member 1's test need not stay true once it holds, so its stop is
        # found going forward. A member k >= 2's test does, and passes wherever
        # a lower member's does, so K lies between p and the stop of the
        # nearest lower member read so far: search down from there, by
        # doubling steps, then bisect. With no lower member read, search down
        # from the table's last entry if the test passes there, else grow the
        # table to K
        stops, read = {}, []
        inv_powers = {1: mp.mpf(1)}

        def member(k: int) -> mp.mpf:
            k2 = k * k
            p = self._peak(k2)
            value = self._hankel(k, p)
            if value is not None:
                return value
            below = p - 1  # the test fails at below (none at p - 1)
            lower = bisect_right(read, k)
            if k == 1:
                stop = next((j for j in range(p, len(ts)) if self._stops(1, j, p, ts, exps)), None)
                if stop is None:
                    stop = advance(1, p)
                below = stop - 1
            elif lower:
                stop = stops[read[lower - 1]]
            else:
                stop = len(ts) - 1
                if stop < p or not self._stops(k2, stop, p, ts, exps):
                    stop = advance(k2, p)
                    below = stop - 1
            gap = 1
            while stop - gap > below:
                if not self._stops(k2, stop - gap, p, ts, exps):
                    below = stop - gap
                    break
                stop -= gap
                gap *= 2
            while stop - below > 1:
                mid = (stop + below) // 2
                if self._stops(k2, mid, p, ts, exps):
                    stop = mid
                else:
                    below = mid
            if k not in stops:
                stops[k] = stop
                insort(read, k)
            # H at the scale 2^e, renormalized to lo..lo + 7 bits after each
            # step, so that H // k^2 keeps at least 2^W units
            lo = w + k2.bit_length() + 1
            acc, e = 0, exps[stop]
            for j in range(stop, -1, -1):
                shift = e - exps[j]
                acc = (ts[j] >> shift if shift >= 0 else ts[j] << -shift) + acc // k2
                size = acc.bit_length()
                if size > lo + 7 or size < lo:
                    acc = acc >> (size - lo) if size > lo else acc << (lo - size)
                    e += size - lo
            with prec.ctx(5):
                return self._t0() * self._inv_power(k, inv_powers) * mp.mpf((acc, e))

        return member


def bessel_i(nu, z, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Modified Bessel I_nu(z), finite nu > 0 and z >= 0: the k = 1 member of
    BesselFamily(nu, z, prec), which has both routes, the rule between them
    and their proofs. On either route the computed factor (e^-z sqrt(2 pi z)
    I_nu(z) by the Hankel expansion, I_nu(z) / t0 by the series, with first
    term t0 = (z/2)^nu / Gamma(nu+1)) is never high and is low by less than
    10^-work_dps + 2^-wp; it is rounded once to wp bits and multiplied by a
    first factor whose error is not proved.
    """
    return BesselFamily(nu, z, prec).members()(1)


def _powers(base, count: int, w: int) -> list:
    """[2^w, b, b^2, ..., b^count] for the complex fixed-point base b = (br, bi)
    of scale 2^w: each power is the last one times b, every part floored to w
    bits."""
    table = [(1 << w, 0)]
    br, bi = base
    for _ in range(count):
        xr, xi = table[-1]
        table.append(((xr * br - xi * bi) >> w, (xr * bi + xi * br) >> w))
    return table


def _root_tables(x: tuple, step: int, top: int, w: int) -> tuple:
    """(baby, giant) for beta = exp(i pi x), x an mpf value tuple: baby[j] ~
    2^w beta^j for j <= step and giant[i] ~ 2^w beta^(step i) for
    i <= top // step, from one mpf_cos_sin_pi of x at w + 10 bits floored to w
    bits. beta^(step i + j) is read as giant[i] baby[j] / 2^2w."""
    c, s = mpf_cos_sin_pi(x, w + 10, round_nearest)
    baby = _powers((to_fixed(c, w), to_fixed(s, w)), step, w)
    return baby, _powers(baby[step], top // step, w)


def cos_sum(residues, period: int, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Sum of cos(2 pi r / P) over the integers r in residues, for a period P
    that is a positive multiple of 4, rounded once to wp = mp.prec bits of
    work_dps. Every r is exact, so only omega = exp(2 pi i / P) is rounded.

    Each r is folded into [0, Q], Q = P/4, keeping a sign:
    cos(2 pi r/P) = cos(2 pi (P - r)/P) = -cos(2 pi (P/2 - r)/P). One
    mpf_cos_sin_pi of 2/P at W + 10 bits, floored to W = wp + g bits, gives
    omega in fixed point. The baby steps X_j ~ 2^W omega^j, j <= B =
    isqrt(Q) + 1, and the giant steps Y_i ~ 2^W omega^(Bi), i <= Q/B, are
    complex products on Python ints, each part floored to W bits: X_j+1 from
    X_j and X_1, Y_i+1 from Y_i and Y_1 = X_B. A folded r = Bi + j reads its
    cosine as Re(Y_i X_j) / 2^2W; these are summed exactly on ints and the
    sum is rounded once.

    Proved error, in units of 2^-W (while Q < 2^(W - 24), far past any table
    that fits in memory). X_1 is within 3/2 of 2^W omega: each part within
    1 + 2^-8 (2/P rounded at W + 10 bits moves pi 2/P by under 2^-(W + 9),
    cos and sin are taken to be within one unit in the last place there,
    then floored). A product step loses under sqrt 2 to its floors, so X_j
    is within E_j <= (3/2 + sqrt 2) j (1 + (3/2) 2^-W)^j <= 3j of
    2^W omega^j, and Y_i, whose every step adds Y_1's error 3B, within
    F_i <= (3B + sqrt 2) i (1 + 3B 2^-W)^i <= 3.8 Bi (as B >= 2) of
    2^W omega^(Bi). A product is then within
    F_i (1 + E_j 2^-W) + E_j <= 4(Bi + j) = 4r <= 4Q = P units of its exact
    cosine, so the N terms are within N P units. g, the bit length of N P
    plus one, puts that below 2^-(wp + 1). The result is within half an ulp
    plus 2^-(wp + 1) of the exact sum, in whatever order residues come.
    """
    if period < 4 or period % 4:
        raise DomainError("cos_sum requires a period that is a positive multiple of 4")
    half, quarter = period // 2, period // 4
    plus, minus = [], []  # folded r whose cosine is added, subtracted
    for r in residues:
        r %= period
        if r > half:
            r = period - r
        if r <= quarter:
            plus.append(r)
        else:
            minus.append(half - r)
    with prec.ctx():
        wp = mp.mp.prec
        w = wp + ((len(plus) + len(minus)) * period).bit_length() + 1
        step = isqrt(quarter) + 1
        baby, giant = _root_tables(from_rational(2, period, w + 10, round_nearest), step,
                                   max(plus + minus, default=0), w)

        def re_sum(folded):
            acc = 0
            for r in folded:
                (yr, yi), (xr, xi) = giant[r // step], baby[r % step]
                acc += yr * xr - yi * xi
            return acc

        total = re_sum(plus) - re_sum(minus)
        return mp.mpf((total, -2 * w))


@lru_cache(maxsize=16)
def _alpha_at(alpha: AlphaValue, bits: int) -> tuple:
    """alpha's mpf value tuple with every operation of its expression rounded
    to bits bits; phase_sum asks for few distinct bits per working precision."""
    with mp.workprec(bits):
        return alpha._value()._mpf_


def phase_sum(alpha, k: int, pairs, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Sum of cos(pi alpha S / (6k) + 2 pi r / k) over the integer pairs
    (S, r) for a real alpha > 0 and k >= 1, rounded once to wp = mp.prec bits
    of work_dps. The cosine is Re(u^S zeta^r) for u = exp(i pi alpha / (6k))
    and zeta = exp(2 pi i / k); only u and zeta are rounded.

    r is reduced mod k. Let s = max |S| and t = max r over the N pairs. u and
    zeta each come from one mpf_cos_sin_pi, of x = alpha / (6k) and of 2/k,
    at W + 10 bits, W = wp + g; alpha is read at A >= W + 13 + bits(T) bits,
    T the byte length of its text. Baby-step/giant-step tables of u^e,
    e <= s, and zeta^e, e <= t, on Python ints are built as in cos_sum (steps
    isqrt(s) + 1 and isqrt(t) + 1). A pair reads U = Y_i X_j ~ 2^2W u^|S|,
    |S| = Bi + j, takes its conjugate when S < 0, reads Z ~ 2^2W zeta^r the
    same way and adds Re(U Z) / 2^4W. The sum is exact on ints and rounded
    once. Entry 0 of either table reads exactly 2^2W, so where s = 0 or
    t = 0 that table contributes exactly 1.

    Proved error, in units of 2^-W (while s k < 2^(W - 24), far past any table
    that fits in memory). Every mpmath operation is taken to be within one
    unit in the last place.
    - Alpha. Each byte of alpha's text carries at most two of the roundings
      of its expression (a literal: numerator and quotient; e, pi, sqrt and
      an operator: one). They compose as factors (1 + d)^e, |e| <= 1 (a
      quotient or a sqrt) and |d| <= 2^(1 - A), so alpha is read within
      relative 8T 2^-A <= 2^-(W + 10) and x within relative 2^-(W + 8).
      With x' the rounded x and u' = exp(i pi x'),
      |u^S - u'^S| <= |S| pi x 2^-(W + 8) < alpha s / (256 k) units.
    - Tables. The base of u' is within 3/2 of 2^W u' (each part within
      1 + 2^-9: one unit in the last place at W + 10 bits, then floored);
      that of zeta within 3/2 of 2^W zeta (2/k rounded at W + 10 bits moves
      2 pi / k by under 2^-(W + 7.9), and not at all for k <= 2, so each
      part is within 1 + 2^-7). With cos_sum's table bounds U is within
      4|S| and Z within 4r units (at scale 2^2W, a unit being 2^W) of
      2^2W u'^|S| and 2^2W zeta^r, so U Z is within
      4|S| (1 + 4r 2^-W) + 4r <= 4(|S| + r) + 1 units (at scale 2^4W) of
      2^4W u'^S zeta^r.
    - Sum. Each term is within M = 4(s + t) + 1 + alpha s / (256 k) units of
      its exact cosine and the N terms within N M. g is the bit length of
      N M' plus one for an integer M' >= M (alpha bounded above by a power
      of two from a 64-bit read of it), so N M 2^-W < 2^-(wp + 1).
    The result is within half an ulp plus 2^-(wp + 1) of the exact sum, in
    whatever order pairs come.
    """
    alpha = as_alpha(alpha)
    if k < 1:
        raise DomainError("phase_sum requires k >= 1")
    pairs = [(big_s, r % k) for big_s, r in pairs]
    with prec.ctx():
        if not pairs:
            return mp.mpf(0)
        s_top = max(abs(big_s) for big_s, _ in pairs)
        t_top = max(r for _, r in pairs)
        _, _, exp, bc = _alpha_at(alpha, 64)  # alpha < 2^(exp + bc + 1)
        bound = 4 * (s_top + t_top) + 2 + (s_top << max(exp + bc + 1, 0)) // (256 * k)
        w = mp.mp.prec + (len(pairs) * bound).bit_length() + 1
        u_step, z_step = isqrt(s_top) + 1, isqrt(t_top) + 1
        bits = -(-(w + 13 + len(alpha.text.encode()).bit_length()) // 64) * 64
        x = mpf_div(_alpha_at(alpha, bits), from_int(6 * k), w + 10, round_nearest)
        u_baby, u_giant = _root_tables(x, u_step, s_top, w)
        z_baby, z_giant = _root_tables(from_rational(2, k, w + 10, round_nearest), z_step, t_top, w)
        total = 0
        for big_s, r in pairs:
            (yr, yi), (xr, xi) = u_giant[abs(big_s) // u_step], u_baby[abs(big_s) % u_step]
            ur, ui = yr * xr - yi * xi, yr * xi + yi * xr
            (yr, yi), (xr, xi) = z_giant[r // z_step], z_baby[r % z_step]
            zr, zi = yr * xr - yi * xi, yr * xi + yi * xr
            total += ur * zr - ui * zi if big_s >= 0 else ur * zr + ui * zi
        return mp.mpf((total, -4 * w))

"""Arbitrary-precision numeric kernel.

Precision policy, exact<->float conversions, the real-order modified Bessel
function I_nu, sums of cosines at rational multiples of 2 pi and at the
phases of real-alpha Kloosterman sums, and the one-pass parser (one regex
scan, one recursive descent) for alpha expressions such as "51/7",
"sqrt(3)", "1/e", "0.01".

I_nu sums its ascending series on Python ints: exact term ratios, a scale
relative to the largest term, and a stop rule that bounds the tail, so the
series factor has a proved error bound (bessel_i). A BesselFamily reads every
I_nu(z/k) of one order from that series' terms, one Horner pass each, with
the same bound. cos_sum reads each cosine from one baby-step/giant-step
table of roots of unity on Python ints and phase_sum from two such tables,
one of them of powers of an irrational root; both sum exactly, also with
proved bounds. Everything else is done
with mpmath at an explicit working precision; every public operation takes a
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

    I_nu(z/k) = t0 k^-nu F(z/k) with t0 = (z/2)^nu / Gamma(nu+1), computed
    once, and F(z/k) = sum_j c_j k^(-2j), c_j = (z/2)^(2j) / (j! (nu+1)_j).
    The family keeps t0 and nothing else. members() builds the coefficient
    table and a memo of k^-nu: one mpf power per prime, and per composite
    the product of two memo entries, k = p (k/p) for the least prime p
    dividing k. Both are freed with the function members() returns.

    The table is bessel_i's series for I_nu(z): c_j = r_1 ... r_j,
    r_j = a / d_j, held as T_j 2^e_j. The k = 1 member is that loop's own sum
    and stop, so bessel_i is this member, bit for bit. A member k >= 2 is one
    Horner pass over the table on Python ints, from its own stop K down:
    H_K = T_K, H_j = T_j + floor(H_(j+1) / k^2), F = H_0. H is held at a
    floating scale 2^E: T_j is brought to it (floored where it is coarser
    than 2^e_j), and after each step H is shifted back to L to L + 7 bits,
    L = W + bits(k^2) + 1 (exactly to the left, floored to the right).

    Let p be the number of j >= 1 with d_j k^2 <= a, so the member's term p
    is its largest. K is the first j >= p with
    (T_j + j) a 10^work_dps 2^(e_j - e_p) < (d_(j+1) k^2 - a) T_p k^(2(j-p)),
    decided on integers.
    - Past p this test, once true, stays true. From j to j + 1 its right side
      grows by k^2 (d_(j+2) k^2 - a) / (d_(j+1) k^2 - a) > k^2 (j+2)/(j+1).
      Its left side grows by at most max(r_(j+1), 2) (r_1 + 2^-W at j = 0),
      or r_(j+1) (1 + (j+1) 2^-W) where the scale shifts, and r_(j+1) < k^2.
    - A higher member's test holds wherever a lower one's does. Its right
      side is larger by k^2 per power, and T_p 2^e_p k^(-2p) only grows from
      the lower member's p down to its own, since floors never raise a term
      and r_j < k^2 there.
    So a member stops no later than any lower one. The table stores the
    entries up to the stop of its lowest member l >= 2, found as the loop
    runs, which covers every member. Each other member searches down from
    the stop of the nearest lower member read, by doubling steps and then
    bisection.

    Proved error of F for k >= 2. Every table term is low, and T_j falls
    short of its exact term by less than j units plus 2j 2^-W of it
    (bessel_i). A unit of 2^e_j at index j is at most 2^-W k^(2j) F: up to
    the last j with T_j >= 2^W it is 2^-W of a term, and past it the scale
    stops moving while the terms fall. Each step of the pass floors at most
    three times, each by less than a unit of 2^E. H // k^2 keeps at least
    2^W units, and the computed H_j is at most the exact
    sum_(i>=j) c_i k^(-2(i-j)), so that unit too is at most 2^-W k^(2j) F.
    So the table costs less than (K(K+1)/2 + 2K) 2^-W of F and the pass
    less than 3K 2^-W. The tail past K is at most its term K, below
    (T_K + K) 2^e_K k^-2K (1 + 4K 2^-W), times rho/(1 - rho) for
    rho = a / (d_(K+1) k^2), since the ratios fall. The stop test puts that
    below 10^-work_dps (1 + 4K 2^-W) of the member's term p, which is below
    F. So the computed factor is never high, and it is low by less than
    10^-work_dps + 2 (K+1)^2 2^-W of F, as in bessel_i. The factor is
    rounded once to wp bits and multiplied by t0 k^-nu. The error of that
    first term is not proved, as in bessel_i; the memo's powers and products
    fall under the same caveat.
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
            self.nu = nuv
            half = zv / 2
            self.first = half ** nuv / _gamma_plus_one(nuv._mpf_, mp.mp.prec)
            # z/2 = hm 2^he and nu = nm 2^ne. With f = max(-ne, 0), nu 2^f is an
            # integer and r_k = hm^2 2^s / (k (nu + k) 2^f), s = 2 he + f. 2^|s| goes
            # to the numerator a if s >= 0, else to the denominator: r_k = a / d_k,
            # d_k = k (n + (k << f_d)) = k (nu + k) 2^f_d
            _, hm, he, _ = half._mpf_
            _, nm, ne, _ = nuv._mpf_
            f = max(-ne, 0)
            s = 2 * he + f
            self._a = hm * hm << max(s, 0)
            self._f_d = f + max(-s, 0)
            self._n = nm << (ne + self._f_d)
            self._w = mp.mp.prec + 64
        self._p10 = 10 ** prec.work_dps
        self._gate = self._a.bit_length() + self._p10.bit_length() - 2

    def _inv_power(self, k: int, memo: dict) -> mp.mpf:
        """k^-nu at wp bits, kept in memo with the entries it was built from."""
        if k not in memo:
            p = _least_prime_factor(k)
            memo[k] = mp.mpf(k) ** -self.nu if p == k else self._inv_power(p, memo) * self._inv_power(k // p, memo)
        return memo[k]

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

    def members(self, low: int = 1, high: int | None = None):
        """The function k -> I_nu(z/k) for low <= k <= high (no upper limit
        when high is None), at wp = mp.prec bits of work_dps + 5 digits.

        The k = 1 member (low = 1) is bessel_i's loop. A table is built only
        when a member k >= 2 may be read, up to the stop of the lowest one.
        """
        if low < 1 or (high is not None and high < low):
            raise DomainError("members requires 1 <= low <= high")
        prec = self.prec
        if self._a is None:
            return lambda k: mp.mpf(0)
        a, n, f_d, w = self._a, self._n, self._f_d, self._w
        p10, gate = self._p10, self._gate
        table_low = max(low, 2) if high is None or high >= 2 else None
        ts, exps = [], []  # T_j and e_j, j <= K of member table_low
        growing = table_low is not None
        if growing:
            low2 = table_low * table_low
            low_peak = self._peak(low2)
        # the k = 1 factor (S, exp) once its stop test passes; False when
        # member 1 is not read
        one = None if low == 1 else False
        t = total = 1 << w
        exp = -w
        k = 0
        while True:
            k += 1
            d = k * (n + (k << f_d))
            # bessel_i's stop test for T_{k-1}; the bit lengths of its two
            # sides, compared first, rule it out at almost every step
            if (one is None and a < d
                    and t.bit_length() + gate <= d.bit_length() + total.bit_length()
                    and (t + k - 1) * a * p10 < (d - a) * total):
                one = (total, exp)
                if not growing:
                    break
            if growing:
                ts.append(t)
                exps.append(exp)
                if k - 1 >= low_peak and self._stops(low2, k - 1, low_peak, ts, exps):
                    growing = False
                    if one is not None:
                        break
            t = t * a // d
            total += t
            if t.bit_length() > w + 8:
                drop = t.bit_length() - w - 1
                t >>= drop
                total >>= drop
                exp += drop

        # member -> its stop K. A member's test passes wherever a lower one's
        # does, so K lies between p and the stop of the nearest lower member
        # read so far: search down from there, by doubling steps, then bisect
        stops, read = {}, []
        inv_powers = {1: mp.mpf(1)}
        if table_low is not None:
            stops[table_low] = len(ts) - 1
            read.append(table_low)

        def member(k: int) -> mp.mpf:
            if k < low or (high is not None and k > high):
                raise DomainError("member k outside [%d, %s]" % (low, high))
            if k == 1:
                with prec.ctx(5):
                    return self.first * mp.mpf(one)
            k2 = k * k
            p = self._peak(k2)
            stop = stops[read[bisect_right(read, k) - 1]]
            below, step = p - 1, 1  # the test fails at below (none at p - 1)
            while stop - step >= p:
                if not self._stops(k2, stop - step, p, ts, exps):
                    below = stop - step
                    break
                stop -= step
                step *= 2
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
            acc, e = ts[stop], exps[stop]
            for j in range(stop, -1, -1):
                if j < stop:
                    shift = e - exps[j]
                    acc = (ts[j] >> shift if shift >= 0 else ts[j] << -shift) + acc // k2
                size = acc.bit_length()
                if size > lo + 7 or size < lo:
                    acc = acc >> (size - lo) if size > lo else acc << (lo - size)
                    e += size - lo
            with prec.ctx(5):
                return self.first * self._inv_power(k, inv_powers) * mp.mpf((acc, e))

        return member


def bessel_i(nu, z, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Modified Bessel I_nu(z), finite nu > 0 and z >= 0, by the defining series:
    the k = 1 member of BesselFamily(nu, z, prec), whose loop is described
    here.

    I_nu(z) = t0 F with first term t0 = (z/2)^nu / Gamma(nu+1) and series
    factor F = sum_{k>=0} t_k, t_0 = 1, t_k = t_{k-1} r_k, where
    r_k = (z/2)^2 / (k (nu+k)) falls with k. nu and z are read at the
    wp = mp.prec bits of work_dps + 5 digits, so both are dyadic and every r_k
    is an exact rational a/d_k: a step is one multiply and one floor division.

    F runs on Python ints at W = wp + 64 bits: T_0 = S = 2^W,
    T_k = floor(T_{k-1} r_k), S += T_k, and when T_k passes W + 8 bits, T and S
    are shifted right together back to W + 1 bits, a scale relative to the
    largest term. The loop stops at the first K with r_{K+1} < 1 and
    (T_K + K) r_{K+1} / (1 - r_{K+1}) < 10^-work_dps S, decided on integers.

    Proved error of F. Every floor and shift loses less than one unit of the
    current scale. Up to the peak term, T_k >= 2^W, so a loss there costs at
    most 2^-W of the sum; past it nothing shifts, and a unit lost at step j
    costs at most K - j + 1 units of S >= 2^W. Hence S falls short of the
    exact partial sum by less than (K+1)^2 2^-W of it, T_K short of its exact
    term by less than K units plus 2K 2^-W of it, and the tail, at most the
    exact T_K times r_{K+1}/(1 - r_{K+1}) since r falls, is below
    10^-work_dps (1 + 4K 2^-W) of the sum. So the computed factor is low by
    less than 10^-work_dps + 2 (K+1)^2 2^-W of F, never high, and
    2 (K+1)^2 2^-W < 2^-wp while K < 2^31.

    The factor is rounded once to wp bits and multiplied by t0, an mpf
    computation (power, gamma and quotient at wp bits; the gamma is kept per
    nu and wp) whose error is not proved. With t0 exact the relative error
    would be below 10^-work_dps + 4 2^-wp (K < 2^31).
    """
    return BesselFamily(nu, z, prec).members(1, 1)(1)


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
    once. A table that is not needed (s = 0 or t = 0) is 1, exactly.

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
        bound = 4 * (s_top + t_top) + 2
        if s_top:
            _, _, exp, bc = _alpha_at(alpha, 64)  # alpha < 2^(exp + bc + 1)
            bound += (s_top << max(exp + bc + 1, 0)) // (256 * k)
        w = mp.mp.prec + (len(pairs) * bound).bit_length() + 1
        unit = [(1 << w, 0)]
        u_step, z_step = isqrt(s_top) + 1, isqrt(t_top) + 1
        u_baby = u_giant = z_baby = z_giant = unit
        if s_top:
            bits = -(-(w + 13 + len(alpha.text.encode()).bit_length()) // 64) * 64
            x = mpf_div(_alpha_at(alpha, bits), from_int(6 * k), w + 10, round_nearest)
            u_baby, u_giant = _root_tables(x, u_step, s_top, w)
        if t_top:
            z_baby, z_giant = _root_tables(from_rational(2, k, w + 10, round_nearest), z_step, t_top, w)
        total = 0
        for big_s, r in pairs:
            (yr, yi), (xr, xi) = u_giant[abs(big_s) // u_step], u_baby[abs(big_s) % u_step]
            ur, ui = yr * xr - yi * xi, yr * xi + yi * xr
            (yr, yi), (xr, xi) = z_giant[r // z_step], z_baby[r % z_step]
            zr, zi = yr * xr - yi * xi, yr * xi + yi * xr
            total += ur * zr - ui * zi if big_s >= 0 else ur * zr + ui * zi
        return mp.mpf((total, -4 * w))

"""Arbitrary-precision numeric kernel.

Precision policy, exact<->float conversions, the real-order modified Bessel
function I_nu by its defining ascending series, and the one-pass parser (one
regex scan, one recursive descent) for alpha expressions such as "51/7",
"sqrt(3)", "1/e", "0.01".

All arithmetic is done with mpmath at an explicit working precision; every
public operation takes a Precision and restores the global mpmath state on
exit (mp.workdps context), so callers never see precision leakage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_mul_int, round_nearest


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
            if self.rational is not None:
                return to_mpf(self.rational)
            return _eval_ast(self._ast)

    def key(self):
        """Hashable identity for caching (rational value or expression text)."""
        if self.rational is not None:
            return self.rational
        return self.text

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

def bessel_i(nu, z, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Modified Bessel I_nu(z), finite nu > 0 and z >= 0, by the defining series.

    I_nu(z) = sum_{k>=0} (z/2)^(nu+2k) / (k! Gamma(nu+k+1)), summed until the
    current term drops below 10^(-work_dps) times the partial sum. Terms are
    positive and their ratio r = (z/2)^2/((k+1)(nu+k+1)) falls with k, so the
    tail is at most r/(1-r) times the last term: that bound is below the
    threshold only if r < 1/2 at the stop, which is not checked, so the
    relative error is an estimate. At the default precision r = 0.53 at
    z = 2500, where the tail bound is 1.12 thresholds.
    """
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
            return mp.mpf(0)
        half = zv / 2
        term = half ** nuv / mp.gamma(nuv + 1)
        total = term
        ratio_num = half * half
        cutoff = mp.mpf(10) ** -prec.work_dps
        # The loop runs on raw _mpf_ tuples to skip mpf object overhead; it
        # makes the libmp calls mpf's operators would, in the same order, at
        # the same precision and rounding, so the result is bit-identical.
        wp, rnd = mp.mp.prec, round_nearest
        term, total, ratio_num = term._mpf_, total._mpf_, ratio_num._mpf_
        nu_t, cutoff = nuv._mpf_, cutoff._mpf_
        k = 0
        while True:
            k += 1
            den = mpf_mul_int(mpf_add(nu_t, from_int(k), wp, rnd), k, wp, rnd)
            term = mpf_div(mpf_mul(term, ratio_num, wp, rnd), den, wp, rnd)
            total = mpf_add(total, term, wp, rnd)
            if mpf_lt(term, mpf_mul(cutoff, total, wp, rnd)):
                break
        return mp.mp.make_mpf(total)

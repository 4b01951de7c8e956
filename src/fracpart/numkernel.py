"""Arbitrary-precision numeric kernel.

Precision policy, exact<->float conversions, Gamma, the real-order modified
Bessel function I_nu by its defining ascending series, and the parser for
alpha expressions such as "51/7", "sqrt(3)", "1/e", "0.01".

All arithmetic is done with mpmath at an explicit working precision; every
public operation takes a Precision and restores the global mpmath state on
exit (mp.workdps context), so callers never see precision leakage.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Precision:
    """Working precision: decimal_digits visible, guard_digits carried extra."""

    decimal_digits: int = 60
    guard_digits: int = 10

    def __post_init__(self):
        if self.decimal_digits < 30:
            raise DomainError("decimal_digits must be >= 30")
        if self.guard_digits < 10:
            raise DomainError("guard_digits must be >= 10")

    @property
    def work_dps(self) -> int:
        return self.decimal_digits + self.guard_digits

    def ctx(self, extra: int = 0):
        """mpmath context manager running at work_dps + extra digits."""
        return mp.workdps(self.work_dps + extra)

    def eps(self) -> mp.mpf:
        """10^(-decimal_digits), the per-operation relative error target."""
        return mp.mpf(10) ** (-self.decimal_digits)


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


def nearest_int(x: mp.mpf) -> int:
    """Nearest integer to x. Caller guarantees x is far from a half-integer."""
    return int(mp.nint(x))


# ---------------------------------------------------------------------------
# alpha expressions
# ---------------------------------------------------------------------------
#
# grammar:  expr := term (('*' | '/') term)*
#           term := integer | decimal | 'e' | 'pi' | 'sqrt' '(' expr ')'
# whitespace ignored; offsets reported against the utf-8 byte stream.
#
# There is no unary minus, so every parse is >= 0 and equals a product and
# quotient of positive atoms and literals; the value is zero exactly when a
# multiplied-in literal (possibly under sqrt) is zero. That makes both the
# "nonpositive alpha" and "division by zero" checks exact and structural.

_CONSTANTS = ("e", "pi")


@dataclass(frozen=True)
class AlphaValue:
    """A parsed alpha > 0: exact rational, or an expression tree over e/pi/sqrt.

    rational is None exactly for real kind. value_at evaluates to working
    precision; for rational kind it is just the fraction rounded once.
    """

    text: str
    rational: Fraction | None
    _ast: tuple | None = None

    @property
    def kind(self) -> str:
        return "rational" if self.rational is not None else "real"

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
    if isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, Fraction):
        frac = value
    else:
        raise DomainError("alpha must be AlphaValue, str, int or Fraction")
    if frac <= 0:
        raise DomainError("alpha must be positive")
    return AlphaValue(text=str(frac), rational=frac)


class _Tokenizer:
    """Byte-offset-aware scanner for the alpha grammar."""

    def __init__(self, text: str):
        self.raw = text.encode("utf-8")
        self.pos = 0
        self.tokens = []  # (kind, payload, byte_offset)
        self._scan()
        self.index = 0

    def _scan(self):
        raw, n = self.raw, len(self.raw)
        i = 0
        while i < n:
            c = raw[i : i + 1]
            if c.isspace():
                i += 1
                continue
            start = i
            if c in (b"*", b"/", b"(", b")"):
                self.tokens.append((c.decode(), None, start))
                i += 1
            elif c.isdigit():
                j = i
                while j < n and raw[j : j + 1].isdigit():
                    j += 1
                if j < n and raw[j : j + 1] == b".":
                    j += 1
                    k = j
                    while j < n and raw[j : j + 1].isdigit():
                        j += 1
                    if j == k:
                        raise ParseError("decimal literal needs digits after '.'", j)
                    self.tokens.append(("decimal", raw[i:j].decode(), start))
                else:
                    self.tokens.append(("integer", raw[i:j].decode(), start))
                i = j
            elif c.isalpha():
                j = i
                while j < n and raw[j : j + 1].isalpha():
                    j += 1
                word = raw[i:j].decode()
                if word in _CONSTANTS:
                    self.tokens.append(("const", word, start))
                elif word == "sqrt":
                    self.tokens.append(("sqrt", None, start))
                else:
                    raise ParseError("unknown name %r" % word, start)
                i = j
            else:
                raise ParseError("unexpected character %r" % c.decode("utf-8", "replace"), start)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.index]

    def take(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


# AST nodes: ("rat", Fraction) | ("const", "e"|"pi") | ("sqrt", node)
#          | ("chain", first, [("*"|"/", node), ...])

def _parse_expr(tz: _Tokenizer):
    first = _parse_term(tz)
    ops = []
    while tz.peek()[0] in ("*", "/"):
        op, _, off = tz.take()
        ops.append((op, _parse_term(tz), off))
    if not ops:
        return first
    return ("chain", first, tuple(ops))


def _parse_term(tz: _Tokenizer):
    kind, payload, off = tz.take()
    if kind == "integer":
        return ("rat", Fraction(int(payload)))
    if kind == "decimal":
        whole, frac = payload.split(".")
        den = 10 ** len(frac)
        return ("rat", Fraction(int(whole) * den + int(frac), den))
    if kind == "const":
        return ("const", payload)
    if kind == "sqrt":
        k2, _, off2 = tz.take()
        if k2 != "(":
            raise ParseError("expected '(' after sqrt", off2)
        inner = _parse_expr(tz)
        k3, _, off3 = tz.take()
        if k3 != ")":
            raise ParseError("expected ')'", off3)
        return ("sqrt", inner)
    raise ParseError("expected a number, e, pi or sqrt(...)", off)


def _node_is_zero(node) -> bool:
    tag = node[0]
    if tag == "rat":
        return node[1] == 0
    if tag == "const":
        return False
    if tag == "sqrt":
        return _node_is_zero(node[1])
    # chain: zero iff some multiplied-in factor is zero (divisors are
    # checked separately and rejected before this question matters)
    if _node_is_zero(node[1]):
        return True
    return any(op == "*" and _node_is_zero(term) for op, term, _ in node[2])


def _check_divisors(node):
    tag = node[0]
    if tag == "sqrt":
        _check_divisors(node[1])
    elif tag == "chain":
        _check_divisors(node[1])
        for op, term, off in node[2]:
            _check_divisors(term)
            if op == "/" and _node_is_zero(term):
                raise ParseError("division by zero", off)


def _node_is_rational(node) -> bool:
    tag = node[0]
    if tag == "rat":
        return True
    if tag == "const":
        return False
    if tag == "sqrt":
        return False
    return _node_is_rational(node[1]) and all(
        _node_is_rational(term) for _, term, _ in node[2]
    )


def _eval_rational(node) -> Fraction:
    tag = node[0]
    if tag == "rat":
        return node[1]
    acc = _eval_rational(node[1])
    for op, term, _ in node[2]:
        v = _eval_rational(term)
        acc = acc * v if op == "*" else acc / v
    return acc


def _eval_ast(node) -> mp.mpf:
    tag = node[0]
    if tag == "rat":
        return to_mpf(node[1])
    if tag == "const":
        return mp.e if node[1] == "e" else mp.pi
    if tag == "sqrt":
        return mp.sqrt(_eval_ast(node[1]))
    acc = _eval_ast(node[1])
    for op, term, _ in node[2]:
        v = _eval_ast(term)
        acc = acc * v if op == "*" else acc / v
    return acc


def parse_alpha(text: str) -> AlphaValue:
    """Parse an alpha expression; exact-rational kind when no e/pi/sqrt occurs.

    Decimal literals are exact rationals ("0.01" is 1/100). Raises ParseError
    (with byte offset) for syntax faults and division by zero, DomainError
    for a nonpositive value.
    """
    if not isinstance(text, str):
        raise DomainError("alpha expression must be a string")
    tz = _Tokenizer(text)
    ast = _parse_expr(tz)
    kind, _, off = tz.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    _check_divisors(ast)
    if _node_is_zero(ast):
        raise DomainError("alpha must be positive, got zero from %r" % text)
    if _node_is_rational(ast):
        return AlphaValue(text=text, rational=_eval_rational(ast))
    return AlphaValue(text=text, rational=None, _ast=ast)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def gamma(x, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Gamma(x) for x > 0 at working precision."""
    with prec.ctx():
        xv = to_mpf(x)
        if xv <= 0:
            raise DomainError("gamma requires x > 0")
        return mp.gamma(xv)


def bessel_i(nu, z, prec: Precision = DEFAULT_PRECISION) -> mp.mpf:
    """Modified Bessel I_nu(z), nu > 0, z >= 0, by the defining series.

    I_nu(z) = sum_{k>=0} (z/2)^(nu+2k) / (k! Gamma(nu+k+1)), summed until the
    current term drops below 10^(-decimal_digits-guard_digits) times the
    partial sum. Every term is positive so the stop rule certifies the
    relative error (the tail is dominated by a geometric series with ratio
    (z/2)^2/((k+1)(nu+k+1)) < 1 at the stopping index).
    """
    with prec.ctx(5):
        nuv = to_mpf(nu)
        zv = to_mpf(z)
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
        cutoff = mp.mpf(10) ** (-(prec.decimal_digits + prec.guard_digits))
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

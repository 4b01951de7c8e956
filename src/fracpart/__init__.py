"""Fractional partition numbers p_alpha(n).

p_alpha(n) is the coefficient of x^n in prod_{k>=1} (1 - x^k)^(-alpha),
alpha > 0. The package computes it three independent ways:

  oracle  - exact power-series recurrence (rationals stay exact),
  circle  - truncated Rademacher-type series with a certified tail bound,
  circle.exact_value - finite series evaluation plus denominator clearing
            that recovers the exact rational for rational alpha,

and analyzes hyperbolicity of the associated Jensen polynomials (jensen),
with a CLI and golden-table reproduction harness (cli, goldens).
"""

from fracpart.numkernel import (
    AlphaValue,
    DomainError,
    ParseError,
    Precision,
    bessel_i,
    parse_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaValue",
    "DomainError",
    "ParseError",
    "Precision",
    "bessel_i",
    "parse_alpha",
    "__version__",
]

"""Reference values for table T5 from the fixed-point divisor-sum recurrence.

Run from the repository root:

    PYTHONPATH=src python3 tests/t5_reference.py

It computes p_sqrt(3)(0..50003) with conftest.fixed_point_partitions at 700
fractional bits (no circle-method code), renormalizes p(n..n+3) with the
definition in jensen.py, and prints every T5 cell three ways: the golden
file's value, the recurrence value rounded at the cell's decimals, and the
recurrence value at 15 digits. Each golden row is also checked against the
identity delta(n)^d * Jhat^{d,n}(1/delta(n)) = 1, which holds for any source.
Last, it compares the recurrence with the 100-term series source that
goldens.compute_table("T5") uses. The recurrence takes several minutes: about
50000^2/2 big-integer products.
"""

import time
from fractions import Fraction

import mpmath as mp

from conftest import fixed_point_partitions, sqrt_fixed, t5_identity_residual
from fracpart import goldens, jensen
from fracpart.numkernel import Precision, parse_alpha

FRAC_BITS = 700
PREC = Precision(120)
SERIES_PREC = Precision(90)   # the precision of goldens.compute_table("T5")


def main():
    alpha = parse_alpha("sqrt(3)")
    golden = goldens.load_table("T5")
    limit = max(int(g["n"]) for g in golden) + 3
    t0 = time.perf_counter()
    p = fixed_point_partitions(sqrt_fixed(3, FRAC_BITS), limit, FRAC_BITS)
    print("recurrence to n = %d at %d fractional bits: %.0f s"
          % (limit, FRAC_BITS, time.perf_counter() - t0))
    source = {n: Fraction(p[n], 1 << FRAC_BITS)
              for n in {int(g["n"]) + j for g in golden for j in range(4)}}

    exact = {}
    for g in golden:
        n, d = int(g["n"]), int(g["d"])
        poly = jensen.renormalized_jensen(alpha, d, n, PREC, values=source)
        exact[n, d] = poly
        printed = [g["c%d" % i] for i in range(d + 1)]
        resid, allowed = t5_identity_residual(g, alpha, PREC)
        print("%d/d=%d  golden-row identity residual %s (rounding allows %s)"
              % (n, d, mp.nstr(resid, 3), mp.nstr(allowed, 3)))
        for i, c in enumerate(printed):
            rounded = goldens.fmt_like(c, poly[i])
            print("  c%d  golden %-11s recurrence %-11s %s  %s"
                  % (i, c, rounded, "same" if rounded == c else "DIFFERS",
                     mp.nstr(poly[i], 15)))

    print("100-term series source against the recurrence:")
    for n in sorted({int(g["n"]) for g in golden}):
        vals, _ = jensen.default_values(alpha, n, 3, SERIES_PREC)
        with PREC.ctx():
            rel = max(abs(vals[j] / (mp.mpf(p[n + j]) / 2 ** FRAC_BITS) - 1)
                      for j in range(4))
        table = {n + j: vals[j] for j in range(4)}
        worst = mp.mpf(0)
        for d in (2, 3):
            poly = jensen.renormalized_jensen(alpha, d, n, SERIES_PREC, values=table)
            with PREC.ctx():
                worst = max([worst] + [abs(a - b) for a, b in
                                       zip(poly, exact[n, d])])
        print("  n = %d: values rel. %s, coefficients abs. %s"
              % (n, mp.nstr(rel, 3), mp.nstr(worst, 3)))


if __name__ == "__main__":
    main()

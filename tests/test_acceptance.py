"""Acceptance gate: the eight headline checks, one [PASS]/[FAIL] line each.

Every criterion is asserted at its stated tolerance and runtime budget.
Reference values are either classical (partition numbers), published table
cells, or independently derived in this suite.
"""

import random
import time
from fractions import Fraction
from math import exp, gcd, pi

import mpmath as mp
import pytest
from conftest import TABLE_DIGESTS, artifact_digests, t5_identity_residual

from fracpart import circle, goldens, jensen, oracle
from fracpart.numkernel import Precision, bessel_i, parse_alpha, to_mpf

PREC = Precision(60)


# ---------------------------------------------------------------------------
# 1. exact classical coefficients
# ---------------------------------------------------------------------------

def test_criterion_1_classical_coefficients(classical_p, criterion):
    t0 = time.perf_counter()
    tab = oracle.coeffs(1, 500)
    mismatch = sum(1 for n in range(501) if tab.values[n] != classical_p[n])
    elapsed = time.perf_counter() - t0
    ok = mismatch == 0 and elapsed < 5
    criterion(1, "p(n) exact for n <= 500 vs pentagonal recurrence", ok,
              "%d mismatches, %.2fs" % (mismatch, elapsed))
    assert mismatch == 0
    assert elapsed < 5


# ---------------------------------------------------------------------------
# 2. exact rational recovery and term counts
# ---------------------------------------------------------------------------

def test_criterion_2_exact_recovery_table(criterion, t6_artifact):
    art, elapsed = t6_artifact

    value_cells = [d for d in art.diffs if d.column == "p"]
    mstar_cells = [d for d in art.diffs if d.column == "Mstar"]
    off_column = [d for d in art.mismatches if d.column != "M"]
    row10 = {d.column: d for d in art.diffs if d.row == "10"}

    ok = (all(d.ok for d in value_cells)
          and all(d.ok for d in mstar_cells)
          and not off_column
          and row10["p"].recomputed == "479246612549889/1977326743"
          and row10["Mstar"].recomputed == "109"
          and elapsed < 120)
    criterion(2, "exact p_{51/7}(n) and term counts for n = 1..10", ok,
              "rationals and M* exact; %d deviations all in column M; %.1fs"
              % (len(art.mismatches), elapsed))
    assert all(d.ok for d in value_cells), "exact rational values must match"
    assert all(d.ok for d in mstar_cells), "empirical term counts must match"
    assert not off_column, "deviations must be localized to the M column"
    assert elapsed < 120
    assert artifact_digests(art) == TABLE_DIGESTS["T6"]


# ---------------------------------------------------------------------------
# 3. printed-table reproduction, tables 1-4
# ---------------------------------------------------------------------------

def test_criterion_3_ratio_tables(criterion):
    t0 = time.perf_counter()
    bad = []
    total = 0
    digests = {}
    for tid in ("T1", "T2", "T3", "T4"):
        art = goldens.compute_table(tid)
        total += len(art.diffs)
        bad.extend((tid, d) for d in art.mismatches)
        digests[tid] = artifact_digests(art)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    criterion(3, "tables of ratios and approximants within one printed ulp", ok,
              "%d/%d cells ok, %.1fs" % (total - len(bad), total, elapsed))
    for tid, d in bad:
        print("  %s row %s col %s: printed %s, recomputed %s"
              % (tid, d.row, d.column, d.printed, d.recomputed))
    assert not bad
    assert elapsed < 300
    assert digests == {tid: TABLE_DIGESTS[tid] for tid in digests}


# ---------------------------------------------------------------------------
# 4. certified tail bound vs oracle on the 120-case grid
# ---------------------------------------------------------------------------

def test_criterion_4_tail_bound_grid(coeff_cache, criterion):
    t0 = time.perf_counter()
    alphas = ["1/3", "1", "e", "5", "51/7", "sqrt(3)"]
    cases = 0
    violations = []
    for alpha_text in alphas:
        a = parse_alpha(alpha_text)
        tab = coeff_cache(a, 50, PREC)
        for n in (2, 5, 14, 50):
            for j in (1, 2, 4, 8, 16):
                s = circle.partial_series(a, n, circle.m_term_delta(a, j), PREC)
                with PREC.ctx():
                    err = abs(s.value - to_mpf(tab.values[n]))
                    if not err <= s.tail_bound:
                        violations.append((alpha_text, n, j))
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 120 and not violations and elapsed < 180
    criterion(4, "tail bound dominates true truncation error on 120 cases", ok,
              "%d cases, %d violations, %.1fs" % (cases, len(violations), elapsed))
    assert cases == 120
    assert not violations, violations
    assert elapsed < 180


# ---------------------------------------------------------------------------
# 5. renormalized Jensen coefficient table
# ---------------------------------------------------------------------------

def _t5_inconsistent_rows(a, prec):
    """Golden T5 rows whose identity residual exceeds their own rounding."""
    bad = []
    for g in goldens.load_table("T5"):
        resid, allowed = t5_identity_residual(g, a, prec)
        if resid > allowed:
            bad.append("%s/d=%s" % (g["n"], g["d"]))
    return bad


def test_criterion_5_renormalized_jensen_table(sqrt3_fixed_point, criterion):
    t0 = time.perf_counter()
    a = parse_alpha("sqrt(3)")
    p90 = Precision(90)
    inconsistent = _t5_inconsistent_rows(a, p90)
    art = goldens.compute_table("T5")

    # premise check: the 100-term series source is precise enough that any
    # cell deviation is attributable to the golden values, not to truncation.
    # Both its own tail bound and the independent fixed-point recurrence say so.
    vals, errs = jensen.default_values(a, 10000, 3, p90)
    p_fixed, bits = sqrt3_fixed_point
    with p90.ctx():
        tail_rel = max(e / abs(v) for v, e in zip(vals, errs))
        ref_rel = max(abs(v / (mp.mpf(p_fixed[10000 + j]) / 2 ** bits) - 1)
                      for j, v in enumerate(vals))
    series_sharp = tail_rel < mp.mpf(10) ** -75 and ref_rel < mp.mpf(10) ** -75

    elapsed = time.perf_counter() - t0
    total = len(art.diffs)
    ok = not art.mismatches and not inconsistent and series_sharp and elapsed < 600
    criterion(5, "renormalized Jensen coefficients match the T5 golden table", ok,
              "%d/%d cells within one printed ulp; %d golden rows break "
              "delta^d Jhat(1/delta) = 1; series rel. error < 1e-75 by tail bound "
              "and by recurrence: %s; %.1fs"
              % (total - len(art.mismatches), total, len(inconsistent),
                 series_sharp, elapsed))
    if art.mismatches:
        print(art.diff_report())
    assert not inconsistent, "golden rows inconsistent with their definition: %s" % inconsistent
    assert series_sharp
    assert elapsed < 600
    if art.mismatches:
        pytest.fail(
            "%d golden cells differ from the renormalized Jensen coefficients of "
            "a source that matches the fixed-point recurrence to 1e-75; "
            "tests/t5_reference.py recomputes every cell independently"
            % len(art.mismatches), pytrace=False)
    assert artifact_digests(art) == TABLE_DIGESTS["T5"]


# ---------------------------------------------------------------------------
# 6. functional-equation residuals
# ---------------------------------------------------------------------------

def test_criterion_6_functional_equation_residuals(criterion):
    t0 = time.perf_counter()
    rng = random.Random(20260825)
    pool = ["1", "1/3", "2", "sqrt(3)", "e", "5", "51/7", "1/e"]
    tuples = []
    while len(tuples) < 20:
        alpha_text = rng.choice(pool)
        k = rng.randint(1, 6)
        hs = [h for h in range(k) if gcd(h, k) == 1] or [0]
        h = rng.choice(hs)
        re_z = rng.uniform(0.0168 * k * k, 1.2)
        im_z = rng.uniform(-0.6, 0.6)
        z = complex(re_z, im_z)
        mod_x = exp(-2 * pi * re_z / (k * k))
        mod_xp = exp(-2 * pi * (z.conjugate() / abs(z) ** 2).real)
        if mod_x > 0.9 or mod_xp > 0.9:
            continue
        tuples.append((alpha_text, h, k, z))

    worst = mp.mpf(0)
    for alpha_text, h, k, z in tuples:
        r = circle.functional_equation_residual(
            parse_alpha(alpha_text), h, k, mp.mpc(z.real, z.imag), 600, PREC)
        worst = max(worst, r)
    elapsed = time.perf_counter() - t0
    ok = worst < mp.mpf(10) ** -25 and elapsed < 120
    criterion(6, "functional-equation residual < 1e-25 on 20 sampled tuples", ok,
              "worst %.3e, %.1fs" % (float(worst), elapsed))
    assert worst < mp.mpf(10) ** -25
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 7. property suites
# ---------------------------------------------------------------------------

def test_criterion_7_property_suites(classical_p, criterion):
    t0 = time.perf_counter()
    failures = []

    # Dedekind reciprocity, every coprime pair with k <= 200
    pairs = 0
    for k in range(2, 201):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            lhs = circle.dedekind_sum(h, k) + circle.dedekind_sum(k % h, h)
            rhs = Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
            if lhs != rhs:
                failures.append(("reciprocity", h, k))
            pairs += 1

    # Kloosterman modulus bound on 500 random samples
    rng = random.Random(7112026)
    pool = [parse_alpha(t) for t in ("1", "1/3", "2", "sqrt(3)", "e", "5", "51/7")]
    for _ in range(500):
        a = rng.choice(pool)
        k = rng.randint(1, 30)
        n = rng.randint(0, 100)
        m = rng.randint(0, 3)
        if abs(circle.kloosterman(a, n, m, k, PREC)) > k + mp.mpf(10) ** -40:
            failures.append(("kloosterman", str(a), n, m, k))

    # Bessel ratio inequality on 200 random samples
    for _ in range(200):
        nu = mp.mpf(rng.uniform(1.01, 40))
        x = mp.mpf(rng.uniform(0.01, 60))
        y = mp.mpf(rng.uniform(0.01, 60))
        if x == y:
            continue
        if x > y:
            x, y = y, x
        with PREC.ctx():
            lhs = bessel_i(nu, x, PREC) / bessel_i(nu, y, PREC)
            if not lhs < (x / y) ** nu:
                failures.append(("bessel-ratio", float(nu), float(x), float(y)))

    # hyperbolicity scan: failures stop exactly at n = 25 for classical p, d = 2
    threshold = jensen.hyperbolicity_threshold(1, 2, 500, values=classical_p)
    if threshold != 25:
        failures.append(("threshold", threshold))
    if jensen.is_hyperbolic(jensen.jensen_poly(classical_p, 2, 24)):
        failures.append(("expected-failure-below-25",))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    criterion(7, "reciprocity, Kloosterman bound, Bessel ratio, hyperbolicity scan", ok,
              "%d coprime pairs + 700 samples + scan to 500, %d failures, %.1fs"
              % (pairs, len(failures), elapsed))
    assert not failures, failures[:5]
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 8. leading-order asymptotics sharpen with n
# ---------------------------------------------------------------------------

def test_criterion_8_asymptotic_convergence(coeff_cache, criterion):
    t0 = time.perf_counter()
    results = {}
    for alpha_text in ("1", "e", "5"):
        a = parse_alpha(alpha_text)
        tab = coeff_cache(a, 2000, PREC)
        devs = {}
        for n in (200, 2000):
            est = circle.asymptotic(a, n, PREC)
            with PREC.ctx():
                devs[n] = abs(est.bessel_form / to_mpf(tab.values[n]) - 1)
        results[alpha_text] = devs
    elapsed = time.perf_counter() - t0
    within_half_percent = all(d[2000] < mp.mpf("0.005") for d in results.values())
    sharpens = all(d[2000] < d[200] for d in results.values())
    ok = within_half_percent and sharpens and elapsed < 60
    criterion(8, "one-term estimate within 0.5% at n = 2000 and sharper than n = 200",
              ok, "deviations at n=2000: %s; %.1fs"
              % (", ".join("%s: %.1e" % (k, float(v[2000])) for k, v in results.items()),
                 elapsed))
    assert within_half_percent
    assert sharpens
    assert elapsed < 60

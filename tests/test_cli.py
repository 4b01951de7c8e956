"""Command-line surface, exit codes, output formats, and golden-table helpers."""

import contextlib
import io
import json
import os
import time

import mpmath as mp
import pytest
from conftest import TABLE_DIGESTS, artifact_digests

from fracpart import cli, goldens


def run(argv, env=None):
    buf = io.StringIO()
    saved = {}
    if env:
        for key, val in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = val
    try:
        code = cli.main(argv, out=buf)
    finally:
        for key, val in saved.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# oracle command
# ---------------------------------------------------------------------------

def test_oracle_plain_classical():
    code, out = run(["oracle", "--alpha", "1", "--n", "10"])
    assert code == cli.EXIT_OK
    assert out.strip().splitlines()[-1] == "42"


def test_oracle_plain_rational():
    code, out = run(["oracle", "--alpha", "51/7", "--n", "3"])
    assert code == cli.EXIT_OK
    assert out.strip().splitlines()[-1] == "52751/343"


def test_oracle_json():
    code, out = run(["--format", "json", "oracle", "--alpha", "51/7", "--n", "3"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["alpha"] == "51/7"
    assert doc["upto"] == 3
    assert doc["values"] == ["1/1", "51/7", "1836/49", "52751/343"]


def test_oracle_real_digit_count():
    # --digits sets the significant digits of a real value; p_e(3) = e(e+1)(e+8)/6
    code, out = run(["--digits", "30", "oracle", "--alpha", "e", "--n", "3"])
    assert code == cli.EXIT_OK
    last = out.splitlines()[-1]
    assert len(last.replace(".", "").lstrip("0")) <= 30
    with mp.workdps(40):
        want = mp.e * (mp.e + 1) * (mp.e + 8) / 6
        assert abs(mp.mpf(last) - want) < want * mp.mpf(10) ** -29


def test_oracle_csv():
    code, out = run(["--format", "csv", "oracle", "--alpha", "1", "--n", "10"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 12
    assert lines[-1] == "10,42"


# ---------------------------------------------------------------------------
# series command
# ---------------------------------------------------------------------------

def test_series_plain_fields():
    code, out = run(["series", "--alpha", "5", "--n", "14", "--terms", "3"])
    assert code == cli.EXIT_OK
    keys = [line.split(" = ")[0] for line in out.strip().splitlines()]
    assert keys[0] == "value"
    assert "tail_bound" in keys
    assert any(line.startswith("terms_per_m = [3]") for line in out.splitlines())


def test_series_json_round_trip():
    code, out = run(["--format", "json", "series", "--alpha", "5", "--n", "14",
                     "--terms", "3"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"alpha", "n", "delta", "value", "tail_bound", "terms",
                        "precision"}
    assert doc["terms"] == [3]
    assert abs(float(doc["value"]) - 472294.9971) < 0.001


def test_series_json_fields():
    code, out = run(["--format", "json", "series", "--alpha", "51/7", "--n", "10",
                     "--terms", "5"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"alpha", "n", "delta", "value", "tail_bound", "terms", "precision"}
    assert doc["alpha"] == "51/7"
    assert doc["n"] == 10
    assert doc["terms"] == [5]
    assert doc["precision"] == 60


def test_series_env_digits():
    code, out = run(["--format", "json", "series", "--alpha", "5", "--n", "14",
                     "--terms", "3"], env={"FRACPART_DIGITS": "40"})
    assert code == cli.EXIT_OK
    assert json.loads(out)["precision"] == 40


def test_series_digits_flag_overrides_env():
    code, out = run(["--digits", "45", "--format", "json", "series", "--alpha", "5",
                     "--n", "14", "--terms", "3"], env={"FRACPART_DIGITS": "40"})
    assert code == cli.EXIT_OK
    assert json.loads(out)["precision"] == 45


def test_series_nan_delta_exits_two():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(["series", "--alpha", "5", "--n", "14", "--delta", "nan"])
    assert (code, out, err.getvalue()) == (cli.EXIT_DOMAIN, "", "error: delta must be positive\n")


def test_series_deterministic():
    argv = ["series", "--alpha", "sqrt(3)", "--n", "20", "--terms", "7"]
    assert run(argv) == run(argv)


def test_series_rejects_small_n():
    code, _ = run(["series", "--alpha", "51/7", "--n", "0", "--terms", "3"])
    assert code == cli.EXIT_DOMAIN


# ---------------------------------------------------------------------------
# exact command
# ---------------------------------------------------------------------------

def test_exact_with_term_report():
    code, out = run(["exact", "--alpha", "51/7", "--n", "7", "--report-terms"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "p = 85346705106/5764801"
    assert "M = 110" in lines
    assert "M* = 26" in lines


def test_exact_rejects_irrational_alpha():
    code, _ = run(["exact", "--alpha", "sqrt(3)", "--n", "5"])
    assert code == cli.EXIT_DOMAIN


# ---------------------------------------------------------------------------
# jensen and threshold commands
# ---------------------------------------------------------------------------

def test_jensen_plain():
    code, out = run(["jensen", "--alpha", "1", "--d", "1", "--n", "5"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "raw = 11 X + 7"
    assert "hyperbolic = true" in lines


def test_jensen_csv_header():
    code, out = run(["--format", "csv", "jensen", "--alpha", "1", "--d", "1",
                     "--n", "5"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,hyperbolic,gap_to_hermite"
    assert lines[1].startswith("5,1,true,")


def test_jensen_json_fields():
    code, out = run(["--format", "json", "jensen", "--alpha", "1", "--d", "2", "--n", "30"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"alpha", "d", "n", "raw", "renormalized", "hyperbolic",
                        "hermite_distance"}
    assert doc["alpha"] == "1"
    assert doc["hyperbolic"] is True
    # exact coefficients print as str(Fraction): no "/1" on integers
    assert doc["raw"] == ["5604", "13684", "8349"]


def test_threshold_command():
    code, out = run(["threshold", "--alpha", "1", "--d", "2", "--horizon", "60"])
    assert code == cli.EXIT_OK
    assert out.strip() == "threshold = 25"


@pytest.mark.parametrize("alpha,n", [("51/7", 19), ("13/3", 11), ("5/2", 7), ("1/3", 20)])
def test_jensen_non_integer_rational_alpha_answers_fast(alpha, n):
    # these windows come from the oracle recurrence; exact recovery would
    # need exponentially many terms in n
    start = time.perf_counter()
    code, out = run(["jensen", "--alpha", alpha, "--d", "2", "--n", str(n)])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_OK
    assert out.startswith("raw = ")


# ---------------------------------------------------------------------------
# table command and exit codes
# ---------------------------------------------------------------------------

def test_table_match_exits_zero():
    code, out = run(["table", "T2"])
    assert code == cli.EXIT_OK
    assert "all 20 compared cells within one printed ulp" in out


def test_table_mismatch_exits_three_and_localizes(monkeypatch, t6_artifact):
    # the command renders the T6 recompute that criterion 2 also checks
    monkeypatch.setattr(goldens, "compute_table", {"T6": t6_artifact[0]}.__getitem__)
    code, out = run(["table", "T6"])
    assert code == cli.EXIT_GOLDEN
    diff_lines = [ln for ln in out.splitlines() if "printed" in ln and "recomputed" in ln]
    assert diff_lines
    assert all("col M:" in ln for ln in diff_lines)


def test_usage_errors_exit_one():
    assert run(["series", "--alpha", "5", "--n", "14"])[0] == cli.EXIT_USAGE  # no delta/terms
    assert run(["--bogus"])[0] == cli.EXIT_USAGE
    assert run(["nosuchcommand"])[0] == cli.EXIT_USAGE


def test_parse_error_exits_two():
    code, _ = run(["oracle", "--alpha", "1//2", "--n", "3"])
    assert code == cli.EXIT_DOMAIN
    code, _ = run(["oracle", "--alpha", "sqrt(" * 600 + "2" + ")" * 600, "--n", "1"])
    assert code == cli.EXIT_DOMAIN


# ---------------------------------------------------------------------------
# recorded transcripts
# ---------------------------------------------------------------------------

with open(os.path.join(os.path.dirname(__file__), "cli_transcripts.json"), encoding="utf-8") as fh:
    TRANSCRIPTS = json.load(fh)


def test_cli_transcripts_replay(monkeypatch):
    # stdout, stderr and exit code of fast commands, byte for byte
    monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
    start = time.perf_counter()
    changed = []
    for record in TRANSCRIPTS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(record["argv"])
        if (code, out, err.getvalue()) != (record["exit"], record["stdout"], record["stderr"]):
            changed.append(record["argv"])
    assert not changed
    assert time.perf_counter() - start < 5


def test_parser_is_built_once_and_survives_usage_errors():
    assert cli._build_parser() is cli._build_parser()
    assert run(["--bogus"])[0] == cli.EXIT_USAGE
    record = next(r for r in TRANSCRIPTS if r["argv"] == ["oracle", "--alpha", "51/7", "--n", "6"])
    assert run(record["argv"]) == (record["exit"], record["stdout"])


# ---------------------------------------------------------------------------
# goldens helpers
# ---------------------------------------------------------------------------

def test_reference_tables_load_with_expected_shapes():
    # published row counts; the T5 file stores one record per (n, d) pair,
    # which its artifact groups back into the 5 published rows
    csv_records = {"T1": 10, "T2": 10, "T3": 14, "T4": 10, "T5": 10, "T6": 10}
    for tid in goldens.TABLE_IDS:
        rows = goldens.load_table(tid)
        assert len(rows) == csv_records[tid]
        keys = set(rows[0])
        assert all(set(r) == keys for r in rows)


def test_within_print_ulp_decimal():
    assert goldens.within_print_ulp("0.99927", mp.mpf("0.999271"))
    assert goldens.within_print_ulp("0.99927", mp.mpf("0.999280"))
    assert not goldens.within_print_ulp("0.99927", mp.mpf("0.999291"))


def test_within_print_ulp_exact_strings():
    from fractions import Fraction

    assert goldens.within_print_ulp("1836/49", Fraction(1836, 49))
    assert not goldens.within_print_ulp("1836/49", Fraction(1835, 49))
    assert goldens.within_print_ulp("204226", 204226)
    assert not goldens.within_print_ulp("204226", 204227)


def test_fmt_like_rounds_to_printed_places():
    assert goldens.fmt_like("0.120905", mp.mpf("0.1209054")) == "0.120905"
    assert goldens.fmt_like("0.120905", mp.mpf("0.12090551")) == "0.120906"
    assert goldens.fmt_like("1709.07", mp.mpf("1709.075395")) == "1709.08"


def test_fmt_like_rounds_the_exact_value_once():
    # just below a tie: an intermediate rendering to dp + 15 digits would
    # show 0.15 and then round up
    with mp.workdps(50):
        assert goldens.fmt_like("0.1", mp.mpf("0.15") - mp.mpf(10) ** -30) == "0.1"
        assert goldens.fmt_like("0.1", -(mp.mpf("0.15") - mp.mpf(10) ** -30)) == "-0.1"
    # an exact tie rounds half away from zero
    # outside any precision context the exact value is read, not its
    # rounding to the ambient 53 bits (which is the tie 0.25, or 0.1 within
    # one printed ulp of 0.2)
    with mp.workdps(50):
        v = mp.mpf("0.25") - mp.mpf(10) ** -30
        w = mp.mpf("0.1") - mp.mpf(10) ** -30
    assert goldens.fmt_like("0.1", v) == "0.2"
    assert not goldens.within_print_ulp("0.2", w)
    assert goldens.fmt_like("0.1", mp.mpf("0.25")) == "0.3"
    assert goldens.fmt_like("0.1", mp.mpf("-0.25")) == "-0.3"
    assert goldens.fmt_like("0.001", mp.mpf("0.00025")) == "0.000"


def test_table_two_recomputation_is_clean():
    art = goldens.compute_table("T2")
    assert not art.mismatches
    assert len(art.diffs) == 20
    assert artifact_digests(art) == TABLE_DIGESTS["T2"]

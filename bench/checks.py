"""Output checks against the oracle table; no stored copy of the program's output.

A sweep operation passes when its bracket [value - err_lo, value + err_hi]
contains the oracle value, compared exactly in rationals, and its radius is
at most the requested tol.  Each CLI command is checked by what its output
must satisfy: brackets against oracles, printed digits, closed-form constants,
verification verdicts and exit codes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import workloads as wl

#: Accuracy that `compute_mM` asks of its coarse profile grid (SearchConfig.coarse_tol).
CONSTANTS_TOL = 1e-7
#: Relative accuracy asked of the 16-point Gauss panels of the Hankel transform.
HANKEL_RTOL = 1e-12
#: Relative accuracy of expansion coefficients rounded from exact rationals.
ASYM_RTOL = 1e-12


def bracket_ok(value: float, err_lo: float, err_hi: float, oracle: str, tol: float) -> bool:
    if not all(math.isfinite(x) for x in (value, err_lo, err_hi)):
        return False
    if err_lo < 0 or err_hi < 0 or max(err_lo, err_hi) > tol:
        return False
    v, truth = Fraction(value), Fraction(oracle)
    return v - Fraction(err_lo) <= truth <= v + Fraction(err_hi)


def _half_unit(x: float, digits: int) -> Fraction:
    """Half a unit in the last of `digits` printed significant digits of x."""
    if x == 0.0:
        return Fraction(0)
    exp = math.floor(math.log10(abs(x))) - (digits - 1)
    return Fraction(1, 2) * Fraction(10) ** exp


def printed_bracket_ok(value: str, err_lo: str, err_hi: str, oracle: str, tol: float,
                       digits: int) -> bool:
    """bracket_ok for fields printed with `digits` significant digits: the bracket
    is widened by the rounding of the printed value and radii."""
    v, lo, hi = float(value), float(err_lo), float(err_hi)
    if max(lo, hi) > tol * (1.0 + 10.0 ** (1 - digits)):
        return False
    slack = _half_unit(v, digits)
    fv, truth = Fraction(v), Fraction(oracle)
    return (fv - Fraction(lo) - _half_unit(lo, digits) - slack <= truth
            <= fv + Fraction(hi) + _half_unit(hi, digits) + slack)


def _digits_ok(token: str, digits: int) -> bool:
    return f"{float(token):.{digits}g}" == token


def _json_records(stdout: str) -> list[dict]:
    # floats stay strings so the printed digits can be checked
    return [json.loads(line, parse_float=str, parse_int=str)
            for line in stdout.splitlines() if line.strip()]


def _close(got: str, want: str, atol: float = 0.0, rtol: float = 0.0) -> bool:
    g, w = float(got), float(want)
    return math.isfinite(g) and abs(g - w) <= atol + rtol * abs(w)


def _check_eval_json(stdout: str, oracle: str, tol: float) -> str | None:
    recs = _json_records(stdout)
    if len(recs) != 1:
        return f"expected one record, got {len(recs)}"
    r = recs[0]
    for key in ("value", "err_lo", "err_hi"):
        if not _digits_ok(r[key], 17):
            return f"{key} {r[key]} is not printed at 17 digits"
    if not bracket_ok(float(r["value"]), float(r["err_lo"]), float(r["err_hi"]), oracle, tol):
        return f"bracket {r['value']} +/- {r['err_hi']} misses {oracle}"
    return None


def _check_sweep_csv(stdout: str, table: dict) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    refs, ts = table["sweep"], table["sweep_t"]
    if len(rows) != len(refs):
        return f"expected {len(refs)} rows, got {len(rows)}"
    for row, ref, t in zip(rows, refs, ts):
        for key in ("t", "value", "err_lo", "err_hi"):
            if not _digits_ok(row[key], 12):
                return f"{key} {row[key]} is not printed at 12 digits"
        if not _close(row["t"], t, rtol=1e-11):
            return f"t {row['t']} is not the documented grid point {t}"
        if not printed_bracket_ok(row["value"], row["err_lo"], row["err_hi"], ref, 1e-10, 12):
            return f"at t={row['t']} bracket {row['value']} +/- {row['err_hi']} misses {ref}"
    return None


def _check_asym(stdout: str, refs: list) -> str | None:
    recs = _json_records(stdout)
    if len(recs) != len(refs):
        return f"expected {len(refs)} coefficients, got {len(recs)}"
    scale = max(abs(float(c)) for _, c in refs)
    for rec, (power, coeff) in zip(recs, refs):
        if float(rec["inv_t_power"]) != float(power):
            return f"power {rec['inv_t_power']} != {power}"
        if not _close(rec["coefficient"], coeff, atol=1e-15 * scale, rtol=ASYM_RTOL):
            return f"coefficient {rec['coefficient']} != {coeff}"
    return None


def _check_fields(stdout: str, refs: dict, atol: float = 0.0, rtol: float = 0.0) -> str | None:
    recs = _json_records(stdout)
    if len(recs) != 1:
        return f"expected one record, got {len(recs)}"
    for key, want in refs.items():
        if not _close(recs[0][key], want, atol=atol, rtol=rtol):
            return f"{key} = {recs[0][key]}, expected {want}"
    return None


def _check_verify(report_path: Path, stdout: str, expect_pass: bool) -> str | None:
    try:
        doc = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"no readable report: {exc}"
    reports = doc.get("reports", [])
    if not reports:
        return "report holds no checks"
    violations = sum(len(r["violations"]) for r in reports)
    if expect_pass:
        if not doc["passed"] or violations or not all(r["passed"] for r in reports):
            return f"expected every report to pass, found {violations} violations"
        if any(line.startswith("FAIL") for line in stdout.splitlines()):
            return "a FAIL line was printed"
    elif doc["passed"] or violations == 0:
        return "expected at least one violation"
    return None


def clear_reports(cwd: Path) -> None:
    """Remove verification reports, so a check never reads one left by an earlier command."""
    for stale in cwd.glob("mathieu_verify_*.json"):
        stale.unlink()


def check_suite(suite: str, code: int, stdout: str, cwd: Path) -> str | None:
    """`verify <suite>` with its default settings must pass."""
    if code != 0:
        return f"exit code {code}, expected 0"
    return _check_verify(cwd / f"mathieu_verify_{suite}.json", stdout, expect_pass=True)


def check_cli(argv: tuple[str, ...], code: int, stdout: str, cwd: Path, table: dict) -> str | None:
    """None when the README command behaved as it must, else why not."""
    cli = table["cli"]
    expect_code = 1 if argv[:2] == ("verify", "monotone") else 0
    if code != expect_code:
        return f"exit code {code}, expected {expect_code}"
    i = wl.CLI_SESSION.index(argv)
    if i == 0:
        return _check_eval_json(stdout, cli["eval_t1"], 1e-10)
    if i == 1:
        return _check_sweep_csv(stdout, cli)
    if i == 2:
        return _check_eval_json(stdout, cli["eval_alt_t1"], 1e-10)
    if i == 3:
        return _check_asym(stdout, cli["asym"])
    if i == 4:
        return _check_fields(stdout, cli["constants_mu1"], atol=CONSTANTS_TOL)
    if i == 5:
        return _check_fields(stdout, cli["constants_inf"], atol=1e-12)
    if i in (6, 7):
        return _check_verify(cwd / f"mathieu_verify_{argv[1]}.json", stdout, expect_pass=i == 6)
    return _check_fields(stdout, {"value": cli["hankel_exp"]}, rtol=HANKEL_RTOL)

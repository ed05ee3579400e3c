import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieuseries import analysis, cli
from mathieuseries.mathieu import MathieuParams, eval_S

from conftest import s_mellin_mp


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_classical_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--gamma", "1", "--alpha", "2",
                           "--mu", "1", "--u", "0", "--t", "1")
        assert code == 0
        rec = json.loads(out.strip())
        oracle = eval_S(MathieuParams(1.0, 2.0, 1.0, 0.0), 1.0, 1e-12)
        assert rec["value"] == pytest.approx(oracle.value, abs=1e-9)
        assert rec["method"] == "direct"
        assert list(rec) == ["t", "value", "err_lo", "err_hi", "method", "terms", "order",
                             "rigorous", "tol_met"]
        assert rec["rigorous"] is True
        assert rec["tol_met"] is (max(rec["err_lo"], rec["err_hi"]) <= 1e-10) is True

    def test_poisson_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--gamma", "0", "--alpha", "2",
                           "--mu", "0", "--u", "0", "--t", "1")
        assert code == 0
        rec = json.loads(out.strip())
        closed = math.pi - 1.0 + 2.0 * math.pi / math.expm1(2.0 * math.pi)
        assert rec["value"] == pytest.approx(closed, abs=1e-9)

    def test_head_zero_bracket_contains_the_oracle(self, capsys):
        # the x-form's head 0 flagged this bracket rigorous and missed by 1.02 radii
        code, out, _ = run(capsys, "eval", "--gamma", "0", "--alpha", "1", "--mu", "1.3",
                           "--t", "1e6")
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "euler-maclaurin"
        assert abs(mp.mpf(rec["value"]) - s_mellin_mp(0.0, 1.0, 1.3, 0.0, 1e6)) <= rec["err_hi"]

    def test_delta_constraint_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--gamma", "1", "--alpha", "2",
                           "--mu", "0", "--u", "0", "--t", "1")
        assert code == 2
        assert "must exceed 1" in err

    def test_alt_identity(self, capsys):
        code, out, _ = run(capsys, "eval-alt", "--gamma", "0", "--alpha", "2",
                           "--mu", "0", "--u", "0", "--t", "1")
        assert code == 0
        rec = json.loads(out.strip())
        closed = 1.0 - 2.0 * math.pi / (math.exp(math.pi) - math.exp(-math.pi))
        assert rec["value"] == pytest.approx(closed, abs=1e-9)
        # a 64-term head and an order-8 Boole tail
        assert (rec["terms"], rec["order"]) == (64, 8)

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "--t-start", "1", "--t-stop", "2",
                           "--t-count", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,value,err_lo,err_hi,method,terms,order,rigorous,tol_met"
        assert len(lines) == 4
        assert all(line.endswith(",True,True") for line in lines[1:])

    @pytest.mark.parametrize("command, tol, met", [
        ("eval", "1e-10", True), ("eval", "1e-14", True), ("eval-alt", "1e-10", True),
        # the tail meets tol/2, and the head's rounding slack takes the radius
        # past tol: exit 2 naming the radius, as eval does
        ("eval-alt", "1e-17", False),
    ])
    def test_records_say_whether_tol_was_met(self, capsys, command, tol, met):
        # tol_met is the bench checks' rule max(err_lo, err_hi) <= tol
        code, out, err = run(capsys, command, "--gamma", "0.5", "--alpha", "1.5", "--mu", "1",
                             "--t", "7", "--tol", tol)
        if not met:
            assert (code, out) == (2, "")
            assert err == "error: radius 1.79e-16 at t=7 exceeds tol=1e-17\n"
            return
        assert code == 0
        rec = json.loads(out)
        assert rec["rigorous"] is True
        assert rec["tol_met"] is (max(rec["err_lo"], rec["err_hi"]) <= float(tol)) is met

    def test_determinism(self, capsys):
        args = ("eval", "--t-start", "0.5", "--t-stop", "50", "--t-count", "7", "--t-log")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestAsym:
    def test_classical_coefficients(self, capsys):
        code, out, _ = run(capsys, "asym", "--n-terms", "3")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert recs[0]["coefficient"] == pytest.approx(1.0)
        assert recs[1]["coefficient"] == pytest.approx(-1.0 / 6.0)

    def test_offset_coefficient(self, capsys):
        code, out, _ = run(capsys, "asym", "--u", "0.5", "--n-terms", "2")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert recs[1]["coefficient"] == pytest.approx(-11.0 / 12.0)

    def test_alternating_expansion(self, capsys):
        # leading entry of the alternating expansion: -E_1(0) = 1/2 at t^-4
        code, out, _ = run(capsys, "asym", "--alt", "--n-terms", "2")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert recs[0]["k"] == 0
        assert recs[0]["inv_t_power"] == 4.0
        assert recs[0]["coefficient"] == pytest.approx(0.5)

    def test_high_order_coefficient_is_exact(self, capsys):
        # E_23(-1/2) once cancelled to 0 in float Horner; the exact product of
        # the weight and g^(23)(0), rounded once, is -1.601953990161419e-06
        code, out, _ = run(capsys, "asym", "--alt", "--gamma", "2", "--alpha", "3", "--mu", "0.9",
                           "--u", "0.5", "--n-terms", "8")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [rec["k"] for rec in recs] == list(range(8))
        assert recs[7]["coefficient"] == -1.601953990161419e-06
        assert recs[7]["inv_t_power"] == 3.0 * (7 + 0.9 + 1.0)

    def test_regime_exit_2(self, capsys):
        code, _, err = run(capsys, "asym", "--gamma", "3.5")
        assert code == 2
        assert "gamma" in err


class TestConstants:
    def test_classical(self, capsys):
        code, out, _ = run(capsys, "constants", "--mu", "1", "--u", "0")
        assert code == 0
        rec = json.loads(out.strip().replace('"inf"', '"Infinity"').replace('"Infinity"', "1e999"))
        assert rec["m"] == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert rec["M"] == pytest.approx(0.4159537, abs=1e-5)

    def test_limiting(self, capsys):
        code, out, _ = run(capsys, "constants", "--inf", "--u", "0")
        rec = json.loads(out.strip())
        assert rec["M_inf"] == 1.0
        assert 0.0 < rec["m_inf"] <= 1.0 / 6.0 + 1e-12

    def test_bounds_echoed(self, capsys):
        code, out, _ = run(capsys, "constants", "--mu", "1", "--u", "1")
        rec = json.loads(out.strip().replace('"inf"', "1e999"))
        assert 2.0 < rec["m"] <= 2.0 + 1.0 / 6.0 + 1e-9
        assert 2.25 < rec["M"] < 4.0

    def test_negative_u_exit_2(self, capsys):
        code, _, _ = run(capsys, "constants", "--mu", "1", "--u", "-0.5")
        assert code == 2


class TestVerify:
    def test_classical_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "classical", "--output", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True
        assert {r["check_name"] for r in doc["reports"]} >= {
            "classical-inequalities", "poisson-closed-forms"
        }

    def test_deliberate_failure_exit_1(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "monotone", "--b", "10", "--output", str(out_path))
        assert code == 1
        doc = json.loads(out_path.read_text())
        assert not doc["passed"]
        viol = doc["reports"][0]["violations"]
        assert viol, "expected a witness for the oversized shift"

    def test_unknown_suite_exit_2(self, capsys):
        assert cli.main(["verify", "nope"]) == 2


class TestHankel:
    def test_exp_kernel_closed_form(self, capsys):
        code, out, _ = run(capsys, "hankel", "--kernel", "exp", "--m", "3",
                           "--t", "1", "--p", "1")
        rec = json.loads(out.strip())
        expected = math.sqrt(2.0 / math.pi) * 0.5
        assert rec["value"] == pytest.approx(expected, abs=1e-10)
        # a quadrature without a bracket says so
        assert list(rec)[-1] == "rigorous" and rec["rigorous"] is False

    def test_cutoff_printed(self, capsys):
        code, out, _ = run(capsys, "hankel", "--kernel", "h-u-prime", "--m", "3",
                           "--t", "1", "--u", "0.5")
        rec = json.loads(out.strip())
        assert rec["cutoff"] == analysis.hankel_cutoff(2.0, 1.5)

    def test_difference_kernel_matches_series_gap(self, capsys):
        code, out, _ = run(capsys, "hankel", "--kernel", "g-pu", "--m", "3",
                           "--t", "1", "--p", "0.4", "--u", "0")
        rec = json.loads(out.strip())
        s = eval_S(MathieuParams(1.0, 2.0, 1.0, 0.0), 1.0, 1e-12).value
        expected = (1.0 / (0.4**2 + 1.0) - s) * 2.0**0.5 / math.sqrt(math.pi)
        assert rec["value"] == pytest.approx(expected, abs=1e-10)


class TestConfigPlumbing:
    def test_config_file_merge_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 2.0\nmu = 1.0\n")
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--t", "1.0")
        rec = json.loads(out.strip())
        assert rec["t"] == 1.0  # flag beats file
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        rec = json.loads(out.strip())
        assert rec["t"] == 2.0
        # a flag whose dest differs from its name (--format -> fmt) wins too
        cfg.write_text("fmt = json\n")
        code, out, _ = run(capsys, "eval", "--t", "1", "--format", "csv", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0].startswith("t,")
        # --b -> b_override
        cfg.write_text("b_override = 0.5\n")
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "monotone", "--b", "10", "--config", str(cfg),
                         "--output", str(report))
        viol = json.loads(report.read_text())["reports"][0]["violations"]
        assert viol and {v["params"]["b"] for v in viol} == {10.0}

    def test_explicit_sweep_beats_file_point(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 2.0\n")
        code, out, _ = run(capsys, "eval", "--config", str(cfg),
                           "--t-start", "1", "--t-stop", "3", "--t-count", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_config_rejects_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--t", "1.0")
        assert code == 2
        assert "bogus" in err
        # the command is no flag: a file once switched `eval` to another command
        cfg.write_text("command = hankel\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg), "--t", "1.0")
        assert (code, out) == (2, "")
        assert "command" in err
        # nor is the file itself: `config = other.cfg` was accepted and ignored
        cfg.write_text("config = missing.cfg\nt = 2\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "'config'" in err

    def test_config_output_writes_that_file(self, capsys, tmp_path):
        # a file value of a flag whose default is None once went through
        # float() and exited 2 with "is not a number"
        path = tmp_path / "out.jsonl"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output = {path}\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg), "--t", "1.0")
        assert (code, out, err) == (0, "", "")
        assert json.loads(path.read_text())["t"] == 1.0

    @pytest.mark.parametrize("command, text", [
        # fmt = xml was taken as it stood, and the command printed CSV
        (("eval", "--t", "1.0"), "fmt = xml\n"),
        (("hankel",), "kernel = bogus\n"),
    ])
    def test_config_values_parse_as_their_flags(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, *command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: config value ") and err.count("\n") == 1

    def test_config_switch_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        sweep = ("eval", "--t-start", "1", "--t-stop", "100", "--t-count", "3")
        for text, second in (("t_log = false\n", 50.5), ("t_log = yes\n", 10.0)):
            cfg.write_text(text)
            code, out, _ = run(capsys, *sweep, "--config", str(cfg))
            assert code == 0
            assert json.loads(out.splitlines()[1])["t"] == pytest.approx(second, rel=1e-15)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        code, out, _ = run(capsys, "eval", "--t", "1.0", "--output", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text().strip())["t"] == 1.0


class TestErrorExits:
    """Bad input ends in exit 2 with one `error:` line, never a traceback."""

    @pytest.mark.parametrize("args", [
        ("eval", "--t", "nan"),
        ("eval", "--u", "nan", "--t", "1"),
        ("eval", "--t", "inf"),
        ("eval", "--tol", "nan", "--t", "1"),
        ("asym", "--n-terms", "100"),
        ("eval-alt", "--gamma", "0.5", "--alpha", "1.5", "--mu", "0.5", "--t", "1e60"),
        ("constants", "--inf", "--u", "nan"),
        ("hankel", "--t", "nan"),
        ("eval", "--config", "bad.cfg"),
        ("eval", "--t", "1", "--tol", "1e-18"),
        ("hankel", "--p", "0"),
        ("hankel", "--p", "-1"),
        ("hankel", "--p", "nan"),
        ("hankel", "--m", "nan"),
        ("hankel", "--cutoff", "nan"),
        ("hankel", "--cutoff", "inf"),
        ("hankel", "--kernel", "g-pu", "--u", "-2"),
        ("verify", "monotone", "--b", "nan"),
        ("asym", "--n-terms", "-3"),
        # e^(-px)/x x^(m-1) ~ x^(m-2) at 0: the transform diverges for m <= 1
        ("hankel", "--kernel", "exp", "--m", "1"),
        ("hankel", "--kernel", "exp", "--m", "0.5"),
        # billions of panels of width pi/(2t) up to the cutoff
        ("hankel", "--t", "1e9"),
        ("hankel", "--cutoff", "1e12"),
        # log spacing from a positive start to a negative stop gave complex t
        ("eval", "--t-start", "1", "--t-stop", "-1", "--t-count", "3", "--t-log"),
        ("eval", "--t-start", "1", "--t-stop", "2", "--t-count", "1"),
        ("eval", "--t-start", "1", "--t-stop", "2", "--t-count", "-5"),
        # the sum itself leaves the normal float range (2 t^-4/20 ~ 1e-1201,
        # pi/(2 t^3) ~ 1.6e-309, 1/t^2 ~ 1e-320): once each printed 0 +- 0
        ("eval", "--gamma", "1", "--alpha", "1", "--mu", "5", "--t", "1e300"),
        ("eval", "--gamma", "0", "--alpha", "2", "--mu", "1", "--t", "1e103"),
        ("eval", "--t", "1e160"),
        # 0^(-p) raised ZeroDivisionError, and (-1)^(-p) is complex
        ("asym", "--t", "0"),
        ("asym", "--t=-1"),
        # the first terms leave the float range (2 / (0.001^100 + t^100)^1.1
        # ~ 1e330): each printed or returned inf +- inf as a rigorous sum
        ("eval-alt", "--gamma", "0", "--alpha", "100", "--mu", "0.1", "--u", "-0.999",
         "--t", "0.001"),
        ("eval", "--gamma", "0", "--alpha", "100", "--mu", "0.1", "--u", "-0.999", "--t", "0"),
    ])
    def test_exit_2_with_one_line(self, capsys, monkeypatch, tmp_path, args):
        # the eval-alt case (no closed tail at t = 1e60, where g^(k) at 64/t
        # leaves the float range) needs more terms than this cap allows
        monkeypatch.setattr(cli.mathieu, "MAX_TERMS", 1000)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("t = abc\n")
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_u_names_each_path(self, capsys):
        # at t <= 2|u| the point u/t lies outside the EM kernel's domain
        # x > -1/2: the engine's own "eps must be below q/u" escaped the
        # dispatcher; now EM is out of its regime, and the error names both paths
        code, out, err = run(capsys, "eval", "--gamma", "1", "--alpha", "2", "--mu", "1",
                             "--u", "-0.5", "--t", "0.5", "--tol", "1e-18")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no path reaches tol" in err and "q/u" not in err
        assert "direct: " in err and "euler-maclaurin: " in err

    def test_underflowing_scale_keeps_a_normal_sum(self, capsys):
        # 2 t^(-delta) underflows, the sum 2 t^(-1/2) B(1/2, 2) ~ 2.67e-150 does not
        code, out, err = run(capsys, "eval", "--gamma", "1", "--alpha", "1", "--mu", "1.5",
                             "--t", "1e300")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(8.0 / 3.0 * 1e-150, rel=1e-12)
        assert 0 < rec["err_hi"] <= 1e-10

    def test_nonfinite_monotone_shift(self, capsys, monkeypatch, tmp_path):
        # without the term cap above: the shift itself is rejected, no suite runs
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "verify", "monotone", "--b", "nan") == (
            2, "", "error: b must be finite\n")

    def test_exit_2_in_a_fresh_process(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "mathieuseries.cli", "eval", "--t", "nan"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_overflow_inside_the_package_exits_2(self, capsys, monkeypatch):
        def overflow(*args):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(cli.mathieu, "eval_auto", overflow)
        code, out, err = run(capsys, "eval", "--t", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tiny_t_gives_an_honest_bracket(self, capsys):
        # 2 t^(1-delta) overflowed here; the sum is 2 zeta(4) = pi^4/45 to 1e-200
        code, out, _ = run(capsys, "eval", "--gamma", "0", "--alpha", "2", "--mu", "1",
                           "--t", "1e-200")
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["value"] - math.pi**4 / 45) <= rec["err_hi"] <= 1e-10

    @pytest.mark.parametrize("args", [
        ("eval-alt", "--gamma", "0.5", "--alpha", "1.5", "--mu", "1", "--t", "1e60"),
        ("eval-alt", "--t", "1e80"),
        ("eval-alt", "--gamma", "2", "--alpha", "2.5", "--mu", "1", "--t", "1e80"),
    ])
    def test_start_past_the_term_cap_exits_2_at_once(self, capsys, args):
        # the terms decrease only from an index past the 20M-term cap, so the
        # first bracket alone would sum more terms than the cap allows, and no
        # closed tail stands in: g^(k) at 64/t (non-integer kernels) or the
        # tail itself (about t^-4 for the classical kernel) leaves the float range
        start = time.perf_counter()
        code, out, err = run(capsys, *args)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "20000000-term cap" in err

    @pytest.mark.parametrize("args, params, alternating", [
        (("eval", "--gamma", "0.5", "--alpha", "1.5", "--mu", "1", "--t", "1e9"),
         (0.5, 1.5, 1.0, 0.0), False),
        (("eval-alt", "--t", "1e12"), (1.0, 2.0, 1.0, 0.0), True),
        (("eval", "--gamma", "2", "--alpha", "2.5", "--mu", "1", "--t", "1e12"),
         (2.0, 2.5, 1.0, 0.0), False),
        # the first bracket needed 85,028,302 terms
        (("eval", "--gamma", "2", "--alpha", "2.5", "--mu", "1", "--t", "1e8"),
         (2.0, 2.5, 1.0, 0.0), False),
        # past t = 2^125, where the engine's weights eps^k underflow, each ended
        # in exit 2 at the term cap
        (("eval", "--gamma", "0.5", "--alpha", "1.5", "--mu", "1", "--t", "1e40"),
         (0.5, 1.5, 1.0, 0.0), False),
        (("eval-alt", "--t", "1e40"), (1.0, 2.0, 1.0, 0.0), True),
        (("eval", "--gamma", "2", "--alpha", "2.5", "--mu", "1", "--t", "1e40"),
         (2.0, 2.5, 1.0, 0.0), False),
        (("eval-alt", "--gamma", "0.5", "--alpha", "1.5", "--mu", "0.5", "--t", "1e40"),
         (0.5, 1.5, 0.5, 0.0), True),
    ])
    def test_start_past_the_term_cap_closes_in_64_terms(self, capsys, args, params, alternating):
        # a start past CROSSOVER closes past 64 terms at once, for every kernel
        # (every alternating sum, and every plain sum outside the gamma=1,
        # alpha=2 family, at every start)
        from conftest import s_mellin_mp

        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert (rec["terms"], rec["order"]) == (64, 8)
        truth = s_mellin_mp(*params, rec["t"], alternating=alternating)
        assert abs(rec["value"] - truth) <= rec["err_hi"] <= 1e-10

    @pytest.mark.parametrize("params, t", [
        ((0.0, 3.0, 3.0, 0.0), "1e26"),
        ((0.0, 2.5, 0.3, 0.0), "1e100"),
    ])
    def test_alternating_sum_below_the_float_range(self, capsys, params, t):
        # the one-term bracket's next term overflowed Python's float pow, and
        # each ended in exit 2 with "(34, 'Numerical result out of range')"
        flags = [v for name, x in zip(("gamma", "alpha", "mu", "u"), params)
                 for v in (f"--{name}", repr(x))]
        code, out, err = run(capsys, "eval-alt", *flags, "--t", t)
        assert code == 0
        assert "34" not in err and "out of range" not in err
        rec = json.loads(out)
        truth = s_mellin_mp(*params, float(t), alternating=True)
        assert abs(mp.mpf(rec["value"]) - truth) <= rec["err_hi"] <= 1e-10, (rec, truth)

    def test_overflowing_head_prints_no_warning(self, capsys):
        # (k^3 + 1e78)^4 leaves the float range in every term of the 64-term
        # head; numpy's "overflow encountered in power" once reached stderr
        code, out, err = run(capsys, "eval-alt", "--gamma", "0", "--alpha", "3", "--mu", "3",
                             "--u", "0", "--t", "1e26")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        truth = s_mellin_mp(0.0, 3.0, 3.0, 0.0, 1e26, alternating=True)
        assert abs(mp.mpf(rec["value"]) - truth) <= rec["err_hi"], (rec, truth)

    def test_t_power_past_the_float_range(self, capsys):
        # 1e300^1.5: the message once held only errno's "(34, 'Numerical
        # result out of range')"
        code, out, err = run(capsys, "eval", "--gamma", "1", "--alpha", "1.5", "--mu", "1",
                             "--u", "0", "--t", "1e300")
        assert (code, out) == (2, "")
        assert err == "error: a value left the float range (t^alpha = 1e+300^1.5 overflows a float)\n"

    def test_verify_has_no_tol_flag(self, capsys):
        code, _, err = run(capsys, "verify", "classical", "--tol", "1e-9")
        assert code == 2
        assert "--tol" in err


#: Flag values for the fuzz test: the edges of the float range and the
#: values no flag accepts, beside ordinary ones.
_FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e300", "-1e300", "1e-300",
                "-1e-300", "0.5", "1", "2", "7", "abc", "")
#: Flags whose size sets the work, drawn from values that keep it bounded.
_FUZZ_BOUNDED = {
    "--t-count": ("-5", "0", "1", "2", "50", "nan", "1.5", "abc"),
    "--n-terms": ("-3", "0", "6", "40", "nan", "abc"),
}
_FUZZ_HANKEL = {
    "--t": ("nan", "inf", "-inf", "0", "-1", "1e-300", "0.5", "1", "1e3"),
    "--cutoff": ("nan", "inf", "0", "-1", "1e-300", "1", "1e4"),
}
_PARAM_FLAGS = ("--gamma", "--alpha", "--mu", "--u")
_FUZZ_FLAGS = {
    "eval": _PARAM_FLAGS + ("--t", "--t-start", "--t-stop", "--tol", "--t-count", "--t-log"),
    "asym": _PARAM_FLAGS + ("--t", "--n-terms", "--alt"),
    "constants": ("--mu", "--u", "--inf"),
    "verify": ("--b",),
    "hankel": ("--kernel", "--m", "--t", "--p", "--u", "--cutoff"),
}
_FUZZ_FLAGS["eval-alt"] = _FUZZ_FLAGS["eval"]
_FUZZ_SWITCHES = ("--t-log", "--alt", "--inf")
_FUZZ_EXTRA = ("--bogus=1", "--format=xml", "--format=csv", "--output=out.json",
               "--config=missing.cfg", "--t-count=abc")


@st.composite
def _cli_argv(draw):
    """A subcommand and some of its flags, each set to an edge value."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(cli.SUITES + ("none",))))
    for flag in draw(st.lists(st.sampled_from(_FUZZ_FLAGS[command]), max_size=5, unique=True)):
        if flag in _FUZZ_SWITCHES:
            argv.append(flag)
            continue
        if flag == "--kernel":
            values = ("exp", "g-pu", "h-u-prime", "none")
        elif command == "hankel" and flag in _FUZZ_HANKEL:
            values = _FUZZ_HANKEL[flag]
        else:
            values = _FUZZ_BOUNDED.get(flag, _FUZZ_VALUES)
        argv.append(f"{flag}={draw(st.sampled_from(values))}")
    argv += draw(st.lists(st.sampled_from(_FUZZ_EXTRA), max_size=1))
    return argv


class TestFuzz:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(argv=_cli_argv())
    def test_every_input_exits_cleanly(self, argv, tmp_path_factory):
        # a term cap of 1,000 keeps every evaluation short; each exit 2 comes
        # with one `error:` line, and nothing escapes as a traceback
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli.mathieu, "MAX_TERMS", 1000)
            patch.chdir(tmp_path_factory.mktemp("fuzz"))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


#: The nine CLI examples of the README, in README order, with the sha256 of
#: each one's stdout (recorded on x86-64 Linux, Python 3.11, numpy 2.4): the
#: output is promised byte-identical, so a change to any hash is a change to
#: the printed output and must be deliberate.
README_COMMANDS = {
    ("eval", "--gamma", "1", "--alpha", "2", "--mu", "1", "--u", "0", "--t", "1"):
        "8ae91fdb46161886127202e605356045b448f57128373ef1044c191ada1f237f",
    ("eval", "--t-start", "0.01", "--t-stop", "100", "--t-count", "200", "--t-log",
     "--format", "csv"):
        "e448e1ffe6125c04dba0b5ab10eee85ae8cab42a2325e25d946ce4dadff88580",
    ("eval-alt", "--gamma", "0", "--alpha", "2", "--mu", "0", "--u", "0", "--t", "1"):
        "abd99598e255763a1fe078dd0de90848c6325672915213bc98e0dab9a7fac7ec",
    ("asym", "--gamma", "1", "--alpha", "2", "--mu", "1", "--u", "0.5", "--n-terms", "6"):
        "94d10181fa5394f359b0b57c8f0f98fce6c5986f01b18fafc27f0b052baf16fb",
    ("constants", "--mu", "1", "--u", "0"):
        "2a594de9d757790061351f8d114e54c2297387445fae7017f091f436e2f506fa",
    ("constants", "--inf", "--u", "0"):
        "028d9a807dd9013543e5c0da2a0a6afa10c45d7d4c1064cbf4f6f36392582bc9",
    ("verify", "all"):
        "be9f8f4fe410bed16cf8984d7b924ae8a647145d1671fc27752923c28ade54b7",
    ("verify", "monotone", "--b", "10"):
        "e31c826a06c048a685b491e6eb8a2b23b89e3d5543f8edbe9a85a013fed0dc54",
    ("hankel", "--kernel", "exp", "--m", "3", "--t", "1", "--p", "1"):
        "e9a799325c2d3d8487ad1b2a2835a9f3a7d0dc9ea5c3187f676d5cf363530e49",
}

#: Runs the CLI as `python -m mathieuseries.cli` does, then reports on stderr
#: every scipy and numpy module the command left in sys.modules.
README_PROBE = """
import json, runpy, sys
sys.argv[0] = "mathieu-series"
code = 0
try:
    runpy.run_module("mathieuseries.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(json.dumps({top: sorted(m for m in sys.modules if m.split(".")[0] == top)
                  for top in ("scipy", "numpy")}), file=sys.stderr)
sys.exit(code)
"""


def probe_cli(args, cwd):
    """(exit code, stdout, {"scipy": [...], "numpy": [...]} modules loaded) of
    the CLI run with args in a fresh process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", README_PROBE, *args], capture_output=True,
                          text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    """args -> `probe_cli(args)`, one fresh process each."""
    return {args: probe_cli(args, tmp_path_factory.mktemp("readme")) for args in README_COMMANDS}


class TestReadmeGolden:
    def test_stdout_matches_recorded_hashes(self, readme_runs):
        for args, (code, stdout, _) in readme_runs.items():
            # the harness self-test `verify monotone --b 10` fails by design
            assert code == (1 if "--b" in args else 0), args
            assert hashlib.sha256(stdout.encode()).hexdigest() == README_COMMANDS[args], args

    def test_poisson_warning_is_one_line(self, tmp_path):
        # the mu <= 0 UserWarning once came with its source line
        # `params = mathieu.MathieuParams(...)`; stdout stays the README's
        args = ("eval-alt", "--gamma", "0", "--alpha", "2", "--mu", "0", "--u", "0", "--t", "1")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "mathieuseries.cli", *args],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ("warning: mu <= 0 is outside the vetted regime; "
                               "results are experimental\n")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == README_COMMANDS[args]

    def test_classical_suite_writes_no_warning(self, tmp_path):
        # the Poisson check's own mu = 0 kernel is not a user's input; in a
        # fresh process, since conftest silences the warning in this one
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "mathieuseries.cli", "verify", "classical"],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestReadmeReferences:
    """Every package name the README cites in backticks exists."""

    MODULES = ("mathieu", "emsum", "polyfun", "sharp", "analysis", "cli")
    #: `module.name...`, or a bare `_name...`, ending the span or followed by "("
    CITED = re.compile(r"`((?:mathieu|emsum|polyfun|sharp|analysis|cli)\.\w+(?:\.\w+)*"
                       r"|_\w+(?:\.\w+)*)[`(]")

    def test_cited_names_exist(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        modules = {m: importlib.import_module(f"mathieuseries.{m}") for m in self.MODULES}
        cited = set(self.CITED.findall(text))
        assert "mathieu.bracketed_sum" in cited and "_beta_point" in cited
        missing = []
        for ref in sorted(cited):
            head, *path = ref.split(".")
            if head in modules:
                owners = [modules[head]]
            else:  # a bare name: in any module
                owners, path = list(modules.values()), [head, *path]
            if not any(self._resolves(owner, path) for owner in owners):
                missing.append(ref)
        assert not missing

    @staticmethod
    def _resolves(obj, path) -> bool:
        for name in path:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True


class TestImportCost:
    """scipy is imported where a command needs it and numpy where one builds
    an array, not with the package."""

    SCRIPT = """
import sys
{imports}
{body}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "{top}")
print(",".join(loaded))
"""

    def _loaded(self, body, tmp_path, top="scipy", imports="from mathieuseries import cli"):
        src = str(Path(cli.__file__).resolve().parents[1])
        script = self.SCRIPT.format(imports=imports, body=body, top=top)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""

    def test_import_loads_no_scipy(self, tmp_path):
        assert self._loaded("", tmp_path) == ""

    @pytest.mark.parametrize("imports", ["import mathieuseries", "import mathieuseries.cli"])
    def test_import_loads_no_numpy(self, tmp_path, imports):
        assert self._loaded("", tmp_path, top="numpy", imports=imports) == ""

    @pytest.mark.parametrize("imports", ["import mathieuseries", "import mathieuseries.cli"])
    def test_import_loads_no_dataclasses_or_inspect(self, tmp_path, imports):
        # only what the import loads counts, not what `site` loaded before it
        script = "\n".join([
            "import sys",
            "before = set(sys.modules)",
            imports,
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_readme_commands_load_no_scipy(self, readme_runs):
        # each in a fresh process: `verify all` and `hankel` included
        assert {args: run[2]["scipy"] for args, run in readme_runs.items()} == dict.fromkeys(
            README_COMMANDS, [])

    def test_asym_loads_no_numpy(self, readme_runs):
        asym = next(args for args in README_COMMANDS if args[0] == "asym")
        assert readme_runs[asym][2]["numpy"] == []

    @pytest.mark.parametrize("args", [
        ("eval-alt", "--gamma", "0", "--alpha", "2", "--mu", "0", "--u", "0", "--t", "1"),
        ("eval", "--gamma", "0.5", "--alpha", "1.5", "--mu", "1", "--u", "0", "--t", "7"),
        ("eval-alt", "--gamma", "1", "--alpha", "2", "--mu", "1", "--u", "0.3", "--t", "1"),
    ])
    def test_closed_64_sums_load_no_numpy(self, tmp_path, args):
        # a 64-term head is one fsum of Python floats
        code, _, loaded = probe_cli(args, tmp_path)
        assert (code, loaded) == (0, {"scipy": [], "numpy": []})

    def test_long_ladder_loads_numpy(self, readme_runs):
        # eval --t 1 climbs the Hermite-Hadamard ladder to 512 terms
        args = ("eval", "--gamma", "1", "--alpha", "2", "--mu", "1", "--u", "0", "--t", "1")
        assert "numpy" in readme_runs[args][2]["numpy"]

    @pytest.mark.parametrize("args,code", [
        (("--help",), 0),
        (("eval", "--help"), 0),
        (("eval", "--t", "x"), 2),
        (("verify",), 2),
        ((), 2),
    ])
    def test_help_and_usage_errors_load_no_numpy(self, tmp_path, args, code):
        got, _, loaded = probe_cli(args, tmp_path)
        assert got == code
        assert loaded == {"scipy": [], "numpy": []}

    def test_non_integer_kernel_loads_no_quadrature(self, tmp_path):
        # (2, 2.5, 1, 0) at t >= 50 took its EM variation from scipy's quad
        body = "\n".join([
            "import contextlib, io",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['eval', '--gamma', '2', '--alpha', '2.5', '--mu', '1',",
            "                     '--t', '100']) == 0",
        ])
        assert "scipy.integrate" not in self._loaded(body, tmp_path).split(",")

    def test_direct_sweep_round_loads_no_quadrature(self, tmp_path):
        # with scipy unimportable: one round of the benchmark's direct-sweep
        # operations, its slow tails closed by Euler-Maclaurin and Boole on
        # exact variations, and three kernels whose tail integral has no
        # closed form, on both sides of x = 1 and with closed tails
        bench = Path(__file__).resolve().parents[1] / "bench"
        body = "\n".join([
            "import random, warnings",
            f"sys.path.insert(0, {str(bench)!r})",
            "import workloads",
            "from mathieuseries import mathieu",
            "warnings.simplefilter('ignore')",
            "for op in workloads.DIRECT_SWEEP.round_ops(random.Random(1), 0):",
            "    getattr(mathieu, op.fn)(mathieu.MathieuParams(*op.params), op.t, op.tol)",
            "for params in ((0.0, 2.0, 1.0, 0.0), (1.0, 1.5, 1.0, 0.0), (0.0, 2.5, 0.3, 0.0)):",
            "    for t in (0.0, 0.5, 7.0, 1e3, 1e6):",
            "        for fn in (mathieu.eval_S, mathieu.eval_S_alt):",
            "            fn(mathieu.MathieuParams(*params), t)",
            "del sys.modules['scipy']",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        script = "import sys\nsys.modules['scipy'] = None\n" + self.SCRIPT.format(
            imports="from mathieuseries import cli", body=body, top="scipy")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

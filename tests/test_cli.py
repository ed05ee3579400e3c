import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mathieuseries import analysis, cli
from mathieuseries.mathieu import MathieuParams, eval_S


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
        assert set(rec) == {"t", "value", "err_lo", "err_hi", "method", "terms", "order"}

    def test_poisson_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--gamma", "0", "--alpha", "2",
                           "--mu", "0", "--u", "0", "--t", "1")
        assert code == 0
        rec = json.loads(out.strip())
        closed = math.pi - 1.0 + 2.0 * math.pi / math.expm1(2.0 * math.pi)
        assert rec["value"] == pytest.approx(closed, abs=1e-9)

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
        assert lines[0] == "t,value,err_lo,err_hi,method,terms,order"
        assert len(lines) == 4

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

    def test_runconfig_roundtrip(self):
        cfg = cli.RunConfig(command="eval", gamma=1.5, t=2.0)
        again = cli.RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

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
        ("eval-alt", "--gamma", "0.5", "--alpha", "1.5", "--mu", "0.5", "--t", "1"),
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
    ])
    def test_exit_2_with_one_line(self, capsys, monkeypatch, tmp_path, args):
        # the eval-alt case (no closed tail outside the integer regime at t > 0)
        # needs more terms than this cap allows
        monkeypatch.setenv("MATHIEU_MAX_TERMS", "1000")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("t = abc\n")
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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

    def test_verify_has_no_tol_flag(self, capsys):
        code, _, err = run(capsys, "verify", "classical", "--tol", "1e-9")
        assert code == 2
        assert "--tol" in err


class TestImportCost:
    """scipy is imported where a command needs it, not with the package."""

    SCRIPT = """
import sys
from mathieuseries import cli
{body}
loaded = sorted(m for m in ("scipy.special", "scipy.integrate") if m in sys.modules)
print(",".join(loaded))
"""

    def _loaded(self, body, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT.format(body=body)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""

    def test_import_loads_no_scipy(self, tmp_path):
        assert self._loaded("", tmp_path) == ""

    def test_readme_commands_load_no_scipy(self, tmp_path):
        body = "\n".join([
            "import contextlib, io",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['eval', '--t', '1']) == 0",
            "    assert cli.main(['eval', '--t-start', '0.01', '--t-stop', '100', '--t-count',"
            " '200', '--t-log', '--format', 'csv']) == 0",
            "    assert cli.main(['verify', 'monotone', '--b', '10']) == 1",
            "    assert cli.main(['verify', 'asymptotic']) == 0",
        ])
        assert self._loaded(body, tmp_path) == ""

    def test_direct_sweep_round_loads_no_quadrature(self, tmp_path):
        # one round of the benchmark's direct-sweep operations, its slow tails
        # closed by Euler-Maclaurin and Boole on exact variations
        bench = Path(__file__).resolve().parents[1] / "bench"
        body = "\n".join([
            "import random, warnings",
            f"sys.path.insert(0, {str(bench)!r})",
            "import workloads",
            "from mathieuseries import mathieu",
            "warnings.simplefilter('ignore')",
            "for op in workloads.DIRECT_SWEEP.round_ops(random.Random(1), 0):",
            "    getattr(mathieu, op.fn)(mathieu.MathieuParams(*op.params), op.t, op.tol)",
            "print('scipy.integrate' in sys.modules)",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT.format(body=body)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2] == "False"

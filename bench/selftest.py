"""Self-tests of the benchmark.

    python3 bench/selftest.py

They show that the checks reject a result moved by 10x its radius, that the
oracle table covers every input a run can draw, that a run prints every
metric of BENCHMARK.json, that times are scaled by the host-speed probes
next to them, and that a checkout without the package source
makes the benchmark fail without a result.  Under a minute on one core.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
import warnings
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from mathieuseries import cli, mathieu  # noqa: E402

warnings.simplefilter("ignore")
TABLE = wl.load_oracles()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class Scaling(unittest.TestCase):
    def test_times_are_divided_by_the_slowness_next_to_them(self):
        ref = calibrate.REF_PROBE_S
        timings = run.Timings()
        timings.setup(1.0, [2.0 * ref, 2.0 * ref])
        timings.setup(3.0, [0.5 * ref])
        timings.ops([10.0, 30.0], 0.04, [2.0 * ref])
        timings.ops([20.0, 20.0], 0.04, None)
        scaled, wall = timings.metrics(50)
        self.assertEqual(wall["setup_s"], 2.0)
        self.assertEqual(scaled["setup_s"], 3.25)
        self.assertEqual(wall["ops_per_s"], 50.0)
        self.assertAlmostEqual(scaled["ops_per_s"], 4 / 0.06)
        self.assertEqual(sorted(timings.scaled.latencies), [5.0, 15.0, 20.0, 20.0])


class CliChild(unittest.TestCase):
    def test_runs_the_command_as_python_m_does(self):
        argv = ("verify", "monotone", "--b", "10")
        with tempfile.TemporaryDirectory() as tmp:
            env = run.child_env()
            direct = subprocess.run([sys.executable, "-m", "mathieuseries.cli", *argv], cwd=tmp,
                                    env=env, capture_output=True, text=True, timeout=120)
            proc, latency_ms, probes = run.cli_command(argv, Path(tmp), env)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(proc.returncode, direct.returncode)
        self.assertEqual(proc.stdout, direct.stdout)
        self.assertGreater(latency_ms, 0.0)
        self.assertEqual(len(probes), 5)


class ShiftedResults(unittest.TestCase):
    def test_sweep_result_shifted_by_ten_radii_fails(self):
        for sweep in wl.SWEEPS.values():
            for op in sweep.trace_ops(random.Random(0)):
                if op.fault:
                    continue
                res = getattr(mathieu, op.fn)(mathieu.MathieuParams(*op.params), op.t, op.tol)
                oracle = TABLE["values"][op.key]
                self.assertTrue(checks.bracket_ok(res.value, res.err_lo, res.err_hi, oracle, op.tol),
                                op)
                for sign in (1.0, -1.0):
                    moved = res.value + sign * 10.0 * max(res.err_lo, res.err_hi)
                    self.assertFalse(
                        checks.bracket_ok(moved, res.err_lo, res.err_hi, oracle, op.tol), op)

    def test_radius_above_tol_fails(self):
        op = wl.DIRECT_SWEEP.trace_ops(random.Random(0))[0]
        oracle = float(TABLE["values"][op.key])
        self.assertFalse(checks.bracket_ok(oracle, 2 * op.tol, 2 * op.tol,
                                           TABLE["values"][op.key], op.tol))

    def test_cli_eval_shifted_by_ten_radii_fails(self):
        argv = wl.CLI_SESSION[0]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(argv))
        cwd = Path.cwd()
        self.assertIsNone(checks.check_cli(argv, code, out.getvalue(), cwd, TABLE))
        rec = json.loads(out.getvalue())
        rec["value"] += 10.0 * rec["err_hi"]
        shifted = "{" + ", ".join(f'"{k}": "{v}"' if isinstance(v, str) else f'"{k}": {v:.17g}'
                                  for k, v in rec.items()) + "}\n"
        self.assertIsNotNone(checks.check_cli(argv, code, shifted, cwd, TABLE))

    def test_cli_wrong_exit_code_fails(self):
        self.assertIsNotNone(checks.check_cli(wl.CLI_SESSION[7], 0, "", Path.cwd(), TABLE))


class OracleTable(unittest.TestCase):
    def test_covers_every_candidate_point(self):
        for sweep in wl.SWEEPS.values():
            for op in sweep.oracle_points() + list(sweep.warmup):
                self.assertIn(op.key, TABLE["values"])

    def test_faults_do_not_depend_on_the_seed(self):
        for sweep in wl.SWEEPS.values():
            a = [op for op in sweep.round_ops(random.Random(1), 5) if op.fault]
            b = [op for op in sweep.round_ops(random.Random(2), 5) if op.fault]
            self.assertEqual(a, b)
            self.assertEqual(len(a), 1)


class Output(unittest.TestCase):
    def _result(self, proc: subprocess.CompletedProcess) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(res["attempted"], 1)
        return res

    def _assert_metrics(self, res: dict, specs: list) -> None:
        self.assertEqual(list(res["metrics"]), [m["name"] for m in specs])
        for m in specs:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(res["metrics"][m["name"]]["value"], (int, float))

    def test_every_end_to_end_metric_printed(self):
        res = self._result(_run_bench("--workload", "direct-sweep", "--seed", "3",
                                      "--seconds", "1", "--trace", "0"))
        self._assert_metrics(res, BENCHMARK["end_to_end"])
        self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_every_per_layer_metric_printed(self):
        res = self._result(_run_bench("--workload", "direct-sweep", "--seed", "3",
                                      "--seconds", "1", "--trace", "1"))
        self._assert_metrics(res, BENCHMARK["per_layer"])

    def test_checkout_without_source_fails_without_result(self):
        (BENCH / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out"))
            proc = _run_bench("--workload", "direct-sweep", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(warnings="ignore")

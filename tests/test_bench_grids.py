"""Every oracle point of the benchmark's sweep grids, faults included, gives a
bracket that contains its oracle with a radius at most tol."""

import importlib.util
import sys
from pathlib import Path

import pytest

from mathieuseries import mathieu

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/workloads.py and bench/checks.py, which imports the first by name."""
    modules = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("workloads", "checks"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
    return modules["workloads"], modules["checks"]


@pytest.mark.parametrize("sweep", ["DIRECT_SWEEP", "EM_SWEEP"])
def test_every_oracle_point_is_contained(bench, sweep):
    workloads, checks = bench
    table = workloads.load_oracles()["values"]
    missed = []
    for op in getattr(workloads, sweep).oracle_points():
        res = getattr(mathieu, op.fn)(mathieu.MathieuParams(*op.params), op.t, op.tol)
        if not checks.bracket_ok(res.value, res.err_lo, res.err_hi, table[op.key], op.tol):
            missed.append((op, res))
    assert not missed

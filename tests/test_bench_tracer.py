"""The benchmark's tracer patches package functions by name; every one must exist."""

import importlib.util
from pathlib import Path

from mathieuseries import mathieu, sharp

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (mathieu.eval_S, mathieu.log_phi_u, sharp.convex_series)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()  # AttributeError or KeyError on a deleted or renamed name
        assert mathieu.eval_S is not originals[0]
        mathieu.log_phi_u(0.0, 1.0)
        assert tracer.agg["mathieu.log_phi_u"][0] == 1
    finally:
        tracer.uninstall()
    assert (mathieu.eval_S, mathieu.log_phi_u, sharp.convex_series) == originals

"""One benchmark process: imports the package first, then runs one job.

    python3 bench/worker.py probe
    python3 bench/worker.py sweep <workload> <seed> <part> <seconds>
    python3 bench/worker.py trace <workload> <seed> <seconds> <spans file>

`run.py` starts it with PYTHONPATH=src and reads the JSON object on its last
line of output.  Times are `time.perf_counter()` readings, which on Linux come
from the system-wide CLOCK_MONOTONIC, so the parent can subtract its own
reading taken before the start.
"""

import time

import mathieuseries  # noqa: F401  first, so the set-up time covers nothing else

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from mathieuseries import mathieu  # noqa: E402

# mu <= 0 (the Poisson cases) is deliberately exercised
warnings.simplefilter("ignore")

#: Host-speed probes right after set-up, and after every sweep round (5 ms each).
SETUP_PROBES = 10
ROUND_PROBES = 3


def fingerprint() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_op(op: wl.Op, table: dict) -> tuple[float, str | None]:
    """Latency in seconds and None, or the reason the operation failed."""
    start = time.perf_counter()
    try:
        res = getattr(mathieu, op.fn)(mathieu.MathieuParams(*op.params), op.t, op.tol)
    except Exception as exc:  # a failing operation is counted, the run goes on
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if not checks.bracket_ok(res.value, res.err_lo, res.err_hi, table[op.key], op.tol):
        return latency, (f"{res.method} bracket {res.value!r} -{res.err_lo!r} +{res.err_hi!r} "
                         f"misses {table[op.key]}")
    return latency, None


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, what: str, fault: bool, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if not fault:
                self.unexpected.append(f"{what}: {error}")

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "unexpected": self.unexpected[:20]}




def sweep(name: str, seed: int, part: int, seconds: float) -> dict:
    """Whole rounds for `seconds`; latencies are grouped by round, each round
    followed by the probe burst that scales it."""
    sw = wl.SWEEPS[name]
    table = wl.load_oracles()["values"]
    t_warm = time.perf_counter()
    for op in sw.warmup:
        run_op(op, table)
    warmup_s = time.perf_counter() - t_warm
    calibrate.probe()  # the first probe in a fresh process runs cold
    setup_probes = calibrate.burst(SETUP_PROBES)
    rng = random.Random(seed * 1000 + part)
    tally, latencies, rounds, probes = Tally(), [], [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        round_ms = []
        for op in sw.round_ops(rng, len(rounds)):
            latency, error = run_op(op, table)
            round_ms.append(latency * 1e3)
            tally.add(op.key, op.fault, error)
        rounds.append(time.perf_counter() - r0)
        latencies.append(round_ms)
        probes.append(calibrate.burst(ROUND_PROBES))
        if not wl.keep_going(start, rounds, seconds):
            break
    return {"t_imported": T_IMPORTED, "warmup_s": warmup_s, "setup_probes_s": setup_probes,
            "rounds_s": rounds, "latencies_ms": latencies, "probes_s": probes,
            **tally.to_dict(), "fingerprint": fingerprint()}


def _sweep_pass(ops: list[wl.Op], table: dict, tally: Tally) -> float:
    start = time.perf_counter()
    for op in ops:
        _, error = run_op(op, table)
        tally.add(op.key, op.fault, error)
    return time.perf_counter() - start


def _cli_pass(cli, table: dict, tally: Tally, tracer: tr.Tracer | None,
              rng: random.Random) -> float:
    """The README commands through cli.main, then one `verify <suite>` per suite."""
    cwd = Path.cwd()
    start = time.perf_counter()
    for argv in rng.sample(wl.CLI_SESSION, len(wl.CLI_SESSION)):
        checks.clear_reports(cwd)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        tally.add(" ".join(argv), False, checks.check_cli(argv, code, out.getvalue(), cwd, table))
    for suite in wl.VERIFY_SUITES:
        checks.clear_reports(cwd)
        main = cli.main if tracer is None else tracer.span(f"verify.{suite}", cli.main)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["verify", suite])
        tally.add(f"verify {suite}", False, checks.check_suite(suite, code, out.getvalue(), cwd))
    return time.perf_counter() - start


def _hooks(t: tr.Tracer) -> dict:
    def terms(counter):
        return lambda res, _children: t.count(counter, res.terms_used)

    def dispatch(res, children):
        t.count(f"mathieu.method#{res.method}")
        if "mathieu.eval_em" in children and res.method != mathieu.EULER_MACLAURIN:
            t.count("mathieu.eval_em#discarded")

    return {
        "mathieu.eval_S": terms("mathieu.eval_S#terms"),
        "mathieu.eval_S_alt": terms("mathieu.eval_S_alt#terms"),
        "sharp.convex_series": terms("sharp.convex_series#terms"),
        "mathieu.eval_auto": dispatch,
    }


def trace(name: str, seed: int, seconds: float, spans_path: str) -> dict:
    """Untraced and traced passes over the same fixed operations, alternating."""
    table = wl.load_oracles()
    rng = random.Random(seed)
    tally = Tally()
    t = tr.Tracer()
    if name == "cli-session":
        from mathieuseries import cli

        def one_pass(traced: bool, order: random.Random) -> float:
            return _cli_pass(cli, table, tally, t if traced else None, order)
    else:
        sw = wl.SWEEPS[name]
        for op in sw.warmup:
            run_op(op, table["values"])

        def one_pass(traced: bool, order: random.Random) -> float:
            return _sweep_pass(sw.trace_ops(order), table["values"], tally)

    one_pass(False, random.Random(seed))  # untimed: fills the caches and lazy imports
    passes, pair_s = [], []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        # both passes see the same order
        order_seed = rng.random()
        untraced = one_pass(False, random.Random(order_seed))
        t.install(_hooks(t))
        t.keep_spans = not passes
        before = t.snapshot()
        traced = one_pass(True, random.Random(order_seed))
        t.uninstall()
        t.keep_spans = False
        layers = tr.layer_metrics(tr.diff(t.snapshot(), before))
        layers["trace.overhead_s"] = traced - untraced
        passes.append(layers)
        pair_s.append(time.perf_counter() - p0)
        if not wl.keep_going(start, pair_s, seconds):
            break
    with open(spans_path, "w") as fh:
        for span in t.spans:
            fh.write(json.dumps(span) + "\n")
    return {"passes": passes, **tally.to_dict(), "fingerprint": fingerprint()}


def main(argv: list[str]) -> int:
    job = argv[0]
    if job == "probe":
        calibrate.probe()  # the first probe in a fresh process runs cold
        out = {"t_imported": T_IMPORTED, "setup_probes_s": calibrate.burst(SETUP_PROBES),
               "fingerprint": fingerprint()}
    elif job == "sweep":
        out = sweep(argv[1], int(argv[2]), int(argv[3]), float(argv[4]))
    elif job == "trace":
        out = trace(argv[1], int(argv[2]), float(argv[3]), argv[4])
    else:
        print(f"unknown job {job!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

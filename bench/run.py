"""Benchmark of mathieuseries: timed workloads whose outputs are checked against mpmath oracles.

    python3 bench/run.py --workload direct-sweep --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1        # all three workloads in turn
    python3 bench/oracles.py                            # regenerate the oracle table
    python3 bench/selftest.py                           # the benchmark's own tests

Run from the repository root.  BENCHMARK.json lists direct-sweep and
cli-session; em-sweep runs when named or with --workload all.  Every workload
is a closed loop with one caller and no threads.  The sweeps run in-process in
SEGMENTS fresh worker processes one after another, so each run measures set-up
SEGMENTS times, spread over the run; cli-session starts one process per
README command, which runs `mathieuseries.cli` as `python -m` does
(cli_child.py).  Reported times are scaled to a reference host speed by the
probes of calibrate.py, run in the same processes.  With --trace 1 a separate
traced run reports the per-layer metrics instead of the end-to-end ones.

The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; raw results and trace dumps go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import cli_child
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Fresh worker processes per sweep run; each start is one set-up sample.
SEGMENTS = 5
#: cli-session measures set-up once before the first command and after every fifth.
CLI_PROBE_EVERY = 5
#: `-X importtime` runs per traced run; the import metrics are their medians.
IMPORT_RUNS = 3
#: Limit for any one child process, well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run(argv: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv)} did not end within {CHILD_TIMEOUT_S} s") from exc


def worker(args: list[str], cwd: Path, env: dict) -> dict:
    proc = _run([sys.executable, str(BENCH / "worker.py"), *args], cwd, env)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count()}


def peak_rss_mb() -> float:
    # children only: the largest worker or CLI process this run waited for
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def timing_metrics(setups, latencies, timed_s, tail_pct) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / timed_s,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": statistics.quantiles(latencies, n=100)[tail_pct - 1],
        "peak_rss_mb": peak_rss_mb(),
    }


@dataclass
class Series:
    setups: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    timed_s: float = 0.0

    def metrics(self, tail_pct: int) -> dict:
        return timing_metrics(self.setups, self.latencies, self.timed_s, tail_pct)


@dataclass
class Timings:
    """Set-up samples and latencies as measured (`wall`) and divided by the
    slowness of a probe burst taken in the same process right after them
    (`scaled`).  Times with no such burst are kept as measured."""

    scaled: Series = field(default_factory=Series)
    wall: Series = field(default_factory=Series)
    #: one entry per call of `ops` with probes
    slowness: list[float] = field(default_factory=list)

    def setup(self, seconds: float, probes: list[float]) -> None:
        self.scaled.setups.append(seconds / calibrate.slowness(probes))
        self.wall.setups.append(seconds)

    def ops(self, latencies_ms: list[float], timed_s: float, probes: list[float] | None) -> None:
        slow = 1.0
        if probes is not None:
            slow = calibrate.slowness(probes)
            self.slowness.append(slow)
        self.scaled.latencies += [x / slow for x in latencies_ms]
        self.scaled.timed_s += timed_s / slow
        self.wall.latencies += latencies_ms
        self.wall.timed_s += timed_s

    def metrics(self, tail_pct: int) -> tuple[dict, dict]:
        wall = self.wall.metrics(tail_pct)
        wall["slowness"] = statistics.fmean(self.slowness)
        return self.scaled.metrics(tail_pct), wall


def run_sweep(name: str, seed: int, seconds: float, env: dict) -> dict:
    timings = Timings()
    res = {"attempted": 0, "failed": 0, "unexpected": []}
    for part in range(SEGMENTS):
        t_start = time.perf_counter()
        out = worker(["sweep", name, str(seed), str(part), repr(seconds / SEGMENTS)], ROOT, env)
        # interpreter start to the end of `import mathieuseries`, plus the warm-up
        timings.setup(out["t_imported"] - t_start + out["warmup_s"], out["setup_probes_s"])
        for latencies, round_s, probes in zip(out["latencies_ms"], out["rounds_s"],
                                              out["probes_s"]):
            timings.ops(latencies, round_s, probes)
        for key in res:
            res[key] += out[key]
    res["metrics"], wall = timings.metrics(wl.SWEEPS[name].tail_pct)
    res["raw"] = {"wall": wall, "setups_s": timings.wall.setups,
                  "latencies_ms": timings.wall.latencies, "slowness": timings.slowness,
                  "fingerprint": out["fingerprint"]}
    return res


def cli_command(argv: tuple[str, ...], cwd: Path, env: dict):
    """Runs one command through cli_child.py: (process, latency in ms with the
    probe burst taken out, the burst's probe times or None)."""
    t0 = time.perf_counter()
    proc = _run([sys.executable, str(BENCH / "cli_child.py"), *argv], cwd, env)
    latency_s = time.perf_counter() - t0
    lines = proc.stderr.splitlines()
    if not lines or not lines[-1].startswith(cli_child.MARK):
        return proc, latency_s * 1e3, None
    burst = json.loads(lines[-1][len(cli_child.MARK):])
    return proc, (latency_s - burst["burst_s"]) * 1e3, burst["probes_s"]


def run_cli_session(seed: int, seconds: float, env: dict) -> dict:
    """The README commands in shuffled rounds, each followed by a probe burst
    in its own process; a set-up probe process before the first command and
    after every CLI_PROBE_EVERY-th.

    A command lasts seconds, longer than the host's speed swings, so the burst
    after it says little about it; the mean of all the run's command bursts
    scales every command latency."""
    table = wl.load_oracles()
    rng = random.Random(seed)
    timings = Timings()
    rounds, latencies, probes_s = [], [], []
    res = {"attempted": 0, "failed": 0, "unexpected": []}

    def probe(cwd: Path) -> dict:
        t_start = time.perf_counter()
        out = worker(["probe"], cwd, env)
        timings.setup(out["t_imported"] - t_start, out["setup_probes_s"])
        return out

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cwd = Path(tmp)
        fingerprint = probe(cwd)["fingerprint"]
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for argv in rng.sample(wl.CLI_SESSION, len(wl.CLI_SESSION)):
                checks.clear_reports(cwd)
                proc, latency_ms, probes = cli_command(argv, cwd, env)
                latencies.append(latency_ms)
                probes_s += probes or []
                error = checks.check_cli(argv, proc.returncode, proc.stdout, cwd, table)
                if error is None and probes is None:
                    error = "no probe burst after the command"
                res["attempted"] += 1
                if error is not None:
                    res["failed"] += 1
                    res["unexpected"].append(f"{' '.join(argv)}: {error}")
                if res["attempted"] % CLI_PROBE_EVERY == 0:
                    probe(cwd)
            rounds.append(time.perf_counter() - r0)
            if not wl.keep_going(start, rounds, seconds, wl.CLI_MIN_ROUNDS):
                break
    timings.ops(latencies, sum(latencies) / 1e3, probes_s or None)
    res["metrics"], wall = timings.metrics(wl.CLI_TAIL_PCT)
    res["raw"] = {"wall": wall, "setups_s": timings.wall.setups, "latencies_ms": latencies,
                  "command_probes_s": probes_s, "slowness": timings.slowness,
                  "fingerprint": fingerprint}
    return res


def import_breakdown(env: dict) -> dict:
    """Self times from `python -X importtime -c "import mathieuseries.cli"`, by package."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import mathieuseries.cli"],
                    ROOT, env)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        sums = dict.fromkeys(("import.total_s", "import.scipy_s", "import.numpy_s",
                              "import.mathieuseries_s"), 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, module = (f.strip() for f in line[len("import time:"):].split("|"))
            seconds = int(self_us) / 1e6
            sums["import.total_s"] += seconds
            top = module.split(".")[0]
            if f"import.{top}_s" in sums:
                sums[f"import.{top}_s"] += seconds
        runs.append(sums)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def run_traced(name: str, seed: int, seconds: float, env: dict, per_layer: list) -> dict:
    spans = OUT / f"{name}-seed{seed}.spans.jsonl"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = worker(["trace", name, str(seed), repr(seconds), str(spans)], Path(tmp), env)
    passes = out["passes"]
    layers = {**import_breakdown(env)}
    repeats = True
    for m in per_layer:
        key = m["name"]
        if key in layers:
            continue
        values = [p.get(key, 0) for p in passes]
        if m["unit"] == "count":
            repeats &= len(set(values)) == 1
            layers[key] = values[0]
        else:
            layers[key] = statistics.fmean(values)
    return {"attempted": out["attempted"], "failed": out["failed"],
            "unexpected": out["unexpected"], "metrics": layers,
            "raw": {"passes": passes, "counts_repeat": repeats, "spans": spans.name,
                    "fingerprint": out["fingerprint"]}}


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    env = child_env()
    if trace:
        res = run_traced(name, seed, seconds, env, bench["per_layer"])
    elif name == "cli-session":
        res = run_cli_session(seed, seconds, env)
    else:
        res = run_sweep(name, seed, seconds, env)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    res["metrics"] = {m["name"]: {"value": res["metrics"].get(m["name"], 0), "unit": m["unit"]}
                      for m in specs}
    res["raw"]["fingerprint"].update(machine())
    raw = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps({"workload": name, "seed": seed, "seconds": seconds, **res}) + "\n")
    return res


def report(name: str, res: dict) -> None:
    fp = res["raw"]["fingerprint"]
    print(f"# {name}: attempted {res['attempted']}, failed {res['failed']}; "
          + ", ".join(f"{k} {v}" for k, v in fp.items()))
    wall = res["raw"].get("wall")
    if wall is not None:
        print(f"# times scaled to the reference host speed (probes next to the operations took "
              f"{wall['slowness']:.3f}x the reference time); as measured in brackets")
    for key, m in res["metrics"].items():
        measured = f"  ({wall[key]:.6g})" if wall and key != "peak_rss_mb" else ""
        print(f"{name}  {key:34s} {m['value']:>16.6g} {m['unit']}{measured}")
    for line in res["unexpected"]:
        print(f"unexpected failure in {name}: {line}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mathieuseries" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    OUT.mkdir(exist_ok=True)
    # bytecode caches are written once, so no timed start-up compiles source
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
                   check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace)
    try:
        res = run_workload(args.workload, args.seed, seconds, bool(args.trace), bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, res)
    print(json.dumps({"correct": not res["unexpected"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own run.py process, so peak memory stays per workload."""
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", repr(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

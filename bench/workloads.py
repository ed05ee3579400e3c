"""Inputs of the three workloads.

A sweep workload is a list of cases.  Each case names one evaluator, one
parameter tuple (gamma, alpha, mu, u), a tolerance, the fixed grid of
candidate t values that `oracle_table.json` covers, and how many points one
round draws from that grid.  Every round has the same make-up, so a run of
whole rounds always attempts the same mix of operations, whatever the seed.

Kept faults are operations on fixed inputs that fail on every run; one of
them joins every round, chosen by round number and not by the seed, so the
share of failed operations is exactly the same in every run.

This module imports nothing from mathieuseries: the oracle generator and the
worker both read it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

#: Reference values for every candidate point, written by oracles.py.
ORACLE_TABLE = Path(__file__).resolve().parent / "oracle_table.json"

EVAL_AUTO = "eval_auto"
EVAL_ALT = "eval_S_alt"


def _log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    # four significant digits keep the oracle keys short and exact
    return tuple(float(f"{lo * (hi / lo) ** (j / (n - 1)):.4g}") for j in range(n))


#: t = 0 plus the direct-summation regime [0.01, 50).
DIRECT_T = (0.0,) + _log_grid(0.01, 49.9, 40)
#: The Euler-Maclaurin regime below the asymptotic switch at t = 1000.
EM_T = _log_grid(50.0, 990.0, 24)
#: The whole large-t range, for the tuple that never takes the asymptotic branch.
EM_T_WIDE = _log_grid(50.0, 1e4, 24)
#: EM_T without the three points where the Euler-Maclaurin bracket of
#: (2, 2, 1.5, 0) misses the true sum by a few ulps (too little rounding slack).
#: Drawn by the seed, they would fail on some seeds only; CHANGES.md records them.
EM_T_ROUNDING_SAFE = tuple(t for t in EM_T if t not in (350.4, 670.7, 763.6))


@dataclass(frozen=True)
class Case:
    fn: str
    params: tuple[float, float, float, float]
    tol: float
    grid: tuple[float, ...]
    per_round: int = 1


@dataclass(frozen=True)
class Op:
    fn: str
    params: tuple[float, float, float, float]
    tol: float
    t: float
    fault: bool = False

    @property
    def key(self) -> str:
        return oracle_key(self.fn, self.params, self.t)


def oracle_key(fn: str, params, t: float) -> str:
    return f"{fn}|{','.join(repr(float(p)) for p in params)}|{float(t)!r}"


def keep_going(start: float, rounds: list[float], budget: float, min_rounds: int = 2) -> bool:
    """Whole rounds, at least `min_rounds`, until the budget is used, ending
    within half a round of it."""
    elapsed = time.perf_counter() - start
    return len(rounds) < min_rounds or elapsed + 0.5 * sum(rounds) / len(rounds) < budget


def load_oracles() -> dict:
    with open(ORACLE_TABLE) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Sweep:
    name: str
    cases: tuple[Case, ...]
    faults: tuple[Op, ...]
    #: untimed calls that fill the lazy caches before the timed phase
    warmup: tuple[Op, ...]
    #: percentile reported as op_ms_tail; at least ten samples lie beyond it
    tail_pct: int

    def round_ops(self, rng: random.Random, index: int) -> list[Op]:
        """One round: seeded draws from every case plus one kept fault, shuffled."""
        ops = [
            Op(c.fn, c.params, c.tol, t)
            for c in self.cases
            for t in rng.sample(c.grid, c.per_round)
        ]
        if self.faults:
            ops.append(self.faults[index % len(self.faults)])
        rng.shuffle(ops)
        return ops

    def trace_ops(self, rng: random.Random) -> list[Op]:
        """The same make-up as a round, on fixed points, so traced counts repeat exactly."""
        ops = [
            Op(c.fn, c.params, c.tol, c.grid[j * len(c.grid) // c.per_round])
            for c in self.cases
            for j in range(c.per_round)
        ]
        if self.faults:
            ops.append(self.faults[0])
        rng.shuffle(ops)
        return ops

    def oracle_points(self) -> list[Op]:
        pts = [Op(c.fn, c.params, c.tol, t) for c in self.cases for t in c.grid]
        return pts + list(self.faults) + list(self.warmup)


DIRECT_SWEEP = Sweep(
    name="direct-sweep",
    cases=(
        # Hermite-Hadamard family, cheap: per-call overhead sets op_ms_p50
        *(Case(EVAL_AUTO, (1.0, 2.0, mu, u), 1e-10, DIRECT_T, 8)
          for mu in (0.5, 1.0, 2.0) for u in (0.0, 0.5)),
        # Beta-integral tails (scipy betainc)
        Case(EVAL_AUTO, (0.0, 2.0, 1.0, 0.0), 1e-10, DIRECT_T, 8),
        Case(EVAL_AUTO, (1.0, 1.5, 1.0, 0.0), 1e-10, DIRECT_T, 4),
        Case(EVAL_AUTO, (0.5, 1.5, 1.0, 0.0), 1e-10, DIRECT_T, 8),
        # slow tails, millions of terms: they set ops_per_s, and the slowest
        # one alone holds the top 1.2% of operations, so the p99 lies in it
        Case(EVAL_AUTO, (0.0, 2.0, 0.0, 0.0), 1e-12, DIRECT_T, 1),
        Case(EVAL_AUTO, (1.0, 1.0, 1.5, 0.0), 1e-10, DIRECT_T, 1),
        # alternating series
        Case(EVAL_ALT, (0.0, 2.0, 0.0, 0.0), 1e-10, DIRECT_T, 4),
        Case(EVAL_ALT, (1.0, 2.0, 1.0, 0.3), 1e-10, DIRECT_T, 8),
    ),
    # delta = 0.5: eval_S_alt hits its 20M-term cap and raises ToleranceError
    faults=tuple(Op(EVAL_ALT, (1.0, 1.0, 0.5, 0.0), 1e-10, t, fault=True)
                 for t in (0.0, 1.0, 7.0, 49.0)),
    warmup=(Op(EVAL_AUTO, (1.0, 2.0, 1.0, 0.0), 1e-10, 1.0),
            Op(EVAL_ALT, (1.0, 2.0, 1.0, 0.3), 1e-10, 1.0)),
    tail_pct=99,
)

EM_SWEEP = Sweep(
    name="em-sweep",
    cases=(
        *(Case(EVAL_AUTO, p, 1e-10, EM_T, 3)
          for p in ((1.0, 2.0, 1.0, 0.0), (1.0, 2.0, 1.0, 0.5), (1.0, 2.0, 2.0, 0.0))),
        Case(EVAL_AUTO, (2.0, 2.0, 1.5, 0.0), 1e-10, EM_T_ROUNDING_SAFE, 3),
        Case(EVAL_AUTO, (0.0, 2.0, 1.0, 0.0), 1e-10, EM_T, 2),
        # smoothness r = 2: near t = 50-100 the EM bracket misses tol and is
        # discarded for direct summation
        Case(EVAL_AUTO, (1.0, 1.5, 1.0, 0.0), 1e-10, EM_T_WIDE, 2),
    ),
    # t >= 1000 in the integer regime takes the asymptotic branch, whose
    # bracket excludes the true sum
    faults=(
        Op(EVAL_AUTO, (1.0, 2.0, 1.0, 0.0), 1e-10, 1000.0, fault=True),
        Op(EVAL_AUTO, (0.0, 2.0, 1.0, 0.0), 1e-10, 1500.0, fault=True),
        Op(EVAL_AUTO, (2.0, 2.0, 1.5, 0.0), 1e-10, 1500.0, fault=True),
    ),
    warmup=(Op(EVAL_AUTO, (1.0, 2.0, 1.0, 0.0), 1e-10, 100.0),),
    tail_pct=90,
)

SWEEPS = {w.name: w for w in (DIRECT_SWEEP, EM_SWEEP)}

#: The nine CLI examples of the README, in README order.
CLI_SESSION = (
    ("eval", "--gamma", "1", "--alpha", "2", "--mu", "1", "--u", "0", "--t", "1"),
    ("eval", "--t-start", "0.01", "--t-stop", "100", "--t-count", "200", "--t-log",
     "--format", "csv"),
    ("eval-alt", "--gamma", "0", "--alpha", "2", "--mu", "0", "--u", "0", "--t", "1"),
    ("asym", "--gamma", "1", "--alpha", "2", "--mu", "1", "--u", "0.5", "--n-terms", "6"),
    ("constants", "--mu", "1", "--u", "0"),
    ("constants", "--inf", "--u", "0"),
    ("verify", "all"),
    ("verify", "monotone", "--b", "10"),
    ("hankel", "--kernel", "exp", "--m", "3", "--t", "1", "--p", "1"),
)
#: Three rounds are 27 commands; p62 is the highest percentile that leaves ten
#: of them beyond it, and it lies among the seven ~1.2-s commands for any
#: number of rounds from three on.
CLI_MIN_ROUNDS = 3
CLI_TAIL_PCT = 62

#: One `verify <suite>` per suite in the traced cli-session run.
VERIFY_SUITES = ("classical", "em", "asymptotic", "hermite", "hankel", "cm", "monotone")

#: The t grid of the README sweep, computed as the CLI documents it.
SWEEP_T = tuple(0.01 * (100.0 / 0.01) ** (i / 199) for i in range(200))

WORKLOADS = ("direct-sweep", "em-sweep", "cli-session")

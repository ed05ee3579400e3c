"""Reference values for every input the benchmark checks, from mpmath alone.

    python3 bench/oracles.py        # rewrites bench/oracle_table.json

Nothing here imports mathieuseries.  The plain series

    S(t) = sum_{k>=1} 2 (k+u)^gamma / ((k+u)^alpha + t^alpha)^(mu+1)

and its alternating twin are evaluated by, in this order of preference:

- t = 0: Hurwitz zeta, S(0) = 2 zeta(delta, 1+u);
- gamma=1, alpha=2, mu in {1, 2}: trigamma / tetragamma closed forms;
- gamma=0, alpha=2: Poisson closed forms in coth / csch;
- the alternating series from the plain one: S~(t, u) = S(t, u) - 2^(1-delta) S(t/2, u/2);
- otherwise mp.nsum(method="euler-maclaurin"), accepted only when a second
  evaluation agrees to 1e-20 relative, far inside any bracket radius the
  program can report (those are at least 4e-16 relative).  The second
  evaluation is the binomial Hurwitz-zeta series when t < (1+u)/2, else a direct
  sum of the first terms plus an Euler-Maclaurin tail at 50 digits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

DPS = 40
AGREE = mp.mpf("1e-20")


def _mp(*xs):
    return [mp.mpf(x) for x in xs]


def _term(g, a, mu, u, t):
    return lambda k: 2 * (k + u) ** g / ((k + u) ** a + t**a) ** (mu + 1)


def _accept(first, second, what: str):
    if abs(first - second) > AGREE * abs(first):
        raise RuntimeError(f"oracle methods disagree for {what}: {first} vs {second}")
    return first


def _hurwitz_series(g, a, mu, u, t):
    """2 sum_j binom(-mu-1, j) t^(a j) zeta(delta + a j, 1+u); converges for t < 1+u."""
    delta = a * (mu + 1) - g
    total, j = mp.mpf(0), 0
    while True:
        term = 2 * mp.binomial(-mu - 1, j) * t ** (a * j) * mp.zeta(delta + a * j, 1 + u)
        total += term
        if j > 5 and abs(term) < mp.mpf(10) ** (-mp.mp.dps - 5) * abs(total):
            return total
        j += 1


def _split_em(f, t):
    n = 2 * int(mp.ceil(t)) + 37
    with mp.workdps(50):
        return mp.fsum(f(k) for k in range(1, n + 1)) + mp.nsum(
            f, [n + 1, mp.inf], method="euler-maclaurin")


def s1_trigamma(t, u):
    """sum 2(k+u)/((k+u)^2+t^2)^2 = -Im psi'(1+u+it) / t."""
    return -mp.im(mp.psi(1, 1 + u + 1j * t)) / t


def s2_polygamma(t, u):
    """sum 2(k+u)/((k+u)^2+t^2)^3 from psi' and psi''."""
    z = 1 + u + 1j * t
    return mp.re(mp.psi(2, z)) / (4 * t**2) - mp.im(mp.psi(1, z)) / (4 * t**3)


def poisson_plain(t):
    """sum 2/(k^2+t^2) = pi coth(pi t)/t - 1/t^2."""
    return mp.pi * mp.coth(mp.pi * t) / t - 1 / t**2


def poisson_alt(t):
    """sum 2(-1)^(k-1)/(k^2+t^2) = 1/t^2 - pi csch(pi t)/t."""
    return 1 / t**2 - mp.pi * mp.csch(mp.pi * t) / t


def poisson_squared(t):
    """sum 2/(k^2+t^2)^2 = -A'(t)/t with A(t) = sum 1/(k^2+t^2) = (pi t coth(pi t) - 1)/(2 t^2)."""
    x = mp.pi * t
    dA = (mp.pi * mp.coth(x) - mp.pi * x * mp.csch(x) ** 2) / (2 * t**2) \
        - (x * mp.coth(x) - 1) / t**3
    return -dA / t


def plain(params, t):
    g, a, mu, u = _mp(*params)
    t = mp.mpf(t)
    if t == 0:
        return 2 * mp.zeta(a * (mu + 1) - g, 1 + u)
    if (g, a) == (1, 2) and mu == 1:
        return s1_trigamma(t, u)
    if (g, a) == (1, 2) and mu == 2:
        return s2_polygamma(t, u)
    if (g, a, u) == (0, 2, 0) and mu == 0:
        return poisson_plain(t)
    if (g, a, u) == (0, 2, 0) and mu == 1:
        return poisson_squared(t)
    f = _term(g, a, mu, u, t)
    first = mp.nsum(f, [1, mp.inf], method="euler-maclaurin")
    second = _hurwitz_series(g, a, mu, u, t) if 2 * t < 1 + u else _split_em(f, t)
    return _accept(first, second, f"S{params} at t={t}")


def alternating(params, t):
    g, a, mu, u = _mp(*params)
    t = mp.mpf(t)
    delta = a * (mu + 1) - g
    if t == 0:
        # sum (-1)^(k-1) (k+u)^-s = 2^-s (zeta(s, (1+u)/2) - zeta(s, (2+u)/2))
        return 2 * 2**-delta * (mp.zeta(delta, (1 + u) / 2) - mp.zeta(delta, (2 + u) / 2))
    if (g, a, u) == (0, 2, 0) and mu == 0:
        return poisson_alt(t)
    if (g, a) == (1, 2) and mu in (1, 2):
        return plain(params, t) - 2 ** (1 - delta) * plain((g, a, mu, u / 2), t / 2)
    f = _term(g, a, mu, u, t)
    pair = lambda j: f(2 * j - 1) - f(2 * j)  # noqa: E731  smooth in j, unlike (-1)^k
    first = mp.nsum(pair, [1, mp.inf], method="euler-maclaurin")
    return _accept(first, _split_em(pair, t), f"S~{params} at t={t}")


def asym_coefficients(params, n_terms):
    """Large-t expansion of S: Euler-Maclaurin on sum F(eps (k+u)), F(x) = 2 x^g (1+x^a)^(-mu-1).

    Power delta-1 carries int_0^inf F; power a(k+mu+1) carries
    (-1)^j B_{j+1}(-u) F^(j)(0) / (j+1)! with j = g + a k, where
    F^(j)(0) / j! = 2 binom(-mu-1, k).
    """
    g, a, mu, u = _mp(*params)
    lead = mp.quad(lambda x: 2 * x**g * (1 + x**a) ** (-mu - 1), [0, 1, mp.inf])
    out = [(a * (mu + 1) - g - 1, lead)]
    for k in range(n_terms):
        j = int(g + a * k)
        c = (-1) ** j * 2 * mp.binomial(-mu - 1, k) * mp.bernpoly(j + 1, -u) / (j + 1)
        out.append((a * (k + mu + 1), c))
    return out


def _s(x) -> str:
    return mp.nstr(x, 34, min_fixed=1, max_fixed=0)


def build() -> dict:
    mp.mp.dps = DPS
    values = {}
    for sweep in wl.SWEEPS.values():
        for op in sweep.oracle_points():
            if op.key not in values:
                fn = plain if op.fn == wl.EVAL_AUTO else alternating
                values[op.key] = _s(fn(op.params, op.t))
    classical = (1.0, 2.0, 1.0, 0.0)
    zeta3 = mp.zeta(3)
    cli = {
        "eval_t1": _s(plain(classical, 1.0)),
        "sweep": [_s(plain(classical, t)) for t in wl.SWEEP_T],
        "sweep_t": [repr(t) for t in wl.SWEEP_T],
        "eval_alt_t1": _s(alternating((0.0, 2.0, 0.0, 0.0), 1.0)),
        "asym": [[repr(float(p)), _s(c)] for p, c in asym_coefficients((1.0, 2.0, 1.0, 0.5), 6)],
        "constants_mu1": {"m": _s(mp.mpf(1) / 6), "M": _s(1 / (2 * zeta3))},
        "constants_inf": {"m_inf": _s(mp.mpf(1) / 6), "M_inf": "1"},
        "hankel_exp": _s(1 / mp.sqrt(2 * mp.pi)),
    }
    return {"dps": DPS, "values": values, "cli": cli}


if __name__ == "__main__":
    table = build()
    wl.ORACLE_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['values'])} sweep values and the CLI references "
          f"to {wl.ORACLE_TABLE}")

"""Sharp constants for two-sided bounds of the form

    C / (t^b1 + a)^(d1/b1)  <=  S(t)  <=  C / (t^b1 + b)^(d1/b1).

Given a series S with S(t) = C t^(-d1) - A t^(-d1-b1) + o(...), the profile
f(t) = (C/S(t))^(b1/d1) - t^b1 has f(+inf) = b1 A / (d1 C), and the optimal
shifts are m = inf f and M = sup f.  This module computes those extrema by a
compactified grid plus golden-section refinement, provides the psi-profile for
series built from a convex kernel, and the limiting constants obtained from
the theta-type series phi_u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mathieu, polyfun
from .errors import ParameterError, SearchBudgetError, WitnessNotFoundError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------------------
# convex kernels and the series S(u, y) = sum 2 (k+u) g((k+u)^2 + y)
# --------------------------------------------------------------------------

class ConvexKernel:
    """A positive, convex, decreasing kernel on (0, inf) with integrable tail.

    Subclasses provide the kernel g, which must accept a float or a numpy
    array, the tail integral F(t) = int_t^inf g, and its inverse.
    """

    def g(self, x):
        raise NotImplementedError

    def tail(self, t: float) -> float:
        raise NotImplementedError

    def tail_inverse(self, s: float) -> float:
        raise NotImplementedError


class PowerKernel(ConvexKernel):
    """g(x) = x^(-mu-1); tail F(t) = 1/(mu t^mu) with closed-form inverse,
    and F(t) = inf for t <= 0, where the integral diverges."""

    def __init__(self, mu: float):
        if mu <= 0:
            raise ParameterError("mu must be positive")
        self.mu = mu

    def g(self, x):
        return x ** (-self.mu - 1.0)

    def tail(self, t: float) -> float:
        return 1.0 / (self.mu * t**self.mu) if t > 0.0 else math.inf

    def tail_inverse(self, s: float) -> float:
        return (1.0 / (self.mu * s)) ** (1.0 / self.mu)


class ExpKernel(ConvexKernel):
    """g(x) = exp(-lam x); tail F(t) = exp(-lam t)/lam with closed-form inverse."""

    def __init__(self, lam: float):
        if lam <= 0:
            raise ParameterError("lam must be positive")
        self.lam = lam

    def g(self, x):
        return np.exp(-self.lam * x)

    def tail(self, t: float) -> float:
        return math.exp(-self.lam * t) / self.lam

    def tail_inverse(self, s: float) -> float:
        return -math.log(self.lam * s) / self.lam


def convex_series(kernel: ConvexKernel, u: float, y: float, tol: float = 1e-12) -> mathieu.EvalResult:
    """sum_{k>=1} 2 (k+u) g((k+u)^2 + y) with a rigorous Hermite-Hadamard bracket.

    Needs u >= -3/2 and (1+u)^2 + y > 0: then |k+u| >= |1+u| for every k, so
    every kernel argument is positive (the first term is negative for u < -1).
    The tail bracket starts at n = 16, where n + u > 0 and its offsets are
    positive too.
    """
    if u < -1.5 or (1.0 + u) ** 2 + y <= 0.0:
        raise ParameterError("need u >= -3/2 and (1+u)^2 + y > 0")

    def terms(k):
        w = k + u
        return 2.0 * w * kernel.g(w * w + y)

    return mathieu.bracketed_sum(
        terms, lambda n: mathieu.hermite_hadamard(kernel.tail, kernel.g, n + u, y), 16, tol)


def psi_uy(kernel: ConvexKernel, u: float, y: float, tol: float = 1e-12) -> float:
    """psi(u, y) = F^(-1)(S(u, y)) - y for the convex-kernel series."""
    s = convex_series(kernel, u, y, tol).value
    return kernel.tail_inverse(s) - y


# --------------------------------------------------------------------------
# framework and extremization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpFramework:
    """A series handle plus the constants (C, d1, A, b1) of its large-t behavior."""

    series: Callable[[float, float], mathieu.EvalResult]  # (t, tol) -> bracketed value
    C: float
    delta1: float
    A: float
    beta1: float

    @classmethod
    def for_s_mu(cls, mu: float, u: float) -> "SharpFramework":
        """Framework for the gamma=1, alpha=2 family: C=1/mu, d1=2mu, A=u^2+u+1/6, b1=2."""
        if mu <= 0:
            raise ParameterError("mu must be positive")
        if u < 0:
            raise ParameterError("u must be nonnegative")
        params = mathieu.MathieuParams(1.0, 2.0, mu, u)

        def series(t: float, tol: float) -> mathieu.EvalResult:
            return mathieu.eval_S(params, t, tol)

        return cls(series=series, C=1.0 / mu, delta1=2.0 * mu,
                   A=u * u + u + 1.0 / 6.0, beta1=2.0)

    @classmethod
    def for_gamma0(cls, alpha: float, mu: float, u: float) -> "SharpFramework":
        """Framework for gamma=0: C=(2/alpha)B(1/alpha, mu+1-1/alpha), d1=alpha(mu+1)-1, A=1+2u, b1=1."""
        params = mathieu.MathieuParams(0.0, alpha, mu, u)
        params.require_delta(1.0)
        C = 2.0 / alpha * polyfun.beta_fn(1.0 / alpha, mu + 1.0 - 1.0 / alpha)

        def series(t: float, tol: float) -> mathieu.EvalResult:
            return mathieu.eval_S(params, t, tol)

        return cls(series=series, C=C, delta1=alpha * (mu + 1.0) - 1.0,
                   A=1.0 + 2.0 * u, beta1=1.0)


@dataclass(frozen=True)
class SharpConstants:
    """Extremal shifts of a double inequality: m = inf f, M = sup f."""

    m: float
    M: float
    f_inf: float
    t_at_m: float
    t_at_M: float
    certified: bool
    refinement_delta: float = 0.0


@dataclass(frozen=True)
class SearchConfig:
    grid_points: int = 2048
    coarse_tol: float = 1e-7
    fine_tol: float = 1e-11
    refine_steps: int = 80
    eval_budget: int = 100_000
    s_max: float = 0.99  # compactified coordinate cap: t = s/(1-s) <= 99


def f_profile(fw: SharpFramework, t: float, tol: float = 1e-11) -> float:
    """f(t) = (C / S(t))^(b1/d1) - t^b1."""
    s = fw.series(t, tol).value
    if s <= 0:
        raise ParameterError("the series must be positive")
    return (fw.C / s) ** (fw.beta1 / fw.delta1) - t**fw.beta1


def f_infinity(fw: SharpFramework) -> float:
    """f(+inf) = b1 A / (d1 C), evaluated from the closed form (never by large t)."""
    return fw.beta1 * fw.A / (fw.delta1 * fw.C)


class _BudgetedProfile:
    """Profile evaluation in the compactified coordinate with an eval budget.

    The series tolerance is scaled so the induced profile error stays near the
    requested one: d(f) ~ t^b1 (b1/d1) dS/S, floored at what float64 direct
    summation can deliver.
    """

    def __init__(self, fw: SharpFramework, budget: int):
        self.fw = fw
        self.budget = budget
        self.calls = 0

    def series_tol(self, t: float, f_tol: float) -> float:
        fw = self.fw
        scaled = f_tol * fw.delta1 * fw.C / (2.0 * fw.beta1 * (1.0 + t) ** (fw.delta1 + fw.beta1))
        floor = 1e-12 * fw.C / (1.0 + t) ** fw.delta1
        return max(scaled, floor)

    def __call__(self, s: float, f_tol: float) -> float:
        self.calls += 1
        if self.calls > self.budget:
            raise SearchBudgetError(f"profile evaluation budget {self.budget} exhausted")
        t = s / (1.0 - s)
        return f_profile(self.fw, t, self.series_tol(t, f_tol))


def _golden_refine(fn, a: float, b: float, tol_x: float, steps: int, minimize: bool):
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    sgn = 1.0 if minimize else -1.0
    for _ in range(steps):
        if b - a <= tol_x:
            break
        if sgn * f1 <= sgn * f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    if sgn * f1 <= sgn * f2:
        return x1, f1
    return x2, f2


def compute_mM(fw: SharpFramework, search: SearchConfig | None = None) -> SharpConstants:
    """Extremize the profile f over [0, +inf] via the compactified coordinate
    s = t/(1+t): coarse grid, golden-section refinement around every interior
    candidate, and the exact closed form at the t = +inf endpoint.

    The result is a numerical extremum (certified=False) with the refinement
    movement reported in `refinement_delta`.
    """
    cfg = search or SearchConfig()
    prof = _BudgetedProfile(fw, cfg.eval_budget)
    n = cfg.grid_points
    svals = [cfg.s_max * i / (n - 1) for i in range(n)]
    fvals = [prof(s, cfg.coarse_tol) for s in svals]

    f_inf = f_infinity(fw)
    # coarse values participate directly; interior candidates get refined
    best_min = min(zip(fvals, svals))
    best_max = max(zip(fvals, svals))
    deltas = [0.0]

    def refine(i: int, minimize: bool):
        nonlocal best_min, best_max
        a = svals[max(i - 1, 0)]
        b = svals[min(i + 1, n - 1)]
        fn = lambda s: prof(s, cfg.fine_tol)
        s_star, f_star = _golden_refine(fn, a, b, 1e-12, cfg.refine_steps, minimize)
        deltas.append(abs(f_star - fvals[i]))
        if minimize and f_star < best_min[0]:
            best_min = (f_star, s_star)
        if not minimize and f_star > best_max[0]:
            best_max = (f_star, s_star)

    # the right boundary is owned by the exact f(+inf) endpoint below
    min_cands = [
        i for i in range(n - 1)
        if fvals[i] <= (fvals[i - 1] if i > 0 else math.inf) and fvals[i] <= fvals[i + 1]
    ]
    max_cands = [
        i for i in range(n - 1)
        if fvals[i] >= (fvals[i - 1] if i > 0 else -math.inf) and fvals[i] >= fvals[i + 1]
    ]
    for i in sorted(min_cands, key=fvals.__getitem__)[:6]:
        refine(i, minimize=True)
    for i in sorted(max_cands, key=fvals.__getitem__, reverse=True)[:6]:
        refine(i, minimize=False)

    m, s_m = best_min
    M, s_M = best_max
    t_at_m = s_m / (1.0 - s_m)
    t_at_M = s_M / (1.0 - s_M)
    if f_inf <= m:
        m, t_at_m = f_inf, math.inf
    if f_inf >= M:
        M, t_at_M = f_inf, math.inf
    return SharpConstants(
        m=m, M=M, f_inf=f_inf, t_at_m=t_at_m, t_at_M=t_at_M,
        certified=False, refinement_delta=max(deltas),
    )


# --------------------------------------------------------------------------
# limiting constants from the theta-type series
# --------------------------------------------------------------------------

def m_infinity(u: float, x_lo: float = 1e-6, x_hi: float = 200.0, n_grid: int = 400) -> float:
    """inf over x > 0 of -log(phi_u(x))/x.

    The endpoint limits are u^2+u+1/6 at x -> 0+ and (1+u)^2 at x -> +inf; the
    infimum is the smaller of the refined interior minimum and the x -> 0+
    limit (the x -> +inf limit is never smaller).
    """
    if u < 0:
        raise ParameterError("u must be nonnegative")
    limit0 = u * u + u + 1.0 / 6.0
    h = lambda x: -mathieu.log_phi_u(u, x) / x
    xs = [x_lo * (x_hi / x_lo) ** (i / (n_grid - 1)) for i in range(n_grid)]
    vals = [h(x) for x in xs]
    i = min(range(n_grid), key=vals.__getitem__)
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_grid - 1)]
    x_star, f_star = _golden_refine(h, a, b, 1e-12 * (1.0 + b), 100, minimize=True)
    return min(f_star, limit0)


def M_infinity(u: float) -> float:
    """sup over x > 0 of -log(phi_u(x))/x, attained in the limit: exactly (1+u)^2.

    The limit x -> +inf is approached from below like
    (1+u)^2 - log(2x(1+u))/x, so the ratio is within 1e-3 of it only
    from x ~ 1e4 on.
    """
    if u < 0:
        raise ParameterError("u must be nonnegative")
    return (1.0 + u) ** 2


# --------------------------------------------------------------------------
# impossibility of off-exponent double bounds
# --------------------------------------------------------------------------

def impossibility_demo(
    fw: SharpFramework,
    beta: float,
    bound_side: str,
    shift: float,
    t_start: float = 0.5,
    scan_budget: int = 120,
    tol: float = 1e-11,
) -> float:
    """Find a witness t where the candidate bound with exponent beta != b1 fails.

    bound_side 'upper' tests S(t) <= C (t^beta + shift)^(-d1/beta) (impossible
    for beta < b1 with shift > 0); 'lower' tests the reverse inequality
    (impossible for beta > b1).  Returns the witness t, or raises
    WitnessNotFoundError after the scan budget.
    """
    if beta == fw.beta1:
        raise ParameterError("beta must differ from the sharp exponent beta1")
    if bound_side not in ("upper", "lower"):
        raise ParameterError("bound_side must be 'upper' or 'lower'")
    t = t_start
    for _ in range(scan_budget):
        candidate = fw.C * (t**beta + shift) ** (-fw.delta1 / beta)
        res = fw.series(t, tol)
        if bound_side == "upper" and res.lower > candidate:
            return t
        if bound_side == "lower" and res.upper < candidate:
            return t
        t *= 1.35
    raise WitnessNotFoundError(
        f"no witness within the scan budget (last t = {t:.3g}); "
        "the candidate bound held on every sampled point"
    )

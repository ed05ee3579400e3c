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
from collections import namedtuple

from . import mathieu, polyfun
from .errors import ParameterError
from .mathieu import ConvexKernel, ExpKernel, PowerKernel  # noqa: F401 (re-exported)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: `compute_mM` evaluates the profile on _GRID_POINTS points of the
#: compactified coordinate s = t/(1+t) in [0, _S_MAX] (t <= 99), each to
#: _COARSE_TOL, then refines the 6 best interior candidates of either kind
#: by at most _REFINE_STEPS golden-section steps, each point to _FINE_TOL.
_GRID_POINTS = 2048
_S_MAX = 0.99
_COARSE_TOL = 1e-7
_REFINE_STEPS = 80
_FINE_TOL = 1e-11


# --------------------------------------------------------------------------
# the convex-kernel series S(u, y) = sum 2 (k+u) g((k+u)^2 + y)
# --------------------------------------------------------------------------

def convex_series(kernel: ConvexKernel, u: float, y: float, tol: float = 1e-12) -> mathieu.EvalResult:
    """sum_{k>=1} 2 (k+u) g((k+u)^2 + y) with a rigorous Hermite-Hadamard bracket.

    Needs u >= -3/2 and (1+u)^2 + y > 0: then |k+u| >= |1+u| for every k, so
    every kernel argument is positive (the first term is negative for u < -1).
    The tail bracket starts at n = 16, where n + u > 0 and its offsets are
    positive too.
    """
    if u < -1.5 or (1.0 + u) ** 2 + y <= 0.0:
        raise ParameterError("need u >= -3/2 and (1+u)^2 + y > 0")
    return mathieu.bracketed_sum(kernel, u, y, tol)


def psi_uy(kernel: ConvexKernel, u: float, y: float) -> float:
    """psi(u, y) = F^(-1)(S(u, y)) - y for the convex-kernel series."""
    s = convex_series(kernel, u, y, 1e-12).value
    return kernel.tail_inverse(s) - y


# --------------------------------------------------------------------------
# framework and extremization
# --------------------------------------------------------------------------

class SharpFramework(namedtuple("SharpFramework", "series C delta1 A beta1")):
    """A series handle, (t, tol) -> bracketed value, plus the constants
    (C, d1, A, b1) of its large-t behavior."""

    __slots__ = ()

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


class SharpConstants(namedtuple("SharpConstants", "m M f_inf t_at_m t_at_M certified")):
    """Extremal shifts of a double inequality: m = inf f, M = sup f."""

    __slots__ = ()


def f_profile(fw: SharpFramework, t: float, tol: float = 1e-11) -> float:
    """f(t) = (C / S(t))^(b1/d1) - t^b1."""
    s = fw.series(t, tol).value
    if s <= 0:
        raise ParameterError("the series must be positive")
    return (fw.C / s) ** (fw.beta1 / fw.delta1) - t**fw.beta1


def f_infinity(fw: SharpFramework) -> float:
    """f(+inf) = b1 A / (d1 C), evaluated from the closed form (never by large t)."""
    return fw.beta1 * fw.A / (fw.delta1 * fw.C)


def _series_tol(fw: SharpFramework, t: float, f_tol: float) -> float:
    """The series tolerance at t that keeps f's error near f_tol, as d(f) ~
    t^b1 (b1/d1) dS/S, floored at what float64 direct summation delivers."""
    scaled = f_tol * fw.delta1 * fw.C / (2.0 * fw.beta1 * (1.0 + t) ** (fw.delta1 + fw.beta1))
    return max(scaled, 1e-12 * fw.C / (1.0 + t) ** fw.delta1)


def _profile(fw: SharpFramework, s: float, f_tol: float) -> float:
    """f at t = s/(1-s), the compactified coordinate s."""
    t = s / (1.0 - s)
    return f_profile(fw, t, _series_tol(fw, t, f_tol))


def _rounding(fw: SharpFramework, t: float) -> float:
    """How far f(t) at _FINE_TOL may lie from the exact profile: 4u max(1, t^b1)
    from the difference (C/S)^(b1/d1) - t^b1, plus the series radius's share
    (b1/d1) (C/S)^(b1/d1) err/S."""
    res = fw.series(t, _series_tol(fw, t, _FINE_TOL))
    share = fw.beta1 / fw.delta1 * (fw.C / res.value) ** (fw.beta1 / fw.delta1)
    return 4.0 * 2.0**-53 * max(1.0, t**fw.beta1) + share * max(res.err_lo, res.err_hi) / res.value


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


def compute_mM(fw: SharpFramework) -> SharpConstants:
    """Extremize the profile f over [0, +inf] via the compactified coordinate
    s = t/(1+t): coarse grid, golden-section refinement around the best
    interior candidates, and the exact closed form at the t = +inf endpoint
    unless a finite-t extremum beats it by more than `_rounding` there.

    The result is a numerical extremum (certified=False).
    """
    n = _GRID_POINTS
    svals = [_S_MAX * i / (n - 1) for i in range(n)]
    fvals = [_profile(fw, s, _COARSE_TOL) for s in svals]

    f_inf = f_infinity(fw)
    # coarse values participate directly; interior candidates get refined
    best_min = min(zip(fvals, svals))
    best_max = max(zip(fvals, svals))

    def refine(i: int, minimize: bool):
        nonlocal best_min, best_max
        a = svals[max(i - 1, 0)]
        b = svals[min(i + 1, n - 1)]
        fn = lambda s: _profile(fw, s, _FINE_TOL)
        s_star, f_star = _golden_refine(fn, a, b, 1e-12, _REFINE_STEPS, minimize)
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

    # an extremum from the grid was taken at _COARSE_TOL: evaluate both again
    # at _FINE_TOL (a refined one gives the same bits)
    (_, s_m), (_, s_M) = best_min, best_max
    m, M = _profile(fw, s_m, _FINE_TOL), _profile(fw, s_M, _FINE_TOL)
    t_at_m = s_m / (1.0 - s_m)
    t_at_M = s_M / (1.0 - s_M)
    if f_inf <= m + _rounding(fw, t_at_m):
        m, t_at_m = f_inf, math.inf
    if f_inf >= M - _rounding(fw, t_at_M):
        M, t_at_M = f_inf, math.inf
    return SharpConstants(
        m=m, M=M, f_inf=f_inf, t_at_m=t_at_m, t_at_M=t_at_M,
        certified=False,
    )


# --------------------------------------------------------------------------
# limiting constants from the theta-type series
# --------------------------------------------------------------------------

def m_infinity(u: float) -> float:
    """inf over x > 0 of -log(phi_u(x))/x: the least of 400 log-spaced
    points in [1e-6, 200], refined by golden section.

    The endpoint limits are u^2+u+1/6 at x -> 0+ and (1+u)^2 at x -> +inf; the
    infimum is the smaller of the refined interior minimum and the x -> 0+
    limit (the x -> +inf limit is never smaller).
    """
    if u < 0:
        raise ParameterError("u must be nonnegative")
    limit0 = u * u + u + 1.0 / 6.0
    h = lambda x: -mathieu.log_phi_u(u, x) / x
    x_lo, x_hi, n_grid = 1e-6, 200.0, 400
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

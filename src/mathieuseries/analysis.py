"""Grid-based verifiers for the inequalities and identities satisfied by the
generalized Mathieu series, Bessel/Hankel numerical identities, sign analysis
of the auxiliary kernel g_{p,u}, monotonicity through H_{nu,b}, and
finite-order complete-monotonicity probes.

Strictness discipline: an inequality counts as verified only when its margin
exceeds the combined error brackets of both operands; near-ties are recorded
as 'inconclusive' entries (they are violations of the verification goal, never
passes).
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import mathieu, polyfun, sharp
from .errors import ParameterError


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------

class GridSpec(namedtuple("GridSpec", "points tolerance", defaults=(1e-9,))):
    """Evaluation grid: points and the margin tolerance."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.points:
            raise ValueError("grid needs at least one point")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("grid points must be strictly increasing")
        return self

    # namedtuple's _make, and _replace through it, would skip the checks of __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(lo * (hi / lo) ** (i / (n - 1)) for i in range(n))


class Violation(namedtuple("Violation", "params point lhs rhs margin kind",
                           defaults=("violation",))):
    """A failed check; `kind` is "violation", or "inconclusive" for a near-tie."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class VerificationReport:
    def __init__(self, check_name: str) -> None:
        self.check_name = check_name
        self.total = 0
        self.violations: list[Violation] = []
        self.notes: dict = {}

    @property
    def passed(self) -> bool:
        return not self.violations

    def merge(self, other: "VerificationReport") -> None:
        """Count another report's checks and violations in this one."""
        self.total += other.total
        self.violations.extend(other.violations)

    def record(self, ok: bool, *, params: dict, point, lhs: float, rhs: float,
               margin: float, inconclusive: bool = False) -> None:
        self.total += 1
        if not ok:
            kind = "inconclusive" if inconclusive else "violation"
            self.violations.append(Violation(params, point, lhs, rhs, margin, kind))

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "total": self.total,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "notes": self.notes,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def _strict_less(report: VerificationReport, lhs: float, lhs_err: float,
                 rhs: float, rhs_err: float, *, params: dict, point) -> None:
    """Record lhs < rhs with bracket-aware strictness."""
    margin = rhs - lhs
    combined = lhs_err + rhs_err
    if margin > combined:
        report.record(True, params=params, point=point, lhs=lhs, rhs=rhs, margin=margin)
    elif margin <= 0:
        report.record(False, params=params, point=point, lhs=lhs, rhs=rhs, margin=margin)
    else:
        report.record(False, params=params, point=point, lhs=lhs, rhs=rhs,
                      margin=margin, inconclusive=True)


# --------------------------------------------------------------------------
# auxiliary kernels
# --------------------------------------------------------------------------

_SERIES_SWITCH = 0.25
_N_AUX_TERMS = 24


def _bernoulli_over_factorial(n: int) -> float:
    return float(polyfun.bernoulli_number(n)) / math.factorial(n)


@lru_cache(maxsize=128)
def _h_series_coeffs(u: float) -> tuple[float, ...]:
    """Maclaurin coefficients of h_u(x) = e^{-ux} x/(e^x - 1)."""
    out = []
    for m in range(_N_AUX_TERMS):
        out.append(math.fsum(
            (-u) ** i / math.factorial(i) * _bernoulli_over_factorial(m - i)
            for i in range(m + 1)
        ))
    return tuple(out)


def _series_or_closed(x, coeffs: Sequence[float], closed: Callable):
    """sum_m coeffs[m] x^m below _SERIES_SWITCH, closed(x) at and beyond it,
    for x >= 0 a float or an array (returned in kind)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ParameterError("x must be nonnegative")
    out = np.empty(x.shape)
    near = x < _SERIES_SWITCH
    out[near] = np.polynomial.polynomial.polyval(x[near], coeffs)
    out[~near] = closed(x[~near])
    return out if out.ndim else float(out)


def h_u(u: float, x):
    """h_u(x) = e^{-ux} x / (e^x - 1), continued by h_u(0) = 1; x a float or an array."""
    return _series_or_closed(x, _h_series_coeffs(u),
                             lambda x: np.exp(-u * x) * x / np.expm1(x))


def _h_prime_closed(u: float, x: np.ndarray) -> np.ndarray:
    em1 = np.expm1(x)
    return np.exp(-u * x) * ((1.0 - u * x) / em1 - x * (em1 + 1.0) / (em1 * em1))


def h_u_prime(u: float, x):
    """d/dx h_u(x), by the Maclaurin series near 0 and the closed form beyond."""
    c = _h_series_coeffs(u)
    return _series_or_closed(x, [m * c[m] for m in range(1, len(c))],
                             lambda x: _h_prime_closed(u, x))


def _g_series_coeffs(p: float, u: float) -> list[float]:
    """Maclaurin coefficients of g_{p,u}: (-p)^(m+1)/(m+1)! - those of h_u/x."""
    h = _h_series_coeffs(u)
    return [(-p) ** (m + 1) / math.factorial(m + 1) - h[m + 1] for m in range(_N_AUX_TERMS - 1)]


def g_pu(p: float, u: float, x):
    """g_{p,u}(x) = e^{-px}/x - e^{-ux}/(e^x - 1), continued by u + 1/2 - p at 0."""
    return _series_or_closed(x, _g_series_coeffs(p, u),
                             lambda x: np.exp(-p * x) / x - np.exp(-u * x) / np.expm1(x))


# --------------------------------------------------------------------------
# Bessel function j_lambda and the Hankel transform
# --------------------------------------------------------------------------

def _bessel_series(lam: float, x):
    """j_lam(x) = 2^-lam sum_k (-x^2/4)^k / (k! Gamma(k+lam+1)), with
    compensated (Neumaier) summation; x a float or an array."""
    first = math.exp(-lam * math.log(2.0) - math.lgamma(lam + 1.0))
    z = -0.25 * np.square(x)
    term = np.full(z.shape, first)
    stop = 1e-19 * (1.0 + first)
    total, comp = term, np.zeros(z.shape)
    for k in range(1, 402):
        term = term * z / (k * (k + lam))
        s = total + term
        comp = comp + np.where(np.abs(total) >= np.abs(term), (total - s) + term, (term - s) + total)
        total = s
        if not np.any(np.abs(term) >= stop):
            break
    return total + comp


def _bessel_asym(lam: float, x):
    """Large-argument form of J_lam(x)/x^lam: Hankel's expansion, each x
    summed up to its smallest term (at most 24 terms); x a float or an array."""
    x = np.asarray(x, dtype=float)
    mu4 = 4.0 * lam * lam
    p, q = np.ones(x.shape), np.zeros(x.shape)
    a = np.ones(x.shape)
    prev = np.full(x.shape, math.inf)
    live = np.ones(x.shape, dtype=bool)
    for k in range(24):
        a = a * ((mu4 - (2 * k + 1) ** 2) / (8.0 * (k + 1) * x))
        mag = np.abs(a)
        live &= mag <= prev
        prev = mag
        if k % 2 == 0:
            q = q + np.where(live, a * (-1.0) ** (k // 2), 0.0)
        else:
            p = p + np.where(live, a * (-1.0) ** ((k + 1) // 2), 0.0)
    omega = x - (0.5 * lam + 0.25) * math.pi
    val = np.sqrt(2.0 / (math.pi * x)) * (np.cos(omega) * p - np.sin(omega) * q)
    return val / x**lam


def bessel_series_cutoff(lam: float) -> float:
    """Switch point between the power series and the large-argument form."""
    return max(12.0, lam * lam + 6.0)


def bessel_j(lam: float, x):
    """Normalized Bessel function j_lam(x) = J_lam(x)/x^lam (entire, even in x),
    for x a float or an array (returned in kind).

    Power series up to the switch point, large-argument expansion beyond;
    intended for lam > -1 of moderate size (the transforms here use
    lam = m/2 - 1 with small m).
    """
    if lam <= -1:
        raise ParameterError("lam must exceed -1")
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty(x.shape)
    near = x <= bessel_series_cutoff(lam)
    out[near] = _bessel_series(lam, x[near])
    out[~near] = _bessel_asym(lam, x[~near])
    return out if out.ndim else float(out)


def hankel_cutoff(power: float, decay: float) -> float:
    """Truncation point for a kernel bounded by x^power e^(-decay x): from 40,
    grown by factors of 1.5 until that envelope is at most 1e-20."""
    cutoff = 40.0
    while cutoff**power * math.exp(-decay * cutoff) > 1e-20:
        cutoff *= 1.5
    return cutoff


#: Most Hankel panels of width pi/(2t) up to the cutoff: 2^20 nodes in one
#: array pass (at cutoff 60, t up to about 1,700).
_MAX_PANELS = 2**16


def hankel_transform(
    h: Callable[[np.ndarray], np.ndarray],
    m: float,
    t: float,
    cutoff: float,
) -> float:
    """F_m(h)(t) = int_0^inf h(x) x^(m-1) j_{m/2-1}(t x) dx.

    A quadrature, not a bracket: `polyfun.gauss_legendre` with 16 nodes per
    panel, every node evaluated in one array pass (h maps an array of nodes
    to an array of values).  Panels of width w = min(pi/(2t), 1) cover
    [w, cutoff]; the first one, [0, w], where the integrand may carry an
    algebraic x^(m-2) factor, is halved toward 0 (panels [w/2^(k+1), w/2^k]
    and [0, w/2^L]), so that every panel but the innermost sees a
    singularity at least its own width away.  The integral is truncated at
    `cutoff` (`hankel_cutoff` gives one from an envelope of the kernel).
    More than 2^16 panels up to the cutoff raise ParameterError.
    """
    if m <= 0:
        raise ParameterError("m must be positive")
    if not 0.0 < t < math.inf:
        raise ParameterError("t must be positive and finite")
    lam = 0.5 * m - 1.0
    width = min(0.5 * math.pi / t, 1.0)
    n_panels = max(1, int(math.ceil(cutoff / width)))
    if n_panels > _MAX_PANELS:
        raise ParameterError(f"t = {t:g} needs {n_panels} panels up to the cutoff "
                             f"{cutoff:g}; at most {_MAX_PANELS} are allowed")
    width = cutoff / n_panels

    def integrand(x: np.ndarray) -> np.ndarray:
        return h(x) * x ** (m - 1.0) * bessel_j(lam, t * x)

    # for an integrand no worse than x^(m-2) the innermost panel holds at most
    # 2^-60 of the integral over [0, w], as (2^-L)^(m-1) <= 2^-60; at most 1000
    # halvings keep w/2^L a normal float
    levels = 1000 if m <= 1.0 else min(1000, math.ceil(60.0 / (m - 1.0)))
    graded = [math.ldexp(width, -k) for k in range(1, levels + 1)]
    lefts = graded + [0.0] + [i * width for i in range(1, n_panels)]
    widths = graded + [graded[-1]] + [width] * (n_panels - 1)
    return polyfun.gauss_legendre(integrand, lefts, widths)


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------

def hermite_hadamard_check(kernel: Callable, a: float, b: float) -> VerificationReport:
    """Midpoint <= mean <= endpoint-average for a convex kernel on [a, b]
    (`kernel` takes a float or an array); the mean comes from one
    Gauss-Legendre panel."""
    if not b > a:
        raise ParameterError("need b > a")
    report = VerificationReport("hermite-hadamard")
    integral = polyfun.gauss_legendre(kernel, [a], b - a)
    # the error estimate: the difference from the rule at half the order
    quad_err = abs(integral - polyfun.gauss_legendre(kernel, [a], b - a, polyfun.GAUSS_ORDER // 2))
    lo = (b - a) * kernel(0.5 * (a + b))
    hi = (b - a) * 0.5 * (kernel(a) + kernel(b))
    p = {"a": a, "b": b}
    # allow equality (linear kernels) within 1e-9
    report.record(lo <= integral + quad_err + 1e-9, params=p, point="midpoint",
                  lhs=lo, rhs=integral, margin=integral - lo)
    report.record(integral - quad_err - 1e-9 <= hi, params=p, point="trapezoid",
                  lhs=integral, rhs=hi, margin=hi - integral)
    return report


def fsf_bounds_check(kernel: sharp.ConvexKernel, u: float, y: float) -> VerificationReport:
    """Two-sided tail-integral bounds for the convex-kernel series S(u, y):

        F((1+u)^2+y) + (1/2+u) g((1+u)^2+y)  <=  S(u,y)  <=  F(u^2+u+y),

    the right side for u >= -1 with u^2+u+y > 0, the left for u >= -3/2 with
    y > -(1+u)^2.
    """
    report = VerificationReport("tail-integral-bounds")
    if u < -1.5 or y <= -((1.0 + u) ** 2):
        raise ParameterError("need u >= -3/2 and y > -(1+u)^2")
    # the whole series is the tail past the offset w = u
    lower, upper = mathieu.hermite_hadamard(kernel, u, y)
    series = sharp.convex_series(kernel, u, y, 1e-12)
    if u >= -1.0 and u * u + u + y > 0.0:
        _strict_less(report, series.value, series.err_hi, upper, 0.0,
                     params={"u": u, "y": y}, point="upper")
    _strict_less(report, lower, 0.0, series.value, series.err_lo,
                 params={"u": u, "y": y}, point="lower")
    return report


def exp_kernel_log_bounds_check(u: float, lam: float) -> VerificationReport:
    """Strict bounds u^2+u < -(1/lam) log(lam S) < (u+1)^2 for the exponential kernel."""
    report = VerificationReport("exp-kernel-log-bounds")
    kernel = sharp.ExpKernel(lam)
    s = sharp.convex_series(kernel, u, 0.0, 1e-13)
    val = -math.log(lam * s.value) / lam
    err = s.err_hi / (lam * max(s.value - s.err_lo, 1e-300))
    _strict_less(report, u * u + u, 0.0, val, err, params={"u": u, "lam": lam}, point="lower")
    _strict_less(report, val, err, (1.0 + u) ** 2, 0.0, params={"u": u, "lam": lam}, point="upper")
    return report


@lru_cache(maxsize=None)
def two_zeta3() -> mathieu.EvalResult:
    """Direct-sum oracle for 2 zeta(3) = S(0) of the classical series."""
    return mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0), 0.0, 1e-12)


def classical_inequalities_check(grid: GridSpec) -> VerificationReport:
    """The classical chain on a t-grid: S(t) < 1/t^2, the sharp two-sided bound
    with shifts 1/(2 zeta(3)) and 1/6, the squared-series inequality, and the
    general-exponent bound for several mu."""
    report = VerificationReport("classical-inequalities")
    classical = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
    z3 = two_zeta3()
    a_shift = 1.0 / z3.value
    a_err = z3.err_hi / z3.value**2 * 1.01
    for t in grid.points:
        tol = min(1e-11, 0.01 * t ** (-6.0) + 1e-15) if t > 1 else 1e-11
        s = mathieu.eval_S(classical, t, tol)
        _strict_less(report, s.value, s.err_hi, 1.0 / t**2, 0.0,
                     params={"ineq": "mathieu"}, point=t)
        ub = 1.0 / (t * t + 1.0 / 6.0)
        _strict_less(report, s.value, s.err_hi, ub, 0.0,
                     params={"ineq": "two-sided-upper"}, point=t)
        lb = 1.0 / (t * t + a_shift)
        lb_err = a_err / (t * t + a_shift) ** 2
        _strict_less(report, lb, lb_err, s.value, s.err_lo,
                     params={"ineq": "two-sided-lower"}, point=t)
        # squared-series inequality: sum k/(k^2+t^2)^3 < (sum k/(k^2+t^2)^2)^2;
        # its margin shrinks like 0.015 t^-8, so only t <= 10 is float-resolvable
        if t <= 10.0:
            s3 = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 2.0, 0.0), t, 1e-13)
            lhs = 0.5 * s3.value
            rhs = (0.5 * s.value) ** 2
            rhs_err = 0.5 * s.value * s.err_hi + s.err_hi**2
            _strict_less(report, lhs, 0.5 * s3.err_hi, rhs, rhs_err,
                         params={"ineq": "squared-series"}, point=t)
    for mu in (0.5, 1.0, 2.0, 5.0):
        p = mathieu.MathieuParams(1.0, 2.0, mu, 0.0)
        for t in grid.points:
            s = mathieu.eval_S(p, t, 1e-12)
            bound = 1.0 / (mu * t ** (2.0 * mu))
            _strict_less(report, s.value, s.err_hi, bound, 0.0,
                         params={"ineq": "general-exponent", "mu": mu}, point=t)
    return report


def poisson_closed_form_check() -> VerificationReport:
    """Direct sums against the Poisson closed forms for gamma=0, alpha=2, mu=0."""
    report = VerificationReport("poisson-closed-forms")
    with warnings.catch_warnings():
        # mu = 0 is the closed forms' own kernel, not a user's input to warn about
        warnings.filterwarnings("ignore", message="mu <= 0 is outside the vetted regime")
        params = mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0)
    rel_tol = 1e-11
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        cf = mathieu.poisson_S(t)
        res = mathieu.eval_S(params, t, rel_tol * cf * 0.25)
        err = abs(res.value - cf) / cf
        report.record(err <= rel_tol, params={"form": "plain"}, point=t,
                      lhs=res.value, rhs=cf, margin=rel_tol - err)
        cfa = mathieu.poisson_S_alt(t)
        resa = mathieu.eval_S_alt(params, t, rel_tol * abs(cfa) * 0.25)
        erra = abs(resa.value - cfa) / abs(cfa)
        report.record(erra <= rel_tol, params={"form": "alternating"}, point=t,
                      lhs=resa.value, rhs=cfa, margin=rel_tol - erra)
    return report


def ner_check(p: float, u: float, mu: float, grid: GridSpec) -> VerificationReport:
    """Branch-wise absolute-difference bound

        |1/(mu (p^2+t^2)^mu) - S_mu(t,u)| < 1/(mu p^(2mu)) - S_mu(0,u)   (p-u <= 1/2)
                                            S_mu(0,u) - 1/(mu p^(2mu))   (p-u >= 1).
    """
    if not (p > 0 and u > -1 and mu > 0):
        raise ParameterError("need p > 0, u > -1, mu > 0")
    gap = p - u
    if 0.5 < gap < 1.0:
        raise ParameterError("no certified branch for 1/2 < p - u < 1")
    report = VerificationReport("difference-bound")
    params = mathieu.MathieuParams(1.0, 2.0, mu, u)
    s0 = mathieu.eval_S(params, 0.0, grid.tolerance * 0.01)
    ref = 1.0 / (mu * p ** (2.0 * mu))
    bound = (ref - s0.value) if gap <= 0.5 else (s0.value - ref)
    for t in grid.points:
        s = mathieu.eval_S(params, t, grid.tolerance * 0.01)
        lhs = abs(1.0 / (mu * (p * p + t * t) ** mu) - s.value)
        _strict_less(report, lhs, s.err_hi, bound, s0.err_hi,
                     params={"p": p, "u": u, "mu": mu}, point=t)
    return report


def sign_g_pu(p: float, u: float) -> dict:
    """Sign classification of g_{p,u} on (0, inf) with witness points.

    p - u <= 1/2 gives a positive kernel, p - u >= 1 a negative one, and the
    strip between changes sign: negative near 0, positive far out.
    """
    gap = p - u
    if gap <= 0.5:
        expected = "positive"
    elif gap >= 1.0:
        expected = "negative"
    else:
        expected = "sign-changing"
    xs = log_grid(1e-3, 400.0, 2000)
    vals = [g_pu(p, u, x) for x in xs]
    neg = [x for x, v in zip(xs, vals) if v < 0]
    pos = [x for x, v in zip(xs, vals) if v > 0]
    if neg and pos:
        observed = "sign-changing"
        witnesses = {"negative_at": neg[0], "positive_at": pos[-1]}
    elif pos:
        observed = "positive"
        witnesses = {"min_sampled": min(vals)}
    else:
        observed = "negative"
        witnesses = {"max_sampled": max(vals)}
    return {
        "classification": expected,
        "observed": observed,
        "consistent": expected == observed,
        "witnesses": witnesses,
    }


def h_nu_b(nu: float, b: float, t: float, u: float, tol: float = 1e-12) -> tuple[float, float]:
    """H_{nu,b}(t,u) = nu S_nu - (nu+1) S_{nu+1} (t^2+b), with its error radius."""
    s_nu = mathieu.s_mu(nu, t, u, tol)
    s_nu1 = mathieu.s_mu(nu + 1.0, t, u, tol)
    val = nu * s_nu.value - (nu + 1.0) * s_nu1.value * (t * t + b)
    err = nu * s_nu.err_hi + (nu + 1.0) * s_nu1.err_hi * (t * t + b)
    return val, err


def monotonicity_check(nu: float, b: float, u: float, grid: GridSpec) -> VerificationReport:
    """Sign of H_{nu,b} over the grid; positive means (t^2+b)^nu S_nu increases."""
    if not math.isfinite(b):
        raise ParameterError("b must be finite")
    report = VerificationReport("weighted-monotonicity")
    for t in grid.points:
        val, err = h_nu_b(nu, b, t, u)
        _strict_less(report, 0.0, 0.0, val, err, params={"nu": nu, "b": b, "u": u}, point=t)
    return report


def wilkins_style_check(nu: float, u: float, grid: GridSpec) -> VerificationReport:
    """Empirical scan of ((nu+1) S_{nu+1})^(1/(nu+1)) <= (nu S_nu)^(1/nu).

    Known to hold for nu=1, u=0; elsewhere the report is exploratory.
    """
    report = VerificationReport("power-mean-comparison")
    for t in grid.points:
        s_nu = mathieu.s_mu(nu, t, u, grid.tolerance * 1e-3)
        s_nu1 = mathieu.s_mu(nu + 1.0, t, u, grid.tolerance * 1e-3)
        lhs = ((nu + 1.0) * s_nu1.value) ** (1.0 / (nu + 1.0))
        rhs = (nu * s_nu.value) ** (1.0 / nu)
        lhs_err = lhs * s_nu1.err_hi / ((nu + 1.0) * s_nu1.value)
        rhs_err = rhs * s_nu.err_hi / (nu * s_nu.value)
        ok = lhs - lhs_err <= rhs + rhs_err
        report.record(ok, params={"nu": nu, "u": u}, point=t,
                      lhs=lhs, rhs=rhs, margin=rhs - lhs)
    return report


def cm_probe(p: float, u: float, mu: float, k_max: int, grid: GridSpec,
             negate: bool = False) -> VerificationReport:
    """Finite-order complete-monotonicity probe for

        psi_{p,u,mu}(t) = 1/(mu (p+t)^mu) - S_mu(sqrt(t), u).

    The k-th derivative sign condition reduces exactly to the sign of
    psi_{p,u,mu+k}, so each order is evaluated directly (no numerical
    differentiation).  With negate=True the probe tests -psi instead.
    """
    report = VerificationReport("complete-monotonicity-probe")
    for k in range(k_max + 1):
        mk = mu + k
        for t in grid.points:
            s = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, mk, u),
                               math.sqrt(t), grid.tolerance * 1e-2)
            psi = 1.0 / (mk * (p + t) ** mk) - s.value
            if negate:
                psi = -psi
            ok = psi >= -grid.tolerance - s.err_hi
            report.record(ok, params={"p": p, "u": u, "mu": mk, "k": k}, point=t,
                          lhs=psi, rhs=0.0, margin=psi)
    return report


def derivative_69_check(mu: float, u: float, t: float) -> VerificationReport:
    """d/dt (t^(2mu) S_mu(t,u)) computed two ways: Richardson central
    differences of the direct sum against the Hankel-transform closed form."""
    report = VerificationReport("weighted-derivative-identity")
    params = mathieu.MathieuParams(1.0, 2.0, mu, u)

    def f(x: float) -> float:
        return x ** (2.0 * mu) * mathieu.eval_S(params, x, 1e-13).value

    h = 1e-5 * t
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    d2 = (f(t + 0.5 * h) - f(t - 0.5 * h)) / h
    lhs = (4.0 * d2 - d1) / 3.0

    cutoff = hankel_cutoff(2.0 * mu, min(1.0, 1.0 + u))
    transform = hankel_transform(lambda x: h_u_prime(u, x), 2.0 * mu + 1.0, t, cutoff)
    rhs = -math.sqrt(math.pi) * t ** (2.0 * mu - 1.0) * transform / (
        2.0 ** (mu - 0.5) * math.gamma(mu + 1.0)
    )
    diff = abs(lhs - rhs)
    allowance = max(1e-6, 1e-4 * abs(rhs))
    report.record(diff <= allowance, params={"mu": mu, "u": u}, point=t,
                  lhs=lhs, rhs=rhs, margin=allowance - diff)
    return report


def hankel_identity_610_check(p: float, a: float, mu: float,
                              tol: float = 1e-6) -> VerificationReport:
    """Laplace-type Hankel integral of e^{-px} against its closed form."""
    report = VerificationReport("hankel-laplace-identity")
    cutoff = hankel_cutoff(2.0 * mu - 1.0, p)
    lhs = hankel_transform(lambda x: np.exp(-p * x) / x, 2.0 * mu + 1.0, a, cutoff)
    rhs = 2.0 ** (mu - 0.5) * math.gamma(mu + 1.0) / (
        math.sqrt(math.pi) * mu * (p * p + a * a) ** mu
    )
    diff = abs(lhs - rhs)
    report.record(diff <= tol, params={"p": p, "a": a, "mu": mu}, point=a,
                  lhs=lhs, rhs=rhs, margin=tol - diff)
    return report


def hankel_identity_612_check(mu: float, u: float, t: float,
                              tol: float = 1e-8) -> VerificationReport:
    """Hankel-transform representation of S_mu(t,u) against direct summation."""
    report = VerificationReport("hankel-series-representation")
    cutoff = hankel_cutoff(2.0 * mu, min(1.0, 1.0 + u))
    lhs = math.sqrt(math.pi) / (2.0 ** (mu - 0.5) * math.gamma(mu + 1.0)) * hankel_transform(
        lambda x: h_u(u, x) / x, 2.0 * mu + 1.0, t, cutoff
    )
    rhs = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, mu, u), t, 1e-12).value
    diff = abs(lhs - rhs)
    report.record(diff <= tol, params={"mu": mu, "u": u}, point=t,
                  lhs=lhs, rhs=rhs, margin=tol - diff)
    return report


def hankel_identity_67_check(p: float, u: float, mu: float, t: float,
                             tol: float = 1e-6) -> VerificationReport:
    """Transform of the difference kernel g_{p,u} against 1/(mu(p^2+t^2)^mu) - S_mu."""
    report = VerificationReport("hankel-difference-identity")
    cutoff = hankel_cutoff(2.0 * mu, min(p, 1.0 + u))
    lhs = math.sqrt(math.pi) / (2.0 ** (mu - 0.5) * math.gamma(mu + 1.0)) * hankel_transform(
        lambda x: g_pu(p, u, x), 2.0 * mu + 1.0, t, cutoff
    )
    s = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, mu, u), t, 1e-12)
    rhs = 1.0 / (mu * (p * p + t * t) ** mu) - s.value
    diff = abs(lhs - rhs)
    report.record(diff <= tol, params={"p": p, "u": u, "mu": mu}, point=t,
                  lhs=lhs, rhs=rhs, margin=tol - diff)
    return report


def identity_62_check(nu: float, mu: float, p: float, u: float, t: float) -> VerificationReport:
    """Fractional-average transfer identity between orders nu and mu.

    Integrates with `scipy.integrate.quad`: install the `checks` extra."""
    if not nu > mu > 0:
        raise ParameterError("need nu > mu > 0")
    report = VerificationReport("order-transfer-identity")

    def integrand(y: float) -> float:
        s = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, nu, u), y, 1e-11).value
        return (1.0 / (nu * (p * p + y * y) ** nu) - s) * y * abs(y * y - t * t) ** (nu - mu - 1.0)

    from scipy import integrate

    lhs, _ = integrate.quad(integrand, t, math.inf, epsabs=1e-9, epsrel=1e-8, limit=300)
    s_mu_t = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, mu, u), t, 1e-12).value
    rhs = 0.5 * polyfun.beta_fn(nu - mu, mu + 1.0) * (
        1.0 / (mu * (p * p + t * t) ** mu) - s_mu_t
    )
    diff = abs(lhs - rhs)
    report.record(diff <= 1e-6, params={"nu": nu, "mu": mu, "p": p, "u": u}, point=t,
                  lhs=lhs, rhs=rhs, margin=1e-6 - diff)
    return report


def identity_62a_check(nu: float, mu: float, b: float, u: float, t: float) -> VerificationReport:
    """Transfer identity for the monotonicity combination H_{nu,b}.

    Integrates with `scipy.integrate.quad`: install the `checks` extra."""
    if not nu > mu > 0:
        raise ParameterError("need nu > mu > 0")
    report = VerificationReport("monotonicity-transfer-identity")

    def integrand(y: float) -> float:
        val, _ = h_nu_b(nu, b, y, u, 1e-11)
        return val * y * abs(y * y - t * t) ** (nu - mu - 1.0)

    from scipy import integrate

    lhs, _ = integrate.quad(integrand, t, math.inf, epsabs=1e-9, epsrel=1e-8, limit=300)
    val_mu, _ = h_nu_b(mu, b, t, u, 1e-12)
    rhs = 0.5 * polyfun.beta_fn(nu - mu, mu + 1.0) * val_mu
    diff = abs(lhs - rhs)
    report.record(diff <= 1e-6, params={"nu": nu, "mu": mu, "b": b, "u": u}, point=t,
                  lhs=lhs, rhs=rhs, margin=1e-6 - diff)
    return report

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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import mathieu, polyfun, sharp
from .errors import ParameterError


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: points, parameter sets, and the margin tolerance."""

    points: tuple[float, ...]
    param_sets: tuple = ()
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("grid needs at least one point")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("grid points must be strictly increasing")


def log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(lo * (hi / lo) ** (i / (n - 1)) for i in range(n))


@dataclass
class Violation:
    params: dict
    point: object
    lhs: float
    rhs: float
    margin: float
    kind: str = "violation"  # or "inconclusive" for near-ties

    def to_dict(self) -> dict:
        return {
            "params": self.params, "point": self.point, "lhs": self.lhs,
            "rhs": self.rhs, "margin": self.margin, "kind": self.kind,
        }


@dataclass
class VerificationReport:
    check_name: str
    total: int = 0
    violations: list[Violation] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

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


def h_u(u: float, x: float) -> float:
    """h_u(x) = e^{-ux} x / (e^x - 1), continued by h_u(0) = 1."""
    if x < 0:
        raise ParameterError("x must be nonnegative")
    if x < _SERIES_SWITCH:
        c = _h_series_coeffs(u)
        return math.fsum(c[m] * x**m for m in range(len(c)))
    return math.exp(-u * x) * x / math.expm1(x)


def h_u_prime(u: float, x: float) -> float:
    """d/dx h_u(x), by the Maclaurin series near 0 and the closed form beyond."""
    if x < 0:
        raise ParameterError("x must be nonnegative")
    if x < _SERIES_SWITCH:
        c = _h_series_coeffs(u)
        return math.fsum(m * c[m] * x ** (m - 1) for m in range(1, len(c)))
    em1 = math.expm1(x)
    ex = em1 + 1.0
    return math.exp(-u * x) * ((1.0 - u * x) / em1 - x * ex / (em1 * em1))


def g_pu(p: float, u: float, x: float) -> float:
    """g_{p,u}(x) = e^{-px}/x - e^{-ux}/(e^x - 1), continued by u + 1/2 - p at 0."""
    if x < 0:
        raise ParameterError("x must be nonnegative")
    if x < _SERIES_SWITCH:
        h = _h_series_coeffs(u)
        return math.fsum(
            ((-p) ** (m + 1) / math.factorial(m + 1) - h[m + 1]) * x**m
            for m in range(_N_AUX_TERMS - 1)
        )
    return math.exp(-p * x) / x - math.exp(-u * x) / math.expm1(x)


def g_pu_prime(p: float, u: float, x: float) -> float:
    """d/dx g_{p,u}(x)."""
    if x < _SERIES_SWITCH:
        h = _h_series_coeffs(u)
        return math.fsum(
            m * ((-p) ** (m + 1) / math.factorial(m + 1) - h[m + 1]) * x ** (m - 1)
            for m in range(1, _N_AUX_TERMS - 1)
        )
    em1 = math.expm1(x)
    ex = em1 + 1.0
    epx = math.exp(-p * x)
    eux = math.exp(-u * x)
    return -p * epx / x - epx / (x * x) + eux * (u / em1 + ex / (em1 * em1))


def G_pum(p: float, u: float, mu: float, x: float) -> float:
    """G_{p,u,mu}(x) = x g'_{p,u}(x) + (2 mu - 1) g_{p,u}(x)."""
    return x * g_pu_prime(p, u, x) + (2.0 * mu - 1.0) * g_pu(p, u, x)


# --------------------------------------------------------------------------
# Bessel function j_lambda and the Hankel transform
# --------------------------------------------------------------------------

def _bessel_series(lam: float, x: float) -> float:
    # j_lam(x) = 2^-lam sum_k (-x^2/4)^k / (k! Gamma(k+lam+1))
    term = math.exp(-lam * math.log(2.0) - math.lgamma(lam + 1.0))
    acc = [term]
    z = -0.25 * x * x
    k = 0
    while True:
        k += 1
        term *= z / (k * (k + lam))
        acc.append(term)
        if abs(term) < 1e-19 * (1.0 + abs(acc[0])) or k > 400:
            break
    return math.fsum(acc)


def _bessel_asym(lam: float, x: float) -> float:
    # Large-argument form of J_lam divided by x^lam
    mu4 = 4.0 * lam * lam
    p_terms, q_terms = [1.0], []
    a = 1.0
    k = 0
    prev = math.inf
    while k < 24:
        a *= (mu4 - (2 * k + 1) ** 2) / (8.0 * (k + 1) * x)
        mag = abs(a)
        if mag > prev:
            break
        prev = mag
        if k % 2 == 0:
            q_terms.append(a * (-1.0) ** (k // 2))
        else:
            p_terms.append(a * (-1.0) ** ((k + 1) // 2))
        k += 1
    omega = x - (0.5 * lam + 0.25) * math.pi
    val = math.sqrt(2.0 / (math.pi * x)) * (
        math.cos(omega) * math.fsum(p_terms) - math.sin(omega) * math.fsum(q_terms)
    )
    return val / x**lam


def bessel_series_cutoff(lam: float) -> float:
    """Switch point between the power series and the large-argument form."""
    return max(12.0, lam * lam + 6.0)


def bessel_j(lam: float, x: float) -> float:
    """Normalized Bessel function j_lam(x) = J_lam(x)/x^lam (entire, even in x).

    Power series up to the switch point, large-argument expansion beyond;
    intended for lam > -1 of moderate size (the transforms here use
    lam = m/2 - 1 with small m).
    """
    if lam <= -1:
        raise ParameterError("lam must exceed -1")
    x = abs(x)
    if x <= bessel_series_cutoff(lam):
        return _bessel_series(lam, x)
    return _bessel_asym(lam, x)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


def hankel_cutoff(power: float, decay: float) -> float:
    """Truncation point for a kernel bounded by x^power e^(-decay x): from 40,
    grown by factors of 1.5 until that envelope is at most 1e-20."""
    cutoff = 40.0
    while cutoff**power * math.exp(-decay * cutoff) > 1e-20:
        cutoff *= 1.5
    return cutoff


def hankel_transform(
    h: Callable[[float], float],
    m: float,
    t: float,
    cutoff: float | None = None,
    tail_envelope: Callable[[float], float] | None = None,
) -> float:
    """F_m(h)(t) = int_0^inf h(x) x^(m-1) j_{m/2-1}(t x) dx.

    Fixed panels of width at most pi/(2t) with 16-point Gauss nodes, summed
    with exact accumulation.  The integral is truncated at `cutoff`; when no
    cutoff is given, one is derived from `tail_envelope` (an upper bound for
    |h(x) x^(m-1)|) by pushing until the envelope drops below 1e-18.
    """
    if m <= 0:
        raise ParameterError("m must be positive")
    if not 0.0 < t < math.inf:
        raise ParameterError("t must be positive and finite")
    if cutoff is None:
        if tail_envelope is None:
            raise ParameterError("either cutoff or tail_envelope is required")
        cutoff = 1.0
        while tail_envelope(cutoff) > 1e-18 and cutoff < 1e6:
            cutoff *= 1.5
    lam = 0.5 * m - 1.0
    width = min(0.5 * math.pi / t, 1.0)
    n_panels = max(1, int(math.ceil(cutoff / width)))
    width = cutoff / n_panels

    def integrand(x: float) -> float:
        return h(x) * x ** (m - 1.0) * bessel_j(lam, t * x)

    from scipy import integrate

    totals = []
    # kernels may carry an algebraic x^(m-2) factor at the origin; the first
    # panel goes through the endpoint-singularity-aware adaptive integrator
    first, _ = integrate.quad(integrand, 0.0, width, epsabs=1e-14, epsrel=1e-13, limit=200)
    totals.append(first)
    for i in range(1, n_panels):
        a = i * width
        mid = a + 0.5 * width
        pieces = []
        for node, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            x = mid + 0.5 * width * node
            pieces.append(w * integrand(x))
        totals.append(0.5 * width * math.fsum(pieces))
    return math.fsum(totals)


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------

def hermite_hadamard_check(
    kernel: Callable[[float], float], a: float, b: float, tol: float = 1e-9
) -> VerificationReport:
    """Midpoint <= mean <= endpoint-average for a convex kernel on [a, b]."""
    if not b > a:
        raise ParameterError("need b > a")
    from scipy import integrate

    report = VerificationReport("hermite-hadamard")
    integral, quad_err = integrate.quad(kernel, a, b, epsabs=1e-13, epsrel=1e-12)
    lo = (b - a) * kernel(0.5 * (a + b))
    hi = (b - a) * 0.5 * (kernel(a) + kernel(b))
    p = {"a": a, "b": b}
    # allow equality (linear kernels) within tol
    report.record(lo <= integral + quad_err + tol, params=p, point="midpoint",
                  lhs=lo, rhs=integral, margin=integral - lo)
    report.record(integral - quad_err - tol <= hi, params=p, point="trapezoid",
                  lhs=integral, rhs=hi, margin=hi - integral)
    return report


def fsf_bounds_check(
    kernel: sharp.ConvexKernel, u: float, y: float, tol: float = 1e-12
) -> VerificationReport:
    """Two-sided tail-integral bounds for the convex-kernel series S(u, y):

        F((1+u)^2+y) + (1/2+u) g((1+u)^2+y)  <=  S(u,y)  <=  F(u^2+u+y),

    the right side for u >= -1 with u^2+u+y > 0, the left for u >= -3/2 with
    y > -(1+u)^2.
    """
    report = VerificationReport("tail-integral-bounds")
    if u < -1.5 or y <= -((1.0 + u) ** 2):
        raise ParameterError("need u >= -3/2 and y > -(1+u)^2")
    # the whole series is the tail past the offset w = u
    lower, upper = mathieu.hermite_hadamard(kernel.tail, kernel.g, u, y)
    series = sharp.convex_series(kernel, u, y, tol)
    if u >= -1.0 and u * u + u + y > 0.0:
        _strict_less(report, series.value, series.err_hi, upper, 0.0,
                     params={"u": u, "y": y}, point="upper")
    _strict_less(report, lower, 0.0, series.value, series.err_lo,
                 params={"u": u, "y": y}, point="lower")
    return report


def exp_kernel_log_bounds_check(u: float, lam: float, tol: float = 1e-13) -> VerificationReport:
    """Strict bounds u^2+u < -(1/lam) log(lam S) < (u+1)^2 for the exponential kernel."""
    report = VerificationReport("exp-kernel-log-bounds")
    kernel = sharp.ExpKernel(lam)
    s = sharp.convex_series(kernel, u, 0.0, tol)
    val = -math.log(lam * s.value) / lam
    err = s.err_hi / (lam * max(s.value - s.err_lo, 1e-300))
    _strict_less(report, u * u + u, 0.0, val, err, params={"u": u, "lam": lam}, point="lower")
    _strict_less(report, val, err, (1.0 + u) ** 2, 0.0, params={"u": u, "lam": lam}, point="upper")
    return report


@lru_cache(maxsize=None)
def two_zeta3(tol: float = 1e-12) -> mathieu.EvalResult:
    """Direct-sum oracle for 2 zeta(3) = S(0) of the classical series."""
    return mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0), 0.0, tol)


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


def poisson_closed_form_check(points: Sequence[float] = (0.5, 1.0, 2.0, 5.0, 10.0),
                              rel_tol: float = 1e-11) -> VerificationReport:
    """Direct sums against the Poisson closed forms for gamma=0, alpha=2, mu=0."""
    report = VerificationReport("poisson-closed-forms")
    params = mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0)
    for t in points:
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


def sign_g_pu(p: float, u: float, n_scan: int = 2000) -> dict:
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
    xs = log_grid(1e-3, 400.0, n_scan)
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


def monotonicity_check(nu: float, b: float, u: float, grid: GridSpec,
                       expect_positive: bool = True) -> VerificationReport:
    """Sign of H_{nu,b} over the grid; positive means (t^2+b)^nu S_nu increases."""
    if not math.isfinite(b):
        raise ParameterError("b must be finite")
    report = VerificationReport("weighted-monotonicity")
    for t in grid.points:
        val, err = h_nu_b(nu, b, t, u)
        if expect_positive:
            _strict_less(report, 0.0, 0.0, val, err,
                         params={"nu": nu, "b": b, "u": u}, point=t)
        else:
            _strict_less(report, val, err, 0.0, 0.0,
                         params={"nu": nu, "b": b, "u": u}, point=t)
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


def derivative_69_check(mu: float, u: float, t: float,
                        tol_abs: float = 1e-6, tol_rel: float = 1e-4) -> VerificationReport:
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
    allowance = max(tol_abs, tol_rel * abs(rhs))
    report.record(diff <= allowance, params={"mu": mu, "u": u}, point=t,
                  lhs=lhs, rhs=rhs, margin=allowance - diff)
    return report


def hankel_identity_610_check(p: float, a: float, mu: float,
                              tol: float = 1e-6) -> VerificationReport:
    """Laplace-type Hankel integral of e^{-px} against its closed form."""
    report = VerificationReport("hankel-laplace-identity")
    cutoff = hankel_cutoff(2.0 * mu - 1.0, p)
    lhs = hankel_transform(lambda x: math.exp(-p * x) / x, 2.0 * mu + 1.0, a, cutoff)
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


def identity_62_check(nu: float, mu: float, p: float, u: float, t: float,
                      tol: float = 1e-6) -> VerificationReport:
    """Fractional-average transfer identity between orders nu and mu."""
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
    report.record(diff <= tol, params={"nu": nu, "mu": mu, "p": p, "u": u}, point=t,
                  lhs=lhs, rhs=rhs, margin=tol - diff)
    return report


def identity_62a_check(nu: float, mu: float, b: float, u: float, t: float,
                       tol: float = 1e-6) -> VerificationReport:
    """Transfer identity for the monotonicity combination H_{nu,b}."""
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
    report.record(diff <= tol, params={"nu": nu, "mu": mu, "b": b, "u": u}, point=t,
                  lhs=lhs, rhs=rhs, margin=tol - diff)
    return report

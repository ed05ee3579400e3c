"""Euler-Maclaurin and Boole (alternating) summation engines with explicit
remainder bounds, the exact finite-sum identities they are the limits of, and
asymptotic coefficient streams.

The non-alternating engine estimates sum_{k>=1} F(eps*k + eps*u) by

    (1/eps) * int_0^inf F + sum_{k=0}^{n} ((-1)^k eps^k / (k+1)!) B_{k+1}(-u) F^(k)(0)

with the remainder bounded by

    (eps^n / (n+1)!) * ( sup|b_{n+1}| * V(F^(n); eps*u..inf)
                         + sup|B_{n+1}| over the 0..-u range * V(F^(n); 0..eps*u) ).

The alternating engine uses Euler polynomials and splines instead, with
weights ((-1)^k eps^k / (2 k!)) E_k(-u) G^(k)(0) and factor eps^n / (2 n!) in
the bound.  Callers are responsible for the hypotheses (F smooth enough, the
first n derivatives vanishing at +infinity, bounded variation of F^(n)).

The variations V come from `SmoothFunction.variation`: a closed form where a
subclass has one (`ExpFunction`), the sum of the jumps across the monotone
pieces a subclass supplies (the Mathieu kernel in the integer regime), and
otherwise an adaptive quadrature of |F^(n+1)|, whose error is estimated, not
bounded.  scipy is imported only where a quadrature runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from . import jets, polyfun
from .errors import OrderOverflowError, ParameterError, ToleranceError


# --------------------------------------------------------------------------
# smooth-function contract and shipped test functions
# --------------------------------------------------------------------------

class SmoothFunction:
    """What a summation engine needs to know about F.

    Subclasses must provide `deriv` and, for the non-alternating engine,
    `tail_integral`.  `variation(k, a, b)` returns an upper bound on the
    total variation of F^(k) on [a, b] (b may be +inf).  A subclass that can
    split [a, b] into pieces where F^(k) is monotone supplies them through
    `monotone_pieces`, and the variation is then the sum of the value jumps
    across the pieces.  Otherwise it integrates |F^(k+1)| adaptively up to
    `far_field(k)` and adds |F^(k)| there as a monotone-tail allowance; that
    quadrature's error is an estimate, not a bound.
    """

    #: left edge of the domain of definition (q <= 0; -inf for entire functions)
    domain_left: float = 0.0

    def eval(self, x: float) -> float:
        return self.deriv(0, x)

    def deriv(self, k: int, x: float) -> float:
        raise NotImplementedError

    def tail_integral(self, t: float) -> float:
        """int_t^inf F(x) dx; only the non-alternating engine requires it."""
        raise NotImplementedError

    def deriv_with_error(self, k: int, x: float) -> tuple[float, float | None]:
        """F^(k)(x) and a bound on its error.  None, the default, declares the
        value exact up to its last rounding; the engines then allow 4e-16
        relative for their own arithmetic.  A function that returns bounds
        gets every rounding of the boundary terms bounded explicitly, and
        must supply `tail_integral_with_error` too."""
        return self.deriv(k, x), None

    def tail_integral_with_error(self, t: float) -> tuple[float, float | None]:
        """`tail_integral(t)` and a bound on its error, None as in `deriv_with_error`."""
        return self.tail_integral(t), None

    def far_field(self, k: int) -> float:
        """Point beyond which F^(k) is monotone and negligible (for variation tails)."""
        return 700.0

    def monotone_pieces(self, k: int, a: float, b: float) -> tuple[list[float], float] | None:
        """Values of F^(k) at knots a = z_0 < ... < z_m = b, between which it is
        monotone, and an absolute slack covering the values' rounding and any
        stretch where it is not; None when F supplies none (a < b here)."""
        return None

    def variation(self, k: int, a: float, b: float) -> float:
        if b < a:
            a, b = b, a
        if a == b:
            return 0.0
        pieces = self.monotone_pieces(k, a, b)
        if pieces is not None:
            values, slack = pieces
            jumps = math.fsum(abs(y - x) for x, y in zip(values, values[1:]))
            # each jump and the correctly rounded fsum round once
            return jumps * (1.0 + 2.0**-50) + slack
        from scipy import integrate

        cut = self.far_field(k)
        hi = min(b, cut)
        total = 0.0
        if hi > a:
            # a quadrature that reports a missed tolerance bounds nothing
            with warnings.catch_warnings():
                warnings.simplefilter("error", integrate.IntegrationWarning)
                try:
                    val, _ = integrate.quad(
                        lambda x: abs(self.deriv(k + 1, x)), a, hi,
                        epsabs=1e-12, epsrel=1e-10, limit=300,
                    )
                except integrate.IntegrationWarning as exc:
                    msg = str(exc).splitlines()[0]
                    raise ToleranceError(f"variation quadrature failed: {msg}") from None
            total += val * (1.0 + 1e-8)
        if b > cut:
            total += abs(self.deriv(k, cut)) * (1.0 + 1e-8)
        return total


class ExpFunction(SmoothFunction):
    """F(x) = amplitude * exp(-rate * x); closed forms for everything."""

    domain_left = -math.inf

    def __init__(self, rate: float = 1.0, amplitude: float = 1.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.amplitude = amplitude

    def deriv(self, k: int, x: float) -> float:
        return self.amplitude * (-self.rate) ** k * math.exp(-self.rate * x)

    def tail_integral(self, t: float) -> float:
        return self.amplitude * math.exp(-self.rate * t) / self.rate

    def variation(self, k: int, a: float, b: float) -> float:
        if b < a:
            a, b = b, a
        r = self.rate
        hi = 0.0 if b == math.inf else math.exp(-r * b)
        return abs(self.amplitude) * r**k * (math.exp(-r * a) - hi)


class PolynomialFunction(SmoothFunction):
    """F(x) = sum c_k x^k; for exercising the exact finite identities only."""

    domain_left = -math.inf

    def __init__(self, coeffs: Sequence[float]):
        self.coeffs = list(coeffs)

    def deriv(self, k: int, x: float) -> float:
        out = 0.0
        for j in range(len(self.coeffs) - 1, k - 1, -1):
            out = out * x + self.coeffs[j] * math.perm(j, k)
        return out

    def variation(self, k: int, a: float, b: float) -> float:
        if b == math.inf or a == -math.inf:
            raise ValueError("polynomials have unbounded variation on infinite intervals")
        return super().variation(k, a, b)


class GaussPowerFunction(SmoothFunction):
    """F(x) = 2 x^(2g-1) exp(-x^(2a)) for positive integers g, a.

    Entire, integrable, with all derivatives vanishing at +inf; the model
    input for asymptotic coefficient streams.
    """

    domain_left = -math.inf

    def __init__(self, g: int, a: int):
        if g < 1 or a < 1:
            raise ValueError("g and a must be positive integers")
        self.g = g
        self.a = a

    def _jet(self, x: float, m: int) -> jets.Jet:
        xj = jets.jet_var(x, m)
        mono = jets.jet_scale(jets.jet_ipow(xj, 2 * self.g - 1), 2.0)
        arg = jets.jet_scale(jets.jet_ipow(xj, 2 * self.a), -1.0)
        return jets.jet_mul(mono, jets.jet_exp(arg))

    def deriv(self, k: int, x: float) -> float:
        return jets.derivatives(self._jet(x, k))[k]

    def tail_integral(self, t: float) -> float:
        if t == 0.0:
            return math.gamma(self.g / self.a) / self.a
        from scipy import integrate

        val, _ = integrate.quad(self.eval, t, math.inf, epsabs=1e-13, epsrel=1e-12)
        return val

    def far_field(self, k: int) -> float:
        return (80.0) ** (1.0 / (2 * self.a)) + 2 * self.g + k


# --------------------------------------------------------------------------
# results and asymptotic series
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EMResult:
    """Outcome of a summation-engine call, with a rigorous remainder bound."""

    sum_estimate: float
    integral_term: float
    boundary_terms: tuple[float, ...]
    remainder_bound: float
    n_used: int
    epsilon: float
    u: float


@dataclass(frozen=True)
class AsymptoticSeries:
    """Truncated series sum_i coeffs[i] * v**powers[i] in a small variable v.

    `powers` is increasing; evaluation sums the first `n_terms` entries and
    the magnitude of the next one serves as the usual truncation diagnostic.
    """

    powers: tuple[float, ...]
    coeffs: tuple[float, ...]

    def evaluate(self, v: float, n_terms: int | None = None) -> float:
        n = len(self.coeffs) if n_terms is None else min(n_terms, len(self.coeffs))
        return math.fsum(c * v**p for p, c in zip(self.powers[:n], self.coeffs[:n]))

    def next_term_magnitude(self, v: float, n_terms: int) -> float:
        if n_terms >= len(self.coeffs):
            return math.nan
        return abs(self.coeffs[n_terms]) * v ** self.powers[n_terms]

    def optimal_truncation(self, v: float) -> int:
        """Index after which term magnitudes stop decreasing at this v."""
        best, best_mag = 0, math.inf
        for i, (p, c) in enumerate(zip(self.powers, self.coeffs)):
            mag = abs(c) * v**p
            if mag == 0.0:
                continue
            if mag < best_mag:
                best, best_mag = i, mag
        return best + 1


# --------------------------------------------------------------------------
# exact finite identities
# --------------------------------------------------------------------------

def _quad_panels(f: Callable[[float], float], knots: Sequence[float], tol: float) -> float:
    from scipy import integrate

    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        val, _ = integrate.quad(f, a, b, epsabs=tol, epsrel=1e-12, limit=200)
        pieces.append(val)
    return math.fsum(pieces)


def _check_u_negative(f: SmoothFunction, eps: float, u: float) -> None:
    q = f.domain_left
    if q >= 0:
        raise ParameterError("u < 0 requires a function defined left of 0")
    if q != -math.inf and not eps < q / u:
        raise ParameterError(f"eps must be below q/u = {q / u:.6g} for u < 0")


def em_finite_identity(
    f: SmoothFunction, p: int, eps: float, u: float, n: int, quad_tol: float = 1e-13
) -> dict[str, float]:
    """Both sides of the exact finite Euler-Maclaurin identity for sum_{k=1}^p F(eps(k+u)).

    The right-hand side is the integral plus derivative boundary terms at both
    ends plus the two spline-weighted remainder integrals, evaluated by
    adaptive quadrature with panels split at the spline knots t = j*eps.
    """
    if p < 1:
        raise ParameterError("p must be a positive integer")
    if u <= -p:
        raise ParameterError("u must exceed -p")
    from scipy import integrate

    lhs = math.fsum(f.eval(eps * (k + u)) for k in range(1, p + 1))

    top = eps * (p + u)
    knots = [eps * j for j in range(0, p + 1) if eps * j < top] + [top]
    integral = _quad_panels(f.eval, knots, quad_tol) / eps

    boundary = []
    for k in range(n + 1):
        bk_top = polyfun.bernoulli_poly(k + 1, 0.0) * f.deriv(k, top)
        bk_bot = polyfun.bernoulli_poly(k + 1, -u) * f.deriv(k, 0.0)
        boundary.append((-1.0) ** (k + 1) * eps**k / math.factorial(k + 1) * (bk_top - bk_bot))

    # int_0^{eps p} b_{n+1}(t/eps) dF^(n)(t + eps u), split at the knots
    def integrand1(t: float) -> float:
        return polyfun.bernoulli_spline(n + 1, t / eps) * f.deriv(n + 1, t + eps * u)

    i1 = _quad_panels(integrand1, [eps * j for j in range(0, p + 1)], quad_tol)

    # int_0^1 B_{n+1}(-u + u t) dF^(n)(t eps u)
    if u == 0.0:
        i2 = 0.0
    else:
        def integrand2(t: float) -> float:
            return polyfun.bernoulli_poly(n + 1, -u + u * t) * f.deriv(n + 1, t * eps * u) * eps * u

        i2, _ = integrate.quad(integrand2, 0.0, 1.0, epsabs=quad_tol, epsrel=1e-12, limit=200)

    remainder = (-1.0) ** n * eps**n / math.factorial(n + 1) * (i1 + i2)
    rhs = integral + math.fsum(boundary) + remainder
    return {"lhs": lhs, "rhs": rhs, "remainder": remainder}


def boole_finite_identity(
    g: SmoothFunction, p: int, eps: float, u: float, n: int, quad_tol: float = 1e-13
) -> dict[str, float]:
    """Both sides of the exact finite alternating identity for sum_{k=1}^{2p} (-1)^{k-1} G."""
    if p < 1:
        raise ParameterError("p must be a positive integer")
    if u <= -2 * p:
        raise ParameterError("u must exceed -2p")
    from scipy import integrate

    lhs = math.fsum(
        (-1.0) ** (k - 1) * g.eval(eps * (k + u)) for k in range(1, 2 * p + 1)
    )

    top = eps * (2 * p + u)
    boundary = []
    for k in range(n + 1):
        ek_top = polyfun.euler_poly(k, 0.0) * g.deriv(k, top)
        ek_bot = polyfun.euler_poly(k, -u) * g.deriv(k, 0.0)
        boundary.append((-1.0) ** (k + 1) * eps**k / (2.0 * math.factorial(k)) * (ek_top - ek_bot))

    def integrand1(t: float) -> float:
        return polyfun.euler_spline(n, t / eps) * g.deriv(n + 1, t + eps * u)

    i1 = _quad_panels(integrand1, [eps * j for j in range(0, 2 * p + 1)], quad_tol)

    if u == 0.0:
        i2 = 0.0
    else:
        def integrand2(t: float) -> float:
            return polyfun.euler_poly(n, -u + u * t) * g.deriv(n + 1, t * eps * u) * eps * u

        i2, _ = integrate.quad(integrand2, 0.0, 1.0, epsabs=quad_tol, epsrel=1e-12, limit=200)

    remainder = (-1.0) ** n * eps**n / (2.0 * math.factorial(n)) * (i1 + i2)
    rhs = math.fsum(boundary) + remainder
    return {"lhs": lhs, "rhs": rhs, "remainder": remainder}


# --------------------------------------------------------------------------
# infinite-sum engines with remainder bounds
# --------------------------------------------------------------------------

def _edge_sup_and_variations(
    f: SmoothFunction, eps: float, u: float, n: int, family: str
) -> tuple[float, float, float]:
    """sup of the endpoint polynomial and the two variation factors in the bound."""
    if u >= 0:
        sup_edge = polyfun.poly_sup(n + 1, family, (-u, 0.0)) if family == polyfun.BERNOULLI \
            else polyfun.poly_sup(n, family, (-u, 0.0))
        v_edge = f.variation(n, 0.0, eps * u) if u > 0 else 0.0
    else:
        _check_u_negative(f, eps, u)
        sup_edge = polyfun.poly_sup(n + 1, family, (0.0, -u)) if family == polyfun.BERNOULLI \
            else polyfun.poly_sup(n, family, (0.0, -u))
        v_edge = f.variation(n, eps * u, 0.0)
    v_tail = f.variation(n, eps * u, math.inf)
    return sup_edge, v_edge, v_tail


def _boundary_terms(
    f: SmoothFunction, eps: float, u: float, n: int, family: str
) -> tuple[tuple[float, ...], list[float]]:
    """The boundary terms c_k F^(k)(0), k = 0..n, and a bound on the error of
    each where F reports its derivatives' errors (else an empty list).

    c_k = (-1)^k eps^k B_{k+1}(-u) / (k+1)! (Bernoulli) or
    (-1)^k eps^k E_k(-u) / (2 k!) (Euler).  The factor eps^k / m_k takes at
    most 4 roundings relative (a power within 1 ulp, a quotient, the product
    with the polynomial value), the polynomial value its Horner error h, the
    product with F^(k)(0) one more rounding, and F^(k)(0) its reported error.
    """
    bernoulli = family == polyfun.BERNOULLI
    poly = polyfun.bernoulli_poly if bernoulli else polyfun.euler_poly
    terms, errs = [], []
    for k in range(n + 1):
        order = k + 1 if bernoulli else k
        scale = (-1.0) ** k * eps**k / (math.factorial(k + 1) if bernoulli
                                        else 2.0 * math.factorial(k))
        p = poly(order, -u)
        weight = scale * p
        d, d_err = f.deriv_with_error(k, 0.0)
        terms.append(weight * d)
        if d_err is not None:
            h = polyfun.poly_eval_error(order, family, -u)
            w_err = abs(scale) * (4.01 * 2.0**-53 * (abs(p) + h) + h)
            errs.append(2.0**-53 * abs(terms[-1]) + abs(weight) * d_err
                        + (abs(d) + d_err) * w_err)
    return tuple(terms), errs


def _rounding(f_errs: list[float], integral: float, integral_err: float | None,
              eps: float, boundary: tuple[float, ...], estimate: float) -> float:
    """Bound on the rounding of an engine's estimate beyond its analytic remainder."""
    if not f_errs:
        # derivatives exact up to their last rounding: a relative allowance
        return 4e-16 * (abs(integral) + math.fsum(abs(b) for b in boundary))
    # the boundary terms' errors, the integral term's error and its division by
    # eps, the fsum of the boundary terms and the addition of the integral term
    errs = f_errs + [(integral_err or 0.0) / eps, 2.0**-53 * abs(integral)]
    return (math.fsum(errs) * (1.0 + 2.0**-50)
            + 2.0**-52 * (abs(integral) + abs(estimate)))


def em_sum(f: SmoothFunction, eps: float, u: float, n: int) -> EMResult:
    """Estimate sum_{k>=1} F(eps k + eps u) with a rigorous remainder bound.

    Hypotheses (caller's responsibility): F is C^n with F, ..., F^(n)
    vanishing at +inf, F integrable, and F^(n) of bounded variation; for u < 0
    additionally F defined on [q, inf) with eps < q/u.  The bound covers the
    rounding of the estimate: by a 4e-16 relative allowance where F's
    derivatives are exact up to their last rounding, else term by term from
    the errors F reports (`SmoothFunction.deriv_with_error`).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    integral, integral_err = f.tail_integral_with_error(0.0)
    integral = integral / eps
    boundary, f_errs = _boundary_terms(f, eps, u, n, polyfun.BERNOULLI)
    sup_spline = polyfun.spline_sup(polyfun.SplineKind(polyfun.BERNOULLI, n + 1))
    sup_edge, v_edge, v_tail = _edge_sup_and_variations(f, eps, u, n, polyfun.BERNOULLI)
    bound = eps**n / math.factorial(n + 1) * (sup_spline * v_tail + sup_edge * v_edge)
    estimate = integral + math.fsum(boundary)
    # the analytic bound certifies exact arithmetic; round outward for float evaluation
    if f_errs:
        bound *= 1.0 + 2.0**-49
    bound += _rounding(f_errs, integral, integral_err, eps, boundary, estimate)
    return EMResult(
        sum_estimate=estimate,
        integral_term=integral,
        boundary_terms=boundary,
        remainder_bound=bound,
        n_used=n,
        epsilon=eps,
        u=u,
    )


def boole_sum(g: SmoothFunction, eps: float, u: float, n: int) -> EMResult:
    """Estimate sum_{k>=1} (-1)^(k-1) G(eps k + eps u) with a rigorous remainder bound.

    Same hypotheses and rounding cover as `em_sum` except integrability of G
    is not needed.
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    boundary, g_errs = _boundary_terms(g, eps, u, n, polyfun.EULER)
    sup_spline = polyfun.spline_sup(polyfun.SplineKind(polyfun.EULER, n))
    sup_edge, v_edge, v_tail = _edge_sup_and_variations(g, eps, u, n, polyfun.EULER)
    bound = eps**n / (2.0 * math.factorial(n)) * (sup_spline * v_tail + sup_edge * v_edge)
    estimate = math.fsum(boundary)
    if g_errs:
        bound *= 1.0 + 2.0**-49
    bound += _rounding(g_errs, 0.0, None, eps, boundary, estimate)
    return EMResult(
        sum_estimate=estimate,
        integral_term=0.0,
        boundary_terms=boundary,
        remainder_bound=bound,
        n_used=n,
        epsilon=eps,
        u=u,
    )


def em_asym_coeffs(f: SmoothFunction, u: float, k_max: int) -> AsymptoticSeries:
    """Coefficient stream of the eps -> 0 expansion of sum F(eps k + eps u).

    Power -1 carries the integral constant int_0^inf F; power k carries
    ((-1)^k / (k+1)!) B_{k+1}(-u) F^(k)(0).
    """
    if k_max > polyfun.MAX_ORDER - 1:
        raise OrderOverflowError(f"k_max exceeds the polynomial cache limit {polyfun.MAX_ORDER}")
    powers = [-1.0] + [float(k) for k in range(k_max + 1)]
    coeffs = [f.tail_integral(0.0)] + [
        (-1.0) ** k / math.factorial(k + 1) * polyfun.bernoulli_poly(k + 1, -u) * f.deriv(k, 0.0)
        for k in range(k_max + 1)
    ]
    return AsymptoticSeries(powers=tuple(powers), coeffs=tuple(coeffs))


def boole_asym_coeffs(g: SmoothFunction, u: float, k_max: int) -> AsymptoticSeries:
    """Coefficient stream of the eps -> 0 expansion of the alternating sum."""
    if k_max > polyfun.MAX_ORDER:
        raise OrderOverflowError(f"k_max exceeds the polynomial cache limit {polyfun.MAX_ORDER}")
    powers = [float(k) for k in range(k_max + 1)]
    coeffs = [
        (-1.0) ** k / (2.0 * math.factorial(k)) * polyfun.euler_poly(k, -u) * g.deriv(k, 0.0)
        for k in range(k_max + 1)
    ]
    return AsymptoticSeries(powers=tuple(powers), coeffs=tuple(coeffs))

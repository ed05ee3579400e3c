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
the bound.  The weights w_k = (-1)^k B_(k+1)(-u) / (k+1)! and
(-1)^k E_k(-u) / (2 k!) are one exact table (`boundary_weight`): each is
evaluated in rationals at the exact -u and rounded once, with its rounding,
and the engines, the coefficient streams and the large-t expansions of the
Mathieu series all read it.  Callers are responsible for the hypotheses (F
smooth enough, the first n derivatives vanishing at +infinity, bounded
variation of F^(n)).
`em_sum` and `boole_sum` are each one call into the same body,
`_engine_sum`, which takes the weights of its family (`_weights`) and adds
the integral term for the Bernoulli family alone.

An engine asks F three things, each with a bound on its error as a float
(`SmoothFunction`): F^(k)(0) at the orders it takes (`derivs_with_error`),
int_0^inf F (`integral_with_error`) and the variation of F^(n)
(`variation`), and bounds the rounding of its estimate from those errors.
It takes F^(k)(0) only where its weight is not exactly 0
(`_Weights.orders`): at u = 0, B_(2j+1)(0) = E_(2j)(0) = 0 for j >= 1, so
of the nine derivatives of order 8 it asks for six, in one call, and the
skipped terms are exactly 0.

The variations come from a closed form where a subclass has one
(`ExpFunction`), else the sum of the jumps across the monotone pieces a
subclass supplies (the Mathieu kernel); a function that supplies neither
has no remainder bound.  The exact finite identities integrate with
`polyfun.gauss_legendre`, one panel between consecutive spline knots.
This module imports no scipy.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Sequence

from . import jets, polyfun
from .errors import OrderOverflowError, ParameterError


# --------------------------------------------------------------------------
# smooth-function contract and shipped test functions
# --------------------------------------------------------------------------

class SmoothFunction:
    """What a summation engine asks of F: three queries, each with a bound
    on its error as a float.

    `derivs_with_error(orders)` gives F^(k)(0) for each k in `orders`,
    `integral_with_error()` the integral of F over [0, inf) (the Bernoulli
    engine alone), and `variation(k, a, b)` an upper bound on the total
    variation of F^(k) on [a, b] (b may be +inf).  A subclass overrides
    `variation` with a closed form or splits [a, b] into pieces where F^(k)
    is monotone through `monotone_pieces`, and the variation is then the sum
    of the value jumps across the pieces.  A function that states no error
    bounds, or neither a closed form nor pieces, raises ParameterError: the
    engines' remainder bounds rest on them.  The exact finite identities and
    the coefficient streams take plain values instead: `deriv` (and `eval`),
    and for `em_asym_coeffs` `tail_integral(0)`; a stream's coefficient of
    order k is the rounded weight of `boundary_weight` times F^(k)(0), so it
    carries the weight's one rounding and F's own error, and no bound.
    """

    #: left edge of the domain of definition (q <= 0; -inf for entire functions)
    domain_left: float = 0.0

    def eval(self, x: float) -> float:
        return self.deriv(0, x)

    def deriv(self, k: int, x: float) -> float:
        raise NotImplementedError

    def tail_integral(self, t: float) -> float:
        """int_t^inf F(x) dx, for the coefficient streams."""
        raise NotImplementedError

    def derivs_with_error(self, orders: Sequence[int]) -> list[tuple[float, float]]:
        """(F^(k)(0), a bound on its error) for each k in `orders`, increasing,
        as the engines take them: the orders whose boundary weight is not
        exactly 0, and the engine order n (`_Weights.orders`).  A subclass
        may evaluate them together; it need not evaluate any other order."""
        raise ParameterError(f"{type(self).__name__} states no error bound for F^(k)(0)")

    def integral_with_error(self) -> tuple[float, float]:
        """(int_0^inf F, a bound on its error)."""
        raise ParameterError(f"{type(self).__name__} states no error bound for its integral")

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
        if pieces is None:
            raise ParameterError(
                f"{type(self).__name__} supplies no monotone pieces of F^({k}) on "
                f"[{a:g}, {b:g}], so its variation has no bound")
        values, slack = pieces
        jumps = math.fsum(map(abs, map(operator.sub, values[1:], values)))
        # each jump and the correctly rounded fsum round once
        return jumps * (1.0 + 2.0**-50) + slack


class ExpFunction(SmoothFunction):
    """F(x) = amplitude * exp(-rate * x); closed forms for everything, each
    value given to the engines within a few u of itself plus the subnormal
    spacing 2^-1074 (a rounding below the normal range errs absolutely)."""

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

    def derivs_with_error(self, orders: Sequence[int]) -> list[tuple[float, float]]:
        # exp(-0) is 1 exactly: (-rate)^k within 1 ulp (a pow), then a product
        return [(d, 4.0 * 2.0**-53 * abs(d) + 2.0**-1074)
                for d in (self.deriv(k, 0.0) for k in orders)]

    def integral_with_error(self) -> tuple[float, float]:
        # amplitude / rate, one quotient
        value = self.tail_integral(0.0)
        return value, 2.0 * 2.0**-53 * abs(value) + 2.0**-1074

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


class GaussPowerFunction(SmoothFunction):
    """F(x) = 2 x^(2g-1) exp(-x^(2a)) for positive integers g, a.

    Entire, integrable, with all derivatives vanishing at +inf; the model
    input for asymptotic coefficient streams, which take only its
    derivatives at 0 and its integral over [0, inf).
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
        if t != 0.0:
            raise ParameterError("only the integral over [0, inf) has a closed form")
        return math.gamma(self.g / self.a) / self.a


# --------------------------------------------------------------------------
# results and asymptotic series
# --------------------------------------------------------------------------

class EMResult(namedtuple("EMResult", "sum_estimate integral_term boundary_terms "
                                      "remainder_bound n_used epsilon u")):
    """Outcome of a summation-engine call, with a rigorous remainder bound."""

    __slots__ = ()


class AsymptoticSeries(namedtuple("AsymptoticSeries", "powers coeffs")):
    """Truncated series sum_i coeffs[i] * v**powers[i] in a small variable v,
    `powers` increasing; `evaluate` sums the first `n_terms` entries.  It
    carries no remainder: the engines' sums at eps = v are its certified
    form."""

    __slots__ = ()

    def evaluate(self, v: float, n_terms: int | None = None) -> float:
        n = len(self.coeffs) if n_terms is None else min(n_terms, len(self.coeffs))
        return math.fsum(c * v**p for p, c in zip(self.powers[:n], self.coeffs[:n]))


# --------------------------------------------------------------------------
# exact finite identities
# --------------------------------------------------------------------------

def _quad_panels(f: Callable[[float], float], knots: Sequence[float]) -> float:
    """int f over [knots[0], knots[-1]] by `polyfun.gauss_legendre`, one
    panel between each pair of consecutive knots (f is smooth on each)."""
    lefts = [a for a, b in zip(knots[:-1], knots[1:]) if b > a]
    widths = [b - a for a, b in zip(knots[:-1], knots[1:]) if b > a]
    return polyfun.gauss_legendre(lambda x: [f(v) for v in x.tolist()], lefts, widths)


def _check_u_negative(f: SmoothFunction, eps: float, u: float) -> None:
    q = f.domain_left
    if q >= 0:
        raise ParameterError("u < 0 requires a function defined left of 0")
    if q != -math.inf and not eps < q / u:
        raise ParameterError(f"eps must be below q/u = {q / u:.6g} for u < 0")


def em_finite_identity(
    f: SmoothFunction, p: int, eps: float, u: float, n: int
) -> dict[str, float]:
    """Both sides of the exact finite Euler-Maclaurin identity for sum_{k=1}^p F(eps(k+u)).

    The right-hand side is the integral plus derivative boundary terms at both
    ends plus the two spline-weighted remainder integrals, evaluated by the
    Gauss-Legendre rule with one panel between consecutive spline knots
    t = j*eps, where the integrands are smooth.
    """
    if p < 1:
        raise ParameterError("p must be a positive integer")
    if u <= -p:
        raise ParameterError("u must exceed -p")
    lhs = math.fsum(f.eval(eps * (k + u)) for k in range(1, p + 1))

    top = eps * (p + u)
    knots = [eps * j for j in range(0, p + 1) if eps * j < top] + [top]
    integral = _quad_panels(f.eval, knots) / eps

    boundary = []
    for k in range(n + 1):
        bk_top = polyfun.bernoulli_poly(k + 1, 0.0) * f.deriv(k, top)
        bk_bot = polyfun.bernoulli_poly(k + 1, -u) * f.deriv(k, 0.0)
        boundary.append((-1.0) ** (k + 1) * eps**k / math.factorial(k + 1) * (bk_top - bk_bot))

    # int_0^{eps p} b_{n+1}(t/eps) dF^(n)(t + eps u), split at the knots
    def integrand1(t: float) -> float:
        return polyfun.bernoulli_spline(n + 1, t / eps) * f.deriv(n + 1, t + eps * u)

    i1 = _quad_panels(integrand1, [eps * j for j in range(0, p + 1)])

    # int_0^1 B_{n+1}(-u + u t) dF^(n)(t eps u)
    if u == 0.0:
        i2 = 0.0
    else:
        def integrand2(t: float) -> float:
            return polyfun.bernoulli_poly(n + 1, -u + u * t) * f.deriv(n + 1, t * eps * u) * eps * u

        i2 = _quad_panels(integrand2, [0.0, 1.0])

    remainder = (-1.0) ** n * eps**n / math.factorial(n + 1) * (i1 + i2)
    rhs = integral + math.fsum(boundary) + remainder
    return {"lhs": lhs, "rhs": rhs, "remainder": remainder}


def boole_finite_identity(
    g: SmoothFunction, p: int, eps: float, u: float, n: int
) -> dict[str, float]:
    """Both sides of the exact finite alternating identity for sum_{k=1}^{2p} (-1)^{k-1} G."""
    if p < 1:
        raise ParameterError("p must be a positive integer")
    if u <= -2 * p:
        raise ParameterError("u must exceed -2p")
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

    i1 = _quad_panels(integrand1, [eps * j for j in range(0, 2 * p + 1)])

    if u == 0.0:
        i2 = 0.0
    else:
        def integrand2(t: float) -> float:
            return polyfun.euler_poly(n, -u + u * t) * g.deriv(n + 1, t * eps * u) * eps * u

        i2 = _quad_panels(integrand2, [0.0, 1.0])

    remainder = (-1.0) ** n * eps**n / (2.0 * math.factorial(n)) * (i1 + i2)
    rhs = math.fsum(boundary) + remainder
    return {"lhs": lhs, "rhs": rhs, "remainder": remainder}


# --------------------------------------------------------------------------
# infinite-sum engines with remainder bounds
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def boundary_weight(family: str, u: float, k: int) -> tuple[Fraction, float, float]:
    """The weight w_k of order k at offset u: (-1)^k B_(k+1)(-u) / (k+1)!
    (family `polyfun.BERNOULLI`) or (-1)^k E_k(-u) / (2 k!) (`polyfun.EULER`),
    as (its exact value, that value rounded once, the rounding rounded up).

    The polynomial is evaluated in rationals at the exact -u
    (`polyfun.poly_eval_exact`), so no Horner rounding enters, and a weight
    that is exactly 0 is the float 0 with no error.  OrderOverflowError past
    the polynomial cache limit.
    """
    if family == polyfun.BERNOULLI:
        coeffs, divisor = polyfun.bernoulli_coeffs(k + 1), math.factorial(k + 1)
    else:
        coeffs, divisor = polyfun.euler_coeffs(k), 2 * math.factorial(k)
    exact = (-1) ** k * polyfun.poly_eval_exact(coeffs, -Fraction(u)) / divisor
    return (exact, *polyfun.rounded(exact))


class _Weights(namedtuple("_Weights", "sup_spline sup_edge divisor parts orders")):
    """What an engine of one family at offset u and order n takes from them
    alone, kept once per (family, u, n) (`_weights`).

    `sup_spline` is sup |b_(n+1)| resp. sup |e_n| over one period,
    `sup_edge` the sup of the endpoint polynomial B_(n+1) resp. E_n over the
    0..-u range, and `divisor` (n+1)! resp. 2 n!, the remainder's.  `parts`
    holds, per k = 0..n, what `_boundary_terms` takes of the weight w_k
    (`boundary_weight`): its float, |w_k|, its rounding error, and the
    relative rounding of eps^k w_k beyond w_k's own: none for k = 0
    (eps^0 = 1), the product for k = 1 (eps^1 = eps), and past it a pow
    within 1 ulp and the product, with 0.01 u for the second-order terms.
    `orders` holds the k whose F^(k)(0) the engine takes: every k whose
    exact weight is not 0, and n.  At u = 0, B_(2j+1)(0) = E_(2j)(0) = 0 for j >= 1 (DLMF 24.2), so
    at order 8 k = 2, 4, 6 and 8 are 0 in both families.  n stays for the
    variation of F^(n) past 0, which starts from F^(n)(0) where u = 0.
    """

    __slots__ = ()


@functools.lru_cache(maxsize=256)
def _weights(family: str, u: float, n: int) -> _Weights:
    parts, orders = [], []
    for k in range(n + 1):
        exact, w, w_err = boundary_weight(family, u, k)
        parts.append((w, abs(w), w_err, (0.0, 2.0**-53)[k] if k < 2 else 3.01 * 2.0**-53))
        if exact or k == n:
            orders.append(k)
    bernoulli = family == polyfun.BERNOULLI
    order = n + 1 if bernoulli else n
    return _Weights(
        sup_spline=polyfun.spline_sup(polyfun.SplineKind(family, order)),
        sup_edge=polyfun.poly_sup(order, family, (-u, 0.0) if u >= 0 else (0.0, -u)),
        divisor=float(math.factorial(n + 1) if bernoulli else 2 * math.factorial(n)),
        parts=tuple(parts),
        orders=tuple(orders),
    )


def _variations(f: SmoothFunction, eps: float, u: float, n: int) -> tuple[float, float]:
    """The two variation factors in the bound: of F^(n) over the 0..eps u
    range and past eps u."""
    if u >= 0:
        v_edge = f.variation(n, 0.0, eps * u) if u > 0 else 0.0
    else:
        _check_u_negative(f, eps, u)
        v_edge = f.variation(n, eps * u, 0.0)
    return v_edge, f.variation(n, eps * u, math.inf)


#: Below this a rounding errs absolutely, by at most half (a product or a
#: quotient) or all (a pow within 1 ulp) of the subnormal spacing 2^-1074.
_NORMAL = 2.0**-1022


def _boundary_terms(f: SmoothFunction, eps: float, weights: _Weights
                    ) -> tuple[tuple[float, ...], list[float]]:
    """The boundary terms c_k F^(k)(0), k = 0..n, and a bound on the error of
    each term taken.

    c_k = eps^k w_k, with the weight w_k of `boundary_weight` from the parts
    in `_Weights`.  F^(k)(0) is taken only at `weights.orders`: every other
    c_k is exactly 0, so its term is 0 with no error, and the fsum of the
    terms, which ignores zeros, is the same bit for bit.  c_k carries the
    relative rounding of eps^k w_k (`_Weights`) and eps^k times the
    rounding of w_k, the product with F^(k)(0) one more rounding, and
    F^(k)(0) its reported error.  A rounding below the normal range adds its
    absolute error: 2^-1074 (|w_k| + its error) for eps^k (a pow), and
    2^-1074 for c_k and for the term.
    """
    parts, orders = weights.parts, weights.orders
    terms, errs = [0.0] * len(parts), []
    for k, (d, d_err) in zip(orders, f.derivs_with_error(orders)):
        w, w_abs, w_err, rel = parts[k]
        scale = eps**k
        weight = scale * w
        term = weight * d
        terms[k] = term
        c_abs, d_abs = abs(weight), abs(d)
        # c_k's absolute error below the normal range, then the term's
        c_tiny = 2.0**-1074 * (w_abs + w_err) if scale < _NORMAL else 0.0
        if c_abs < _NORMAL and scale and w:
            c_tiny += 2.0**-1074
        err = (2.0**-53 * (c_abs * d_abs) + c_abs * d_err
               + (d_abs + d_err) * (rel * c_abs + scale * w_err + c_tiny))
        errs.append(err + 2.0**-1074 if abs(term) < _NORMAL and weight and d else err)
    return tuple(terms), errs


def _remainder(eps: float, n: int, divisor: float, variations: float) -> float:
    """eps^n / divisor times the variations, for an engine's remainder bound,
    with the absolute error of each rounding below the normal range added."""
    scale = eps**n / divisor
    bound = (scale + 2.0**-1073 if scale < _NORMAL else scale) * variations
    return bound + 2.0**-1074 if bound < _NORMAL and variations else bound


def _rounding(f_errs: list[float], integral: float, integral_err: float, eps: float,
              estimate: float) -> float:
    """Bound on the rounding of an engine's estimate beyond its analytic remainder."""
    # the boundary terms' errors, the integral term's error and its division by
    # eps, the fsum of the boundary terms and the addition of the integral term
    errs = f_errs + [integral_err / eps, 2.0**-53 * abs(integral)]
    return (math.fsum(errs) * (1.0 + 2.0**-50)
            + 2.0**-52 * (abs(integral) + abs(estimate)))


def _engine_sum(family: str, f: SmoothFunction, eps: float, u: float, n: int) -> EMResult:
    """The body of `em_sum` (family `polyfun.BERNOULLI`) and `boole_sum`
    (`polyfun.EULER`): the boundary terms and remainder of the family's
    weights, plus the integral term (1/eps) int_0^inf F for the Bernoulli
    family alone.  The remainder's divisor, (n+1)! resp. 2 n!, is the one of
    the order-n weight."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    integral, integral_err = 0.0, 0.0
    if family == polyfun.BERNOULLI:
        integral, integral_err = f.integral_with_error()
        integral = integral / eps
    weights = _weights(family, u, n)
    boundary, f_errs = _boundary_terms(f, eps, weights)
    v_edge, v_tail = _variations(f, eps, u, n)
    bound = _remainder(eps, n, weights.divisor,
                       weights.sup_spline * v_tail + weights.sup_edge * v_edge)
    # math.fsum returns +0.0 for a zero sum, so adding the Euler family's
    # integral term 0.0 changes no bit
    estimate = integral + math.fsum(boundary)
    # the analytic bound certifies exact arithmetic; round outward for float evaluation
    bound *= 1.0 + 2.0**-49
    bound += _rounding(f_errs, integral, integral_err, eps, estimate)
    return EMResult(
        sum_estimate=estimate,
        integral_term=integral,
        boundary_terms=boundary,
        remainder_bound=bound,
        n_used=n,
        epsilon=eps,
        u=u,
    )


def em_sum(f: SmoothFunction, eps: float, u: float, n: int) -> EMResult:
    """Estimate sum_{k>=1} F(eps k + eps u) with a rigorous remainder bound.

    Hypotheses (caller's responsibility): F is C^n with F, ..., F^(n)
    vanishing at +inf, F integrable, and F^(n) of bounded variation; for u < 0
    additionally F defined on [q, inf) with eps < q/u.  The bound covers the
    rounding of the estimate term by term, from the errors F states with
    its values (`SmoothFunction`).
    """
    return _engine_sum(polyfun.BERNOULLI, f, eps, u, n)


def boole_sum(g: SmoothFunction, eps: float, u: float, n: int) -> EMResult:
    """Estimate sum_{k>=1} (-1)^(k-1) G(eps k + eps u) with a rigorous remainder bound.

    Same hypotheses and rounding cover as `em_sum` except integrability of G
    is not needed.
    """
    return _engine_sum(polyfun.EULER, g, eps, u, n)


def _stream(family: str, f: SmoothFunction, u: float, k_max: int) -> list[float]:
    """w_k F^(k)(0) for k = 0..k_max, w_k the rounded `boundary_weight`."""
    return [boundary_weight(family, u, k)[1] * f.deriv(k, 0.0) for k in range(k_max + 1)]


def em_asym_coeffs(f: SmoothFunction, u: float, k_max: int) -> AsymptoticSeries:
    """Coefficient stream of the eps -> 0 expansion of sum F(eps k + eps u),
    `em_sum` without its remainder.

    Power -1 carries the integral constant int_0^inf F; power k carries
    w_k F^(k)(0), w_k = (-1)^k B_(k+1)(-u) / (k+1)! (`boundary_weight`).
    """
    if k_max > polyfun.MAX_ORDER - 1:
        raise OrderOverflowError(f"k_max exceeds the polynomial cache limit {polyfun.MAX_ORDER}")
    powers = [-1.0] + [float(k) for k in range(k_max + 1)]
    coeffs = [f.tail_integral(0.0)] + _stream(polyfun.BERNOULLI, f, u, k_max)
    return AsymptoticSeries(powers=tuple(powers), coeffs=tuple(coeffs))


def boole_asym_coeffs(g: SmoothFunction, u: float, k_max: int) -> AsymptoticSeries:
    """Coefficient stream of the eps -> 0 expansion of the alternating sum,
    `boole_sum` without its remainder: power k carries w_k G^(k)(0),
    w_k = (-1)^k E_k(-u) / (2 k!) (`boundary_weight`)."""
    if k_max > polyfun.MAX_ORDER:
        raise OrderOverflowError(f"k_max exceeds the polynomial cache limit {polyfun.MAX_ORDER}")
    powers = [float(k) for k in range(k_max + 1)]
    return AsymptoticSeries(powers=tuple(powers),
                            coeffs=tuple(_stream(polyfun.EULER, g, u, k_max)))

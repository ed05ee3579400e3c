"""Evaluators for the generalized Mathieu series

    S(t)     = sum_{k>=1} 2 (k+u)^gamma / ((k+u)^alpha + t^alpha)^(mu+1)
    S~(t)    = same with an extra (-1)^(k-1) factor,

their kernel g(x) = x^gamma (x^alpha + 1)^(-mu-1) with its smoothness profile
and tail integral, the large-t expansions, closed-form Poisson oracles for the
gamma=0, alpha=2, mu=0 case, and a regime dispatcher whose every path is
rigorous.

The tail integral int_x^inf g is an incomplete Beta function B_s(a, b)/alpha
in floats, from a closed form or its positive hypergeometric series with a
proven truncation and rounding bound (`_tail_point`), so no evaluator needs
scipy.  A sum reads its arguments and what it takes from (gamma, alpha, mu)
alone, built once per kernel (`_Kernel`).

Every sum is a value plus an interval that contains it.  A sum takes a head
of 64 terms and closes the rest at once by the Euler-Maclaurin (Boole's,
alternating) engine with its certified remainder, the head doubled while
that misses tol, up to MAX_TERMS.  Only the plain gamma=1, alpha=2 family
first climbs a ladder, doubling its head from the monotone index while the
two-sided Hermite-Hadamard bounds of the rest miss tol, up to CROSSOVER
terms.  Those bounds take a convex kernel object (`PowerKernel` for the
ladder, `ExpKernel` for the theta series `log_phi_u`), the one input of
every Hermite-Hadamard sum (`hermite_hadamard`, `bracketed_sum`).  The
closed tail exists for every kernel: at t > 0 on the kernel shifted past
the head, whose derivatives x^(gamma-n) (1+y)^(-m-n) P_n(y), y = x^alpha,
are evaluated in floats with rounding bounds and whose variation comes
from the exactly isolated roots of P_(n+1) (`_YDerivative`).  That kernel
meets the engines' three queries, each with its error: g^(k) at the
shift, the integral from it and the variation of g^(n)
(`MathieuSmoothFunction`); its shift eps head, eps = 1/t, is exact, as
every head is 0 or 64 2^j.  At t = 0, at tiny t, and wherever that kernel
leaves the float range, on the power tail 2 (x + head)^(-delta).  `eval_em`
is the closer with no head, for (gamma, alpha) in Z+ x N, where g is smooth
at 0: the same y-form there, with g^(n)(0) exact up to one rounding.

The large-t expansions (`asym_S`, `asym_S_alt`) are that closer's terms:
each coefficient is the exact weight of `emsum.boundary_weight` times the
exact g^(p)(0) of `_Kernel.derivative_at_zero`, rounded once, and
`eval_asym` returns head 0's certified bracket, the expansion through order
8 with the engine's remainder.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from collections import OrderedDict, namedtuple
from fractions import Fraction

from . import emsum, jets, polyfun
from .errors import (
    CrossValidationError,
    OrderOverflowError,
    ParameterError,
    RegimeError,
    ToleranceError,
)

#: Direct summation stops growing once this many terms were used.
MAX_TERMS = 20_000_000

#: A head of more than CLOSED_HEAD terms adds its first terms in one exact
#: math.fsum ...
_EXACT_HEAD = 16
#: ... and the rest by numpy's pairwise summation: on a 2^18-term chunk a
#: term passes at most 36 roundings (11 halvings, then 15 + 3 + 7 in the
#: 8-way unrolled base case), so the error is at most 36u sum |terms|.  A
#: head of at most CLOSED_HEAD terms is one exact math.fsum, with no such
#: share (`_sum_terms`).
PAIRWISE_RTOL = 4e-15

#: eval_auto sums directly below this t and tries Euler-Maclaurin from it on.
T_DIRECT = 50.0

#: Head summed before a closed tail, and the least head of a bracket.
CLOSED_HEAD = 64

#: Past this many head terms a closed Euler-Maclaurin (Boole) tail costs less
#: than summing on.  Measured with the float y-form tails at t = 7 on a 2-core
#: Xeon: 1.5-6.0 ns a summed term (from 4,096 to 16,384 terms, the head's
#: factors cached) against 53-77 us a warm closed tail (head included), a
#: break-even of 8,900-36,300 terms over seven kernels and both series
#: (median near 23,000).
CROSSOVER = 1 << 14

DIRECT = "direct"
EULER_MACLAURIN = "euler-maclaurin"


def _is_nonneg_int(x: float) -> bool:
    return x >= 0 and float(x).is_integer()


class MathieuParams(namedtuple("MathieuParams", "gamma alpha mu u", defaults=(0.0,))):
    """Parameter tuple (gamma, alpha, mu, u) with derived delta = alpha(mu+1) - gamma.

    delta > 1 is required for the plain series, delta > 0 for the alternating
    one; the evaluators check the constraint that applies to them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in self._fields:
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.gamma < 0:
            raise ParameterError("gamma must be nonnegative")
        if self.alpha <= 0:
            raise ParameterError("alpha must be positive")
        if self.u <= -1:
            raise ParameterError("u must exceed -1")
        if self.mu <= 0:
            warnings.warn(
                "mu <= 0 is outside the vetted regime; results are experimental",
                stacklevel=2,
            )
        return self

    # namedtuple's _make, and _replace through it, would skip the checks of __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def delta(self) -> float:
        return self.alpha * (self.mu + 1.0) - self.gamma

    def require_delta(self, minimum: float) -> None:
        if not self.delta > minimum:
            raise ParameterError(
                f"delta = alpha*(mu+1) - gamma = {self.delta:.6g} must exceed {minimum:g}"
            )

    @property
    def integer_regime(self) -> bool:
        """True when (gamma, alpha) lies in Z+ x N, i.e. g is smooth at 0."""
        return _is_nonneg_int(self.gamma) and self.alpha >= 1 and float(self.alpha).is_integer()


class EvalResult(namedtuple("EvalResult", "value err_lo err_hi method terms_used rigorous order",
                            defaults=(0, True, 0))):
    """A value with a two-sided error bracket: truth in [value-err_lo, value+err_hi].

    `order` is the order of the Euler-Maclaurin or Boole engine behind the
    tail; 0 for a bracket.
    """

    __slots__ = ()

    @property
    def lower(self) -> float:
        return self.value - self.err_lo

    @property
    def upper(self) -> float:
        return self.value + self.err_hi


class SmoothnessProfile(namedtuple("SmoothnessProfile", "r initial_derivs")):
    """Order of smoothness of g at 0 (an integer or math.inf) and the initial
    derivative table, a tuple of (order, value) pairs."""

    __slots__ = ()


# --------------------------------------------------------------------------
# kernel g
# --------------------------------------------------------------------------

def g_eval(params: MathieuParams, x: float) -> float:
    """g(x) = x^gamma (x^alpha + 1)^(-mu-1) for x >= 0."""
    if x == 0.0:
        return 1.0 if params.gamma == 0 else 0.0
    return x**params.gamma * (x**params.alpha + 1.0) ** (-params.mu - 1.0)


def g_jet(params: MathieuParams, x: float, order: int) -> list[float]:
    """Taylor coefficients of g at x up to the given order.

    At x = 0 the jet comes from the binomial series of the kernel
    (`_Kernel.derivative_at_zero`), each coefficient rounded once; outside
    the smooth regime only orders up to the smoothness r are available there.
    """
    if x < 0 and not params.integer_regime:
        raise ParameterError("negative arguments require (gamma, alpha) in Z+ x N")
    if x <= -1:
        raise ParameterError("g is defined on (-1, inf) at best")
    if x == 0.0:
        prof = g_smoothness(params)
        if order > prof.r:
            raise OrderOverflowError(
                f"derivative order {order} exceeds smoothness r = {prof.r} at x = 0"
            )
        c = _kernel(params.gamma, params.alpha, params.mu)
        return [float(c.derivative_at_zero(p) / math.factorial(p)) for p in range(order + 1)]
    xj = jets.jet_var(x, order)
    if params.integer_regime:
        mono = jets.jet_ipow(xj, int(params.gamma))
        base = jets.jet_shift(jets.jet_ipow(xj, int(params.alpha)), 1.0)
    else:
        mono = jets.xpow_jet(x, params.gamma, order)
        base = jets.jet_shift(jets.xpow_jet(x, params.alpha, order), 1.0)
    return jets.jet_mul(mono, jets.jet_pow(base, -params.mu - 1.0))


@functools.lru_cache(maxsize=256)
def g_smoothness(params: MathieuParams) -> SmoothnessProfile:
    """Smoothness order r of g at 0 and the derivatives g^(p)(0) for
    p <= min(r, 16), each rounded once (`_Kernel.derivative_at_zero`).

    r = [gamma] when gamma is not a nonnegative integer, gamma + [alpha] when
    gamma is but alpha is not, and infinity when both are.  Kept once per
    kernel: `g_jet` at 0 asks for it at every order.
    """
    if params.integer_regime:
        r = math.inf
    elif not _is_nonneg_int(params.gamma):
        r = math.floor(params.gamma)
    else:
        r = int(params.gamma) + math.floor(params.alpha)
    c = _kernel(params.gamma, params.alpha, params.mu)
    return SmoothnessProfile(r=r, initial_derivs=tuple(
        (p, float(c.derivative_at_zero(p))) for p in range(min(r, 16) + 1)))


def g_total_variation(params: MathieuParams) -> float:
    """Total variation of g on [0, inf): 1 for gamma = 0, else 2 g(x0) at the peak x0."""
    params.require_delta(0.0)
    if params.gamma == 0:
        return 1.0
    ratio = params.gamma / params.delta
    return 2.0 * ratio ** (params.gamma / params.alpha) * (ratio + 1.0) ** (-params.mu - 1.0)


def g_peak(params: MathieuParams) -> float:
    """Maximizer x0 = (gamma/delta)^(1/alpha) of g; 0 when gamma = 0."""
    if params.gamma == 0:
        return 0.0
    return (params.gamma / params.delta) ** (1.0 / params.alpha)


#: Largest integer b of the Beta integral that `tail_integral` sums in closed form.
_CLOSED_FORM_MAX_B = 64
#: Past s = 1/2 `tail_integral` takes B_s(a, b) as B(a, b) - B_q(b, a) while
#: the cancellation factor B_q / (B - B_q) = I_q / (1 - I_q) stays at most this ...
_REFLECT_MAX = 1.0
#: ... or q = 1 - s is below this, where the series in s would need more than
#: some 37 * 2^7 terms.
_REFLECT_Q = 2.0**-7
#: The incomplete Beta series raises OverflowError past this many terms.
_SERIES_MAX_TERMS = 1 << 20


class _Kernel:
    """What a sum takes from the kernel g of (gamma, alpha, mu) alone, kept
    for the 256 kernels last used (`_kernel`), each part built on first use:
    the exact delta and its rounding, the y-form numerators P_n and their
    models, the factors of `_PowerTail` and the tail integral's constants.
    A dict entry is built outside its dict and put in by setdefault, so
    threads that build one at once all keep the first.

    (a, b) = (mu + 1 - (gamma+1)/alpha, (gamma+1)/alpha) are each rounded
    once from their exact values: a = (delta - 1)/alpha is small where delta
    is near 1; rounded in steps (mu + 1, then minus b) it would carry an
    error relative to mu + 1, not to a, and B(a, b) ~ 1/a would follow.
    (da, db) are those roundings.  `form` is 'a=1', 'a=b=1/2' or 'b=n' when
    a is exactly 1, a and b are both exactly 1/2, or b is exactly a positive
    integer (checked in rationals), else None.
    """

    def __init__(self, gamma: float, alpha: float, mu: float):
        self.gamma, self.alpha, self.mu = gamma, alpha, mu
        # n -> P_n, n -> D^n P_n (`_scaled`), n -> the model of g^(n),
        # k -> `pochhammer(k)`, read first by `_PowerTail`
        self._numerators, self._scaled = {0: (Fraction(1),)}, {0: (1,)}
        self._models, self.factors = {}, {}

    @functools.cached_property
    def exact_delta(self) -> Fraction:
        """alpha (mu+1) - gamma of the float parameters, without rounding."""
        return Fraction(self.alpha) * (Fraction(self.mu) + 1) - Fraction(self.gamma)

    @functools.cached_property
    def delta_error(self) -> float:
        """|MathieuParams.delta - exact_delta|, rounded up."""
        diff = abs(Fraction(self.alpha * (self.mu + 1.0) - self.gamma) - self.exact_delta)
        return polyfun.round_up(diff) if diff else 0.0

    @functools.cached_property
    def exact_ab(self) -> tuple[Fraction, Fraction]:
        alpha = Fraction(self.alpha)
        return (self.exact_delta - 1) / alpha, (Fraction(self.gamma) + 1) / alpha

    a = functools.cached_property(lambda self: float(self.exact_ab[0]))
    b = functools.cached_property(lambda self: float(self.exact_ab[1]))
    da = functools.cached_property(lambda self: float(abs(Fraction(self.a) - self.exact_ab[0])))
    db = functools.cached_property(lambda self: float(abs(Fraction(self.b) - self.exact_ab[1])))

    @functools.cached_property
    def form(self) -> str | None:
        g, alpha, b = Fraction(self.gamma), Fraction(self.alpha), self.b
        if self.a == 1.0 and Fraction(self.mu) * alpha == g + 1:
            return "a=1"
        if self.exact_ab == (Fraction(1, 2), Fraction(1, 2)):
            return "a=b=1/2"
        if b.is_integer() and b <= _CLOSED_FORM_MAX_B and Fraction(b) * alpha == g + 1:
            return "b=n"
        return None

    def numerator(self, n: int) -> tuple[Fraction, ...]:
        """P_n of g^(n)(x) = x^(gamma-n) (1+y)^(-m-n) P_n(y), y = x^alpha,
        m = mu + 1, exact in the Fractions of the float parameters.

        P_0 = 1 and P_{j+1} = (gamma-j)(1+y) P_j - (m+j) alpha y P_j + alpha y (1+y) P_j',
        whose coefficient of y^i is
        (gamma - j + alpha i) p_i - (delta + j + alpha (j+1-i)) p_(i-1).
        The recursion runs in integers (`_scaled`), and each coefficient is
        divided by D^n once.
        """
        poly = self._numerators.get(n)
        if poly is None:
            den = self._common[0] ** n
            poly = self._numerators.setdefault(n, tuple(
                Fraction(c, den) for c in self._scaled_numerator(n)))
        return poly

    @functools.cached_property
    def _common(self) -> tuple[int, int, int, int]:
        """(D, D gamma, D alpha, D delta) in integers, D the least common
        denominator of gamma, alpha and the exact delta (powers of 2)."""
        g, a, d = Fraction(self.gamma), Fraction(self.alpha), self.exact_delta
        den = max(g.denominator, a.denominator, d.denominator)
        return den, *(int(x * den) for x in (g, a, d))

    def _scaled_numerator(self, n: int) -> tuple[int, ...]:
        """D^n P_n: the recursion of `numerator` times D at each step."""
        poly = self._scaled.get(n)
        if poly is None:
            den, g, a, d = self._common
            j = n - 1
            p = (0,) + self._scaled_numerator(j) + (0,)  # p[i] is D^j p_(i-1)
            poly = self._scaled.setdefault(n, tuple(
                (g - j * den + a * i) * p[i + 1] - (d + j * den + a * (j + 1 - i)) * p[i]
                for i in range(n + 1)))
        return poly

    def derivative_at_zero(self, p: int) -> Fraction:
        """g^(p)(0) = p! (-1)^j binom(mu+j, j) where p = gamma + alpha j for an
        integer j >= 0, else 0: the binomial series
        g(x) = sum_j (-1)^j binom(mu+j, j) x^(gamma + alpha j), exact in the
        Fractions of the float parameters.  It is g^(p)(0) for every p up to
        g's smoothness at 0 (`g_smoothness`), so for every p in Z+ x N."""
        j = (p - Fraction(self.gamma)) / Fraction(self.alpha)
        if j < 0 or j.denominator != 1:
            return Fraction(0)
        j, m = int(j), Fraction(self.mu)
        binom = Fraction(math.prod(m + i for i in range(1, j + 1)), math.factorial(j))
        return (-1) ** j * math.factorial(p) * binom

    def model(self, n: int) -> _YDerivative:
        """The `_YDerivative` of g^(n)."""
        model = self._models.get(n)
        if model is None:
            model = self._models.setdefault(n, _YDerivative(self, n))
        return model

    @functools.cached_property
    def models(self) -> tuple[_YDerivative, ...]:
        """`model` for n = 0..TAIL_ORDER, the orders a closed tail takes."""
        return tuple(self.model(n) for n in range(TAIL_ORDER + 1))

    def pochhammer(self, k: int) -> tuple[float, float]:
        """(2 (-delta)(-delta-1)...(-delta-k+1), delta + k) of `_PowerTail`,
        each rounded once from `exact_delta`; k = -1 gives delta - 1."""
        out = self.factors.get(k)
        if out is None:
            d = self.exact_delta
            poch = 2 * math.prod(-(d + j) for j in range(k))
            out = self.factors.setdefault(k, (float(poch), float(d + k)))
        return out

    @functools.cached_property
    def beta(self) -> float:
        """B(a, b)."""
        return polyfun.beta_fn(self.a, self.b)

    @functools.cached_property
    def whole(self) -> float:
        """B(a, b) / alpha, the tail integral from 0."""
        return self.beta / self.alpha

    @functools.cached_property
    def beta_rel(self) -> float:
        """The relative error bound of `beta`."""
        return polyfun.beta_fn_rel_err(self.a, self.b)

    @functools.cached_property
    def whole_rel(self) -> float:
        """The relative error bound of `whole`, to first order: `beta_rel`,
        the division by alpha, and the rounding of (a, b), which moves
        log B(a, b) by psi(a+b) - psi(a) = sum_k b/((a+k)(a+b+k)) per unit of
        a, at most 1/a + log(1 + b/a) (its first term, then an integral),
        and likewise of b."""
        a, b = self.a, self.b
        return (self.beta_rel + 2.0**-53 + self.da * (1.0 / a + math.log1p(b / a))
                + self.db * (1.0 / b + math.log1p(a / b)))

    @functools.cached_property
    def rel(self) -> float:
        """The closed form's relative bound (`_tail_point`), before the
        rounding of (a, b)."""
        a, b = self.a, self.b
        if self.form == "a=1":
            return 16.0 * 2.0**-53
        if self.form == "a=b=1/2":
            return 8.0 * 2.0**-53
        return (8.0 * b + 4.0 * a + 12.0) * 2.0**-53

    @functools.cached_property
    def sum_coeffs(self) -> tuple[float, ...]:
        """(n-1)! / (j! (a+j)...(a+n-1)), j < n, of the b = n form."""
        a, n = self.a, int(self.b)
        out = []
        for j in range(n):
            c = math.factorial(n - 1) / math.factorial(j)
            for i in range(j, n):
                c /= a + i
            out.append(c)
        return tuple(out)

    @functools.cached_property
    def split(self) -> float:
        """The q below which `tail_integral` takes the reflection: 1/2 where
        the cancellation factor I_q / (1 - I_q) is at most _REFLECT_MAX
        there, else near the q where it reaches that bound (it grows with q;
        found by halving, then bisection), and at least _REFLECT_Q.  The
        bounds hold on either side, so only the cost depends on it."""
        def factor(q: float) -> float:
            try:
                part = _reflected_part(self, 1.0 - q, q)[0]
            except OverflowError:
                return math.inf
            return part / (self.beta - part) if part < self.beta else math.inf

        hi = 0.5
        if factor(hi) <= _REFLECT_MAX:
            return hi
        lo = 0.5 * hi
        while factor(lo) > _REFLECT_MAX:
            if lo <= _REFLECT_Q:
                return _REFLECT_Q
            hi, lo = lo, 0.5 * lo
        for _ in range(10):
            mid = 0.5 * (lo + hi)
            if factor(mid) > _REFLECT_MAX:
                hi = mid
            else:
                lo = mid
        return lo


_kernel = functools.lru_cache(maxsize=256)(_Kernel)


def _beta_point(params: MathieuParams, x: float) -> tuple[float, float]:
    """(s, 1 - s) with s = 1/(x^alpha + 1), x > 0, each within 4 roundings,
    through x^(-alpha) past x = 1 so that no power overflows."""
    if x <= 1.0:
        xa = x**params.alpha
        power, pair = xa, (1.0 / (xa + 1.0), xa / (xa + 1.0))
    else:
        xi = x ** -params.alpha
        power, pair = xi, (xi / (1.0 + xi), 1.0 / (1.0 + xi))
    if power < 2.0**-1000:  # s or 1 - s would leave the normal range
        raise OverflowError(f"x^alpha is out of float range at x = {x:g}")
    return pair


def _beta_series(a: float, b: float, s: float) -> tuple[float, float]:
    """(sum_{k>=0} (a+b)_k / (a+1)_k s^k, the mean index k of its terms
    weighted by their values), 0 <= s < 1, a, b > 0 (DLMF 8.17.8:
    B_s(a, b) = s^a (1-s)^b / a times the sum).

    The term ratio (a+b+k)/(a+1+k) s rises to s where b <= 1 and falls to it
    where b > 1, so past the k where R = max(ratio, s) < 1 the rest is at
    most term R / (1 - R); the sum stops where that is at most u = 2^-53,
    and u of the sum, which is at least its first term 1.  R is taken 8u
    high, past the ratio's own rounding.  Term k carries 10 k u: each step
    rounds a + b + k (2u, with a + b), a + 1 + k, the quotient and the two
    products (u each), and s within 4u enters once more.  The terms are
    positive, so the sum is within (10 mean + 2) u: one math.fsum and the
    truncation add u each.  A term past 2^1000 or a sum past
    _SERIES_MAX_TERMS terms raises OverflowError.
    """
    c = a + b
    term, terms, moment, k = 1.0, [1.0], 0.0, 0
    while True:
        ratio = s * (c + k) / (a + (k + 1))
        bound = (ratio if ratio > s else s) * (1.0 + 2.0**-50)
        if bound < 1.0 and term * bound <= 2.0**-53 * (1.0 - bound):
            break
        k += 1
        term *= ratio
        if term > 2.0**1000 or k > _SERIES_MAX_TERMS:
            raise OverflowError(f"the incomplete Beta series diverges in floats at s = {s:g}")
        terms.append(term)
        moment += k * term
    total = math.fsum(terms)
    return total, moment / total


def _powers(c: _Kernel, s: float, q: float) -> float:
    """s^a q^b, each power at least 2^-1000 (else OverflowError)."""
    sa, qb = s**c.a, q**c.b
    if min(sa, qb) < 2.0**-1000:
        raise OverflowError("a power of the incomplete Beta function underflows")
    return sa * qb


def _direct_tail(c: _Kernel, s: float, q: float) -> tuple[float, float]:
    """(s^a q^b sum / (a alpha), its relative error bound): the tail integral
    from the series in s (`_beta_series`).  With s and q within 4u, s^a and
    q^b carry (4a + 2) u and (4b + 2) u (pow within 1 ulp), and the product,
    the sum's product, a alpha and the quotient u each."""
    total, mean = _beta_series(c.a, c.b, s)
    return (_powers(c, s, q) * total / (c.a * c.alpha),
            1.01 * (4.0 * (c.a + c.b) + 10.0 + 10.0 * mean) * 2.0**-53)


def _reflected_part(c: _Kernel, s: float, q: float) -> tuple[float, float]:
    """(B_q(b, a) = q^b s^a sum / b, its relative error bound), the series
    in q with a and b swapped; the roundings are those of `_direct_tail`,
    with one quotient fewer."""
    total, mean = _beta_series(c.b, c.a, q)
    return _powers(c, s, q) * total / c.b, (4.0 * (c.a + c.b) + 9.0 + 10.0 * mean) * 2.0**-53


def _reflected_tail(c: _Kernel, s: float, q: float) -> tuple[float, float]:
    """((B(a, b) - B_q(b, a)) / alpha, its relative error bound): B within
    `beta_rel` and B_q within its own bound, relative to B - B_q, times
    1 + phi and phi with phi = B_q / (B - B_q), plus the difference and the
    quotient, u each."""
    part, part_rel = _reflected_part(c, s, q)
    diff = c.beta - part
    if not diff > 0.0:
        raise OverflowError("B(a, b) - B_q(b, a) cancels")
    phi = part / diff
    return diff / c.alpha, 1.01 * (c.beta_rel * (1.0 + phi) + part_rel * phi + 2.0**-52)


def tail_integral(params: MathieuParams, t: float) -> float:
    """F(t) = int_t^inf g(x) dx via the incomplete Beta function.

    The substitution s = 1/(x^alpha + 1) turns the tail into
    (1/alpha) B_s(a, b) with (a, b) from the kernel's record; convergence
    needs delta > 1.  Where a = 1, a = b = 1/2 (the Poisson kernel and its
    (gamma, 2 gamma + 2, 0) relatives) or b = n is a positive integer,
    B_s has a closed form:
    B_s(1, b) = -expm1(b log(1-s)) / b,
    B_s(1/2, 1/2) = 2 atan(t^(-alpha/2)) and
    B_s(a, n) = s^a sum_{j<n} (n-1)! / (j! (a+j)...(a+n-1)) (1-s)^j.
    Elsewhere B_s(a, b) = s^a (1-s)^b / a sum_k (a+b)_k / (a+1)_k s^k, a
    series of positive terms summed to a proven truncation bound
    (`_beta_series`), up to s = 1/2 (x >= 1).  Past it, with q = 1 - s from
    `_beta_point` (accurate where s is near 1), B(a, b) - B_q(b, a) by the
    same series in q, while its cancellation factor I_q / (1 - I_q) stays
    at most _REFLECT_MAX (or q < _REFLECT_Q), and the series in s
    beyond that (`_Kernel.split`).
    A value or a power below 2^-1000, whose relative error no longer holds
    in float64, raises OverflowError, as does a t whose x^alpha leaves the
    float range.
    """
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if not params.delta > 1.0:
        raise ParameterError("the tail integral diverges unless delta > 1")
    c = _kernel(params.gamma, params.alpha, params.mu)
    if t == 0.0:
        return c.whole
    return _tail_point(params, c, t)[0]


def _tail_point(params: MathieuParams, c: _Kernel, x: float) -> tuple[float, float]:
    """(`tail_integral` at x > 0, the relative bound of the form that gave
    it, before the rounding of (a, b), which `_rounding_rel` adds).

    With u = 2^-53, s and 1-s carry at most 4u (a power within 1 ulp, a sum,
    a quotient).  The a = 1 form then stays within 16u: log1p on s <= 1/2
    at most triples s's error, log of 1-s adds 4u + u |log(1-s)|, and
    expm1 near 0 passes a relative error on unchanged.  The b = n form is a
    sum of positive terms, each within (4n + 4j + 8)u, times s^a within
    (4a + 2)u.  The a = b = 1/2 form stays within 8u: the power within 1 ulp
    (2u), atan, whose relative condition number z/((1+z^2) atan z) is at
    most 1, passes that on and adds 2u, and the product and quotient 1u
    each.  Without a closed form the bound of the series that gives the
    value holds (`_direct_tail`, `_reflected_tail`).  OverflowError
    wherever `tail_integral` raises it.
    """
    s, q = _beta_point(params, x)
    form, a, b = c.form, c.a, c.b
    lead = 1.0
    if form == "a=1":
        # log(1-s) from s where s is small, from 1-s where not
        log_q = math.log1p(-s) if s <= 0.5 else math.log(q)
        value, rel = -math.expm1(b * log_q) / (params.alpha * b), c.rel
    elif form == "a=b=1/2":
        value, rel = 2.0 * math.atan(x ** (-0.5 * params.alpha)) / params.alpha, c.rel
    elif form == "b=n":
        total = 0.0
        for j, coeff in enumerate(c.sum_coeffs):
            total += coeff * q**j
        lead = s**a
        value, rel = lead * total / params.alpha, c.rel
    elif q < 0.5 and q < c.split:
        value, rel = _reflected_tail(c, s, q)
    else:
        value, rel = _direct_tail(c, s, q)
    if min(value, lead) < 2.0**-1000:
        raise OverflowError(f"the tail integral underflows at x = {x:g}")
    return value, rel


def _rounding_rel(params: MathieuParams, c: _Kernel, x: float) -> float:
    """The relative bound that the rounding of (a, b) adds to `_tail_point`
    at x > 0: a and b are rounded once from their exact values, and F moves
    by at most |da| (|log s| + 1/a) F and |db| |log(1-s)| F under such a
    change."""
    if not (c.da or c.db):
        return 0.0
    # -log s = log(x^alpha + 1), -log(1-s) = that minus alpha log x
    log_x = params.alpha * math.log(x)
    log_s = log_x + math.log1p(x ** -params.alpha) if x > 1.0 else math.log1p(x**params.alpha)
    return 1.01 * (c.da * (log_s + 1.0 / c.a) + c.db * (log_s - log_x))


# --------------------------------------------------------------------------
# direct summation with rigorous tail brackets
# --------------------------------------------------------------------------

def _check_t_tol(t: float, tol: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ParameterError("t must be finite and nonnegative")
    if not 0.0 < tol < math.inf:
        raise ParameterError("tol must be finite and positive")


def _pow(x, e: float):
    """x**e, bit for bit, with the ufunc dispatch of a pow skipped for e = 1, 2."""
    if e == 1.0:
        return x
    if e == 2.0:
        return x * x
    return x**e


def _t_alpha(t: float, alpha: float) -> float:
    """t^alpha for the denominators of the terms, t >= 0."""
    try:
        return t**alpha if t > 0 else 0.0
    except OverflowError:
        raise OverflowError(f"t^alpha = {t:g}^{alpha:g} overflows a float") from None


def _terms(params: MathieuParams, t: float):
    """k -> the terms 2 (k+u)^gamma / ((k+u)^alpha + t^alpha)^(mu+1) at an
    index or an index array; a sum takes its head from `_term_chunks`,
    which gives these bits at each index of a head of at most CLOSED_HEAD
    terms and the array's bits past it.

    At one index, where the denominator leaves the float range (Python's
    float pow raises there, a product gives inf), the term is below its
    numerator times 2^-1024, and that rounded up stands for it: callers
    take a single term as an upper bound.  An index array gives 0 there.
    OverflowError names t^alpha where that leaves the float range.
    """
    u, gamma, alpha, m = params.u, params.gamma, params.alpha, params.mu + 1.0
    ta = _t_alpha(t, alpha)

    def terms(k):
        w = k + u if u else k  # bit for bit: an int k enters each float op exactly
        num = 2.0 if gamma == 0 else 2.0 * _pow(w, gamma)
        try:
            den = _pow(_pow(w, alpha) + ta, m)
        except OverflowError:
            den = math.inf
        if isinstance(den, float) and den == math.inf:
            return math.nextafter(num * 2.0**-1024, math.inf)
        return num / den

    return terms


class _HeadCache:
    """The t-independent factors of the head's terms per kernel and index
    range, for ranges of at most CROSSOVER terms; past `limit` bytes the
    least recently used entries go."""

    def __init__(self, limit: int):
        self.limit, self.size, self.entries = limit, 0, OrderedDict()
        self.lock = threading.Lock()

    def factors(self, gamma: float, alpha: float, u: float, lo: int, hi: int) -> tuple:
        """(2 w^gamma, w^alpha, w^alpha at lo, w^alpha at hi-1) for
        w = k + u, k = lo..hi-1.  A range within the first CLOSED_HEAD
        indices, a head summed in one fsum (`_sum_terms`), gives tuples of
        floats with the operations of `_terms` at one index; a longer one
        gives read-only arrays with the ufuncs and the order of `_terms` on
        an index array, 2 w^gamma the float 2.0 where gamma = 0.  A factor
        past the float range is inf.  No key holds t or mu."""
        key = (gamma, alpha, u, lo, hi)
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                return entry
            if hi <= CLOSED_HEAD + 1:
                # bit for bit: an int k enters each float op exactly
                ws = [k + u if u else float(k) for k in range(lo, hi)]
                num = tuple(2.0 * _pow_or_inf(w, gamma) for w in ws)
                wa = tuple(_pow_or_inf(w, alpha) for w in ws)
            else:
                import numpy as np

                k = np.arange(lo, hi, dtype=float)
                w = k + u if u else k
                with np.errstate(all="ignore"):
                    num = 2.0 if gamma == 0 else 2.0 * _pow(w, gamma)
                    wa = _pow(w, alpha)
                for a in (num, wa):
                    if not isinstance(a, float):
                        a.flags.writeable = False
            entry = num, wa, float(wa[0]), float(wa[-1])
            if hi - lo <= CROSSOVER:
                self.entries[key] = entry
                self.size += self.nbytes(entry)
                while self.size > self.limit:
                    self.size -= self.nbytes(self.entries.popitem(last=False)[1])
            return entry

    @staticmethod
    def nbytes(entry: tuple) -> int:
        """The entry's size, a tuple's float at 32 B (its slot and the float)."""
        return sum(32 * len(a) if isinstance(a, tuple) else a.nbytes
                   for a in entry[:2] if not isinstance(a, float))


#: Head factors of every direct, convex-kernel and theta sum, at most
#: 256 KiB: one CROSSOVER-term entry of two arrays, four of 4,096 terms or
#: 64 of 64 terms.  Larger budgets raised the peak RSS of
#: `verify all` by 1.1 MB (512 KiB) to 1.8 MB (4 MiB), through the heap
#: pages the long-lived arrays pin; this one by 0.2 MB.
_HEAD_CACHE = _HeadCache(256 << 10)


def _pow_or_inf(x: float, e: float) -> float:
    """`_pow` of floats, inf where Python's pow overflows, as numpy's does."""
    try:
        return _pow(x, e)
    except OverflowError:
        return math.inf


def _quotient(num: float, base: float, m: float) -> float:
    """num / base^m, num >= 0, as numpy's arithmetic gives it: a power past
    the float range is inf, and a quotient by 0 is inf (nan for 0 / 0)."""
    den = _pow_or_inf(base, m)
    return num / den if den else (math.inf if num > 0.0 else math.nan)


def _term_chunks(params: MathieuParams, t: float):
    """(lo, hi) -> the terms at k = lo..hi-1: within the first CLOSED_HEAD
    indices a new list, bit for bit `_terms(params, t)` at each k where its
    denominator stays in the float range; past them a new array, bit for
    bit `_terms(params, t)` at np.arange(lo, hi).  The factors that do not
    depend on t come from `_HEAD_CACHE`, and each call takes only
    (w^alpha + t^alpha)^(mu+1) and the quotient.  Where a denominator
    leaves the float range (or one is 0), a term there is 0 (or inf), as
    numpy's arithmetic gives it, with no warning: a list is built again
    term by term where Python's arithmetic raises, and an array runs with
    numpy's warnings off unless its first and last denominators, which
    bound the rest as mu + 1 > 0 for every series, are in range.
    """
    gamma, alpha, u, m = params.gamma, params.alpha, params.u, params.mu + 1.0
    ta = _t_alpha(t, alpha)
    factors = _HEAD_CACHE.factors

    def chunk(lo, hi):
        num, wa, first, last = factors(gamma, alpha, u, lo, hi)
        if hi <= CLOSED_HEAD + 1:  # `_pow` inlined: a call per term costs a third more
            try:
                if m == 1.0:
                    return [a / (b + ta) for a, b in zip(num, wa)]
                if m == 2.0:
                    return [a / ((b + ta) * (b + ta)) for a, b in zip(num, wa)]
                return [a / (b + ta) ** m for a, b in zip(num, wa)]
            except ArithmeticError:  # Python's pow overflows, or a denominator is 0
                return [_quotient(a, b + ta, m) for a, b in zip(num, wa)]
        try:  # Python's pow, with a factor 2 to spare for numpy's
            quiet = 2.0**-1022 < (first + ta) ** m and (last + ta) ** m < 2.0**1023
        except ArithmeticError:
            quiet = False
        if quiet:
            return num / _pow(wa + ta, m)
        import numpy as np

        with np.errstate(all="ignore"):
            return num / _pow(wa + ta, m)

    return chunk


def convex_chunks(g, u: float, y: float):
    """(lo, hi) -> the terms 2 w g(w^2 + y), w = k + u, at k = lo..hi-1,
    for convex-kernel series (`bracketed_sum`), a new list within the first
    CLOSED_HEAD indices and a new array past them; 2w and w^2 are the
    gamma=1, alpha=2 factors of `_HEAD_CACHE`, and g takes them as one
    array, so the terms are bit for bit (2.0 * w) * g(w * w + y) on
    np.arange(lo, hi)."""
    factors = _HEAD_CACHE.factors

    def chunk(lo, hi):
        num, ww, _, _ = factors(1.0, 2.0, u, lo, hi)
        if hi <= CLOSED_HEAD + 1:
            import numpy as np

            return (np.array(num) * g(np.array(ww) + y)).tolist()
        return num * g(ww + y)

    return chunk


def _monotone_from(params: MathieuParams, t: float) -> int:
    """Index from which the terms are decreasing in k (peak of g mapped to k)."""
    k0 = t * g_peak(params) - params.u
    return max(1, int(math.ceil(k0)) + 1)


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
    and F(t) = inf for t <= 0, where the integral diverges.  At y = t^2 its
    series is the plain gamma=1, alpha=2 Mathieu series."""

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
    """g(x) = exp(-lam x); tail F(t) = exp(-lam t)/lam with closed-form inverse.
    With lam = x and y = -(1+u)^2 its series is the theta series of `log_phi_u`."""

    def __init__(self, lam: float):
        if lam <= 0:
            raise ParameterError("lam must be positive")
        self.lam = lam

    def g(self, x):
        import numpy as np

        return np.exp(-self.lam * x)

    def tail(self, t: float) -> float:
        return math.exp(-self.lam * t) / self.lam

    def tail_inverse(self, s: float) -> float:
        return -math.log(self.lam * s) / self.lam


def hermite_hadamard(kernel: ConvexKernel, w: float, y: float) -> tuple[float, float]:
    """Hermite-Hadamard bounds (lo, hi) for sum_{k>=1} 2(w+k) g((w+k)^2 + y).

    For the kernel's convex, decreasing g with tail integral F(s) = int_s^inf g,
    the trapezoid rule on [(w+k)^2 + y, (w+k+1)^2 + y] gives the lower bound
    (w >= -3/2) and the midpoint rule on [(w+k-1)(w+k) + y, (w+k)(w+k+1) + y]
    the upper one (w >= -1):

        F((w+1)^2 + y) + (w + 1/2) g((w+1)^2 + y)  <=  sum  <=  F(w(w+1) + y).
    """
    s1 = (w + 1.0) ** 2 + y
    return kernel.tail(s1) + (0.5 + w) * kernel.g(s1), kernel.tail(w * (w + 1.0) + y)


def _hh_tail(kernel: ConvexKernel, u: float, y: float):
    """n -> (midpoint, half-width, order 0) of the Hermite-Hadamard bounds
    for the rest sum_{k>n} 2(k+u) g((k+u)^2 + y): the tail of `_doubled_head`
    for `bracketed_sum` and the gamma=1, alpha=2 ladder of `_direct`."""

    def tail(n: int) -> tuple[float, float, int]:
        lo, hi = hermite_hadamard(kernel, n + u, y)
        return 0.5 * (hi + lo), 0.5 * (hi - lo), 0

    return tail


def _term_rtol(params: MathieuParams) -> float:
    """Relative rounding bound of one value of _terms.

    With unit roundoff u, k + u carries a relative error u, each power adds
    its argument's error times the exponent plus 2u (pow is within 1 ulp),
    and each sum, product or quotient of positive values adds u; the first-
    order count is |gamma| + |mu+1|(alpha+3) + 5, and one more u covers the
    second-order products.
    """
    count = abs(params.gamma) + abs(params.mu + 1.0) * (params.alpha + 3.0) + 6.0
    return count * 2.0**-53


def _sum_terms(chunk, n: int, alternating: bool = False) -> tuple[float, float, float]:
    """(sum, sum of |terms|, sum of |terms| that numpy summed pairwise) of
    the terms at k = 1..n, where chunk(lo, hi) gives the terms at
    k = lo..hi-1 (`_term_chunks`, `convex_chunks`), a new list within the
    first CLOSED_HEAD indices and a new array past them; with
    `alternating`, term k carries the sign (-1)^(k-1), set in that list or
    array, so a cached factor never sees it.

    A head of at most CLOSED_HEAD terms is one math.fsum, exact up to its
    final rounding, so no part of it is summed pairwise.  A longer one adds
    its first _EXACT_HEAD terms, where a decreasing series keeps most of its
    mass, in one math.fsum with the rest's chunk sums, so they carry only
    the final rounding; the rest is accumulated pairwise by numpy in chunks,
    whose error is at most PAIRWISE_RTOL times its sum of |terms|.  Every
    term past the first that a caller passes is at least 0 before its sign
    (the Mathieu terms and `log_phi_u`'s have k + u > 0, and
    `sharp.convex_series` can have a negative term only at k = 1), so the
    sum of the unsigned terms is their sum of |terms| where the first is at
    least 0, and a chunk's sum of |terms| is the pairwise sum of its
    unsigned terms bit for bit: one reduce of a plain chunk gives both, and
    an alternating chunk is reduced once before its sign flip and once
    after.
    """
    if n <= CLOSED_HEAD:
        terms = chunk(1, n + 1)
        total = math.fsum(terms)
        absolute = math.fsum(map(abs, terms)) if terms[0] < 0.0 else total
        if alternating:
            terms[1::2] = [-x for x in terms[1::2]]
            total = math.fsum(terms)
        return total, absolute, 0.0
    import numpy as np

    head = []
    chunks = []
    abs_chunks = []
    step = 1 << 18
    for lo in range(1, n + 1, step):
        arr = chunk(lo, min(n + 1, lo + step))
        rest = arr[_EXACT_HEAD:] if lo == 1 else arr  # a view: it sees the sign flip
        abs_chunks.append(float(np.add.reduce(rest)))
        if alternating:
            arr[1::2] *= -1.0  # lo is odd, so the odd positions hold the even k
            chunks.append(float(np.add.reduce(rest)))
        if lo == 1:
            head = arr[:_EXACT_HEAD].tolist()
    rest_abs = math.fsum(abs_chunks)
    return (math.fsum(head + (chunks if alternating else abs_chunks)),
            math.fsum(map(abs, head)) + rest_abs, rest_abs)


def bracketed_sum(kernel: ConvexKernel, u: float, y: float, tol: float) -> EvalResult:
    """sum_{k>=1} 2(k+u) g((k+u)^2 + y) for the kernel's g: `_doubled_head`
    from 16 terms (`convex_chunks`, whose factors are cached per u and
    range, the same bits whatever the cache holds) with the Hermite-Hadamard
    tail `_hh_tail`, doubled while the bracket is wider than tol and
    narrows, up to the term cap MAX_TERMS.

    The caller keeps every term past the first at least 0 (`_sum_terms` takes
    a sum of terms as their sum of |terms|) and the tail bounds valid from
    n = 16 (`hermite_hadamard`: 16 + u >= -1); each term is within 4e-15 of
    the exact one.
    """
    return _doubled_head(convex_chunks(kernel.g, u, y), _hh_tail(kernel, u, y), 16, tol,
                         4e-15, MAX_TERMS)


def _doubled_head(chunk, tail, n: int, tol: float, term_rtol: float, cap: int,
                  alternating: bool = False) -> EvalResult:
    """The sum of the first n terms plus tail(n) = (value, radius, order) of
    the rest, n doubled while 2 radius exceeds tol and falls, as long as 2n
    stays within the cap.  ToleranceError where n starts past the cap, or
    names the narrowest radius where none meets tol; OverflowError where the
    radius is not below inf.  Every term past the first is at least 0 before
    its alternating sign (`_sum_terms`).
    """
    if n > cap:
        raise ToleranceError(f"a head of {n} terms is past the {cap}-term cap")
    rest = tail(n)
    while 2.0 * rest[1] > tol and 2 * n <= cap:
        longer = tail(2 * n)
        if not longer[1] < rest[1]:
            break
        n, rest = 2 * n, longer
    if 2.0 * rest[1] > tol:
        raise ToleranceError(f"tail radius {rest[1]:.3g} past {n} terms, the narrowest as the "
                             f"head doubled toward the {cap}-term cap, exceeds "
                             f"tol/2 = {0.5 * tol:.3g}")
    partial, partial_abs, pairwise_abs = _sum_terms(chunk, n, alternating)
    value = partial + rest[0]
    # per-term rounding, pairwise accumulation, and the roundings of the
    # final fsum and of the tail's addition
    slack = (term_rtol * partial_abs + PAIRWISE_RTOL * pairwise_abs
             + 2.0**-53 * (abs(partial) + abs(value)) + 1e-300)
    radius = rest[1] + slack
    if not radius < math.inf:
        raise OverflowError(f"the sum of {n} terms leaves the float range")
    # positional: keywords double the cost of this tuple, about 0.6 us a sum
    return EvalResult(value, radius, radius, DIRECT, n, True, rest[2])


def _direct(params: MathieuParams, t: float, tol: float, alternating: bool) -> EvalResult:
    """The sum past a head.  Plain sums of the gamma=1, alpha=2 family, the
    series of `PowerKernel(mu)` at y = t^2, climb the Hermite-Hadamard
    ladder (`_hh_tail`) from the monotone index, at least CLOSED_HEAD, up to
    min(CROSSOVER, MAX_TERMS); past it, and for every other sum,
    `_closed_tail` closes the rest past a head of CLOSED_HEAD terms;
    `_doubled_head` doubles both heads.  A tail out of the float
    range has an infinite radius.  Past the monotone index an alternating
    tail that misses tol gives way to the narrower one-term bracket
    [0, f(head+1)] (with that term's sign), as at huge t, where the shifted
    kernel leaves the float range and the t = 0 tail's drift is meaningless.
    """
    chunk = _term_chunks(params, t)
    rtol = _term_rtol(params)
    if not alternating and params.gamma == 1.0 and params.alpha == 2.0:
        try:
            return _doubled_head(chunk, _hh_tail(PowerKernel(params.mu), params.u, t * t),
                                 max(_monotone_from(params, t), CLOSED_HEAD), tol, rtol,
                                 min(CROSSOVER, MAX_TERMS))
        except ToleranceError:
            pass

    def tail_past(head: int) -> tuple[float, float, int]:
        try:
            tail = _closed_tail(params, t, alternating, head)
        except OverflowError:
            tail = (0.0, math.inf, TAIL_ORDER)
        if alternating and 2.0 * tail[1] > tol and head >= _monotone_from(params, t):
            # past the monotone index the rest lies between 0 and the next term
            half = 0.5 * (float(_terms(params, t)(head + 1)) * (1.0 + 2.0 * rtol))
            if half < tail[1]:
                return half, half, 0
        return tail

    return _doubled_head(chunk, tail_past, CLOSED_HEAD, tol, rtol, MAX_TERMS, alternating)


def eval_S(params: MathieuParams, t: float, tol: float = 1e-10) -> EvalResult:
    """Direct summation of the plain series with a rigorous error bracket
    (`_direct`): a 64-term head and its Euler-Maclaurin tail, or in the
    gamma=1, alpha=2 family the Hermite-Hadamard ladder.  The radius adds
    rounding slack, so it meets tol whenever tol is achievable in float64
    (roughly tol >= 2 _term_rtol(params) times the sum of absolute terms,
    4e-15 times it for the classical series); it is honest either way.
    """
    params.require_delta(1.0)
    _check_t_tol(t, tol)
    return _direct(params, t, tol, False)


def eval_S_alt(params: MathieuParams, t: float, tol: float = 1e-10) -> EvalResult:
    """Direct summation of the alternating series with a rigorous error
    bracket (`_direct`): a 64-term head and its Boole tail."""
    params.require_delta(0.0)
    _check_t_tol(t, tol)
    return _direct(params, t, tol, True)


def s_mu(mu: float, t: float, u: float, tol: float = 1e-10) -> EvalResult:
    """The gamma=1, alpha=2 family sum_{k>=1} 2(k+u) / ((k+u)^2 + t^2)^(mu+1).

    Unlike the general evaluator this accepts any real u: whole terms with
    k + u = 0 are dropped, and the finitely many terms with k + u < 0 are
    summed directly before the positive, eventually-monotone remainder is
    bracketed as usual.  The radius adds the head's roundings: each term's
    (`_term_rtol`), their fsum's and the final addition's.
    """
    if mu <= 0:
        raise ParameterError("mu must be positive")
    if u > -1:
        return eval_S(MathieuParams(1.0, 2.0, mu, u), t, tol)
    head_end = int(math.floor(-u)) + 1  # first index with k + u > 0
    terms = [2.0 * (k + u) / ((k + u) ** 2 + t * t) ** (mu + 1.0)
             for k in range(1, head_end + 1) if k + u != 0.0]
    head = math.fsum(terms)
    # u + head_end is exact: head_end / 2 <= -u < head_end (Sterbenz)
    rest = MathieuParams(1.0, 2.0, mu, u + head_end)
    shifted = eval_S(rest, t, tol)
    value = head + shifted.value
    rounding = (_term_rtol(rest) * math.fsum(map(abs, terms))
                + 2.0**-53 * (abs(head) + abs(value)))
    return EvalResult(
        value=value,
        err_lo=shifted.err_lo + rounding,
        err_hi=shifted.err_hi + rounding,
        method=DIRECT,
        terms_used=shifted.terms_used + head_end,
        order=shifted.order,
    )


# --------------------------------------------------------------------------
# large-t expansions
# --------------------------------------------------------------------------

def _require_integer_regime(params: MathieuParams, n: int) -> tuple[int, int]:
    if n < 0:
        raise ParameterError("the number of correction terms must be nonnegative")
    if not params.integer_regime:
        raise RegimeError("the expansion needs gamma in Z+ and alpha in N")
    return int(params.gamma), int(params.alpha)


def _corrections(params: MathieuParams, gam: int, alp: int, n: int,
                 family: str) -> tuple[list[float], list[float]]:
    """The powers of 1/t and the coefficients of the first n corrections of
    an expansion in Z+ x N: at alpha (mu + 1 + j), 2 w_p g^(p)(0) with
    p = gamma + alpha j, w_p the exact weight of the family
    (`emsum.boundary_weight`) and g^(p)(0) = p! (-1)^j binom(mu+j, j)
    (`_Kernel.derivative_at_zero`), their exact product rounded once.
    g^(k)(0) is 0 at every other k, so the engine's other terms vanish."""
    c = _kernel(params.gamma, params.alpha, params.mu)
    powers, coeffs = [], []
    for j in range(n):
        p = gam + alp * j
        order = p + 1 if family == polyfun.BERNOULLI else p
        if order > polyfun.MAX_ORDER:
            raise OrderOverflowError(
                f"correction {j} needs the {family.capitalize()} polynomial of order {order}")
        powers.append(params.alpha * (j + params.mu + 1.0))
        coeffs.append(float(2 * emsum.boundary_weight(family, params.u, p)[0]
                            * c.derivative_at_zero(p)))
    return powers, coeffs


def asym_S(params: MathieuParams, n: int) -> emsum.AsymptoticSeries:
    """Large-t expansion of the plain series, as powers of 1/t: the terms of
    the Euler-Maclaurin sum of head 0 (`eval_em`),
    2 t^(-delta) [t int_0^inf g + sum_k w_k t^(-k) g^(k)(0)].

    Leading term 2 B(a, b) / alpha (`_Kernel.whole`) at power delta - 1, then
    n corrections with the Bernoulli weights (`_corrections`).
    """
    gam, alp = _require_integer_regime(params, n)
    params.require_delta(1.0)
    powers, coeffs = _corrections(params, gam, alp, n, polyfun.BERNOULLI)
    lead = 2.0 * _kernel(params.gamma, params.alpha, params.mu).whole
    return emsum.AsymptoticSeries(powers=(params.delta - 1.0, *powers), coeffs=(lead, *coeffs))


def asym_S_alt(params: MathieuParams, n: int) -> emsum.AsymptoticSeries:
    """Large-t expansion of the alternating series: the terms of the Boole
    sum, n corrections with the Euler weights (`_corrections`)."""
    gam, alp = _require_integer_regime(params, n)
    params.require_delta(0.0)
    powers, coeffs = _corrections(params, gam, alp, n, polyfun.EULER)
    return emsum.AsymptoticSeries(powers=tuple(powers), coeffs=tuple(coeffs))


def eval_asym(params: MathieuParams, t: float) -> EvalResult:
    """The plain-series expansion at t with its certified remainder:
    `eval_em`'s bracket, with its inputs and exceptions.

    Head 0's order-8 Euler-Maclaurin estimate is `asym_S` summed through its
    corrections of order at most 8 (the other g^(k)(0) are 0), and its
    radius is the engine's remainder bound plus every rounding.
    """
    return eval_em(params, t)


# --------------------------------------------------------------------------
# Euler-Maclaurin path and dispatch
# --------------------------------------------------------------------------

class _YDerivative:
    """g^(n) in the y-form x^(gamma-n) (1+y)^(-m-n) P_n(y), y = x^alpha and
    m = mu + 1, evaluated in floats at x > 0 with a rounding bound, for every
    kernel (`_Kernel.numerator`), and in Z+ x N, where every power is an
    integer, at x in (-1, 0] too.

    With P_n = sum_(lo <= i <= hi) c_i y^i, the value is
    x^(gamma - n + alpha lo) (1+y)^(-m-n) sum c_i y^(i-lo) up to x = 1, and past
    it x^(alpha (hi-n) - delta - n) (1+z)^(-m-n) sum c_i z^(hi-i) with
    z = x^(-alpha) = 1/y, so no power overflows where g^(n) is a float.  At
    x = 0 it is the exact g^(n)(0) of `_Kernel.derivative_at_zero` rounded
    once (`at_zero`, taken in Z+ x N alone, where g is smooth).  g^(n)
    turns only where P_(n+1) vanishes: at its positive roots, isolated
    exactly in y once (`turns`) and mapped outward to x through
    y^(1/alpha), and left of 0 at those of `left_turns`.
    """

    def __init__(self, kernel: _Kernel, n: int):
        self.kernel, self.n = kernel, n
        self.gamma, self.alpha, self.mu = gamma, alpha, mu = kernel.gamma, kernel.alpha, kernel.mu
        poly = kernel.numerator(n)
        nonzero = [i for i, c in enumerate(poly) if c]
        lo, hi = nonzero[0], nonzero[-1]
        self.spread = hi - lo  # the degree of both polynomials below
        g, a, m = Fraction(gamma), Fraction(alpha), Fraction(mu) + 1
        # (c, |c|) pairs, highest power first, of sum c_i z^(hi-i) past x = 1
        # and of sum c_i y^(i-lo) up to it, each with its power of x: the
        # power, its magnitude, its rounding and that of the pow (0 for x^0)
        ascending = tuple((float(c), abs(float(c))) for c in poly[lo:hi + 1])
        high = (ascending, polyfun.rounded(a * (hi - n) - (a * m - g) - n))
        low = (ascending[::-1], polyfun.rounded(g - n + a * lo))
        self.forms = tuple((c[0], c[1:], power, abs(power), err, 2.0**-52 if power else 0.0)
                           for c, (power, err) in (high, low))
        base_power, base_power_err = polyfun.rounded(-(m + n))
        self.base = (base_power, abs(base_power), base_power_err)
        #: g^(n)(0) and its rounding
        self.at_zero = polyfun.rounded(kernel.derivative_at_zero(n))

    def value(self, x: float) -> tuple[float, float]:
        """g^(n) at x and a bound on the error of the value."""
        if not x:
            return self.at_zero
        return _values_at((self,), _y_point(self.alpha, x))[0]

    def _sup_next(self, l: float, h: float) -> float:
        """Upper bound on |g^(n+2)| over [l, h], 0 < l < h < inf, in floats
        with a factor 2 for their rounding: each factor at its worse end."""
        poly = self.kernel.numerator(self.n + 2)
        e, y = self.gamma - self.n - 2.0, h**self.alpha
        size = math.fsum(abs(float(c)) * y**i for i, c in enumerate(poly))
        return 2.0 * max(l**e, h**e) * (1.0 + l**self.alpha) ** -(self.mu + 3.0 + self.n) * size

    def _sup_near_zero(self, r: float) -> float:
        """Upper bound on |g^(n+2)| over [-r, r], 0 < r < 1, in Z+ x N, as
        `_sup_next` bounds it on the first form, whose power of |x| is at
        least 0 there, with 1 + y between 1 - r^alpha and 1 + r^alpha."""
        poly = self.kernel.numerator(self.n + 2)
        lo = next(i for i, c in enumerate(poly) if c)
        e, y = self.gamma - self.n - 2.0 + self.alpha * lo, r**self.alpha
        size = math.fsum(abs(float(c)) * y**i for i, c in enumerate(poly[lo:]))
        p = -(self.mu + 3.0 + self.n)
        return 2.0 * r**e * max((1.0 - y) ** p, (1.0 + y) ** p) * size

    def _turns(self, spans, sup) -> list[list]:
        """[l, h, value at l, value at h, allowance] for each x-interval (l, h)
        of spans, in increasing order, those that overlap merged.  Inside one,
        g^(n+1) vanishes, so the variation of g^(n) there is at most
        (h - l)^2 sup(l, h), with sup(l, h) >= sup |g^(n+2)| over [l, h] (the
        allowance; None where l = 0, and a value None at 0 or where it leaves
        the float range)."""
        out = []
        for l, h in spans:
            if out and l <= out[-1][1]:
                out[-1][1] = max(out[-1][1], h)
            else:
                out.append([l, h])
        for turn in out:
            l, h = turn
            turn += [self._value_or_none(l), self._value_or_none(h), None]
            if l:
                try:
                    turn[4] = (h - l) ** 2 * sup(l, h)
                except OverflowError:
                    turn[4] = math.inf
        return out

    @functools.cached_property
    def turns(self) -> list[list]:
        """`_turns` of g^(n) on [0, inf): each positive root of P_(n+1) lies
        in an exact interval in y, whose ends map to x = y^(1/alpha), rounded
        outward (`_x_of_y`) by (4 + (1 + |log y|)/alpha) 2^-52 of x, which
        covers the pow and the roundings of 1/alpha and of y."""
        poly = self.kernel.numerator(self.n + 1)
        return self._turns(((_x_of_y(float(yl), self.alpha, -1.0),
                             _x_of_y(float(yh), self.alpha, 1.0))
                            for yl, yh in polyfun.real_root_intervals(poly, Fraction(0))),
                           self._sup_next)

    @functools.cached_property
    def left_turns(self) -> list[list]:
        """`_turns` of g^(n) on [-1/2, 0), in Z+ x N.  There y = (-1)^alpha v
        with v = |x|^alpha, so each turning point is a root v < 2^-alpha of
        P_(n+1)((-1)^alpha v) / v^lo, which is c_lo != 0 at v = 0; its exact
        interval in v maps outward to x = -v^(1/alpha)."""
        poly = self.kernel.numerator(self.n + 1)
        lo = next(i for i, c in enumerate(poly) if c)
        alpha = int(self.alpha)
        flipped = tuple(c * (-1) ** (alpha * i) for i, c in enumerate(poly[lo:]))
        spans = [(-_x_of_y(float(vh), self.alpha, 1.0), -_x_of_y(float(vl), self.alpha, -1.0))
                 for vl, vh in reversed(polyfun.real_root_intervals(flipped, Fraction(0)))
                 if vl < Fraction(1, 2**alpha)]
        return self._turns(spans, lambda l, h: self._sup_near_zero(-l))

    def _value_or_none(self, x: float) -> tuple[float, float] | None:
        try:
            return self.value(x) if x else None
        except OverflowError:
            return None

    def pieces(self, a: float, b: float, first: tuple[float, float] | None = None
               ) -> tuple[list[float], float]:
        """SmoothFunction.monotone_pieces for g^(n) on [a, b], 0 < a < b <= inf,
        and in Z+ x N also 0 = a or -1/2 <= a < b <= 0, with `first` its value
        at a where known."""
        knots, allowances = [first or self.value(a)], []
        for l, h, vl, vh, allowance in self.left_turns if b <= 0.0 else self.turns:
            if h <= a or l >= b:
                continue
            if l > a:
                knots.append(vl)
            else:  # the interval holds a: only [a, h] counts
                end = min(h, b)
                allowance = (end - a) ** 2 * (self._sup_next(a, end) if a > 0.0
                                              else self._sup_near_zero(max(-a, end)))
            allowances.append(allowance)
            if h < b:
                knots.append(vh)
        knots.append((0.0, 0.0) if b == math.inf else self.value(b))
        if None in knots:
            raise OverflowError(f"g^({self.n}) leaves the float range at a turning point")
        values, errs = zip(*knots)
        # nonnegative terms, each rounded up, and one correctly rounded fsum
        return list(values), math.fsum(allowances + [*errs, *errs]) * (1.0 + 2.0**-50)


def _values_at(models, point: tuple) -> list[tuple[float, float]]:
    """g^(n) and a bound on its error at a point from `_y_point`, for each
    `_YDerivative` in models.

    The relative errors add up to first order, as in `_term_rtol`: w and
    1 + w carry the errors `_y_point` gives them, each pow its argument's
    error times the exponent, plus 2u, plus the exponent's rounding times
    |log| of its argument, and the two products u each.  Horner's roundings
    stay within u (2 run - |p|), a running error bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1), the rounding of the
    coefficients adds u sum |c_i| w^i, and the error of w at most the degree
    times that error times the same sum, with |w| in both sums where w < 0.
    The factor 1.01 covers the second-order terms.  A power or scale outside
    [2^-1000, 2^1000] in size raises OverflowError.
    """
    x, low, w, w_abs, w_err, base, base_err, log_x, log_base = point
    u = 2.0**-53
    out = []
    for model in models:
        (p, size), rest, power, power_abs, power_err, power_rounding = model.forms[low]
        base_power, base_power_abs, base_power_err = model.base
        factor = x**power * base**base_power
        scale = abs(factor)
        if not 2.0**-1000 <= scale <= 2.0**1000:
            raise OverflowError(f"g^({model.n}) leaves the float range at x = {x:g}")
        run = 0.5 * size
        for c, c_abs in rest:
            p = p * w + c
            run = run * w_abs + abs(p)
            size = size * w_abs + c_abs
        # the pow of x, the pow of 1 + w (2u) and the two products (2u)
        rel = (power_err * log_x + power_rounding
               + base_power_abs * base_err + base_power_err * log_base + 4.0 * u)
        p_err = u * (2.0 * run - abs(p)) + (u + model.spread * w_err) * size
        v = factor * p
        out.append((v, 1.01 * (abs(v) * rel + scale * p_err) + 1e-300))
    return out


def _y_point(alpha: float, x: float) -> tuple:
    """What `_values_at` takes from a point x > 0, or x in (-1, 0) for an
    integer alpha: (x, x <= 1, w, |w|, its relative error, 1 + w, its
    relative error, |log |x||, |log(1 + w)|), with w = x^alpha up to x = 1
    and x^(-alpha) past it.  w is within 0 (x itself), u (a product or a
    quotient), 2u (x * x, then its reciprocal) or 1 ulp (a pow) of the power
    of x; 1 + w adds u, and carries w's error times |w|/(1+w)."""
    u = 2.0**-53
    if x <= 1.0:
        w = x if alpha == 1.0 else x * x if alpha == 2.0 else x**alpha
        w_err = 0.0 if alpha == 1.0 else u if alpha == 2.0 else 2.0 * u
    else:
        w = 1.0 / x if alpha == 1.0 else 1.0 / (x * x) if alpha == 2.0 else x**-alpha
        w_err = u if alpha == 1.0 else 2.0 * u
    base, w_abs = 1.0 + w, abs(w)
    return (x, x <= 1.0, w, w_abs, w_err, base, w_err * w_abs / base + u,
            abs(math.log(abs(x))), abs(math.log(base)))


def _x_of_y(y: float, alpha: float, side: float) -> float:
    """A float beyond Y^(1/alpha) on the given side (-1 below, +1 above), for
    the Y that y was rounded from once.  The margin is
    (4 + (1 + |log y|)/alpha) 2^-52 of x: 4 2^-52 covers the pow's 1 ulp and
    the product's rounding; the rounding of 1/alpha moves the exponent by at
    most 2^-53/alpha, so x by |log y| 2^-53/alpha; and y within 2^-53 of Y
    moves x by 2^-53/alpha.  Each is taken twice over."""
    if y < 2.0**-1000:
        if side < 0.0:
            return 0.0
        y = 2.0**-1000
    x = y ** (1.0 / alpha)
    return x * (1.0 + side * (4.0 + (1.0 + abs(math.log(y))) / alpha) * 2.0**-52)


class MathieuSmoothFunction(emsum.SmoothFunction):
    """The kernel g, shifted to x -> g(x + shift), presented through the
    summation-engine contract.

    At every shift it is one model in floats: the derivatives are the y-form
    values of `_YDerivative` with their rounding bounds, the variation of
    g^(k) comes from its monotone pieces between the turning intervals
    isolated there, and the integral from 0 is `tail_integral` at the shift
    with the bound of `_tail_point` and `_rounding_rel`.  The shift is a
    float and exact: the point meant is the float given.  Unshifted, it
    needs (gamma, alpha) in Z+ x N (RegimeError otherwise), where g is
    smooth at 0: g^(k)(0) is P_k's lowest coefficient rounded once, or 0;
    the pieces run on to -1/2 through the y-form's integer powers; and the
    integral from 0 is B(a, b)/alpha within `_Kernel.whole_rel`.
    """

    def __init__(self, params: MathieuParams, shift: float = 0.0):
        self.params = params
        self.shift = shift
        if not shift and not params.integer_regime:
            raise RegimeError("the unshifted Euler-Maclaurin kernel needs gamma in Z+ "
                              "and alpha in N")
        self.domain_left = -shift if shift else -0.5
        self._kernel = _kernel(params.gamma, params.alpha, params.mu)
        self._models = self._kernel.models
        #: the orders last taken at the shift, and g^(k) there with its error
        self._at_origin = (), ()

    def deriv(self, k: int, x: float) -> float:
        z = x + self.shift
        if z <= (0.0 if self.shift else -1.0):
            raise ParameterError(f"x = {x:g} lies left of the domain of g(x + {self.shift:g})")
        return self._kernel.model(k).value(z)[0]

    def derivs_with_error(self, orders: tuple[int, ...]) -> list[tuple[float, float]]:
        """g^(k) at the shift for each k in `orders`, with their errors:
        evaluated together, in one `_values_at` call from one `_y_point`,
        and kept for `monotone_pieces`, which at u = 0 starts from g^(n),
        one of the orders the engine took."""
        models = self._models
        if len(orders) < len(models) or orders[-1] >= len(models):
            models = [self._kernel.model(k) for k in orders]
        values = [m.at_zero for m in models] if not self.shift else \
            _values_at(models, _y_point(self.params.alpha, self.shift))
        self._at_origin = orders, values
        return values

    def monotone_pieces(self, k: int, a: float, b: float) -> tuple[list[float], float] | None:
        # the engine rounded the ends it passes (eps u): widen each one
        # outward by 2^-50 relative, add the shift, and step the sum one ulp
        # further out, so the exact interval lies inside; an end at 0 starts
        # at the shift itself, and an end at 0 of the unshifted kernel stays
        # there
        s, first = self.shift, None
        if a:
            a = math.nextafter((a - abs(a) * 2.0**-50) + s, -math.inf)
        else:
            orders, values = self._at_origin
            a, first = s, values[orders.index(k)] if k in orders \
                else self.derivs_with_error((k,))[0]
        if b != math.inf and (b or s):
            b = math.nextafter((b + abs(b) * 2.0**-50) + s, math.inf)
        if not s:
            # an end within 2^-100 of 0, where g^(k) could leave the float
            # range, moves out to 0 or to 2^-100 in size
            if 0.0 < abs(a) < 2.0**-100:
                a = 0.0 if a > 0.0 else -2.0**-100
            if 0.0 < abs(b) < 2.0**-100:
                b = 2.0**-100 if b > 0.0 else 0.0
        if a <= 0.0 < s or a < self.domain_left:
            return None
        model = self._kernel.model(k)
        if a < 0.0 < b:  # unshifted, across 0: the pieces on each side, joined there
            (left, left_slack), (right, right_slack) = model.pieces(a, 0.0), model.pieces(0.0, b)
            return left + right[1:], (left_slack + right_slack) * (1.0 + 2.0**-52)
        return model.pieces(a, b, first)

    def integral_with_error(self) -> tuple[float, float]:
        p = self.params
        if not p.delta > 1.0:
            raise ParameterError("the tail integral diverges unless delta > 1")
        c = self._kernel
        if not self.shift:
            return c.whole, 1.01 * c.whole_rel * c.whole + 1e-300
        value, rel = _tail_point(p, c, self.shift)
        return value, 1.01 * ((rel + _rounding_rel(p, c, self.shift)) * value) + 1e-300


class _PowerTail(emsum.SmoothFunction):
    """F(x) = 2 (x + N)^(-delta): the terms 2 (k+u)^(-delta) of the series at
    t = 0 past a head of N terms, as F(k + u).

    F^(k)(x) = 2 (-delta)(-delta-1)...(-delta-k+1) (x + N)^(-delta-k) keeps
    one sign and |F^(k)| decreases, so the variation of F^(k) on [a, b] is
    |F^(k)(a) - F^(k)(b)|, and int_0^inf F = 2 N^(1-delta) / (delta-1).
    delta is the exact alpha (mu+1) - gamma of the float parameters: where it
    is near 1 the sum moves by 1/(delta-1)^2 per unit of delta, so every
    factor that involves it is rounded once from the exact rational.
    """

    def __init__(self, params: MathieuParams, head: int):
        self.params = params
        self.head = head
        self.domain_left = -0.5 * head
        self._kernel = _kernel(params.gamma, params.alpha, params.mu)

    def _value(self, k: int, x: float) -> tuple[float, float]:
        poch, e = self._kernel.factors.get(k) or self._kernel.pochhammer(k)
        y = x + self.head
        v = poch * y ** -e
        # y and the exponent rounded once each move the power by (delta + k)(1 +
        # log y) u; the power within 1 ulp, the factor and the product 1 each
        return v, 1.01 * (e * (1.0 + math.log(y)) + 6.0) * 2.0**-53 * abs(v)

    def derivs_with_error(self, orders: tuple[int, ...]) -> list[tuple[float, float]]:
        return [self._value(k, 0.0) for k in orders]

    def variation(self, k: int, a: float, b: float) -> float:
        if b < a:
            a, b = b, a
        va, ea = self._value(k, a)
        vb, eb = (0.0, 0.0) if b == math.inf else self._value(k, b)
        return (abs(va - vb) + ea + eb) * (1.0 + 2.0**-50)

    def integral_with_error(self) -> tuple[float, float]:
        y, e = float(self.head), self._kernel.pochhammer(-1)[1]
        value = 2.0 * y ** -e / e
        # as in _value with the exponent delta - 1, plus its rounding as a divisor
        return value, 1.01 * (e * (1.0 + math.log(y)) + 6.0) * 2.0**-53 * value


#: Order of the Euler-Maclaurin and Boole engines that close a tail.
TAIL_ORDER = 8


def _closed_tail(params: MathieuParams, t: float, alternating: bool,
                 head: int) -> tuple[float, float, int]:
    """(value, radius, order) of the sum of the terms past the first `head`,
    with the sign (-1)^(k-1) when alternating, by `emsum.em_sum` or
    `emsum.boole_sum`.

    For t > 0 the terms are 2 t^(-delta) g(eps (k + u)) with eps = 1/t, so
    the sum past the head is 2 t^(-delta) times the engine's sum of the
    shifted kernel x -> g(x + eps head) at the same u (never at offset
    u + head, whose Bernoulli weights B_k(-u - head) explode), for every
    kernel, in floats (`MathieuSmoothFunction`).  Every head that reaches
    here is 0 (`eval_em`) or 64 2^j (`_direct` doubles CLOSED_HEAD), so the
    shift eps head is exact: a power of two times a float.  At t = 0, and
    past a head where delta + alpha > 1 (every plain series) wherever
    t^alpha <= 2^-100 or the shifted kernel leaves the float range, at any
    t (`_t_zero_drift`), the engine sums F(k + u), F = `_PowerTail`, with
    eps = 1.  The radius covers the remainder and every rounding: the engine
    bounds the boundary terms and the integral term from the errors the
    kernel reports, the roundings below the normal range (eps^k underflows
    past t = 2^125) absolutely; on top come the t^(-delta) scale and the
    rounding of eps (`_scale_rounding`), the same for every head.  head = 0
    is `eval_em`, on the unshifted kernel of Z+ x N.  Where 2 t^(-delta)
    falls below 2^-1000, it is applied as the two factors 2 t^(-delta/2)
    and t^(-delta/2), with one more power and one more product to round.
    Where a factor or the value falls below 2^-1000, the relative rounding
    bounds no longer hold, and OverflowError is raised where no t = 0 tail
    stands in.
    """
    drifts = head and params.delta + params.alpha > 1.0
    value = None
    if t and not (drifts and t < 1.0 and t**params.alpha <= _T_POWER_NEGLIGIBLE):
        try:
            value, radius = _shifted_tail(params, t, alternating, head)
        except OverflowError:
            if not drifts:
                raise
    if value is None:
        engine = emsum.boole_sum if alternating else emsum.em_sum
        res = engine(_PowerTail(params, head), 1.0, params.u, TAIL_ORDER)
        value, radius = res.sum_estimate, res.remainder_bound
        if t:
            radius += _t_zero_drift(params, t, head)
    return value, radius, TAIL_ORDER


def _shifted_tail(params: MathieuParams, t: float, alternating: bool,
                  head: int) -> tuple[float, float]:
    """(value, radius) of `_closed_tail` at t > 0 on the shifted kernel."""
    eps = 1.0 / t
    engine = emsum.boole_sum if alternating else emsum.em_sum
    res = engine(MathieuSmoothFunction(params, eps * head), eps, params.u, TAIL_ORDER)
    scale = 2.0 * t ** (-params.delta)
    split = scale < 2.0**-1000
    if split:
        scale = t ** (-0.5 * params.delta)

    def scaled(x):
        return 2.0 * scale * x * scale if split else scale * x

    value = scaled(res.sum_estimate)
    if min(scale, abs(value)) < 2.0**-1000:
        raise OverflowError(f"the tail leaves the normal float range at t = {t:g}")
    radius = scaled(res.remainder_bound) \
        + _scale_rounding(params, t, alternating, head, value, split)
    if split:
        # the radius's own roundings wherever its parts are subnormal
        radius += 2.0**-1070
    return value, radius


#: At or below this t^alpha the closer sums the t = 0 tail and bounds the difference.
_T_POWER_NEGLIGIBLE = 2.0**-100


def _t_zero_drift(params: MathieuParams, t: float, head: int) -> float:
    """Bound on the difference between the tails past `head` at t and at 0,
    for delta + alpha > 1 (every plain series, and in Z+ x N, where
    alpha >= 1); mu + 1 > 0 follows from delta > 0.

    With w = k + u and m = mu + 1, (1 + (t/w)^alpha)^(-m) >= 1 - m (t/w)^alpha,
    so each term moves by at most m t^alpha 2 w^(-delta-alpha), at every t;
    summed over k > head that is at most the first such term plus its
    integral.  At t^alpha <= 2^-100 this is negligible; wherever the shifted
    kernel cannot be taken (its powers of head/t leave the float range as
    t -> 0 or, for small alpha, t -> inf, or its tail falls below 2^-1000)
    it falls like head^(1-delta-alpha) as the head grows.
    """
    w, e = head + 1.0 + params.u, params.delta + params.alpha
    return 1.01 * (params.mu + 1.0) * t**params.alpha * 2.0 * (w**-e + w ** (1.0 - e) / (e - 1.0))


def _scale_rounding(params: MathieuParams, t: float, alternating: bool, head: int,
                    value: float, split: bool = False) -> float:
    """Bound on the error that 2 t^(-delta) times the engine's sum adds to a
    tail past `head` terms, t > 0.

    The power is within 1 ulp of t^(-delta') for the rounded delta' and the
    product adds 1 rounding: (3 + delta) u with the rounding of eps below,
    plus |delta' - delta| |log t|.  eps = 1/t is rounded, so the engine
    summed the kernel at t' = 1/eps, |t' - t| <= u t: (t'/t)^delta adds
    delta u, and t d/dt of each term is at most alpha (mu+1) times the term,
    so S(t') moves by at most alpha (mu+1) u times the plain tail, or times
    the first omitted term of the alternating one (past the monotone index
    these t-derivatives decrease in k, so their alternating sum is at most
    the first).  A head short of the monotone index leaves t-derivatives
    that rise to one peak and then fall, whose alternating sum is at most
    twice the largest: 4 t^(-delta) sup g in place of the first term.  A
    `split` scale adds a power and a product, 3u.
    """
    u = 2.0**-53
    rel = (3.0 + abs(params.delta) + (3.0 if split else 0.0)) * u \
        + _kernel(params.gamma, params.alpha, params.mu).delta_error * abs(math.log(t))
    drift = params.alpha * abs(params.mu + 1.0) * u
    if alternating:
        if head + 1 >= _monotone_from(params, t):
            first = float(_terms(params, t)(head + 1))
        else:
            g_sup = 1.0 if params.gamma == 0 else 0.5 * g_total_variation(params)
            first = 4.0 * t ** (-params.delta) * g_sup
        return 1.01 * (rel * abs(value) + drift * first)
    return 1.01 * (rel + drift) * abs(value)


def eval_em(params: MathieuParams, t: float) -> EvalResult:
    """Rigorous large-t evaluation through the Euler-Maclaurin engine: the
    closed tail of `_closed_tail` past a head of 0 terms.

    RegimeError for every input outside the engine's regime: t = 0, t so
    small that eps = 1/t leaves the float range, (gamma, alpha) outside
    Z+ x N, where g is not smooth at 0, and u < 0 where eps reaches past
    the kernel's domain, which starts at x = -1/2 (the engine's own test,
    `emsum._check_u_negative`).  With
    eps = 1/t the engine estimates sum g((k+u)/t) = t^delta S / 2 on the
    unshifted `MathieuSmoothFunction`, bounding the rounding of its
    derivatives at 0, of the Beta function in its integral term and of its
    own sums, so the estimate and its certified remainder bound are rescaled
    by 2 t^(-delta); the radius adds the rounding of that scale, as for
    every head.  The result reports 0 summed terms and the engine order
    TAIL_ORDER.
    """
    params.require_delta(1.0)
    if not 0.0 <= t < math.inf:
        raise ParameterError("t must be finite and nonnegative")
    if not (t and params.integer_regime):
        raise RegimeError("the Euler-Maclaurin path needs t > 0 and (gamma, alpha) in Z+ x N")
    if params.u < 0.0 and not 1.0 / t < -0.5 / params.u:
        raise RegimeError(f"the Euler-Maclaurin path needs t > -2u = {-2.0 * params.u:g} "
                          f"for u < 0")
    if not 1.0 / t < math.inf:
        raise RegimeError(f"the Euler-Maclaurin path needs 1/t in the float range, not t = {t!r}")
    value, radius, order = _closed_tail(params, t, False, 0)
    return EvalResult(value=value, err_lo=radius, err_hi=radius, method=EULER_MACLAURIN,
                      terms_used=0, order=order)


def eval_auto(params: MathieuParams, t: float, tol: float = 1e-10) -> EvalResult:
    """Return the first rigorous bracket whose radius meets tol.

    Direct summation (`eval_S`) is tried first below T_DIRECT and the
    certified Euler-Maclaurin bound (`eval_em`) first from it on; a path
    that raises RegimeError (EM outside its regime) or ToleranceError, or
    whose radius misses tol, gives way to the other.  ToleranceError names
    each path's reason when no path reaches tol.
    """
    params.require_delta(1.0)
    _check_t_tol(t, tol)
    reasons = []
    for name in (DIRECT, EULER_MACLAURIN) if t < T_DIRECT else (EULER_MACLAURIN, DIRECT):
        try:
            res = eval_S(params, t, tol) if name == DIRECT else eval_em(params, t)
        except (RegimeError, ToleranceError) as exc:
            reasons.append(f"{name}: {exc}")
            continue
        if res.err_hi <= tol:
            return res
        reasons.append(f"{name}: radius {res.err_hi:.3g}")
    raise ToleranceError(f"no path reaches tol={tol:.3g} ({'; '.join(reasons)})")


def cross_validate(params: MathieuParams, t: float, tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Evaluate by direct summation and by Euler-Maclaurin and require the
    brackets to overlap."""
    direct = eval_S(params, t, tol)
    other = eval_em(params, t)
    if direct.lower > other.upper or other.lower > direct.upper:
        raise CrossValidationError(
            f"disjoint brackets at t={t:g}: direct [{direct.lower:.17g}, {direct.upper:.17g}] "
            f"vs {other.method} [{other.lower:.17g}, {other.upper:.17g}]"
        )
    return direct, other


# --------------------------------------------------------------------------
# theta-type series and Poisson closed forms
# --------------------------------------------------------------------------

def log_phi_u(u: float, x: float) -> float:
    """log phi_u(x), where phi_u(x) = x * sum_{k>=1} 2 (k+u) exp(-(k+u)^2 x), u > -1.

    With the factor exp(-(1+u)^2 x) taken out, the sum is the convex-kernel
    series for g(s) = exp(-x s) at y = -(1+u)^2: it starts at 2(1+u), so it
    never underflows, and it carries the Hermite-Hadamard tail bracket.
    """
    if not 0.0 < x < math.inf:
        raise ParameterError("x must be positive and finite")
    if not -1.0 < u < math.inf:
        raise ParameterError("u must be finite and exceed -1")
    y = -(1.0 + u) ** 2
    # the sum is at least its first term 2(1+u) and, for u >= -1/2, at least 1/x
    tol = 1e-17 * (2.0 * (1.0 + u) + 1.0 / x)
    s = bracketed_sum(ExpKernel(x), u, y, tol)
    # log(x S) in one rounding where it nears 0 (x -> 0+), as two logs where x S could overflow
    log_xs = math.log(x * s.value) if x < 1.0 else math.log(x) + math.log(s.value)
    return log_xs + y * x


def phi_u(u: float, x: float) -> float:
    """phi_u(x) = x * sum_{k>=1} 2 (k+u) exp(-(k+u)^2 x) for u >= 0, x > 0;
    underflow to 0 for huge x is expected and harmless."""
    if u < 0:
        raise ParameterError("u must be nonnegative")
    return math.exp(log_phi_u(u, x))


def poisson_S(t: float) -> float:
    """Closed form of sum 2/(k^2+t^2): pi/t - 1/t^2 + 2 pi / (t (e^(2 pi t) - 1))."""
    if t <= 0:
        raise ParameterError("t must be positive")
    return math.pi / t - 1.0 / t**2 + 2.0 * math.pi / (t * math.expm1(2.0 * math.pi * t))


def poisson_S_alt(t: float) -> float:
    """Closed form of sum 2(-1)^(k-1)/(k^2+t^2): 1/t^2 - 2 pi/(t (e^(pi t) - e^(-pi t)))."""
    if t <= 0:
        raise ParameterError("t must be positive")
    return 1.0 / t**2 - 2.0 * math.pi / (t * (math.exp(math.pi * t) - math.exp(-math.pi * t)))

"""Evaluators for the generalized Mathieu series

    S(t)     = sum_{k>=1} 2 (k+u)^gamma / ((k+u)^alpha + t^alpha)^(mu+1)
    S~(t)    = same with an extra (-1)^(k-1) factor,

their kernel g(x) = x^gamma (x^alpha + 1)^(-mu-1) with its smoothness profile
and tail integral, the large-t expansions, closed-form Poisson oracles for the
gamma=0, alpha=2, mu=0 case, and a regime dispatcher whose every path is
rigorous.

Direct summation carries a rigorous two-sided tail bracket: beyond the index
where the terms become monotone decreasing, the tail is enclosed between
integral bounds (or, for the gamma=1, alpha=2 family, the sharper two-sided
Hermite-Hadamard bounds, and for the alternating series between 0 and the
first omitted term), so every result is a value plus an interval that
contains the true sum.  Where that bracket would need more than CROSSOVER
terms and the kernel has an exact tail (t = 0, or (gamma, alpha) in Z+ x N),
a head of max(monotone index, 64) terms is summed and the rest is closed by
the Euler-Maclaurin (Boole) engine on the kernel shifted past the head, with
its certified remainder; `eval_em` is the same closer with no head.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import emsum, jets, polyfun
from .errors import (
    CrossValidationError,
    OrderOverflowError,
    ParameterError,
    RegimeError,
    ToleranceError,
)

#: Direct summation stops growing once this many terms were used.
MAX_TERMS_ENV = "MATHIEU_MAX_TERMS"
_DEFAULT_MAX_TERMS = 20_000_000

#: Direct summation adds its first terms in one exact math.fsum ...
_EXACT_HEAD = 16
#: ... and the rest by numpy's pairwise summation: on a 2^18-term chunk a
#: term passes at most 36 roundings (11 halvings, then 15 + 3 + 7 in the
#: 8-way unrolled base case), so the error is at most 36u sum |terms|.
PAIRWISE_RTOL = 4e-15

#: eval_auto sums directly below this t and tries Euler-Maclaurin from it on.
T_DIRECT = 50.0

#: Past this many head terms a closed Euler-Maclaurin (Boole) tail costs less
#: than summing on: 15-31 ns a term against 0.14-0.45 ms a warm tail, a
#: break-even of 4,600-23,000 terms over seven kernels (median near 15,000).
CROSSOVER = 1 << 14

DIRECT = "direct"
EULER_MACLAURIN = "euler-maclaurin"
ASYMPTOTIC = "asymptotic"
CLOSED_FORM = "closed-form"


def _max_terms() -> int:
    raw = os.environ.get(MAX_TERMS_ENV)
    if raw is None:
        return _DEFAULT_MAX_TERMS
    try:
        return max(1, int(raw))
    except ValueError:
        return _DEFAULT_MAX_TERMS


def _is_nonneg_int(x: float) -> bool:
    return x >= 0 and float(x).is_integer()


@dataclass(frozen=True)
class MathieuParams:
    """Parameter tuple (gamma, alpha, mu, u) with derived delta = alpha(mu+1) - gamma.

    delta > 1 is required for the plain series, delta > 0 for the alternating
    one; the evaluators check the constraint that applies to them.
    """

    gamma: float
    alpha: float
    mu: float
    u: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma", "alpha", "mu", "u"):
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
                stacklevel=3,
            )

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


@dataclass(frozen=True)
class EvalResult:
    """A value with a two-sided error bracket: truth in [value-err_lo, value+err_hi]."""

    value: float
    err_lo: float
    err_hi: float
    method: str
    terms_used: int = 0
    rigorous: bool = True
    #: order of the Euler-Maclaurin or Boole engine behind the tail; 0 for a bracket
    order: int = 0

    @property
    def lower(self) -> float:
        return self.value - self.err_lo

    @property
    def upper(self) -> float:
        return self.value + self.err_hi


@dataclass(frozen=True)
class SmoothnessProfile:
    """Order of smoothness of g at 0 and the initial derivative table."""

    r: float  # integer order or math.inf
    initial_derivs: tuple[tuple[int, float], ...]


# --------------------------------------------------------------------------
# kernel g
# --------------------------------------------------------------------------

def g_eval(params: MathieuParams, x: float) -> float:
    """g(x) = x^gamma (x^alpha + 1)^(-mu-1) for x >= 0."""
    if x == 0.0:
        return 1.0 if params.gamma == 0 else 0.0
    return x**params.gamma * (x**params.alpha + 1.0) ** (-params.mu - 1.0)


def _g_series_coeff(params: MathieuParams, k: int) -> float:
    """Coefficient (-1)^k Gamma(mu+k+1) / (Gamma(mu+1) Gamma(k+1)) of x^(gamma + k alpha)."""
    return (-1.0) ** k * math.exp(
        math.lgamma(params.mu + k + 1) - math.lgamma(params.mu + 1) - math.lgamma(k + 1)
    )


def g_jet(params: MathieuParams, x: float, order: int) -> list[float]:
    """Taylor coefficients of g at x up to the given order.

    At x = 0 the jet comes from the binomial series of the kernel; outside the
    smooth regime only orders up to the smoothness r are available there.
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
        out = [0.0] * (order + 1)
        if params.integer_regime:
            gam, alp = int(params.gamma), int(params.alpha)
            k = 0
            while gam + k * alp <= order:
                out[gam + k * alp] = _g_series_coeff(params, k)
                k += 1
        elif _is_nonneg_int(params.gamma) and params.gamma <= order:
            out[int(params.gamma)] = 1.0
        return out
    xj = jets.jet_var(x, order)
    if params.integer_regime:
        mono = jets.jet_ipow(xj, int(params.gamma))
        base = jets.jet_shift(jets.jet_ipow(xj, int(params.alpha)), 1.0)
    else:
        mono = jets.xpow_jet(x, params.gamma, order)
        base = jets.jet_shift(jets.xpow_jet(x, params.alpha, order), 1.0)
    return jets.jet_mul(mono, jets.jet_pow(base, -params.mu - 1.0))


def g_smoothness(params: MathieuParams) -> SmoothnessProfile:
    """Smoothness order r of g at 0 and the derivatives g^(p)(0) for p <= min(r, 16).

    r = [gamma] when gamma is not a nonnegative integer, gamma + [alpha] when
    gamma is but alpha is not, and infinity when both are.
    """
    cap = 16
    if params.integer_regime:
        gam, alp = int(params.gamma), int(params.alpha)
        derivs = []
        for p in range(cap + 1):
            if (p - gam) >= 0 and (p - gam) % alp == 0:
                k = (p - gam) // alp
                derivs.append((p, _g_series_coeff(params, k) * math.factorial(p)))
            else:
                derivs.append((p, 0.0))
        return SmoothnessProfile(r=math.inf, initial_derivs=tuple(derivs))
    if not _is_nonneg_int(params.gamma):
        r = math.floor(params.gamma)
        return SmoothnessProfile(r=r, initial_derivs=tuple((p, 0.0) for p in range(r + 1)))
    gam = int(params.gamma)
    r = gam + math.floor(params.alpha)
    derivs = tuple(
        (p, float(math.factorial(gam)) if p == gam else 0.0) for p in range(min(r, cap) + 1)
    )
    return SmoothnessProfile(r=r, initial_derivs=derivs)


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


def _beta_exact(params: MathieuParams) -> tuple[Fraction, Fraction]:
    """(a, b) = (mu + 1 - (gamma+1)/alpha, (gamma+1)/alpha) of the tail integral, exactly."""
    b = (Fraction(params.gamma) + 1) / Fraction(params.alpha)
    return Fraction(params.mu) + 1 - b, b


@functools.lru_cache(maxsize=256)
def _beta_args(params: MathieuParams) -> tuple[float, float]:
    """`_beta_exact`, each rounded once.  a = (delta - 1)/alpha is small where
    delta is near 1; rounded in steps (mu + 1, then minus b) it would carry
    an error relative to mu + 1, not to a, and B(a, b) ~ 1/a would follow."""
    a, b = _beta_exact(params)
    return float(a), float(b)


#: Relative error allowed for scipy's betainc(a, b, s), times max(1, (a+b)/8);
#: checked against mpmath for a, b in [0.01, 50] (largest seen: 4.3e-14 at a+b = 51).
BETAINC_RTOL = 1e-14
#: Largest integer b of the Beta integral that `tail_integral` sums in closed form.
_CLOSED_FORM_MAX_B = 64


@functools.lru_cache(maxsize=256)
def _closed_form_beta(params: MathieuParams) -> str | None:
    """'a=1' or 'b=n' when the Beta integral's a is exactly 1 or its b exactly a
    positive integer (checked in rationals), else None."""
    a, b = _beta_args(params)
    if a == 1.0 and Fraction(params.mu) * Fraction(params.alpha) == Fraction(params.gamma) + 1:
        return "a=1"
    if b.is_integer() and b <= _CLOSED_FORM_MAX_B \
            and Fraction(b) * Fraction(params.alpha) == Fraction(params.gamma) + 1:
        return "b=n"
    return None


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


def tail_integral(params: MathieuParams, t: float) -> float:
    """F(t) = int_t^inf g(x) dx via the regularized incomplete Beta function.

    The substitution s = 1/(x^alpha + 1) turns the tail into
    (1/alpha) * B(a, b) * I_s(a, b) with (a, b) from `_beta_args`;
    convergence needs delta > 1.  Where a = 1 or b = n is a positive
    integer, I_s has a closed form and no scipy is needed:
    B(1, b) I_s(1, b) = -expm1(b log(1-s)) / b and
    B(a, n) I_s(a, n) = s^a sum_{j<n} (n-1)! / (j! (a+j)...(a+n-1)) (1-s)^j.
    """
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if not params.delta > 1.0:
        raise ParameterError("the tail integral diverges unless delta > 1")
    a, b = _beta_args(params)
    if t == 0.0:
        return polyfun.beta_fn(a, b) / params.alpha
    s, q = _beta_point(params, t)
    form = _closed_form_beta(params)
    if form == "a=1":
        # log(1-s) from s where s is small, from 1-s where not
        log_q = math.log1p(-s) if s <= 0.5 else math.log(q)
        return -math.expm1(b * log_q) / (params.alpha * b)
    if form == "b=n":
        n = int(b)
        total = 0.0
        for j in range(n):
            c = math.factorial(n - 1) / math.factorial(j)
            for i in range(j, n):
                c /= a + i
            total += c * q**j
        return s**a * total / params.alpha
    from scipy import special

    return polyfun.beta_fn(a, b) / params.alpha * float(special.betainc(a, b, s))


def tail_integral_rel_err(params: MathieuParams, t: float) -> float:
    """Bound on the relative error of `tail_integral(params, t)`, t > 0.

    With u = 2^-53, s and 1-s carry at most 4u (a power within 1 ulp, a sum,
    a quotient).  The a = 1 form then stays within 16u: log1p on s <= 1/2
    at most triples s's error, log of 1-s adds 4u + u |log(1-s)|, and
    expm1 near 0 passes a relative error on unchanged.  The b = n form is a
    sum of positive terms, each within (4n + 4j + 8)u, times s^a within
    (4a + 2)u.  betainc is allowed BETAINC_RTOL max(1, (a+b)/8), plus the
    Beta function's own bound.  a and b are rounded once from their exact
    values; F moves by at most |da| (|log s| + 1/a) F and |db| |log(1-s)| F
    under such a change.
    """
    a, b = _beta_args(params)
    form = _closed_form_beta(params)
    if form == "a=1":
        rel = 16.0 * 2.0**-53
    elif form == "b=n":
        rel = (8.0 * b + 4.0 * a + 12.0) * 2.0**-53
    else:
        rel = BETAINC_RTOL * max(1.0, (a + b) / 8.0) + polyfun.beta_fn_rel_err(a, b)
    a_exact, b_exact = _beta_exact(params)
    da, db = float(abs(Fraction(a) - a_exact)), float(abs(Fraction(b) - b_exact))
    if da or db:
        # -log s = log(x^alpha + 1), -log(1-s) = that minus alpha log x
        log_x = params.alpha * math.log(t)
        log_s = log_x + math.log1p(t ** -params.alpha) if t > 1.0 else math.log1p(t**params.alpha)
        rel += 1.01 * (da * (log_s + 1.0 / a) + db * (log_s - log_x))
    return rel


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


def _terms(params: MathieuParams, t: float, k):
    """The terms 2 (k+u)^gamma / ((k+u)^alpha + t^alpha)^(mu+1) at an index or an index array."""
    w = k + params.u
    ta = t**params.alpha if t > 0 else 0.0
    num = 2.0 if params.gamma == 0 else 2.0 * _pow(w, params.gamma)
    return num / _pow(_pow(w, params.alpha) + ta, params.mu + 1.0)


def _monotone_from(params: MathieuParams, t: float) -> int:
    """Index from which the terms are decreasing in k (peak of g mapped to k)."""
    k0 = t * g_peak(params) - params.u
    return max(1, int(math.ceil(k0)) + 1)


def hermite_hadamard(tail, kernel, w: float, y: float) -> tuple[float, float]:
    """Hermite-Hadamard bounds (lo, hi) for sum_{k>=1} 2(w+k) kernel((w+k)^2 + y).

    For a convex, decreasing kernel with tail integral F(s) = int_s^inf kernel,
    the trapezoid rule on [(w+k)^2 + y, (w+k+1)^2 + y] gives the lower bound
    (w >= -3/2) and the midpoint rule on [(w+k-1)(w+k) + y, (w+k)(w+k+1) + y]
    the upper one (w >= -1):

        F((w+1)^2 + y) + (w + 1/2) kernel((w+1)^2 + y)  <=  sum  <=  F(w(w+1) + y).
    """
    s1 = (w + 1.0) ** 2 + y
    return tail(s1) + (0.5 + w) * kernel(s1), tail(w * (w + 1.0) + y)


def _tail_bracket(params: MathieuParams, t: float):
    """n -> two-sided bounds for sum_{k > n} of the terms, n past the monotone index."""
    u, mu, delta = params.u, params.mu, params.delta
    if params.gamma == 1.0 and params.alpha == 2.0:
        # the terms are 2w g(w^2 + t^2) with the convex kernel g(s) = s^(-mu-1)
        y = t * t

        def tail(s):
            return 1.0 / (mu * s**mu)

        def kernel(s):
            return s ** (-mu - 1.0)

        return lambda n: hermite_hadamard(tail, kernel, n + u, y)
    if t == 0.0:
        return lambda n: (2.0 * (n + 1.0 + u) ** (1.0 - delta) / (delta - 1.0),
                          2.0 * (n + u) ** (1.0 - delta) / (delta - 1.0))
    scale = 2.0 * t ** (1.0 - delta)
    return lambda n: (scale * tail_integral(params, (n + 1.0 + u) / t),
                      scale * tail_integral(params, (n + u) / t))


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


def _sum_terms(terms, n: int, alternating: bool = False) -> tuple[float, float, float]:
    """(sum, sum of |terms|, sum of |terms| past the head) of terms(k) over
    k = 1..n; with `alternating`, term k carries the sign (-1)^(k-1).

    The first _EXACT_HEAD terms, where a decreasing series keeps most of its
    mass, enter one math.fsum with the rest's chunk sums, so they carry only
    the final rounding; the rest is accumulated pairwise by numpy in chunks,
    whose error is at most PAIRWISE_RTOL times its sum of |terms|.
    """
    head = []
    chunks = []
    abs_chunks = []
    step = 1 << 18
    for lo in range(1, n + 1, step):
        hi = min(n + 1, lo + step)
        arr = terms(np.arange(lo, hi, dtype=float))
        if alternating:
            arr[1::2] *= -1.0  # lo is odd, so the odd positions hold the even k
        if lo == 1:
            head = arr[:_EXACT_HEAD].tolist()
            arr = arr[_EXACT_HEAD:]
        if arr.size:
            chunks.append(float(arr.sum()))
            abs_chunks.append(float(np.abs(arr).sum()))
    rest_abs = math.fsum(abs_chunks)
    return math.fsum(head + chunks), math.fsum(map(abs, head)) + rest_abs, rest_abs


def bracketed_sum(terms, tail_bracket, n: int, tol: float, term_rtol: float = 4e-15,
                  exact_tail=None, alternating: bool = False) -> EvalResult:
    """sum_{k>=1} terms(k), where tail_bracket(n) = (lo, hi) encloses sum_{k>n};
    with `alternating`, term k carries the sign (-1)^(k-1).

    `terms` maps an index array to the term array, each value within
    term_rtol of the exact term.  n doubles until the tail bracket is at most
    tol wide (ToleranceError at the MATHIEU_MAX_TERMS cap).  Where doubling
    would take n past CROSSOVER (or the cap) and `exact_tail` is given, the
    head stays at the starting n instead and exact_tail(n) = (value, radius,
    order) closes the sum past it, provided 2 radius <= tol; otherwise the
    doubling goes on.  The first n terms are then summed; the result is their
    sum plus the tail's midpoint, with the tail's radius plus rounding slack
    as the error radius and the tail engine's order (0 for a bracket).
    """
    cap = _max_terms()
    start, tail = n, None
    while True:
        lo, hi = tail_bracket(n)
        if hi - lo <= tol or n >= cap:
            break
        if exact_tail is not None and 2 * n > min(CROSSOVER, cap):
            try:
                closed = exact_tail(start)
            except OverflowError:  # a kernel scaled out of float range closes nothing
                closed = (0.0, math.inf, 0)
            exact_tail = None
            if 2.0 * closed[1] <= tol:
                tail, n = closed, start
                break
        n = min(cap, n * 2)
    if tail is None:
        if hi - lo > tol:
            raise ToleranceError(
                f"tail bracket {hi - lo:.3g} still exceeds tol={tol:.3g} at the "
                f"{n}-term cap; raise {MAX_TERMS_ENV}"
            )
        tail = (0.5 * (hi + lo), 0.5 * (hi - lo), 0)
    partial, partial_abs, pairwise_abs = _sum_terms(terms, n, alternating)
    value = partial + tail[0]
    # per-term rounding, pairwise accumulation, and the roundings of the
    # final fsum and of the tail's addition
    slack = (term_rtol * partial_abs + PAIRWISE_RTOL * pairwise_abs
             + 2.0**-53 * (abs(partial) + abs(value)) + 1e-300)
    return EvalResult(value=value, err_lo=tail[1] + slack, err_hi=tail[1] + slack,
                      method=DIRECT, terms_used=n, order=tail[2])


def _exact_tail(params: MathieuParams, t: float, alternating: bool):
    """head -> `_closed_tail` past it, where the kernel has an exact tail: at
    t = 0 (any kernel), and for t > 0 with (gamma, alpha) in Z+ x N, where
    the variation is exact; else None."""
    if t == 0.0 or params.integer_regime:
        return functools.partial(_closed_tail, params, t, alternating)
    return None


def eval_S(params: MathieuParams, t: float, tol: float = 1e-10) -> EvalResult:
    """Direct summation of the plain series with a rigorous error bracket.

    Terms are summed from an index past which they decrease; the tail is
    enclosed by integral (or Hermite-Hadamard) bounds, and the head doubles
    until they are at most tol wide.  Where that would take more than
    CROSSOVER terms and the kernel has an exact tail (t = 0, or (gamma,
    alpha) in Z+ x N), the head stays at max(monotone index, 64) terms and
    an Euler-Maclaurin tail on the shifted kernel closes the sum
    (`_closed_tail`).  The radius adds rounding slack, so it meets tol
    whenever tol is achievable in float64 (roughly tol >= 2 _term_rtol(params)
    times the sum of absolute terms, 4e-15 times it for the classical
    series); it is honest either way.
    """
    params.require_delta(1.0)
    _check_t_tol(t, tol)
    return bracketed_sum(functools.partial(_terms, params, t), _tail_bracket(params, t),
                         max(_monotone_from(params, t), 64), tol, _term_rtol(params),
                         _exact_tail(params, t, False))


def eval_S_alt(params: MathieuParams, t: float, tol: float = 1e-10) -> EvalResult:
    """Direct summation of the alternating series with a rigorous error bracket.

    The same driver as `eval_S`: past the monotone index the remainder after
    n terms lies between 0 and term n+1, with that term's sign, and where
    that bracket would need more than CROSSOVER terms and the kernel has an
    exact tail, a Boole tail on the shifted kernel closes the sum.
    """
    params.require_delta(0.0)
    _check_t_tol(t, tol)
    terms = functools.partial(_terms, params, t)
    rtol = _term_rtol(params)

    def tail_bracket(n: int) -> tuple[float, float]:
        first = float(terms(n + 1)) * (1.0 + 2.0 * rtol)
        return (0.0, first) if n % 2 == 0 else (-first, 0.0)

    return bracketed_sum(terms, tail_bracket, max(_monotone_from(params, t), 64), tol, rtol,
                         _exact_tail(params, t, True), alternating=True)


def s_mu(mu: float, t: float, u: float, tol: float = 1e-10) -> EvalResult:
    """The gamma=1, alpha=2 family sum_{k>=1} 2(k+u) / ((k+u)^2 + t^2)^(mu+1).

    Unlike the general evaluator this accepts any real u: whole terms with
    k + u = 0 are dropped, and the finitely many terms with k + u < 0 are
    summed directly before the positive, eventually-monotone remainder is
    bracketed as usual.
    """
    if mu <= 0:
        raise ParameterError("mu must be positive")
    if u > -1:
        return eval_S(MathieuParams(1.0, 2.0, mu, u), t, tol)
    head_end = int(math.floor(-u)) + 1  # first index with k + u > 0
    head = math.fsum(
        2.0 * (k + u) / ((k + u) ** 2 + t * t) ** (mu + 1.0)
        for k in range(1, head_end + 1)
        if k + u != 0.0
    )
    shifted = eval_S(MathieuParams(1.0, 2.0, mu, u + head_end), t, tol)
    return EvalResult(
        value=head + shifted.value,
        err_lo=shifted.err_lo,
        err_hi=shifted.err_hi,
        method=DIRECT,
        terms_used=shifted.terms_used + head_end,
        order=shifted.order,
    )


# --------------------------------------------------------------------------
# large-t expansions
# --------------------------------------------------------------------------

def _gamma_ratio(mu: float, k: int) -> float:
    """Gamma(mu+k+1) / (Gamma(mu+1) Gamma(k+1)) by stable iteration."""
    out = 1.0
    for j in range(k):
        out *= (mu + j + 1.0) / (j + 1.0)
    return out


def _require_integer_regime(params: MathieuParams, n: int) -> tuple[int, int]:
    if n < 0:
        raise ParameterError("the number of correction terms must be nonnegative")
    if not params.integer_regime:
        raise RegimeError("the expansion needs gamma in Z+ and alpha in N")
    return int(params.gamma), int(params.alpha)


def asym_S(params: MathieuParams, n: int) -> emsum.AsymptoticSeries:
    """Large-t expansion of the plain series, as powers of 1/t.

    Leading term (2/alpha) B((gamma+1)/alpha, mu+1-(gamma+1)/alpha) at power
    delta - 1, then n correction terms with Bernoulli-polynomial coefficients
    at powers alpha (k + mu + 1).
    """
    gam, alp = _require_integer_regime(params, n)
    params.require_delta(1.0)
    b = (params.gamma + 1.0) / params.alpha
    lead = 2.0 / params.alpha * polyfun.beta_fn(b, params.mu + 1.0 - b)
    powers = [params.delta - 1.0]
    coeffs = [lead]
    for k in range(n):
        order = k * alp + gam + 1
        if order > polyfun.MAX_ORDER:
            raise OrderOverflowError(
                f"correction {k} needs the Bernoulli polynomial of order {order}"
            )
        c = (
            (-1.0) ** (k * (alp + 1) + gam)
            * 2.0 * _gamma_ratio(params.mu, k)
            * polyfun.bernoulli_poly(order, -params.u) / order
        )
        powers.append(params.alpha * (k + params.mu + 1.0))
        coeffs.append(c)
    return emsum.AsymptoticSeries(powers=tuple(powers), coeffs=tuple(coeffs))


def asym_S_alt(params: MathieuParams, n: int) -> emsum.AsymptoticSeries:
    """Large-t expansion of the alternating series (Euler-polynomial coefficients)."""
    gam, alp = _require_integer_regime(params, n)
    params.require_delta(0.0)
    powers = []
    coeffs = []
    for k in range(n):
        order = k * alp + gam
        if order > polyfun.MAX_ORDER:
            raise OrderOverflowError(
                f"correction {k} needs the Euler polynomial of order {order}"
            )
        c = (
            (-1.0) ** (k * (alp + 1) + gam)
            * _gamma_ratio(params.mu, k)
            * polyfun.euler_poly(order, -params.u)
        )
        powers.append(params.alpha * (k + params.mu + 1.0))
        coeffs.append(c)
    return emsum.AsymptoticSeries(powers=tuple(powers), coeffs=tuple(coeffs))


def eval_asym(params: MathieuParams, t: float, n_terms: int | None = None) -> EvalResult:
    """Evaluate the plain-series expansion at t, reporting |next term| as the error.

    The error proxy is heuristic (the expansion carries no explicit constant),
    so the result is flagged non-rigorous.
    """
    if not 0.0 < t < math.inf:
        raise ParameterError("the expansion needs finite t > 0")
    cap = max(0, (polyfun.MAX_ORDER - int(params.gamma) - 1) // max(int(params.alpha), 1))
    series = asym_S(params, cap)
    v = 1.0 / t
    n = series.optimal_truncation(v) if n_terms is None else min(n_terms + 1, len(series.coeffs))
    value = series.evaluate(v, n)
    nxt = series.next_term_magnitude(v, n)
    if math.isnan(nxt):
        nxt = abs(series.coeffs[-1]) * v ** series.powers[-1]
    return EvalResult(
        value=value, err_lo=nxt, err_hi=nxt, method=ASYMPTOTIC,
        terms_used=n, rigorous=False,
    )


# --------------------------------------------------------------------------
# Euler-Maclaurin path and dispatch
# --------------------------------------------------------------------------

class _KernelDerivative:
    """g^(n) = P_n(x) / (x^alpha + 1)^(mu+1+n) for (gamma, alpha) in Z+ x N.

    P_0 = x^gamma and P_{j+1} = P_j' (x^alpha + 1) - (mu+1+j) alpha x^(alpha-1) P_j
    have exact coefficients in Fraction(mu).  g^(n) is monotone between the
    real roots of P_{n+1}, each held in an exact isolating interval [l, h] on
    [-1/2, inf).  g^(n+1) vanishes inside, so the variation of g^(n) on
    [l, h] is at most (h - l)^2 / 2 times sup |g^(n+2)| there.  The interval
    ends, the values of g^(n) at them and these allowances are computed once
    and kept.
    """

    def __init__(self, gamma: int, alpha: int, mu: float, n: int):
        self.gamma, self.alpha, self.mu, self.n = gamma, alpha, mu, n
        polys = _numerators(gamma, alpha, mu, n + 2)
        self.turns = [
            (l, h, self.value(l), self.value(h),
             polyfun.round_up((h - l) ** 2 / 2 * self._sup(polys[n + 2], l, h)))
            for l, h in polyfun.real_root_intervals(polys[n + 1], Fraction(-1, 2))
        ]

    def _sup(self, poly: tuple[Fraction, ...], l: Fraction, h: Fraction) -> Fraction:
        """Upper bound on |g^(n+2)| = |poly| / (x^alpha + 1)^(mu+3+n) over [l, h],
        an interval right of -1/2 and narrower than 1/2."""
        r = max(abs(l), abs(h))
        # x^alpha + 1 >= 1 + l^alpha right of 0, >= 1 - r^alpha (> 0 for r < 1) left of it
        floor = 1 + l**self.alpha if l >= 0 else 1 - r**self.alpha
        power = math.floor(self.mu) + 4 + self.n  # an integer above mu + 3 + n
        return polyfun.abs_bound(poly, r) / min(Fraction(1), floor) ** power

    def value(self, x: Fraction) -> tuple[float, float]:
        """g^(n)(x) and a bound on its rounding error."""
        return _kernel_value(self.gamma, self.alpha, self.mu, self.n, x)

    def pieces(self, a: float, b: float) -> tuple[list[float], float]:
        """SmoothFunction.monotone_pieces for g^(n) on [a, b], a >= -1/2."""
        values, errs = [], []

        def knot(v: tuple[float, float]) -> None:
            values.append(v[0])
            errs.append(v[1])

        knot(self.value(Fraction(a)))
        allowances = []
        for l, h, vl, vh, allowance in self.turns:
            if h <= a or l >= b:
                continue
            # between turning intervals g^(n) is monotone; inside one its variation
            # is at most the allowance
            allowances.append(allowance)
            if l > a:
                knot(vl)
            if h < b:
                knot(vh)
        knot((0.0, 0.0) if b == math.inf else self.value(Fraction(b)))
        # nonnegative terms, each rounded up, and one correctly rounded fsum
        return values, math.fsum(allowances + errs + errs) * (1.0 + 2.0**-50)


@functools.lru_cache(maxsize=256)
def _kernel_derivative(gamma: int, alpha: int, mu: float, n: int) -> _KernelDerivative:
    return _KernelDerivative(gamma, alpha, mu, n)


@functools.lru_cache(maxsize=256)
def _numerators(gamma: int, alpha: int, mu: float, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """(P_0, ..., P_n) of g^(j) = P_j(x) / (x^alpha + 1)^(mu+1+j), exact in Fraction(mu)."""
    if n == 0:
        return ((Fraction(0),) * gamma + (Fraction(1),),)
    polys = _numerators(gamma, alpha, mu, n - 1)
    # P_n = P_{n-1}' (x^alpha + 1) - (mu + n) alpha x^(alpha-1) P_{n-1}
    p, c = polys[-1], (Fraction(mu) + n) * alpha
    out = [Fraction(0)] * (len(p) + alpha - 1)
    for i in range(1, len(p)):
        out[i - 1] += i * p[i]
        out[i - 1 + alpha] += i * p[i]
    for i, pi in enumerate(p):
        out[i + alpha - 1] -= c * pi
    return polys + (tuple(out),)


@functools.lru_cache(maxsize=256)
def _integer_numerator(gamma: int, alpha: int, mu: float, n: int) -> tuple[int, tuple[int, ...]]:
    """P_n as (D, (C_0, C_1, ...)) with P_n(x) = sum C_i x^i / D in integers, D > 0."""
    poly = _numerators(gamma, alpha, mu, n)[n]
    den = math.lcm(*(c.denominator for c in poly))
    return den, tuple(int(c * den) for c in poly)


def _kernel_value(gamma: int, alpha: int, mu: float, n: int, x: Fraction) -> tuple[float, float]:
    """g^(n)(x) for (gamma, alpha) in Z+ x N and a bound on its rounding error."""
    den, coeffs = _integer_numerator(gamma, alpha, mu, n)
    p, q = x.numerator, x.denominator
    # with x = p/q: P_n(x) = sum C_i p^i q^(d-i) / (D q^d), by homogeneous Horner,
    # and x^alpha + 1 = (p^alpha + q^alpha) / q^alpha
    acc, q_pow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        q_pow *= q
        acc = acc * p + c * q_pow
    base = p**alpha + q**alpha
    v = (acc * q ** (alpha * (n + 1))) / (den * q_pow * base ** (n + 1)) \
        / (base / q**alpha) ** mu
    # two exact quotients rounded once each, pow within 1 ulp of a base off by
    # 1 rounding (mu of them in the result), and the last division
    return v, (abs(mu) + 8.0) * 2.0**-53 * abs(v) + 1e-300


def _exact_delta(params: MathieuParams) -> Fraction:
    """alpha (mu+1) - gamma of the float parameters, without rounding."""
    return Fraction(params.alpha) * (Fraction(params.mu) + 1) - Fraction(params.gamma)


def _delta_error(params: MathieuParams) -> float:
    """|params.delta - `_exact_delta`|, rounded up."""
    diff = abs(Fraction(params.delta) - _exact_delta(params))
    return polyfun.round_up(diff) if diff else 0.0


class MathieuSmoothFunction(emsum.SmoothFunction):
    """The kernel g, shifted to x -> g(x + shift), presented through the
    summation-engine contract.

    In the integer regime the variation of g^(k) comes from its exact
    monotone pieces (`_KernelDerivative`); elsewhere from quadrature.
    Unshifted, the derivatives at 0 are the series coefficients (jets).  A
    shift, which needs the integer regime, is exact (a Fraction); the
    derivatives there come from the exact numerators P_k with their rounding
    bounds (`_kernel_value`), and the tail integral with its own.
    """

    def __init__(self, params: MathieuParams, shift: Fraction = Fraction(0)):
        self.params = params
        self.shift = shift
        self.domain_left = (-0.5 if params.integer_regime else 0.0) - float(shift)

    def deriv(self, k: int, x: float) -> float:
        if self.shift:
            return self.deriv_with_error(k, x)[0]
        return jets.derivatives(g_jet(self.params, x, k))[k]

    def deriv_with_error(self, k: int, x: float) -> tuple[float, float | None]:
        if not self.shift:
            return self.deriv(k, x), None
        p = self.params
        return _kernel_value(int(p.gamma), int(p.alpha), p.mu, k, Fraction(x) + self.shift)

    def monotone_pieces(self, k: int, a: float, b: float) -> tuple[list[float], float] | None:
        p = self.params
        if not p.integer_regime:
            return None
        if self.shift:
            # the engine rounded the ends it passes (eps u): widen each one
            # outward by 2^-52 relative, so the exact interval lies inside
            a = Fraction(a) - abs(Fraction(a)) / 2**52 + self.shift
            if b != math.inf:
                b = Fraction(b) + abs(Fraction(b)) / 2**52 + self.shift
            if a < Fraction(-1, 2):
                return None
        elif a < self.domain_left:
            return None
        return _kernel_derivative(int(p.gamma), int(p.alpha), p.mu, k).pieces(a, b)

    def tail_integral(self, t: float) -> float:
        return tail_integral(self.params, t + float(self.shift))

    def tail_integral_with_error(self, t: float) -> tuple[float, float | None]:
        if not self.shift:
            return self.tail_integral(t), None
        p = self.params
        x = Fraction(t) + self.shift
        xf = float(x)
        value = tail_integral(p, xf)
        # rounding x to xf moves F by at most |xf - x| sup g between them: g at
        # the left end where g decreases there, else the peak value of g
        if min(Fraction(xf), x) >= Fraction(g_peak(p)) * (1 + Fraction(1, 2**40)):
            g_sup = sum(_kernel_value(int(p.gamma), int(p.alpha), p.mu, 0, min(Fraction(xf), x)))
        else:
            g_sup = 1.0 if p.gamma == 0 else 0.5 * g_total_variation(p)
        err = tail_integral_rel_err(p, xf) * value + float(abs(Fraction(xf) - x)) * g_sup
        return value, 1.01 * err + 1e-300

    def far_field(self, k: int) -> float:
        # |g^(k)(x)| decays like x^(-delta - k); solve C x^(-delta-k) ~ 1e-18
        delta = self.params.delta
        scale = math.factorial(k + 2) * (self.params.mu + 1.0) ** min(k, 8)
        return max(50.0, (scale * 1e18) ** (1.0 / (delta + k)))


class _PowerTail(emsum.SmoothFunction):
    """F(x) = 2 (x + N)^(-delta): the terms 2 (k+u)^(-delta) of the series at
    t = 0 past a head of N terms, as F(k + u).

    F^(k)(x) = 2 (-delta)(-delta-1)...(-delta-k+1) (x + N)^(-delta-k) keeps
    one sign and |F^(k)| decreases, so the variation of F^(k) on [a, b] is
    |F^(k)(a) - F^(k)(b)|, and int_t^inf F = 2 (t + N)^(1-delta) / (delta-1).
    delta is the exact alpha (mu+1) - gamma of the float parameters: where it
    is near 1 the sum moves by 1/(delta-1)^2 per unit of delta, so every
    factor that involves it is rounded once from the exact rational.
    """

    def __init__(self, params: MathieuParams, head: int):
        self.delta = _exact_delta(params)
        self.head = head
        self.domain_left = -0.5 * head

    def _value(self, k: int, x: float) -> tuple[float, float]:
        poch = Fraction(2)
        for j in range(k):
            poch *= -(self.delta + j)
        y = x + self.head
        e = float(self.delta + k)
        v = float(poch) * y ** -e
        # y and the exponent rounded once each move the power by (delta + k)(1 +
        # log y) u; the power within 1 ulp, the factor and the product 1 each
        return v, 1.01 * (e * (1.0 + math.log(y)) + 6.0) * 2.0**-53 * abs(v)

    def deriv(self, k: int, x: float) -> float:
        return self._value(k, x)[0]

    def deriv_with_error(self, k: int, x: float) -> tuple[float, float | None]:
        return self._value(k, x)

    def variation(self, k: int, a: float, b: float) -> float:
        if b < a:
            a, b = b, a
        va, ea = self._value(k, a)
        vb, eb = (0.0, 0.0) if b == math.inf else self._value(k, b)
        return (abs(va - vb) + ea + eb) * (1.0 + 2.0**-50)

    def tail_integral(self, t: float) -> float:
        return self.tail_integral_with_error(t)[0]

    def tail_integral_with_error(self, t: float) -> tuple[float, float | None]:
        y, e = t + self.head, float(self.delta - 1)
        value = 2.0 * y ** -e / e
        # as in _value with the exponent delta - 1, plus its rounding as a divisor
        return value, 1.01 * (e * (1.0 + math.log(y)) + 6.0) * 2.0**-53 * value


#: Order of the Euler-Maclaurin and Boole engines that close a tail.
TAIL_ORDER = 8


def _closed_tail(params: MathieuParams, t: float, alternating: bool, head: int,
                 order: int = TAIL_ORDER) -> tuple[float, float, int]:
    """(value, radius, order) of the sum of the terms past the first `head`,
    with the sign (-1)^(k-1) when alternating, by `emsum.em_sum` or
    `emsum.boole_sum`.

    For t > 0 the terms are 2 t^(-delta) g(eps (k + u)) with eps = 1/t, so
    the sum past the head is 2 t^(-delta) times the engine's sum of the
    shifted kernel x -> g(x + eps head) at the same u (never at offset
    u + head, whose Bernoulli weights B_k(-u - head) explode).  At t = 0 the
    engine sums F(k + u), F = `_PowerTail`, with eps = 1.  The radius covers
    the remainder and every rounding: the engine bounds the boundary terms
    and the integral term from the errors the kernel reports; on top come
    the t^(-delta) scale and the rounding of eps.  head = 0 is `eval_em`,
    whose arithmetic is kept as it was: the derivatives at 0 are the series
    coefficients, covered by the engine's 4e-16 relative allowance.
    """
    engine = emsum.boole_sum if alternating else emsum.em_sum
    if t == 0.0 or (head and t**params.alpha <= _T_POWER_NEGLIGIBLE):
        res = engine(_PowerTail(params, head), 1.0, params.u, order)
        value, radius = res.sum_estimate, res.remainder_bound
        if t > 0.0:
            radius += _t_zero_drift(params, t, head)
    else:
        eps = 1.0 / t
        f = MathieuSmoothFunction(params, Fraction(eps) * head)
        res = engine(f, eps, params.u, order)
        scale = 2.0 * t ** (-params.delta)
        value = scale * res.sum_estimate
        if head == 0:
            beta_err = polyfun.beta_fn_rel_err(*_beta_args(params)) * abs(res.integral_term)
            return value, scale * (res.remainder_bound + beta_err) + 4e-16 * abs(value), order
        radius = scale * res.remainder_bound + _scale_rounding(params, t, alternating, head, value)
    if alternating and head % 2:
        value = -value
    return value, radius, order


#: Below this t^alpha the closer sums the t = 0 tail and bounds the difference.
_T_POWER_NEGLIGIBLE = 2.0**-100


def _t_zero_drift(params: MathieuParams, t: float, head: int) -> float:
    """Bound on the difference between the tails past `head` at t and at 0,
    for (gamma, alpha) in Z+ x N (so delta + alpha > 1 and mu + 1 > 0).

    With w = k + u and m = mu + 1, (1 + (t/w)^alpha)^(-m) >= 1 - m (t/w)^alpha,
    so each term moves by at most m t^alpha 2 w^(-delta-alpha); summed over
    k > head that is at most the first such term plus its integral.  At
    t^alpha <= 2^-100 this is negligible, and the shifted kernel, whose
    powers of head/t leave the float range as t -> 0, is not needed.
    """
    w, e = head + 1.0 + params.u, params.delta + params.alpha
    return 1.01 * (params.mu + 1.0) * t**params.alpha * 2.0 * (w**-e + w ** (1.0 - e) / (e - 1.0))


def _scale_rounding(params: MathieuParams, t: float, alternating: bool, head: int,
                    value: float) -> float:
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
    the first).
    """
    u = 2.0**-53
    rel = (3.0 + abs(params.delta)) * u + _delta_error(params) * abs(math.log(t))
    drift = params.alpha * abs(params.mu + 1.0) * u
    if alternating:
        return 1.01 * (rel * abs(value) + drift * float(_terms(params, t, head + 1)))
    return 1.01 * (rel + drift) * abs(value)


def eval_em(params: MathieuParams, t: float, n: int | None = None) -> EvalResult:
    """Rigorous large-t evaluation through the Euler-Maclaurin engine: the
    closed tail of `_closed_tail` past a head of 0 terms.

    With eps = 1/t the engine estimates sum g((k+u)/t) = t^delta S / 2, so the
    estimate and its certified remainder bound are rescaled by 2 t^(-delta).
    The radius adds the rounding of the value: the Beta function inside the
    integral term, and a few ulps of the rescaled sum.  The result reports 0
    summed terms and the engine order n.
    """
    params.require_delta(1.0)
    if not 0.0 < t < math.inf:
        raise ParameterError("the Euler-Maclaurin path needs finite t > 0")
    prof = g_smoothness(params)
    if n is None:
        n = int(min(prof.r, 8))
    elif n > prof.r:
        raise OrderOverflowError(f"n = {n} exceeds the smoothness r = {prof.r} of g at 0")
    value, radius, n = _closed_tail(params, t, False, 0, n)
    return EvalResult(value=value, err_lo=radius, err_hi=radius, method=EULER_MACLAURIN,
                      terms_used=0, order=n)


def _em_path(params: MathieuParams, t: float) -> EvalResult:
    if not (t > 0.0 and g_smoothness(params).r >= 2):
        raise RegimeError("needs t > 0 and g at least C^2 at 0")
    return eval_em(params, t)


def eval_auto(params: MathieuParams, t: float, tol: float = 1e-10) -> EvalResult:
    """Return the first rigorous bracket whose radius meets tol.

    Direct summation is tried first below T_DIRECT and the certified
    Euler-Maclaurin bound first from it on; EM applies only for t > 0 and g
    at least C^2 at 0.  ToleranceError names each path's reason when no path
    reaches tol.
    """
    params.require_delta(1.0)
    _check_t_tol(t, tol)
    reasons = []
    for name in (DIRECT, EULER_MACLAURIN) if t < T_DIRECT else (EULER_MACLAURIN, DIRECT):
        try:
            res = eval_S(params, t, tol) if name == DIRECT else _em_path(params, t)
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

    def kernel(s):
        return np.exp(-x * s)

    def terms(k):
        w = k + u
        return 2.0 * w * kernel(w * w + y)

    # the sum is at least its first term 2(1+u) and, for u >= -1/2, at least 1/x
    tol = 1e-17 * (2.0 * (1.0 + u) + 1.0 / x)
    s = bracketed_sum(terms,
                      lambda n: hermite_hadamard(lambda v: math.exp(-x * v) / x, kernel, n + u, y),
                      16, tol)
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

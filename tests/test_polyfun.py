import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mathieuseries import polyfun
from mathieuseries.errors import OrderOverflowError


def test_bernoulli_numbers_exact():
    assert polyfun.bernoulli_number(0) == 1
    assert polyfun.bernoulli_number(1) == Fraction(-1, 2)
    assert polyfun.bernoulli_number(2) == Fraction(1, 6)
    assert polyfun.bernoulli_number(12) == Fraction(-691, 2730)
    assert all(polyfun.bernoulli_number(n) == 0 for n in (3, 5, 7, 9, 11))


def test_bernoulli_poly_values():
    assert polyfun.bernoulli_poly(1, 0.7) == pytest.approx(0.2, abs=1e-15)
    assert polyfun.bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert polyfun.bernoulli_poly(12, 0.0) == pytest.approx(-691.0 / 2730.0, rel=1e-14)
    # generating-function cross-check: sum_n B_n(x) t^n/n! = t e^{tx}/(e^t - 1)
    t, x = 0.2, 0.35
    lhs = math.fsum(
        polyfun.bernoulli_poly(n, x) * t**n / math.factorial(n) for n in range(40)
    )
    assert lhs == pytest.approx(t * math.exp(t * x) / math.expm1(t), rel=1e-13)


def test_euler_poly_values():
    assert polyfun.euler_poly(0, 0.3) == 1.0
    assert polyfun.euler_poly(2, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert polyfun.euler_poly(3, 0.5) == pytest.approx(0.0, abs=1e-15)
    # generating function: sum E_n(x) t^n/n! = 2 e^{tx}/(e^t + 1)
    t, x = 0.3, 0.6
    lhs = math.fsum(
        polyfun.euler_poly(n, x) * t**n / math.factorial(n) for n in range(40)
    )
    assert lhs == pytest.approx(2.0 * math.exp(t * x) / (math.exp(t) + 1.0), rel=1e-13)


def test_monic_invariant():
    for n in range(0, polyfun.MAX_ORDER + 1, 7):
        assert polyfun.bernoulli_coeffs(n).coeffs[-1] == 1
        if n < polyfun.MAX_ORDER:
            assert polyfun.euler_coeffs(n).coeffs[-1] == 1


def test_euler_from_bernoulli_identity_exact_rationals():
    # E_{n-1}(x) = (2/n) (B_n(x) - 2^n B_n(x/2)) checked in exact arithmetic
    for n in range(1, polyfun.MAX_ORDER + 1, 9):
        e = polyfun.euler_coeffs(n - 1).coeffs
        b = polyfun.bernoulli_coeffs(n).coeffs
        for x in (Fraction(0), Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4)):
            ex = sum(c * x**k for k, c in enumerate(e))
            bx = sum(c * x**k for k, c in enumerate(b))
            bh = sum(c * (x / 2) ** k for k, c in enumerate(b))
            assert ex == Fraction(2, n) * (bx - 2**n * bh)


def test_euler_numbers_against_bernoulli_closed_form():
    # E_m(0) = 2 (1 - 2^{m+1}) B_{m+1} / (m+1), an independent identity
    for m in range(0, 20):
        lhs = Fraction(polyfun.euler_coeffs(m).coeffs[0])
        rhs = Fraction(2 * (1 - 2 ** (m + 1)), m + 1) * polyfun.bernoulli_number(m + 1)
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    x=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_difference_identity(n, x):
    # B_n(x+1) - B_n(x) = n x^{n-1}, to 1e-12 of the evaluation scale
    lhs = polyfun.bernoulli_poly(n, x + 1.0) - polyfun.bernoulli_poly(n, x)
    rhs = n * x ** (n - 1)
    scale = max(
        1.0,
        sum(abs(float(c)) * (1.0 + abs(x)) ** k
            for k, c in enumerate(polyfun.bernoulli_coeffs(n).coeffs)),
    )
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_difference_identity_exact_rationals():
    from fractions import Fraction

    for n in range(1, polyfun.MAX_ORDER + 1, 7):
        coeffs = polyfun.bernoulli_coeffs(n).coeffs
        for x in (Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(2)):
            lhs = sum(c * (x + 1) ** k for k, c in enumerate(coeffs)) - sum(
                c * x**k for k, c in enumerate(coeffs)
            )
            assert lhs == n * x ** (n - 1)


def test_spline_periodicity_and_values():
    assert polyfun.bernoulli_spline(1, 2.25) == pytest.approx(-0.25, abs=1e-15)
    assert polyfun.euler_spline(0, 0.5) == 1.0
    assert polyfun.euler_spline(0, 1.5) == -1.0
    assert polyfun.bernoulli_poly(3, 0.0) == 0.0
    for n in (1, 2, 5):
        for x in (0.1, 0.7, 1.3):
            assert polyfun.bernoulli_spline(n, x) == pytest.approx(
                polyfun.bernoulli_spline(n, x + 1.0), abs=1e-12
            )
            assert polyfun.euler_spline(n, x) == pytest.approx(
                polyfun.euler_spline(n, x + 2.0), abs=1e-12
            )
    kind = polyfun.SplineKind("euler", 2)
    assert polyfun.spline_eval(kind, 0.3) == polyfun.euler_spline(2, 0.3)


def test_spline_zero_mean():
    for n in range(0, 8):
        val, _ = integrate.quad(
            lambda x: polyfun.bernoulli_spline(n + 1, x), 0.0, 1.0, epsabs=1e-13
        )
        assert abs(val) < 1e-12


def test_sup_bounds():
    sup_b1 = polyfun.spline_sup(polyfun.SplineKind("bernoulli", 1))
    assert 0.5 <= sup_b1 <= 0.5 * (1 + 1e-8)
    sup_e0 = polyfun.spline_sup(polyfun.SplineKind("euler", 0))
    assert 1.0 <= sup_e0 <= 1.0 + 1e-8
    sup_b2 = polyfun.poly_sup(2, "bernoulli", (0.0, 1.0))
    assert 1.0 / 6.0 <= sup_b2 <= (1.0 / 6.0) * (1 + 1e-5)
    # sup bounds must dominate dense sampling
    for n in (3, 6, 11):
        bound = polyfun.spline_sup(polyfun.SplineKind("bernoulli", n))
        samples = max(
            abs(polyfun.bernoulli_spline(n, i / 997.0)) for i in range(998)
        )
        assert bound >= samples
        bound_e = polyfun.spline_sup(polyfun.SplineKind("euler", n))
        samples_e = max(
            abs(polyfun.euler_spline(n, 2.0 * i / 997.0)) for i in range(998)
        )
        assert bound_e >= samples_e



def _max_abs_mp(coeffs, a, b):
    """40-digit max of |P| on [a, b]: endpoints and the real roots of P' from mpmath."""
    c = [mp.mpf(x.numerator) / x.denominator for x in coeffs]
    d = [k * c[k] for k in range(1, len(c))]
    while len(d) > 1 and d[-1] == 0:
        d.pop()
    points = [mp.mpf(a), mp.mpf(b)]
    if len(d) > 1:
        for r in mp.polyroots(d[::-1], maxsteps=200, extraprec=200):
            if abs(mp.im(r)) < mp.mpf(10) ** -30 and a <= mp.re(r) <= b:
                points.append(mp.re(r))
    return max(abs(mp.polyval(c[::-1], x)) for x in points)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.3, 0.0), (-0.5, 0.0)])
def test_sup_bounds_tight_against_mpmath(interval):
    for n in range(13):
        for family, coeffs in (("bernoulli", polyfun.bernoulli_coeffs),
                               ("euler", polyfun.euler_coeffs)):
            bound = polyfun.poly_sup(n, family, interval)
            truth = _max_abs_mp(coeffs(n).coeffs, *interval)
            assert truth <= bound <= truth * (1 + mp.mpf(1e-12)), (n, family)


def test_real_root_intervals():
    # (x - 1)^2 (x + 2) (x - 1/3) (x^2 + 1): a double root, a rational one, two complex
    p = [Fraction(1)]
    for factor in ([-1, 1], [-1, 1], [2, 1], [Fraction(-1, 3), 1], [1, 0, 1]):
        out = [Fraction(0)] * (len(p) + len(factor) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        p = out
    found = polyfun.real_root_intervals(tuple(p))
    assert len(found) == 3
    for (lo, hi), root in zip(found, (Fraction(-2), Fraction(1, 3), Fraction(1))):
        assert lo <= root <= hi
        assert hi - lo <= polyfun.ROOT_WIDTH * max(1, abs(lo), abs(hi))
    assert len(polyfun.real_root_intervals(tuple(p), Fraction(0))) == 2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 12), x=st.floats(-3.0, 3.0),
       family=st.sampled_from([polyfun.BERNOULLI, polyfun.EULER]))
def test_poly_eval_error_bounds_horner(n, x, family):
    # the float evaluation against the exact rational value at the same x
    coeffs = (polyfun.bernoulli_coeffs(n) if family == polyfun.BERNOULLI
              else polyfun.euler_coeffs(n)).coeffs
    got = polyfun.bernoulli_poly(n, x) if family == polyfun.BERNOULLI else polyfun.euler_poly(n, x)
    exact = polyfun.poly_eval_exact(coeffs, Fraction(x))
    assert abs(Fraction(got) - exact) <= Fraction(polyfun.poly_eval_error(n, family, x))


def test_order_overflow():
    with pytest.raises(OrderOverflowError):
        polyfun.bernoulli_poly(polyfun.MAX_ORDER + 1, 0.5)
    with pytest.raises(OrderOverflowError):
        polyfun.poly_sup(polyfun.MAX_ORDER + 1, "bernoulli", (0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=60.0),
    b=st.floats(min_value=0.05, max_value=60.0),
)
def test_beta_symmetry(a, b):
    assert polyfun.beta_fn(a, b) == pytest.approx(polyfun.beta_fn(b, a), rel=1e-13)
    assert polyfun.beta_fn(a, 1.0) == pytest.approx(1.0 / a, rel=1e-13)


def test_beta_values():
    assert polyfun.beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert polyfun.beta_fn(0.5, 1.5) == pytest.approx(math.pi / 2.0, rel=1e-13)
    assert polyfun.beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    with pytest.raises(ValueError):
        polyfun.beta_fn(-1.0, 2.0)


def test_beta_rounding_bound():
    for a, b in ((1.0, 1.5), (1.033, 1.244), (1.062, 0.909), (3.104, 1.203), (0.02, 0.03),
                 (0.5, 0.5), (7.25, 0.75), (60.0, 45.0), (150.0, 0.1)):
        truth = mp.beta(a, b)
        err = abs(mp.mpf(polyfun.beta_fn(a, b)) - truth)
        assert err <= polyfun.beta_fn_rel_err(a, b) * truth, (a, b)

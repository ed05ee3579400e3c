import math
from fractions import Fraction

import mpmath as mp
import pytest

from mathieuseries import emsum, mathieu, polyfun
from mathieuseries.errors import ParameterError

from conftest import exact_weight

#: slack for comparing float-evaluated closed forms against float estimates
def _machine_slack(*values):
    return 16 * 2.2e-16 * max(1.0, *(abs(v) for v in values))


def geometric_sum(eps, u):
    return math.exp(-eps * u) / math.expm1(eps)


def alternating_geometric_sum(eps, u):
    return math.exp(-eps * u) / (math.exp(eps) + 1.0)


class TestFiniteIdentities:
    @pytest.mark.parametrize("u", [0.0, 0.7, -0.5])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_exp_kernel(self, u, n):
        f = emsum.ExpFunction()
        out = emsum.em_finite_identity(f, 10, 0.1, u, n)
        assert abs(out["lhs"] - out["rhs"]) <= 1e-10

    def test_linear_function_exact(self):
        f = emsum.PolynomialFunction([0.0, 1.0])  # F(x) = x
        out = emsum.em_finite_identity(f, 5, 1.0, 0.0, 1)
        assert out["lhs"] == pytest.approx(15.0, abs=1e-12)
        assert out["remainder"] == pytest.approx(0.0, abs=1e-12)
        assert out["rhs"] == pytest.approx(15.0, abs=1e-11)

    def test_negative_u_branch(self):
        f = emsum.ExpFunction()
        out = emsum.em_finite_identity(f, 10, 0.1, -0.5, 2)
        assert abs(out["lhs"] - out["rhs"]) <= 1e-10

    def test_boole_finite_identity(self):
        g = emsum.ExpFunction()
        for u, n in ((0.0, 2), (0.5, 1), (-0.3, 2)):
            out = emsum.boole_finite_identity(g, 6, 0.1, u, n)
            assert abs(out["lhs"] - out["rhs"]) <= 1e-10

    def test_boole_equals_em_combination(self):
        # alternating finite sum = full-sum identity minus twice the even-index
        # identity with doubled step and halved offset
        g = emsum.ExpFunction()
        p, eps, u, n = 4, 0.2, 0.6, 2
        alt = emsum.boole_finite_identity(g, p, eps, u, n)
        full = emsum.em_finite_identity(g, 2 * p, eps, u, n)
        even = emsum.em_finite_identity(g, p, 2 * eps, u / 2.0, n)
        assert alt["lhs"] == pytest.approx(full["lhs"] - 2 * even["lhs"], abs=1e-12)
        assert alt["rhs"] == pytest.approx(full["rhs"] - 2 * even["rhs"], abs=1e-10)

    def test_preconditions(self):
        f = emsum.ExpFunction()
        with pytest.raises(ParameterError):
            emsum.em_finite_identity(f, 0, 0.1, 0.0, 1)
        with pytest.raises(ParameterError):
            emsum.em_finite_identity(f, 3, 0.1, -3.5, 1)


class TestEngines:
    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("u", [0.0, 0.7, -0.4])
    def test_em_bound_soundness(self, eps, n, u):
        f = emsum.ExpFunction()
        res = emsum.em_sum(f, eps, u, n)
        truth = geometric_sum(eps, u)
        assert abs(truth - res.sum_estimate) <= res.remainder_bound + _machine_slack(truth)

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("u", [0.0, 0.7, -0.4])
    def test_boole_bound_soundness(self, eps, n, u):
        g = emsum.ExpFunction()
        res = emsum.boole_sum(g, eps, u, n)
        truth = alternating_geometric_sum(eps, u)
        assert abs(truth - res.sum_estimate) <= res.remainder_bound + _machine_slack(truth)

    def test_bound_decays_with_eps(self):
        f = emsum.ExpFunction()
        for n in (1, 2, 3):
            bounds = [emsum.em_sum(f, eps, 0.0, n).remainder_bound
                      for eps in (0.1, 0.05, 0.025, 0.0125)]
            assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
            assert bounds[-1] < bounds[0] / 4.0

    def test_leading_boundary_terms(self):
        f = emsum.ExpFunction()
        res = emsum.em_sum(f, 0.3, 0.0, 0)
        # first correction is B_1(0) F(0) = -1/2
        assert res.boundary_terms[0] == pytest.approx(-0.5, abs=1e-15)
        resb = emsum.boole_sum(f, 0.3, 0.0, 0)
        # alternating leading term is E_0(0) G(0) / 2 = 1/2
        assert resb.boundary_terms[0] == pytest.approx(0.5, abs=1e-15)

    def test_negative_u_requires_margin(self):
        f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0))
        assert f.domain_left == -0.5
        with pytest.raises(ParameterError):
            emsum.em_sum(f, 2.0, -0.3, 2)  # eps >= q/u = 0.5/0.3
        res = emsum.em_sum(f, 0.1, -0.3, 2)
        assert math.isfinite(res.remainder_bound)

    def test_mathieu_kernel_reproduces_series(self):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
        t = 50.0
        res = emsum.em_sum(mathieu.MathieuSmoothFunction(params), 1.0 / t, 0.0, 4)
        # the engine sums g((k+u)/t) = t^delta * term/2, so rescale to compare
        direct = mathieu.eval_S(params, t, 1e-14)
        engine_value = 2.0 * t ** (-params.delta) * res.sum_estimate
        engine_bound = 2.0 * t ** (-params.delta) * res.remainder_bound
        assert abs(engine_value - direct.value) <= engine_bound + direct.err_hi

    def test_boole_engine_mathieu_kernel(self):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
        t = 50.0
        res = emsum.boole_sum(mathieu.MathieuSmoothFunction(params), 1.0 / t, 0.0, 4)
        direct = mathieu.eval_S_alt(params, t, 1e-13)
        engine_value = 2.0 * t ** (-params.delta) * res.sum_estimate
        engine_bound = 2.0 * t ** (-params.delta) * res.remainder_bound
        assert abs(engine_value - direct.value) <= engine_bound + direct.err_hi


class TestSmoothFunctionContract:
    @pytest.mark.parametrize("f,x", [
        (emsum.ExpFunction(1.3), 0.7),
        (emsum.GaussPowerFunction(1, 1), 0.6),
        (emsum.GaussPowerFunction(2, 2), 0.9),
        (mathieu.MathieuSmoothFunction(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)), 0.8),
    ])
    def test_deriv_zero_is_eval_and_fd_consistency(self, f, x):
        assert f.deriv(0, x) == pytest.approx(f.eval(x), rel=1e-13)
        h = 1e-4
        for k in (1, 2):
            fd = (f.deriv(k - 1, x + h) - f.deriv(k - 1, x - h)) / (2 * h)
            assert f.deriv(k, x) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_variation_superadditive(self):
        for f in (emsum.ExpFunction(0.8),
                  mathieu.MathieuSmoothFunction(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0))):
            whole = f.variation(1, 0.2, 6.0)
            split = f.variation(1, 0.2, 1.5) + f.variation(1, 1.5, 6.0)
            assert whole <= split * (1 + 1e-8) + 1e-12

    def test_exp_variation_closed_form(self):
        f = emsum.ExpFunction(2.0)
        assert f.variation(3, 0.0, math.inf) == pytest.approx(8.0, rel=1e-14)

    def test_no_pieces_no_variation(self):
        # without a closed form or monotone pieces there is no bound to give
        for f in (emsum.GaussPowerFunction(1, 1), emsum.PolynomialFunction([0.0, 1.0])):
            with pytest.raises(ParameterError, match="no monotone pieces"):
                f.variation(1, 0.0, 2.0)
        with pytest.raises(ParameterError):
            emsum.em_sum(emsum.GaussPowerFunction(1, 1), 0.1, 0.0, 2)
        with pytest.raises(ParameterError):
            emsum.GaussPowerFunction(1, 1).tail_integral(0.5)


def _rational(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def _stated_case(kind: str, args):
    """A function under the engines' contract, with 40-digit references for
    F^(k)(0), k = 0..8, and for its integral over [0, inf)."""
    if kind == "exp":
        f = emsum.ExpFunction(*args)
        r, a = (mp.mpf(v) for v in args)
        return f, [a * (-r) ** k for k in range(9)], a / r
    kernel, at = args
    g, alpha, mu = (Fraction(v) for v in kernel)
    delta = alpha * (mu + 1) - g
    if kind == "power":
        f = mathieu._PowerTail(mathieu.MathieuParams(*kernel), at)
        derivs, poch = [], mp.mpf(2)
        for k in range(9):
            derivs.append(poch * mp.mpf(at) ** -_rational(delta + k))
            poch *= -_rational(delta + k)
        return f, derivs, 2 * mp.mpf(at) ** _rational(1 - delta) / _rational(delta - 1)
    f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(*kernel), at)
    gm, am, mm = (_rational(v) for v in (g, alpha, mu))
    b = (g + 1) / alpha
    a_, b_ = _rational(mu + 1 - b), _rational(b)
    s = 1 / (mp.mpf(at) ** am + 1)
    if at:
        derivs = [mp.diff(lambda x: x**gm * (1 + x**am) ** -(mm + 1), mp.mpf(at), k)
                  for k in range(9)]
    else:
        # g = sum_j (-1)^j binom(mu+j, j) x^(gamma + alpha j) in Z+ x N
        derivs = [mp.mpf(0)] * 9
        for j in range(9):
            n = int(g + alpha * j)
            if n < 9:
                derivs[n] = (-1) ** j * mp.factorial(n) * mp.binomial(mm + j, j)
    return f, derivs, mp.betainc(a_, b_, 0, s) / am


class TestStatedErrors:
    """Each value a function gives the engines lies within the error it
    states: `ExpFunction`'s few ulps, the y-form values of
    `MathieuSmoothFunction` unshifted in Z+ x N and at power-of-two shifts,
    and `_PowerTail`, each against 40 digits."""

    @pytest.mark.parametrize("kind, args", [
        ("exp", (1.0, 1.0)), ("exp", (1.3, 0.7)), ("exp", (0.2, 5.0)), ("exp", (3.7, -2.5)),
        ("mathieu", ((1.0, 2.0, 1.0), 0.0)), ("mathieu", ((0.0, 2.0, 1.0), 0.0)),
        ("mathieu", ((2.0, 2.0, 1.5), 0.0)), ("mathieu", ((0.0, 3.0, 0.7), 0.0)),
        ("mathieu", ((0.0, 1.0, 1.3), 0.0)),
        ("mathieu", ((1.0, 2.0, 1.0), 0.125)), ("mathieu", ((0.0, 2.0, 1.0), 2.0)),
        ("mathieu", ((0.5, 1.5, 1.0), 1.0)), ("mathieu", ((1.0, 1.5, 1.0), 8.0)),
        ("mathieu", ((0.0, 2.5, 0.3), 64.0)), ("mathieu", ((2.0, 2.5, 1.0), 0.25)),
        ("power", ((1.0, 2.0, 1.0), 64)), ("power", ((0.5, 1.5, 1.0), 128)),
        ("power", ((1.0, 2.0, 0.3), 256)),
    ])
    def test_values_within_their_stated_errors(self, kind, args):
        f, derivs, integral = _stated_case(kind, args)
        for k, (value, err) in enumerate(f.derivs_with_error(tuple(range(9)))):
            assert abs(value - derivs[k]) <= err, (kind, args, k)
        value, err = f.integral_with_error()
        assert abs(value - integral) <= err, (kind, args)


class TestAsymptoticCoefficients:
    def test_theta_series_pattern(self):
        # x sum 2(k+u) e^{-(k+u)^2 x}: coefficient of x^m is (-1)^m B_{2m}(-u)/m!
        for u in (0.0, 0.4):
            f = emsum.GaussPowerFunction(1, 1)
            series = emsum.em_asym_coeffs(f, u, 9)
            assert series.coeffs[0] == pytest.approx(1.0, rel=1e-12)  # integral
            # eps^{2m-1} coefficients vanish (odd derivatives only)
            for m in range(1, 5):
                expected = (-1.0) ** m * polyfun.bernoulli_poly(2 * m, -u) / math.factorial(m)
                # the eps-power 2m-1 entry carries x^m after eps * (...) with x = eps^2
                got = series.coeffs[1 + 2 * m - 1]
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
                if 1 + 2 * m < len(series.coeffs):
                    assert series.coeffs[1 + 2 * m] == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_derivatives_give_zero_stream(self):
        f = emsum.GaussPowerFunction(2, 2)  # F = 2 x^3 e^{-x^4}: F^(k)(0)=0 for k<3
        series = emsum.em_asym_coeffs(f, 0.0, 2)
        assert series.coeffs[1] == 0.0 and series.coeffs[2] == 0.0

    def test_higher_power_pattern(self):
        # F = 2 x^3 e^{-x^4}: after eps -> x^(1/2) the stream reproduces
        # Gamma(1/2... the leading integral is Gamma(1)/2 = 1/2
        f = emsum.GaussPowerFunction(2, 2)
        series = emsum.em_asym_coeffs(f, 0.3, 11)
        assert series.coeffs[0] == pytest.approx(0.5, rel=1e-10)
        # nonzero entries sit at odd derivative orders 3, 7, 11
        for k in (1, 2, 4, 5, 6, 8, 9, 10):
            assert series.coeffs[1 + k] == pytest.approx(0.0, abs=1e-12)
        for k in (3, 7, 11):
            assert abs(series.coeffs[1 + k]) > 1e-8

    def test_boole_stream_matches_direct_sums(self):
        g = emsum.ExpFunction()
        series = emsum.boole_asym_coeffs(g, 0.2, 8)
        for eps in (0.05, 0.02):
            truth = alternating_geometric_sum(eps, 0.2)
            est = series.evaluate(eps)
            assert est == pytest.approx(truth, abs=eps**8)

    def test_evaluate_and_diagnostics(self):
        series = emsum.AsymptoticSeries(powers=(0.0, 1.0, 2.0), coeffs=(1.0, -0.5, 0.25))
        assert series.evaluate(0.1) == pytest.approx(1.0 - 0.05 + 0.0025)
        assert series.evaluate(0.1, 2) == pytest.approx(0.95)


class TestWeights:
    """The boundary weights and polynomial sups kept once per (family, u, order)."""

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.5, -0.4])
    def test_cold_and_warm_weights_give_the_same_sums(self, u):
        params = mathieu.MathieuParams(0.5, 1.5, 1.0, 0.0)
        fns = (emsum.ExpFunction(1.3, 0.7), mathieu.MathieuSmoothFunction(params, 8.0))
        for engine in (emsum.em_sum, emsum.boole_sum):
            for f in fns:
                emsum._weights.cache_clear()
                emsum.boundary_weight.cache_clear()
                cold, warm = engine(f, 0.25, u, 8), engine(f, 0.25, u, 8)
                assert repr(cold) == repr(warm), (engine.__name__, type(f).__name__)

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.5, -0.4])
    def test_boundary_terms_are_the_weights_times_the_derivatives(self, u):
        # eps^k w_k F^(k)(0), with w_k the exact weight rounded once,
        # computed here on its own
        f, eps = emsum.ExpFunction(1.3, 0.7), 0.25
        bernoulli = emsum.em_sum(f, eps, u, 8).boundary_terms
        euler = emsum.boole_sum(f, eps, u, 8).boundary_terms
        for k in range(9):
            for terms, family in ((bernoulli, True), (euler, False)):
                w = float(exact_weight(family, u, k))
                assert terms[k] == eps**k * w * f.deriv(k, 0.0), (k, family)

    @pytest.mark.parametrize("u", [0.0, 0.3, -0.4, 1.7, 2.0 / 3.0])
    def test_weights_are_rounded_once_with_their_error(self, u):
        for family in (polyfun.BERNOULLI, polyfun.EULER):
            for k in range(20):
                exact, value, err = emsum.boundary_weight(family, u, k)
                assert exact == exact_weight(family == polyfun.BERNOULLI, u, k)
                assert value == float(exact)
                assert abs(Fraction(value) - exact) <= Fraction(err)
                assert err == 0.0 if Fraction(value) == exact else err <= 2.0**-52 * abs(value)

    def test_weights_exactly_zero_are_skipped(self):
        # B_(2j+1)(1/2) = E_(2j+1)(1/2) = 0 for j >= 0 (DLMF 24.4): at u = -1/2
        # the engines skip those orders as they skip the zeros at u = 0
        assert emsum._weights(polyfun.BERNOULLI, -0.5, 8).orders == (1, 3, 5, 7, 8)
        assert emsum._weights(polyfun.EULER, -0.5, 8).orders == (0, 2, 4, 6, 8)

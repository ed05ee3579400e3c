import math
import warnings

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mathieuseries import jets, mathieu
from mathieuseries.errors import (
    OrderOverflowError,
    ParameterError,
    RegimeError,
    ToleranceError,
)

from conftest import (
    TWO_ZETA3,
    eta_hurwitz_mp,
    exact_delta_mp,
    log_phi_mp,
    poisson_alt_mp,
    poisson_plain_mp,
    s1_trigamma,
    s_even_mp,
    s_hurwitz_alt_mp,
    s_hurwitz_mp,
)


CLASSICAL = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)


class TestParams:
    def test_delta(self):
        assert CLASSICAL.delta == 3.0
        assert mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0).delta == 2.0

    def test_constraints(self):
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(-0.5, 2.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(1.0, 2.0, 1.0, -1.0)
        with pytest.raises(ParameterError):
            mathieu.MathieuParams(1.0, 2.0, 0.0, 0.0).require_delta(1.0)

    def test_mu_nonpositive_flagged(self):
        with pytest.warns(UserWarning, match="experimental"):
            mathieu.MathieuParams(0.0, 2.0, -0.2, 0.0)


class TestKernel:
    def test_values(self):
        assert mathieu.g_eval(CLASSICAL, 1.0) == pytest.approx(0.25, rel=1e-15)
        assert mathieu.g_eval(mathieu.MathieuParams(0.0, 1.7, 2.3, 0.0), 0.0) == 1.0
        assert mathieu.g_eval(CLASSICAL, 0.0) == 0.0

    def test_jet_matches_series_near_zero(self):
        # binomial series of the kernel at x = 0.1, truncated far past float precision
        x = 0.1
        jet = mathieu.g_jet(CLASSICAL, x, 6)
        series = math.fsum(
            mathieu._g_series_coeff(CLASSICAL, k) * x ** (1 + 2 * k) for k in range(40)
        )
        assert jet[0] == pytest.approx(series, rel=1e-12)
        d1 = math.fsum(
            mathieu._g_series_coeff(CLASSICAL, k) * (1 + 2 * k) * x ** (2 * k)
            for k in range(40)
        )
        assert jets.derivatives(jet)[1] == pytest.approx(d1, rel=1e-12)

    def test_jet_at_zero_smooth_regime(self):
        jet = mathieu.g_jet(CLASSICAL, 0.0, 7)
        # coefficients (-1)^k (k+1) at odd degrees 1, 3, 5, 7
        assert jet[1] == pytest.approx(1.0)
        assert jet[3] == pytest.approx(-2.0)
        assert jet[5] == pytest.approx(3.0)
        assert jet[7] == pytest.approx(-4.0)
        assert jet[0] == jet[2] == jet[4] == jet[6] == 0.0

    def test_smoothness_profile(self):
        prof = mathieu.g_smoothness(mathieu.MathieuParams(0.5, 2.0, 1.0, 0.0))
        assert prof.r == 0
        assert prof.initial_derivs == ((0, 0.0),)

        prof = mathieu.g_smoothness(mathieu.MathieuParams(2.0, 1.5, 2.0, 0.0))
        assert prof.r == 3
        assert dict(prof.initial_derivs)[2] == pytest.approx(2.0)
        assert dict(prof.initial_derivs)[1] == 0.0

        prof = mathieu.g_smoothness(CLASSICAL)
        assert prof.r == math.inf
        nonzero = [p for p, v in prof.initial_derivs if v != 0.0]
        assert nonzero == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_jet_order_error_at_zero(self):
        rough = mathieu.MathieuParams(0.5, 2.0, 1.0, 0.0)
        with pytest.raises(OrderOverflowError):
            mathieu.g_jet(rough, 0.0, 1)
        assert mathieu.g_jet(rough, 0.0, 0) == [0.0]

    def test_total_variation(self):
        assert mathieu.g_total_variation(
            mathieu.MathieuParams(0.0, 2.0, 1.0, 0.0)
        ) == 1.0
        v = mathieu.g_total_variation(CLASSICAL)
        assert v == pytest.approx(2.0 * (1 / 3) ** 0.5 * (4 / 3) ** (-2.0), rel=1e-14)
        v2 = mathieu.g_total_variation(mathieu.MathieuParams(2.0, 2.0, 1.0, 0.0))
        assert v2 == pytest.approx(0.5, rel=1e-14)
        # cross-check by quadrature of |g'| (tail beyond X contributes g(X))
        quad, _ = integrate.quad(
            lambda x: abs(jets.derivatives(mathieu.g_jet(CLASSICAL, x, 1))[1]),
            0.0, 200.0, limit=300,
        )
        assert v == pytest.approx(quad + mathieu.g_eval(CLASSICAL, 200.0), rel=1e-8)


class TestTailIntegral:
    def test_classical_closed_form(self):
        for t in (0.0, 0.5, 2.0, 10.0):
            assert mathieu.tail_integral(CLASSICAL, t) == pytest.approx(
                1.0 / (2.0 * (t * t + 1.0)), rel=1e-12
            )

    def test_beta_value_at_zero(self):
        params = mathieu.MathieuParams(0.0, 2.0, 1.0, 0.0)
        assert mathieu.tail_integral(params, 0.0) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_exponent_one_family(self):
        params = mathieu.MathieuParams(0.0, 1.0, 2.0, 0.0)
        for t in (0.0, 1.0, 3.0):
            assert mathieu.tail_integral(params, t) == pytest.approx(
                1.0 / (2.0 * (1.0 + t) ** 2), rel=1e-12
            )

    def test_quadrature_cross_check(self):
        params = mathieu.MathieuParams(0.7, 1.9, 1.3, 0.0)
        got = mathieu.tail_integral(params, 1.4)
        ref, _ = integrate.quad(
            lambda x: mathieu.g_eval(params, x), 1.4, math.inf, epsabs=1e-13
        )
        assert got == pytest.approx(ref, rel=1e-11)

    def test_divergence(self):
        with pytest.raises(ParameterError):
            mathieu.tail_integral(mathieu.MathieuParams(1.0, 2.0, 0.0, 0.0), 0.0)

    @pytest.mark.parametrize("params, form", [
        ((2.0, 2.0, 1.5, 0.0), "a=1"),
        ((1.0, 2.0, 1.0, 0.0), "a=1"),
        ((1.0, 1.0, 1.5, 0.0), "b=n"),
        ((1.0, 1.0, 1.01, 0.0), "b=n"),
        ((0.0, 1.0, 2.3, 0.0), "b=n"),
        ((4.0, 1.0, 5.2, 0.0), "b=n"),
        ((0.5, 1.5, 1.0, 0.0), "a=1"),
        ((0.5, 1.5, 2.0, 0.0), "b=n"),
        ((1.0, 2.0, 0.7, 0.0), "b=n"),
    ])
    def test_closed_forms_within_their_bound(self, params, form):
        # against the 40-digit incomplete Beta integral at the exact (a, b)
        p = mathieu.MathieuParams(*params)
        assert mathieu._closed_form_beta(p) == form
        g, a_, mu, _ = (mp.mpf(x) for x in params)
        b = (g + 1) / a_
        a = mu + 1 - b
        for x in (1e-3, 0.3, 1.0, 1.7, 5.0, 64.0, 1e4):
            s = 1 / (mp.mpf(x) ** a_ + 1)
            ref = mp.betainc(a, b, 0, s) / a_
            got = mathieu.tail_integral(p, x)
            assert abs(got - ref) <= mathieu.tail_integral_rel_err(p, x) * ref, (params, x)

    def test_betainc_allowance_against_mpmath(self):
        from scipy import special

        rng = __import__("random").Random(11)
        for _ in range(400):
            a, b = 10 ** rng.uniform(-2, 1.7), 10 ** rng.uniform(-2, 1.7)
            s = 10 ** rng.uniform(-14, 0) * rng.choice([1.0, 0.999])
            ref = mp.betainc(a, b, 0, s, regularized=True)
            if ref < 1e-300:  # underflow: the tail's error bound adds 1e-300 absolute
                continue
            got = float(special.betainc(a, b, s))
            allowed = mathieu.BETAINC_RTOL * max(1.0, (a + b) / 8.0)
            assert abs(got - ref) <= allowed * ref, (a, b, s)


class TestEvalS:
    def test_zeta3(self):
        res = mathieu.eval_S(CLASSICAL, 0.0, 1e-12)
        assert abs(res.value - float(TWO_ZETA3)) <= res.err_hi

    def test_against_trigamma_oracle(self):
        for t, u in ((0.5, 0.0), (1.0, 0.0), (2.0, 0.3), (10.0, 0.0), (100.0, 0.9), (3.0, -0.5)):
            params = mathieu.MathieuParams(1.0, 2.0, 1.0, u)
            res = mathieu.eval_S(params, t, 1e-12)
            truth = float(s1_trigamma(t, u))
            assert abs(res.value - truth) <= res.err_hi, (t, u)

    @settings(max_examples=15, deadline=None)
    @given(
        t=st.floats(min_value=0.05, max_value=60.0),
        u=st.floats(min_value=-0.8, max_value=2.0),
        tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    def test_bracket_honesty_property(self, t, u, tol):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, u)
        res = mathieu.eval_S(params, t, tol)
        truth = float(s1_trigamma(t, u))
        assert res.err_hi <= tol
        assert abs(res.value - truth) <= res.err_hi

    def test_bracket_meets_tol_where_first_term_dominates(self):
        # w = 1 + u near 0.2 and small t: sum|terms| reaches 223, so tol = 1e-12
        # needs the exact head sum and the per-term rounding count
        for t, u in ((0.0625, -0.78125), (0.05, -0.8)):
            res = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, u), t, 1e-12)
            assert res.err_hi <= 1e-12
            assert abs(res.value - float(s1_trigamma(t, u))) <= res.err_hi, (t, u)

    def test_generic_regime_against_brute_oracle(self):
        # non-integer gamma and alpha: 30-digit partial sum plus integral
        # tail bracket (fully independent of the library code paths)
        import mpmath as mp

        mp.mp.dps = 30
        gamma, alpha, mu, u, t = 0.7, 1.9, 1.2, 0.3, 2.0
        f = lambda k: 2 * (k + u) ** gamma / ((k + u) ** alpha + t**alpha) ** (mu + 1)
        n = 50000
        partial = mp.fsum(f(k) for k in range(1, n + 1))
        hi = partial + mp.quad(f, [n, mp.inf])
        lo = partial + mp.quad(f, [n + 1, mp.inf])
        res = mathieu.eval_S(mathieu.MathieuParams(gamma, alpha, mu, u), t, 1e-12)
        assert float(lo) - res.err_hi <= res.value <= float(hi) + res.err_hi

    def test_jet_at_zero_fractional_alpha(self):
        # gamma in Z+, alpha not an integer: only the gamma-th derivative survives
        params = mathieu.MathieuParams(2.0, 1.5, 2.0, 0.0)
        assert mathieu.g_jet(params, 0.0, 3) == [0.0, 0.0, 1.0, 0.0]

    def test_poisson_remark_value(self):
        params = mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0)
        res = mathieu.eval_S(params, 1.0, 1e-12)
        assert res.value == pytest.approx(mathieu.poisson_S(1.0), abs=5e-12)

    def test_mathieu_inequality_point(self):
        res = mathieu.eval_S(CLASSICAL, 2.0, 1e-12)
        assert res.value + res.err_hi < 0.25

    def test_bracket_is_two_sided(self):
        res = mathieu.eval_S(CLASSICAL, 1.0, 1e-10)
        assert res.lower <= res.value <= res.upper
        assert res.method == mathieu.DIRECT

    def test_tolerance_drives_bracket(self):
        wide = mathieu.eval_S(CLASSICAL, 1.0, 1e-6)
        tight = mathieu.eval_S(CLASSICAL, 1.0, 1e-12)
        assert tight.err_hi < wide.err_hi
        assert wide.err_hi <= 1e-6
        assert tight.err_hi <= 1e-12

    def test_term_cap(self, monkeypatch):
        # outside the integer regime at t > 0 there is no closed tail, and the
        # bracket needs far more than 1,000 terms (delta = 1.075)
        monkeypatch.setenv(mathieu.MAX_TERMS_ENV, "1000")
        from mathieuseries.errors import ToleranceError

        with pytest.raises(ToleranceError):
            mathieu.eval_S(mathieu.MathieuParams(0.5, 1.5, 0.05, 0.0), 1.0, 1e-12)


class TestEvalSAlt:
    def test_poisson_alternating(self):
        params = mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0)
        res = mathieu.eval_S_alt(params, 1.0, 1e-12)
        assert res.value == pytest.approx(mathieu.poisson_S_alt(1.0), abs=5e-12)

    def test_identity_1b(self):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.3)
        alt = mathieu.eval_S_alt(params, 3.0, 1e-12)
        s_full = mathieu.eval_S(params, 3.0, 1e-13)
        s_half = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.15), 1.5, 1e-13)
        rhs = s_full.value - 2.0 ** (1.0 - params.delta) * s_half.value
        assert alt.value == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(
        mu=st.floats(min_value=0.4, max_value=2.5),
        u=st.floats(min_value=-0.4, max_value=1.5),
        t=st.floats(min_value=0.1, max_value=8.0),
    )
    def test_identity_1b_random_params(self, mu, u, t):
        params = mathieu.MathieuParams(1.0, 2.0, mu, u)
        alt = mathieu.eval_S_alt(params, t, 1e-11)
        s_full = mathieu.eval_S(params, t, 1e-12)
        s_half = mathieu.eval_S(
            mathieu.MathieuParams(1.0, 2.0, mu, u / 2.0), t / 2.0, 1e-12
        )
        rhs = s_full.value - 2.0 ** (1.0 - params.delta) * s_half.value
        assert abs(alt.value - rhs) <= 1e-10

    def test_slow_alternating_family_raises_cleanly(self):
        from mathieuseries.errors import ToleranceError

        # delta = 0.9: the alternating tail decays like N^-0.9, so a tight
        # tolerance exhausts the term cap while a loose one still succeeds
        params = mathieu.MathieuParams(1.5, 2.0, 0.2, 0.0)
        res = mathieu.eval_S_alt(params, 1.0, 1e-4)
        assert res.err_hi <= 1e-4
        with pytest.raises(ToleranceError):
            mathieu.eval_S_alt(params, 1.0, 1e-12)

    def test_vanishing_alternating_limit(self):
        # gamma even, alpha even, u = 0: t^(alpha(mu+1)) S~ -> (-1)^gamma E_gamma(0),
        # and the residual beats every tested power
        params = mathieu.MathieuParams(2.0, 2.0, 1.0, 0.0)
        scaled = []
        for t in (3.0, 5.0, 8.0):
            res = mathieu.eval_S_alt(params, t, 1e-14)
            scaled.append(abs(res.value) * t ** (2.0 * (1.0 + 1.0) + 2.0 * 3.0))
        assert scaled[1] < scaled[0] / 2.0
        assert scaled[2] < scaled[1] / 2.0

    def test_leading_alternating_coefficient(self):
        # gamma=1: t^4 S~ -> -E_1(0) = 1/2
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
        res = mathieu.eval_S_alt(params, 40.0, 1e-14)
        assert res.value * 40.0**4 == pytest.approx(0.5, rel=2e-3)


class TestSMu:
    def test_matches_eval_s(self):
        a = mathieu.s_mu(1.0, 2.0, 0.3, 1e-12)
        b = mathieu.eval_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.3), 2.0, 1e-12)
        assert a.value == b.value

    def test_dropped_term_and_shift(self):
        # u = -2: the k=2 term vanishes, remaining sum matches a brute force
        res = mathieu.s_mu(1.0, 1.5, -2.0, 1e-12)
        brute = math.fsum(
            2.0 * (k - 2.0) / ((k - 2.0) ** 2 + 1.5**2) ** 2
            for k in range(1, 400000)
            if k != 2
        )
        assert res.value == pytest.approx(brute, abs=1e-9)


class TestAsymptotics:
    def test_classical_pattern(self):
        series = mathieu.asym_S(CLASSICAL, 4)
        assert series.powers[0] == 2.0
        assert series.coeffs[0] == pytest.approx(1.0, rel=1e-14)
        # S ~ 1/t^2 - B_2/t^4 + B_4/t^6 - ... with (-1)^k B_{2k} signs
        assert series.coeffs[1] == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert series.coeffs[2] == pytest.approx(-1.0 / 30.0, rel=1e-14)

    def test_offset_coefficient(self):
        series = mathieu.asym_S(mathieu.MathieuParams(1.0, 2.0, 1.0, 0.5), 2)
        assert series.coeffs[1] == pytest.approx(-11.0 / 12.0, rel=1e-14)

    def test_general_mu_second_coefficient(self):
        # coefficient of t^-(2 mu + 2) is -(u^2+u+1/6)
        for mu, u in ((1.5, 0.0), (2.5, 0.7)):
            series = mathieu.asym_S(mathieu.MathieuParams(1.0, 2.0, mu, u), 2)
            assert series.coeffs[1] == pytest.approx(-(u * u + u + 1.0 / 6.0), rel=1e-13)

    def test_exponent_one_family_closed_form(self):
        # S(t, 0, 0, 1, 2) = -psi''(1+t); checks lead 1/t^2, then -1/t^3, +1/(2 t^4)
        from scipy import special

        params = mathieu.MathieuParams(0.0, 1.0, 2.0, 0.0)
        series = mathieu.asym_S(params, 3)
        assert series.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert series.coeffs[1] == pytest.approx(-1.0, rel=1e-12)
        assert series.coeffs[2] == pytest.approx(0.5, rel=1e-12)
        for t in (10.0, 30.0):
            closed = -float(special.polygamma(2, 1.0 + t))
            direct = mathieu.eval_S(params, t, 1e-13)
            assert abs(direct.value - closed) <= direct.err_hi + 1e-15
            assert series.evaluate(1.0 / t) == pytest.approx(closed, rel=40.0 / t**3)

    def test_alternating_expansion_even_gamma(self):
        # gamma=2, alpha=2: leading coefficient is E_2(-u) = u^2 + u at t^-(2(mu+1))
        params = mathieu.MathieuParams(2.0, 2.0, 0.8, 0.3)
        series = mathieu.asym_S_alt(params, 3)
        assert series.powers[0] == pytest.approx(2.0 * 1.8)
        assert series.coeffs[0] == pytest.approx(0.3**2 + 0.3, rel=1e-13)
        direct = mathieu.eval_S_alt(params, 30.0, 1e-9)
        assert series.evaluate(1.0 / 30.0) == pytest.approx(direct.value, rel=1e-6)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            mathieu.asym_S(mathieu.MathieuParams(0.5, 2.0, 1.0, 0.0), 3)
        with pytest.raises(RegimeError):
            mathieu.asym_S(mathieu.MathieuParams(1.0, 1.5, 2.0, 0.0), 3)

    def test_alternating_expansion_leading_terms(self):
        params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
        series = mathieu.asym_S_alt(params, 3)
        direct = mathieu.eval_S_alt(params, 30.0, 1e-14)
        assert series.evaluate(1.0 / 30.0) == pytest.approx(direct.value, rel=1e-5)

    def test_total_variation_brackets(self):
        # |t^delta S~ - g(0)| <= V(g) and
        # |t^delta (S - C t^(1-delta)) + (1+2u) g(0)| <= (1+2u) V(g) for u >= 0
        from mathieuseries import polyfun

        for gamma, alpha, mu, u in (
            (1.0, 2.0, 1.0, 0.0), (0.0, 2.0, 1.0, 0.5), (0.5, 1.5, 2.0, 0.25)
        ):
            params = mathieu.MathieuParams(gamma, alpha, mu, u)
            v = mathieu.g_total_variation(params)
            g0 = 1.0 if gamma == 0 else 0.0
            b = (gamma + 1.0) / alpha
            c_lead = 2.0 / alpha * polyfun.beta_fn(b, mu + 1.0 - b)
            delta = params.delta
            for t in (2.0, 5.0, 20.0):
                alt = mathieu.eval_S_alt(params, t, 1e-12).value
                assert abs(t**delta * alt - g0) <= v + 1e-9
                s = mathieu.eval_S(params, t, 1e-12).value
                lhs = t**delta * (s - c_lead * t ** (1.0 - delta)) + (1.0 + 2.0 * u) * g0
                assert abs(lhs) <= (1.0 + 2.0 * u) * v + 1e-9

    def test_scaled_residual_bounded(self):
        series = mathieu.asym_S(CLASSICAL, 4)
        scaled = []
        for t in (20.0, 40.0):
            direct = mathieu.eval_S(CLASSICAL, t, 1e-14)
            resid = abs(direct.value - series.evaluate(1.0 / t, 3))
            scaled.append(resid * t ** series.powers[3])
        expected = abs(series.coeffs[3])
        assert 0.3 * expected <= scaled[0] <= 3.0 * expected
        assert 0.3 * expected <= scaled[1] <= 3.0 * expected


class TestDispatch:
    def test_small_t_direct(self):
        assert mathieu.eval_auto(CLASSICAL, 0.5, 1e-10).method == mathieu.DIRECT

    def test_large_t_euler_maclaurin_contains_oracle(self):
        # large t goes to the certified Euler-Maclaurin bound, never to the expansion
        for u in (0.0, 0.5):
            params = mathieu.MathieuParams(1.0, 2.0, 1.0, u)
            for t in (1e3, 3e3, 1e4):
                res = mathieu.eval_auto(params, t, 1e-10)
                assert res.method == mathieu.EULER_MACLAURIN
                assert res.rigorous
                assert abs(mp.mpf(res.value) - s1_trigamma(t, u)) <= res.err_hi, (u, t)

    def test_direct_path_skips_smoothness(self, monkeypatch):
        def fail(_params):
            raise AssertionError("g_smoothness called on the direct path")

        monkeypatch.setattr(mathieu, "g_smoothness", fail)
        assert mathieu.eval_auto(CLASSICAL, 0.5, 1e-10).method == mathieu.DIRECT

    def test_euler_maclaurin_where_direct_cannot_reach_tol(self, monkeypatch):
        # delta = 1.2: under a cap below its 64-term head direct summation
        # cannot reach tol (without the cap its closed tail would), EM meets it
        monkeypatch.setenv(mathieu.MAX_TERMS_ENV, "32")
        params = mathieu.MathieuParams(1.0, 1.0, 1.2, 0.0)
        res = mathieu.eval_auto(params, 20.0, 1e-10)
        assert res.method == mathieu.EULER_MACLAURIN
        assert res.err_hi <= 1e-10
        assert abs(mp.mpf(res.value) - s_hurwitz_mp(1.2, 20.0)) <= res.err_hi

    def test_unreachable_tol_raises(self):
        # direct stops at the float64 floor (radius ~6e-15), EM is wide at t = 1
        with pytest.raises(ToleranceError, match="direct.*euler-maclaurin"):
            mathieu.eval_auto(CLASSICAL, 1.0, 1e-18)

    def test_failed_variation_quadrature_goes_direct(self):
        # smoothness r = 2: quad reports roundoff on |g^(3)|, so EM has no bound
        params = mathieu.MathieuParams(1.0, 1.5, 1.0, 0.0)
        for t in (50.0, 2000.0):
            with pytest.raises(ToleranceError, match="variation quadrature"):
                mathieu.eval_em(params, t)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = mathieu.eval_auto(params, t, 1e-10)
            assert res.method == mathieu.DIRECT
            assert res.err_hi <= 1e-10

    def test_mid_t_euler_maclaurin(self):
        res = mathieu.eval_auto(CLASSICAL, 200.0, 1e-10)
        assert res.method == mathieu.EULER_MACLAURIN
        assert res.rigorous

    def test_cross_validation_overlap(self):
        a, b = mathieu.cross_validate(CLASSICAL, 50.0, 1e-12)
        assert max(a.lower, b.lower) <= min(a.upper, b.upper)

    def test_cross_validation_large_t(self):
        direct, other = mathieu.cross_validate(CLASSICAL, 3000.0, 1e-12)
        assert (direct.method, other.method) == (mathieu.DIRECT, mathieu.EULER_MACLAURIN)
        assert max(direct.lower, other.lower) <= min(direct.upper, other.upper)

    def test_em_bracket_covers_beta_rounding(self):
        # the Beta function in the integral term is ~1e-15 off here; the radius
        # must cover it even where the remainder bound is far smaller
        params = mathieu.MathieuParams(2.0, 2.0, 1.5, 0.0)
        for t in (350.4, 670.7, 763.6, 1e4):
            res = mathieu.eval_em(params, t)
            assert abs(mp.mpf(res.value) - s_even_mp(t)) <= res.err_hi, t

    def test_em_bracket_near_delta_one(self):
        # a = (delta-1)/alpha = 1e-4 rounded once: rounded in steps it was off
        # by 1e-12 relative, and the integral term ~ 1/a with it (4e-8 here)
        params = mathieu.MathieuParams(1.0, 1.0, 1.0001, 0.0)
        for t in (100.0, 1000.0):
            res = mathieu.eval_em(params, t)
            assert abs(mp.mpf(res.value) - s_hurwitz_mp(1.0001, t)) <= res.err_hi, t

    def test_em_bracket_contains_oracle(self):
        for t in (50.0, 120.0):
            res = mathieu.eval_em(CLASSICAL, t)
            truth = float(s1_trigamma(t))
            assert abs(res.value - truth) <= res.err_hi


def _variation_mp(gamma, alpha, mu, n):
    """(lo, hi) -> variation of g^(n) on [lo, hi] at 40 digits, the integral of
    |g^(n+1)| split at its zeros (found by a sign scan and bracketing).  On
    each piece g^(n+1) keeps one sign, so the piece's integral is the jump of
    g^(n) across it, taken by mpmath's numerical differentiation."""
    def g(x):
        return x**gamma * (1 + x**alpha) ** (-(mp.mpf(mu) + 1))

    def d(x):
        return mp.diff(g, x, n + 1)

    # for the kernels below every zero of g^(n+1) right of -0.01 lies below 12
    xs = [mp.mpf(-0.01) + 12 * (mp.mpf(i) / 300) ** 2 for i in range(301)]
    vals = [d(x) for x in xs]
    zeros = [mp.findroot(d, (x0, x1), solver="anderson")
             for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]) if v0 * v1 < 0]

    def value(x):
        return mp.mpf(0) if x == math.inf else mp.diff(g, x, n)

    def variation(lo, hi):
        knots = [mp.mpf(lo)] + [z for z in zeros if lo < z < hi] + [hi]
        values = [value(x) for x in knots]
        return sum(abs(y - x) for x, y in zip(values, values[1:]))

    return variation


class TestExactVariation:
    """In the integer regime the variation of g^(n) is exact, not a quadrature."""

    #: a = eps u for u in {0.5, -0.3} and t in {50, 3000}, and a = 0
    STARTS = (0.0, 0.5 / 50, 0.5 / 3000, -0.3 / 50, -0.3 / 3000)

    @pytest.mark.parametrize("kernel", [(1, 2, 1.0), (1, 2, 2.0), (2, 2, 1.5), (0, 2, 1.0)])
    def test_matches_mpmath_reference(self, kernel):
        f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(*kernel, 0.0))

        def no_deriv(k, x):
            raise AssertionError("the exact variation evaluates no jets")

        f.deriv = no_deriv
        for n in (2, 8):
            reference = _variation_mp(*kernel, n)
            for a in self.STARTS:
                tail = f.variation(n, a, math.inf)
                ref = reference(a, math.inf)
                assert ref <= tail <= ref * (1 + mp.mpf(1e-12)), (kernel, n, a)
                if a != 0.0:
                    # the short edge piece [0, a] is a difference of nearby values,
                    # whose rounding is small against the tail's scale, not its own
                    lo, hi = min(a, 0.0), max(a, 0.0)
                    edge = f.variation(n, lo, hi)
                    ref = reference(lo, hi)
                    assert ref <= edge <= ref + 1e-12 * tail, (kernel, n, a)

    def test_non_integer_regime_keeps_quadrature(self):
        f = mathieu.MathieuSmoothFunction(mathieu.MathieuParams(1.0, 1.5, 1.0, 0.0))
        assert f.monotone_pieces(2, 0.0, math.inf) is None


def _contains(res, truth) -> bool:
    return abs(mp.mpf(res.value) - truth) <= res.err_hi


@st.composite
def _plain_case(draw):
    """(params, t, tol, oracle) for the plain series, from a family with a closed form."""
    family = draw(st.sampled_from(["hurwitz", "poisson", "zeta"]))
    if family == "hurwitz":  # (1, 1, mu, 0): delta = mu, the closed tail at every t
        mu = draw(st.floats(1.05, 3.0))
        t = draw(st.sampled_from([0.0, 0.3, 1.0, 7.0, 49.0]) | st.floats(0.01, 49.0))
        return (1.0, 1.0, mu, 0.0), t, 1e-12, s_hurwitz_mp(mu, t)
    if family == "poisson":
        t = draw(st.floats(0.05, 49.0))
        return (0.0, 2.0, 0.0, 0.0), t, 1e-12, poisson_plain_mp(t)
    # t = 0, any kernel: S(0) = 2 zeta(delta, 1+u)
    gamma, alpha = draw(st.floats(0.0, 3.0)), draw(st.floats(0.5, 3.0))
    delta, u = draw(st.floats(1.05, 3.0)), draw(st.floats(-0.9, 2.0))
    params = (gamma, alpha, (delta + gamma) / alpha - 1.0, u)
    return params, 0.0, 1e-10, 2 * mp.zeta(exact_delta_mp(*params[:3]), 1 + mp.mpf(u))


@st.composite
def _alternating_case(draw):
    """(params, t, tol, oracle) for the alternating series, from a family with a closed form."""
    family = draw(st.sampled_from(["hurwitz", "poisson", "trigamma", "eta"]))
    if family == "hurwitz":  # delta = mu down to 0.05
        mu = draw(st.floats(0.05, 3.0))
        t = draw(st.sampled_from([0.0, 1.0, 7.0]) | st.floats(0.01, 20.0))
        return (1.0, 1.0, mu, 0.0), t, 1e-10, s_hurwitz_alt_mp(mu, t)
    if family == "poisson":
        t = draw(st.floats(0.05, 49.0))
        return (0.0, 2.0, 0.0, 0.0), t, 1e-10, poisson_alt_mp(t)
    if family == "trigamma":  # tol 1e-13 takes the bracket past the crossover
        u, t = draw(st.floats(-0.4, 1.5)), draw(st.floats(0.5, 20.0))
        return (1.0, 2.0, 1.0, u), t, 1e-13, s1_trigamma(t, u) - s1_trigamma(t / 2, u / 2) / 4
    gamma, alpha = draw(st.floats(0.0, 3.0)), draw(st.floats(0.5, 3.0))
    delta, u = draw(st.floats(0.05, 3.0)), draw(st.floats(-0.9, 2.0))
    params = (gamma, alpha, (delta + gamma) / alpha - 1.0, u)
    return params, 0.0, 1e-10, 2 * eta_hurwitz_mp(exact_delta_mp(*params[:3]), 1 + mp.mpf(u))


class TestClosedTail:
    """Slow tails closed by Euler-Maclaurin (Boole) on the shifted kernel."""

    @settings(max_examples=40, deadline=None)
    @given(case=_plain_case())
    def test_plain_soundness_property(self, case):
        params, t, tol, truth = case
        res = mathieu.eval_S(mathieu.MathieuParams(*params), t, tol)
        assert res.err_hi <= tol
        assert _contains(res, truth), (params, t, res)

    @settings(max_examples=40, deadline=None)
    @given(case=_alternating_case())
    def test_alternating_soundness_property(self, case):
        params, t, tol, truth = case
        res = mathieu.eval_S_alt(mathieu.MathieuParams(*params), t, tol)
        assert res.err_hi <= tol
        assert _contains(res, truth), (params, t, res)

    def test_closed_tail_past_every_head(self):
        # the tail alone, against the oracle minus an exact head, for heads
        # at and well past the 64-term minimum
        for alternating, params, t, truth in (
            (False, (1.0, 1.0, 1.5, 0.0), 3.0, s_hurwitz_mp(1.5, 3.0)),
            (True, (1.0, 1.0, 0.5, 0.0), 3.0, s_hurwitz_alt_mp(0.5, 3.0)),
            (False, (1.0, 1.0, 1.5, 0.0), 0.0, 2 * mp.zeta(1.5)),
            (True, (0.0, 2.0, 0.0, 0.0), 2.0, poisson_alt_mp(2.0)),
        ):
            p = mathieu.MathieuParams(*params)
            for head in (64, 65, 300):
                head_sum = mp.fsum((-1) ** ((k - 1) * alternating) * 2 * mp.mpf(k) ** p.gamma
                                   / (mp.mpf(k) ** p.alpha + mp.mpf(t) ** p.alpha) ** (p.mu + 1)
                                   for k in range(1, head + 1))
                value, radius, order = mathieu._closed_tail(p, t, alternating, head)
                assert order == mathieu.TAIL_ORDER
                assert abs(mp.mpf(value) - (truth - head_sum)) <= radius, (params, t, head)
                assert radius < 1e-13

    @pytest.mark.parametrize("t", [0.0, 1.0, 7.0, 49.0])
    def test_slow_alternating_inputs_now_succeed(self, t):
        # delta = 0.5 exhausted the 20M-term cap before the closed tail
        res = mathieu.eval_S_alt(mathieu.MathieuParams(1.0, 1.0, 0.5, 0.0), t, 1e-10)
        assert res.err_hi <= 1e-10
        assert res.order == mathieu.TAIL_ORDER
        assert _contains(res, s_hurwitz_alt_mp(0.5, t))

    def test_tiny_t_closes_with_the_t0_tail(self):
        # (64/t)^alpha leaves the float range; t^alpha <= 2^-100 lets the t = 0
        # tail stand in, its difference bounded (here far below any ulp)
        for t in (1e-31, 1e-200):
            res = mathieu.eval_S(mathieu.MathieuParams(1.0, 1.0, 1.5, 0.0), t, 1e-12)
            assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
            assert _contains(res, 2 * mp.zeta(1.5))
            res = mathieu.eval_S_alt(mathieu.MathieuParams(1.0, 2.0, 0.2, 0.0), t, 1e-12)
            assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
            assert _contains(res, 2 * eta_hurwitz_mp(exact_delta_mp(1.0, 2.0, 0.2), 1))

    def test_former_cap_input_closes_in_64_terms(self, monkeypatch):
        monkeypatch.setenv(mathieu.MAX_TERMS_ENV, "1000")
        res = mathieu.eval_S(mathieu.MathieuParams(0.0, 2.0, 0.05, 0.0), 1.0, 1e-12)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert res.err_hi <= 1e-12

    def test_roadmap_gate(self):
        # tol 1e-12 for delta near the convergence limits: a closed tail sums
        # at most 1,024 head terms; a series whose bracket meets tol below the
        # crossover keeps it.  (Far below, the float64 sum of a head past a
        # monotone index t/delta, or a value near 1/(delta-1), cannot hold
        # 1e-12: delta = 0.01 at t = 7, or delta = 1.01.)
        cases = [(True, d, t) for d in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0) for t in (0.0, 1.0)]
        cases += [(True, d, 7.0) for d in (0.1, 0.5, 2.0)]
        cases += [(False, d, t) for d in (1.05, 1.1, 1.2, 1.5, 3.0) for t in (0.0, 1.0, 7.0)]
        for alternating, delta, t in cases:
            params = mathieu.MathieuParams(1.0, 1.0, delta, 0.0)
            if alternating:
                res = mathieu.eval_S_alt(params, t, 1e-12)
                truth = s_hurwitz_alt_mp(delta, t)
            else:
                res = mathieu.eval_S(params, t, 1e-12)
                truth = s_hurwitz_mp(delta, t)
            assert res.err_hi <= 1e-12, (alternating, delta, t)
            assert _contains(res, truth), (alternating, delta, t)
            if res.order:
                assert res.terms_used <= 1024, (alternating, delta, t)
            else:
                assert res.terms_used <= mathieu.CROSSOVER, (alternating, delta, t)
        # both alternating Poisson points and a gamma = 0 kernel with delta = 0.5
        assert mathieu.eval_S_alt(mathieu.MathieuParams(0.0, 2.0, 0.0, 0.0), 1.0,
                                  1e-12).terms_used == 64
        res = mathieu.eval_S_alt(mathieu.MathieuParams(0.0, 2.0, -0.75, 0.0), 3.0, 1e-12)
        assert (res.terms_used, res.order) == (64, mathieu.TAIL_ORDER)
        assert res.err_hi <= 1e-12

    #: eval_em before the closed tail existed: (params, t, value, radius) as hex
    EM_REFERENCE = [
        ((1.0, 2.0, 1.0, 0.0), 50.0, "0x1.a367060743b5ap-12", "0x1.3799128190316p-60"),
        ((1.0, 2.0, 1.0, 0.0), 350.4, "0x1.1149d0d4fc2e2p-17", "0x1.8c5df44bfc3fdp-66"),
        ((1.0, 2.0, 1.0, 0.0), 10000.0, "0x1.5798ee196d32cp-27", "0x1.f25702f04d38ep-76"),
        ((1.0, 2.0, 1.0, 0.5), 50.0, "0x1.a346d22a31cdfp-12", "0x1.3798dfa9841e7p-60"),
        ((1.0, 2.0, 1.0, 0.5), 350.4, "0x1.1149636da2c17p-17", "0x1.8c5df44c0eca2p-66"),
        ((1.0, 2.0, 1.0, 0.5), 10000.0, "0x1.5798edee3126ep-27", "0x1.f25702f04d38ep-76"),
        ((1.0, 2.0, 2.0, 0.0), 50.0, "0x1.578d33606dcfcp-24", "0x1.930838bfc50efp-72"),
        ((1.0, 2.0, 2.0, 0.0), 350.4, "0x1.23be84af0098dp-35", "0x1.38adc29eedaa0p-83"),
        ((1.0, 2.0, 2.0, 0.0), 10000.0, "0x1.cd2b2963be432p-55", "0x1.ee4254203142cp-103"),
        ((2.0, 2.0, 1.5, 0.0), 50.0, "0x1.179ec9cbd821ap-12", "0x1.0eba39be1ef3dp-60"),
        ((2.0, 2.0, 1.5, 0.0), 350.4, "0x1.6c628c312f522p-18", "0x1.521e0b9d5ec5dp-66"),
        ((2.0, 2.0, 1.5, 0.0), 10000.0, "0x1.ca213d840baf1p-28", "0x1.a91abba88da10p-76"),
        ((0.0, 2.0, 1.0, 0.0), 50.0, "0x1.a049e97f7b24dp-17", "0x1.c9266bdb19d9cp-65"),
        ((0.0, 2.0, 1.0, 0.0), 350.4, "0x1.390f60e871907p-25", "0x1.50224aa65e50ep-73"),
        ((0.0, 2.0, 1.0, 0.0), 10000.0, "0x1.ba1c99286c354p-40", "0x1.d9dd6ee8bd7f2p-88"),
    ]

    def test_eval_em_is_the_unshifted_tail_bit_for_bit(self):
        for params, t, value, radius in self.EM_REFERENCE:
            res = mathieu.eval_em(mathieu.MathieuParams(*params), t)
            assert (res.value.hex(), res.err_lo.hex(), res.err_hi.hex()) == (value, radius, radius)
            assert (res.terms_used, res.order, res.method) == (0, 8, mathieu.EULER_MACLAURIN)

    def test_cold_and_warm_caches_give_the_same_result(self):
        calls = [(mathieu.eval_S, (1.0, 1.0, 1.5, 0.0), 2.5, 1e-10),
                 (mathieu.eval_S_alt, (0.0, 2.0, 0.0, 0.0), 1.0, 1e-10),
                 (mathieu.eval_S_alt, (1.0, 2.0, 0.3, -0.4), 3.0, 1e-11),
                 (mathieu.eval_em, (1.0, 2.0, 1.0, 0.5), 80.0, None)]
        for fn, params, t, tol in calls:
            for cache in (mathieu._kernel_derivative, mathieu._numerators,
                          mathieu._integer_numerator, mathieu._beta_args,
                          mathieu._closed_form_beta):
                cache.cache_clear()
            args = (mathieu.MathieuParams(*params), t) + ((tol,) if tol else ())
            cold, warm = fn(*args), fn(*args)
            assert cold == warm, (fn.__name__, params)
            assert cold.order == mathieu.TAIL_ORDER

    def test_bracket_results_report_order_zero(self):
        res = mathieu.eval_S(CLASSICAL, 1.0, 1e-10)
        assert (res.order, res.terms_used) == (0, 512)


class TestTheta:
    def test_phi_value(self):
        brute = math.fsum(2 * k * math.exp(-k * k) for k in range(1, 30))
        assert mathieu.phi_u(0.0, 1.0) == pytest.approx(brute, rel=1e-14)
        assert mathieu.phi_u(0.0, 1.0) == pytest.approx(0.8097627971426214, rel=1e-13)

    def test_phi_small_x_limit(self):
        assert mathieu.phi_u(0.0, 1e-6) == pytest.approx(1.0, abs=1e-5)

    def test_log_phi_consistency(self):
        for u, x in ((0.0, 0.5), (1.0, 2.0), (0.3, 10.0)):
            assert mathieu.log_phi_u(u, x) == pytest.approx(
                math.log(mathieu.phi_u(u, x)), abs=1e-12
            )

    def test_log_phi_far_tail(self):
        # phi underflows near x ~ 1500 but the log form keeps working
        val = mathieu.log_phi_u(0.0, 2000.0)
        assert val == pytest.approx(-2000.0 + math.log(2.0 * 2000.0), rel=1e-12)

    def test_log_phi_matches_oracle(self):
        for u in (0.0, 0.5, 2.0):
            for x in (0.01, 1.0, 30.0):
                truth = -log_phi_mp(u, x)
                assert abs(mathieu.log_phi_u(u, x) - truth) <= 1e-15 * max(1.0, abs(truth)), (u, x)

    def test_log_phi_domain(self):
        for u, x in ((0.0, 0.0), (0.0, math.inf), (0.0, math.nan), (-1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ParameterError):
                mathieu.log_phi_u(u, x)

    def test_log_ratio_bounds(self):
        for u in (0.0, 0.5, 1.0, 2.0):
            for x in (0.01, 0.5, 5.0, 40.0):
                val = -mathieu.log_phi_u(u, x) / x
                assert u * u + u < val < (1.0 + u) ** 2
